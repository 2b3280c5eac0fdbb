"""Cosine-distance metric over feature vectors.

Section 7.2 of the paper defines the document distance as the cosine
(dis)similarity between LETOR feature vectors.  Cosine *distance*
``1 - cos(u, v)`` on non-negative vectors is a well-behaved semi-metric; on
unit-normalized non-negative vectors it satisfies the triangle inequality up
to a small relaxation factor, and the library's relaxed-metric utilities can
quantify that factor (Section 8 / Sydow's 2α result).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.metrics.base import Metric
from repro.utils.validation import check_finite_array

#: Upper bound on the floats held by one chunk of a block computation.
_BLOCK_CHUNK_FLOATS = 4 << 20


class CosineMetric(Metric):
    """``d(u, v) = 1 - cos(x_u, x_v)`` over rows of a feature matrix.

    Parameters
    ----------
    features:
        Array of shape ``(n, d)`` with no all-zero rows.
    shift:
        Optional constant added to every off-diagonal distance.  A positive
        shift (the generators use it) makes the distance a true metric: any
        semi-metric with values in ``[shift, 2·shift]`` satisfies the triangle
        inequality.
    """

    def __init__(self, features: np.ndarray, *, shift: float = 0.0) -> None:
        array = np.asarray(features, dtype=float)
        if array.ndim != 2:
            raise InvalidParameterError("features must be a 2-D array")
        # Finiteness before the norm test: a NaN feature row yields a NaN
        # norm, which passes ``norms == 0`` and poisons every distance.
        check_finite_array("features", array)
        norms = np.linalg.norm(array, axis=1)
        if np.any(norms == 0):
            raise InvalidParameterError("feature vectors must be non-zero")
        if shift < 0:
            raise InvalidParameterError("shift must be non-negative")
        self._unit = array / norms[:, None]
        self._shift = float(shift)

    @classmethod
    def _from_unit(cls, unit: np.ndarray, shift: float) -> "CosineMetric":
        """Wrap already-normalized rows without re-normalizing.

        The single alternate construction path (used by :meth:`restrict_lazy`
        so sub-metric distances stay bitwise identical to the parent's); keep
        it in sync with any state ``__init__`` gains.
        """
        metric = cls.__new__(cls)
        metric._unit = unit
        metric._shift = float(shift)
        return metric

    @property
    def n(self) -> int:
        return self._unit.shape[0]

    @property
    def shift(self) -> float:
        """The additive shift applied to off-diagonal distances."""
        return self._shift

    def distance(self, u: Element, v: Element) -> float:
        if u == v:
            return 0.0
        cos = float(np.clip(np.dot(self._unit[u], self._unit[v]), -1.0, 1.0))
        return max(1.0 - cos, 0.0) + self._shift

    def distances_from(self, u: Element, targets: Iterable[Element]) -> np.ndarray:
        idx = np.fromiter(targets, dtype=int)
        if idx.size == 0:
            return np.zeros(0, dtype=float)
        cos = np.clip(self._unit[idx] @ self._unit[u], -1.0, 1.0)
        distances = np.maximum(1.0 - cos, 0.0) + self._shift
        distances[idx == u] = 0.0
        return distances

    def row(self, u: Element) -> np.ndarray:
        cos = np.clip(self._unit @ self._unit[u], -1.0, 1.0)
        distances = np.maximum(1.0 - cos, 0.0) + self._shift
        distances[u] = 0.0
        return distances

    def block(self, rows: Iterable[Element], cols: Iterable[Element]) -> np.ndarray:
        """Chunked ``rows × cols`` distance block with bounded peak memory.

        Row chunks keep each GEMM product under a fixed float budget; entries
        with equal row and column index are zeroed so the block agrees with
        :meth:`distance` on the diagonal even when a shift is applied.
        """
        row_idx = np.asarray(rows, dtype=int)
        col_idx = np.asarray(cols, dtype=int)
        col_unit = self._unit[col_idx]
        out = np.empty((row_idx.size, col_idx.size), dtype=float)
        chunk = max(_BLOCK_CHUNK_FLOATS // max(col_idx.size, 1), 1)
        for start in range(0, row_idx.size, chunk):
            stop = min(start + chunk, row_idx.size)
            cos = np.clip(self._unit[row_idx[start:stop]] @ col_unit.T, -1.0, 1.0)
            part = np.maximum(1.0 - cos, 0.0) + self._shift
            part[row_idx[start:stop, None] == col_idx[None, :]] = 0.0
            out[start:stop] = part
        return out

    def _restrict_lazy(self, pool: np.ndarray) -> "CosineMetric":
        """Lazy restriction: slice the unit-vector matrix (O(k·d), never O(k²))."""
        return CosineMetric._from_unit(self._unit[pool], self._shift)

    @property
    def parallel_safe(self) -> bool:
        return True

    def to_matrix(self) -> np.ndarray:
        cos = np.clip(self._unit @ self._unit.T, -1.0, 1.0)
        matrix = np.maximum(1.0 - cos, 0.0) + self._shift
        np.fill_diagonal(matrix, 0.0)
        return (matrix + matrix.T) / 2.0
