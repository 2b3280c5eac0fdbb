"""Euclidean metric over feature vectors.

Used by the geographic / facility-location example scenarios (the dispersion
roots of the problem in location theory, Section 3) and by the portfolio
generator where stocks are embedded by their risk/return profile.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.metrics.base import Metric
from repro.utils.validation import check_finite_array

#: Upper bound on the number of floats a chunked block computation may hold
#: in its intermediate ``chunk × cols × d`` difference tensor (32 MiB).
_BLOCK_CHUNK_FLOATS = 4 << 20


class EuclideanMetric(Metric):
    """The ℓ2 distance between rows of a point matrix.

    Parameters
    ----------
    points:
        Array of shape ``(n, d)``; row ``i`` is the embedding of element ``i``.
    """

    def __init__(self, points: np.ndarray) -> None:
        array = np.asarray(points, dtype=float)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2:
            raise InvalidParameterError("points must be a 1-D or 2-D array")
        check_finite_array("points", array)
        self._points = array

    @property
    def n(self) -> int:
        return self._points.shape[0]

    @property
    def dimension(self) -> int:
        """Dimensionality of the embedding space."""
        return self._points.shape[1]

    @property
    def points(self) -> np.ndarray:
        """The underlying point matrix (read-only view semantics by convention)."""
        return self._points

    def distance(self, u: Element, v: Element) -> float:
        diff = self._points[u] - self._points[v]
        return float(np.sqrt(np.dot(diff, diff)))

    def distances_from(self, u: Element, targets: Iterable[Element]) -> np.ndarray:
        idx = np.fromiter(targets, dtype=int)
        if idx.size == 0:
            return np.zeros(0, dtype=float)
        diff = self._points[idx] - self._points[u]
        return np.sqrt(np.sum(diff * diff, axis=1))

    def row(self, u: Element) -> np.ndarray:
        diff = self._points - self._points[u]
        return np.sqrt(np.sum(diff * diff, axis=1))

    def block(self, rows: Iterable[Element], cols: Iterable[Element]) -> np.ndarray:
        """Chunked ``rows × cols`` distance block with bounded peak memory.

        Row chunks are sized so the intermediate ``chunk × |cols| × d``
        difference tensor never exceeds a fixed budget, making shard-sized
        block requests safe at any universe size.  Each entry is computed with
        the same subtract–square–sum–sqrt pipeline as :meth:`distances_from`,
        so both tiers agree bitwise.
        """
        row_idx = np.asarray(rows, dtype=int)
        col_idx = np.asarray(cols, dtype=int)
        col_points = self._points[col_idx]
        out = np.empty((row_idx.size, col_idx.size), dtype=float)
        per_row = max(col_idx.size * self.dimension, 1)
        chunk = max(_BLOCK_CHUNK_FLOATS // per_row, 1)
        for start in range(0, row_idx.size, chunk):
            stop = min(start + chunk, row_idx.size)
            diff = self._points[row_idx[start:stop], None, :] - col_points[None, :, :]
            out[start:stop] = np.sqrt(np.sum(diff * diff, axis=-1))
        return out

    def _restrict_lazy(self, pool: np.ndarray) -> "EuclideanMetric":
        """Lazy restriction: slice the point matrix (O(k·d), never O(k²))."""
        return EuclideanMetric(self._points[pool])

    @property
    def parallel_safe(self) -> bool:
        return True

    def to_matrix(self) -> np.ndarray:
        diff = self._points[:, None, :] - self._points[None, :, :]
        matrix = np.sqrt(np.sum(diff * diff, axis=-1))
        np.fill_diagonal(matrix, 0.0)
        return matrix
