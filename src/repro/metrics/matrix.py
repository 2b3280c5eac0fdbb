"""Explicit pairwise-distance matrices.

:class:`DistanceMatrix` is the work-horse representation: the synthetic and
LETOR-like generators produce one, the dynamic-update engine mutates one, and
every other metric can be materialized into one via
:meth:`repro.metrics.base.Metric.to_matrix`.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError, MetricError
from repro.metrics.base import Metric
from repro.utils.validation import check_finite_array


class DistanceMatrix(Metric):
    """A metric backed by an explicit symmetric ``n x n`` matrix.

    Parameters
    ----------
    matrix:
        Square array of pairwise distances.  The constructor symmetrizes
        nothing: a non-symmetric or negative input raises
        :class:`~repro.exceptions.MetricError`.
    validate_triangle:
        When ``True`` the constructor additionally verifies the triangle
        inequality exactly (O(n^3)); useful in tests, too slow for large
        instances.
    copy:
        Whether to copy the input array.  The dynamic-update engine passes
        ``copy=False`` to share storage it is allowed to mutate.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        validate_triangle: bool = False,
        copy: bool = True,
    ) -> None:
        array = np.array(matrix, dtype=float, copy=copy)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise InvalidParameterError(
                f"distance matrix must be square, got shape {array.shape}"
            )
        # Finiteness first: NaN would fail the symmetry allclose with a
        # misleading message, and +inf would sail straight through the
        # non-negativity check into argmax-based selection.
        check_finite_array("distance matrix", array)
        if not np.allclose(array, array.T, atol=1e-12):
            raise MetricError("distance matrix must be symmetric")
        if np.any(array < 0):
            raise MetricError("distances must be non-negative")
        if not np.allclose(np.diag(array), 0.0, atol=1e-12):
            raise MetricError("self-distances d(u, u) must be zero")
        self._matrix = array
        # Shared read-only view handed to the kernel layer: mutations must go
        # through set_distance/array so the metric axioms stay enforceable.
        self._matrix_view = array.view()
        self._matrix_view.flags.writeable = False
        if validate_triangle:
            from repro.metrics.validation import check_metric

            check_metric(self)

    # ------------------------------------------------------------------
    # Metric interface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._matrix.shape[0]

    def distance(self, u: Element, v: Element) -> float:
        return float(self._matrix[u, v])

    def distances_from(self, u: Element, targets: Iterable[Element]) -> np.ndarray:
        idx = np.fromiter(targets, dtype=int)
        if idx.size == 0:
            return np.zeros(0, dtype=float)
        return self._matrix[u, idx]

    def row(self, u: Element) -> np.ndarray:
        return self._matrix_view[u]

    def matrix_view(self) -> np.ndarray:
        return self._matrix_view

    def block(self, rows: Iterable[Element], cols: Iterable[Element]) -> np.ndarray:
        row_idx = np.asarray(rows, dtype=int)
        col_idx = np.asarray(cols, dtype=int)
        return self._matrix[np.ix_(row_idx, col_idx)]

    @property
    def parallel_safe(self) -> bool:
        return True

    def to_matrix(self) -> np.ndarray:
        return self._matrix.copy()

    # ------------------------------------------------------------------
    # Mutation (dynamic updates, Section 6)
    # ------------------------------------------------------------------
    @property
    def array(self) -> np.ndarray:
        """The underlying matrix (mutations must preserve metric axioms)."""
        return self._matrix

    def set_distance(self, u: Element, v: Element, value: float) -> None:
        """Set ``d(u, v) = d(v, u) = value`` (used by distance perturbations)."""
        if u == v:
            raise InvalidParameterError("cannot change a self-distance")
        if value < 0:
            raise MetricError(f"distances must be non-negative, got {value}")
        self._matrix[u, v] = value
        self._matrix[v, u] = value

    def set_distances(
        self,
        us: np.ndarray,
        vs: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Vectorized batch of :meth:`set_distance` writes.

        One fancy-indexed symmetric assignment for a whole tick of distance
        events; with a repeated pair the last assignment wins, matching a
        sequential loop.
        """
        us = np.asarray(us, dtype=int)
        vs = np.asarray(vs, dtype=int)
        vals = np.asarray(values, dtype=float)
        if us.shape != vs.shape or us.shape != vals.shape:
            raise InvalidParameterError("us, vs and values must have matching shapes")
        if np.any(us == vs):
            raise InvalidParameterError("cannot change a self-distance")
        check_finite_array("distances", vals)
        if np.any(vals < 0):
            raise MetricError("distances must be non-negative")
        self._matrix[us, vs] = vals
        self._matrix[vs, us] = vals

    def copy(self) -> "DistanceMatrix":
        """Return an independent copy of this matrix."""
        return DistanceMatrix(self._matrix, copy=True)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_points(
        cls, points: np.ndarray, *, metric: str = "euclidean"
    ) -> "DistanceMatrix":
        """Build the matrix of pairwise distances between row vectors.

        Parameters
        ----------
        points:
            Array of shape ``(n, d)``.
        metric:
            Either ``"euclidean"`` or ``"cosine"``.
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise InvalidParameterError("points must be a 2-D array")
        if metric == "euclidean":
            diff = points[:, None, :] - points[None, :, :]
            matrix = np.sqrt(np.sum(diff * diff, axis=-1))
        elif metric == "cosine":
            norms = np.linalg.norm(points, axis=1)
            if np.any(norms == 0):
                raise InvalidParameterError(
                    "cosine distance requires non-zero feature vectors"
                )
            unit = points / norms[:, None]
            similarity = np.clip(unit @ unit.T, -1.0, 1.0)
            matrix = 1.0 - similarity
        else:
            raise InvalidParameterError(f"unknown metric kind {metric!r}")
        np.fill_diagonal(matrix, 0.0)
        matrix = np.maximum(matrix, 0.0)
        # Enforce exact symmetry despite floating point noise.
        matrix = (matrix + matrix.T) / 2.0
        return cls(matrix, copy=False)

    @classmethod
    def zeros(cls, n: int) -> "DistanceMatrix":
        """An all-zero 'metric' (useful for pure quality maximization tests)."""
        if n < 0:
            raise InvalidParameterError("n must be non-negative")
        return cls(np.zeros((n, n)), copy=False)

    def _restrict(self, pool: np.ndarray) -> "DistanceMatrix":
        """The sub-matrix induced by a checked pool (re-indexed).

        A pool forming a uniform-stride range (any contiguous ``a..b``, or
        every ``s``-th element of one) returns a **copy-free view** into this
        matrix's storage: it costs O(1), reflects later mutations of the
        parent, and is read-only.  Any other pool materializes an independent
        ``k×k`` submatrix copy.  Both paths skip the constructor's axiom
        checks — a principal submatrix of a valid metric is itself valid.
        """
        block = self._strided_block(pool)
        if block is None:
            block = self._matrix[np.ix_(pool, pool)]
        return DistanceMatrix._from_trusted(block)

    def _strided_block(self, idx: np.ndarray) -> Optional[np.ndarray]:
        """A basic-slicing view covering ``idx``, or ``None`` if fancy indexing
        (and hence a copy) is unavoidable."""
        if idx.size == 0:
            return self._matrix[:0, :0]
        if idx.size == 1:
            u = int(idx[0])
            return self._matrix[u : u + 1, u : u + 1]
        step = int(idx[1] - idx[0])
        if step < 1:
            return None
        start, stop = int(idx[0]), int(idx[-1]) + 1
        if not np.array_equal(idx, np.arange(start, stop, step)):
            return None
        return self._matrix[start:stop:step, start:stop:step]

    @staticmethod
    def _from_trusted(array: np.ndarray) -> "DistanceMatrix":
        """Wrap an already-valid (sub)matrix without re-running axiom checks.

        Used by :meth:`restrict`: re-validating a submatrix would cost the
        O(k²) the restriction layer exists to avoid.  Views (shared storage)
        are marked read-only so accidental mutation through the restriction
        fails instead of corrupting the parent metric.
        """
        instance = object.__new__(DistanceMatrix)
        if array.base is not None:
            array = array.view()
            array.flags.writeable = False
        instance._matrix = array
        view = array.view()
        view.flags.writeable = False
        instance._matrix_view = view
        return instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DistanceMatrix(n={self.n})"


class GrowableDistanceMatrix(DistanceMatrix):
    """A :class:`DistanceMatrix` with amortized-O(n) element insertion.

    The dynamic engine's storage tier: the matrix lives inside a
    capacity-doubled square buffer, so inserting an element writes one new
    row/column (O(n)) instead of reallocating and copying the full O(n²)
    array per event — reallocation happens only when capacity is exhausted,
    which amortizes to O(n) per insert.

    Deletion is *deactivation*: the slot keeps its index (all live element
    ids stay stable), its row and column are zeroed, and the slot is queued
    for reuse by later inserts (lowest freed id first, so insert/delete
    round trips are deterministic).  :attr:`n` therefore counts **slots**
    (live + retired); callers that must skip retired elements — candidate
    scans, solvers — restrict themselves to :meth:`active_ids`.  A zeroed
    slot can never win a swap/addition argmax (weight 0, distance 0
    everywhere), so kernels operating on the full slot range stay correct.
    """

    def __init__(
        self,
        matrix: np.ndarray,
        *,
        validate_triangle: bool = False,
        copy: bool = True,
    ) -> None:
        super().__init__(matrix, validate_triangle=validate_triangle, copy=copy)
        # The parent set _matrix to the validated n×n array; adopt it as the
        # initial storage (capacity == n) and carve the slot views.
        self._storage = np.ascontiguousarray(self._matrix)
        self._slots = self._storage.shape[0]
        self._active = np.ones(self._slots, dtype=bool)
        self._free: list = []
        self._rebind_views()

    # ------------------------------------------------------------------
    # Storage management
    # ------------------------------------------------------------------
    def _rebind_views(self) -> None:
        self._matrix = self._storage[: self._slots, : self._slots]
        view = self._matrix.view()
        view.flags.writeable = False
        self._matrix_view = view

    @property
    def capacity(self) -> int:
        """Allocated slot capacity (grows by doubling)."""
        return self._storage.shape[0]

    def _ensure_capacity(self, slots: int) -> None:
        capacity = self._storage.shape[0]
        if slots <= capacity:
            return
        new_capacity = max(2 * capacity, slots, 4)
        storage = np.zeros((new_capacity, new_capacity), dtype=float)
        storage[: self._slots, : self._slots] = self._matrix
        self._storage = storage
        self._active = np.concatenate(
            [self._active, np.zeros(new_capacity - self._active.size, dtype=bool)]
        )[:new_capacity]
        self._rebind_views()

    # ------------------------------------------------------------------
    # Active-set accounting
    # ------------------------------------------------------------------
    @property
    def active_count(self) -> int:
        """Number of live (non-retired) elements."""
        return int(self._active[: self._slots].sum())

    def active_ids(self) -> np.ndarray:
        """Sorted ids of the live elements."""
        return np.nonzero(self._active[: self._slots])[0]

    @property
    def active_mask(self) -> np.ndarray:
        """Read-only boolean liveness mask over the slot range."""
        view = self._active[: self._slots].view()
        view.flags.writeable = False
        return view

    def is_active(self, element: Element) -> bool:
        """Whether ``element`` is a live slot."""
        return 0 <= element < self._slots and bool(self._active[element])

    # ------------------------------------------------------------------
    # Mutation: insert / deactivate
    # ------------------------------------------------------------------
    def insert(self, distances: np.ndarray) -> Element:
        """Add an element and return its id (a reused slot or a fresh one).

        ``distances`` is the new element's distance to every existing slot
        (length :attr:`n`); entries at retired slots are ignored and stored
        as 0.  Freed slots are reused lowest-id-first; otherwise a new slot
        is appended, doubling the buffer when capacity runs out.
        """
        row = np.asarray(distances, dtype=float)
        if row.ndim != 1 or row.shape[0] != self._slots:
            raise InvalidParameterError(
                f"insert needs a distance row of length {self._slots}, "
                f"got shape {row.shape}"
            )
        check_finite_array("insert distances", row)
        if np.any(row < 0):
            raise MetricError("distances must be non-negative")
        row = np.where(self._active[: self._slots], row, 0.0)
        if self._free:
            slot = self._free.pop(0)
        else:
            slot = self._slots
            self._ensure_capacity(self._slots + 1)
            self._slots += 1
            self._rebind_views()
        self._matrix[slot, :] = 0.0
        self._matrix[:, slot] = 0.0
        self._matrix[slot, : row.size] = row
        self._matrix[: row.size, slot] = row
        self._matrix[slot, slot] = 0.0
        self._active[slot] = True
        return int(slot)

    def deactivate(self, elements: Iterable[Element]) -> None:
        """Retire elements: zero their rows/columns and queue slots for reuse."""
        idx = np.asarray(list(elements), dtype=int)
        if idx.size == 0:
            return
        if np.any((idx < 0) | (idx >= self._slots)) or not np.all(self._active[idx]):
            raise InvalidParameterError("can only deactivate live elements")
        self._matrix[idx, :] = 0.0
        self._matrix[:, idx] = 0.0
        self._active[idx] = False
        self._free = sorted(set(self._free) | set(idx.tolist()))

    def copy(self) -> "GrowableDistanceMatrix":
        """Independent copy preserving slot layout and the free list."""
        clone = GrowableDistanceMatrix(self._matrix, copy=True)
        clone._active[: self._slots] = self._active[: self._slots]
        clone._free = list(self._free)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GrowableDistanceMatrix(active={self.active_count}, "
            f"slots={self._slots}, capacity={self.capacity})"
        )


def as_distance_matrix(
    metric: Metric, *, copy: Optional[bool] = None
) -> DistanceMatrix:
    """Coerce any :class:`Metric` into a :class:`DistanceMatrix`.

    Matrix-backed metrics are returned as-is unless ``copy`` is ``True``.
    """
    if isinstance(metric, DistanceMatrix):
        return metric.copy() if copy else metric
    return DistanceMatrix(metric.to_matrix(), copy=False)
