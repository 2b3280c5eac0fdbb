"""Abstract metric interface.

All diversification algorithms in :mod:`repro.core` interact with distances
through this interface, so any structure that can answer ``distance(u, v)``
queries (an explicit matrix, a feature-vector metric, a wrapper around an
external index) can be plugged in.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

from repro._types import Element
from repro.utils.validation import check_candidate_pool


class Metric(ABC):
    """A symmetric, non-negative distance over ``{0, ..., n-1}``.

    Subclasses must implement :meth:`distance` and :attr:`n`.  The default
    implementations of the bulk helpers fall back to pairwise queries;
    concrete metrics override them with array versions.

    The algorithms read distances through :meth:`block` (plus :meth:`row`
    for the marginal tracker), so every metric runs the same array code path
    in :mod:`repro.core.kernels`.  What differs is storage:

    * **Materialized metrics** hold the full ``n x n`` array, expose it
      through :meth:`matrix_view` without a copy, and serve blocks as slices.
    * **Lazy metrics** compute blocks on demand — feature metrics as chunked
      array operations, a metric that only implements :meth:`distance`
      through the base default below — and may offer :meth:`restrict_lazy`,
      a copy-light sub-metric that stays lazy.  The sharded core-set solver
      (:mod:`repro.core.sharding`) is built on them: it lets ``n`` grow to
      the hundreds of thousands while only ever materializing per-shard
      blocks.
    """

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of elements in the ground set."""

    @abstractmethod
    def distance(self, u: Element, v: Element) -> float:
        """Return ``d(u, v)``.  Must be symmetric with ``d(u, u) == 0``."""

    # ------------------------------------------------------------------
    # Bulk helpers
    # ------------------------------------------------------------------
    def distances_from(self, u: Element, targets: Iterable[Element]) -> np.ndarray:
        """Return the vector of distances from ``u`` to each target."""
        return np.array([self.distance(u, v) for v in targets], dtype=float)

    def row(self, u: Element) -> np.ndarray:
        """Return the full distance row ``(d(u, 0), ..., d(u, n-1))``.

        Matrix-backed metrics return a *view* into their storage, so callers
        must treat the result as read-only.  The default implementation falls
        back to :meth:`distances_from` over the whole ground set.
        """
        return self.distances_from(u, range(self.n))

    def block(self, rows: Iterable[Element], cols: Iterable[Element]) -> np.ndarray:
        """Return the distance block ``B[i, j] = d(rows[i], cols[j])``.

        The distance source of every pair and swap scan: callers ask for
        exactly the sub-block they need (a shard's ``k × k`` submatrix, a
        candidate-to-solution strip) and no global ``n × n`` array is ever
        formed.  Indices may repeat and need not be sorted; the result is a
        fresh array the caller owns.

        The default implementation performs one :meth:`distances_from` sweep
        per row — vectorized for feature metrics, an O(|rows|·|cols|) oracle
        loop otherwise.  :class:`~repro.metrics.euclidean.EuclideanMetric` and
        :class:`~repro.metrics.cosine.CosineMetric` override it with chunked
        array implementations whose peak memory stays bounded regardless of
        block shape.
        """
        row_idx = np.asarray(rows, dtype=int)
        col_idx = np.asarray(cols, dtype=int)
        out = np.empty((row_idx.size, col_idx.size), dtype=float)
        for i, u in enumerate(row_idx):
            out[i] = self.distances_from(int(u), col_idx)
        return out

    def restrict_lazy(self, elements: Iterable[Element]) -> Optional["Metric"]:
        """Return a *lazy* sub-metric on ``elements``, or ``None``.

        Unlike :meth:`restrict` — which may materialize the induced ``k × k``
        matrix — a lazy restriction keeps computing distances on demand from
        O(k) state (e.g. a slice of the feature matrix).  The sharded solver
        prefers this for algorithms that never need the full shard matrix.
        Metrics without a cheap lazy form return ``None`` (the default) and
        callers fall back to :meth:`restrict`.  The pool is checked here and
        its canonical index array handed to :meth:`_restrict_lazy`.
        """
        return self._restrict_lazy(check_candidate_pool(elements, self.n))

    def _restrict_lazy(self, pool: np.ndarray) -> Optional["Metric"]:
        """:meth:`restrict_lazy` on a checked pool (the hook families override)."""
        return None

    @property
    def parallel_safe(self) -> bool:
        """Whether concurrent reads from multiple threads are safe.

        ``True`` only when every distance query is a pure read of immutable
        NumPy state (explicit matrices, feature-vector metrics), which is what
        the thread-pooled shard map in :mod:`repro.core.sharding` and the
        batched front end require.  Arbitrary user oracles make no such
        promise, so the base default is ``False``.
        """
        return False

    def matrix_view(self) -> Optional[np.ndarray]:
        """Return the underlying ``n x n`` matrix without copying, or ``None``.

        Materialized metrics return their storage, which lets storage-level
        callers (aggregates, the sharded solver's materialize-or-not choice,
        the dynamic engine) skip block construction; lazy metrics return
        ``None``.  The returned array is shared storage — callers must never
        mutate it.
        """
        return None

    def to_matrix(self) -> np.ndarray:
        """Materialize the full ``n x n`` distance matrix."""
        n = self.n
        matrix = np.zeros((n, n), dtype=float)
        for u in range(n):
            for v in range(u + 1, n):
                d = self.distance(u, v)
                matrix[u, v] = d
                matrix[v, u] = d
        return matrix

    def restrict(self, elements: Iterable[Element]) -> "Metric":
        """Return the sub-metric induced by ``elements``, re-indexed from 0.

        Local element ``i`` of the restricted metric is ``pool[i]`` in this
        metric, where ``pool`` is ``elements`` deduplicated in first-seen
        order; it is checked here and handed to :meth:`_restrict`.  The
        default implementation materializes the induced ``k×k`` submatrix
        through pairwise queries (O(k²) oracle calls, never O(n²));
        matrix-backed metrics override it with slicing, which is copy-free
        for uniform-stride pools.
        """
        return self._restrict(check_candidate_pool(elements, self.n))

    def _restrict(self, pool: np.ndarray) -> "Metric":
        """:meth:`restrict` on a checked pool (the hook families override)."""
        from repro.metrics.matrix import DistanceMatrix

        pool = pool.tolist()
        size = len(pool)
        matrix = np.zeros((size, size), dtype=float)
        for i, u in enumerate(pool):
            row = self.distances_from(u, pool[i + 1 :])
            matrix[i, i + 1 :] = row
            matrix[i + 1 :, i] = row
        return DistanceMatrix(matrix, copy=False)

    def pairs(self) -> Iterator[Tuple[Element, Element, float]]:
        """Yield every unordered pair ``(u, v, d(u, v))`` with ``u < v``."""
        n = self.n
        for u in range(n):
            for v in range(u + 1, n):
                yield u, v, self.distance(u, v)

    def elements(self) -> range:
        """Return the range of valid element indices."""
        return range(self.n)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"
