"""Sparse pairwise-distance overrides over a base metric.

:class:`PatchedMetric` answers ``d(u, v)`` from a small override table when
the pair has one, and from the wrapped base metric otherwise.  This is the
representation the sharded dynamic engine uses for distance events at scales
where no ``n × n`` matrix can exist: the base stays a lazy feature metric
(e.g. :class:`~repro.metrics.euclidean.EuclideanMetric` over the live point
rows) and each Type III/IV perturbation becomes one dictionary entry instead
of a matrix write.

Overrides compose with the lazy tier: :meth:`PatchedMetric.restrict_lazy`
re-maps the pool's overrides onto local indices and wraps the base's lazy
restriction, so the sharded solver's per-shard sub-metrics observe the
patches without materializing anything.  Every read walks the per-endpoint
index of the elements it is asked about, never the whole table, so a
long-lived overlay updated in place costs a read only the patches it touches.
Nothing here re-checks the triangle inequality — arbitrary overrides can
leave the relaxed-metric regime the paper's Section 8 discusses, which is the
caller's trade-off to make
(:func:`~repro.metrics.validation.pair_triangle_violations` is the cheap
per-change check when validation is wanted).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError, MetricError
from repro.metrics.base import Metric

__all__ = ["PatchedMetric"]


class PatchedMetric(Metric):
    """A base metric plus a sparse ``{(u, v): distance}`` override table.

    Parameters
    ----------
    base:
        The wrapped metric supplying every distance without an override.
    overrides:
        Mapping from unordered pairs to replacement distances.  Keys are
        normalized to ``u < v``; values must be finite and non-negative.
    """

    def __init__(
        self,
        base: Metric,
        overrides: Optional[Mapping[Tuple[Element, Element], float]] = None,
    ) -> None:
        self._base = base
        self._overrides: Dict[Tuple[int, int], float] = {}
        # Per-endpoint index: every read walks the patches of the elements it
        # is asked about through this, never the whole table.
        self._by_node: Dict[int, Dict[int, float]] = {}
        for (u, v), value in (overrides or {}).items():
            self.set_override(u, v, value)

    # ------------------------------------------------------------------
    # Override table
    # ------------------------------------------------------------------
    @property
    def base(self) -> Metric:
        """The wrapped metric."""
        return self._base

    def rebase(self, base: Metric) -> None:
        """Wrap ``base`` instead, keeping the override table.

        The dynamic engine calls this when inserts grow the point matrix
        under the overlay; ``base`` must still cover every overridden pair.
        """
        if self._by_node and max(self._by_node) >= base.n:
            raise InvalidParameterError(
                f"the new base covers {base.n} elements but overrides reach "
                f"element {max(self._by_node)}"
            )
        self._base = base

    @property
    def overrides(self) -> Dict[Tuple[int, int], float]:
        """The normalized override table (a copy)."""
        return dict(self._overrides)

    @property
    def num_overrides(self) -> int:
        """Number of overridden pairs."""
        return len(self._overrides)

    def set_override(self, u: Element, v: Element, value: float) -> None:
        """Set ``d(u, v) = d(v, u) = value`` as an override."""
        u, v = int(u), int(v)
        if u == v:
            raise InvalidParameterError("cannot override a self-distance")
        if not (0 <= u < self._base.n and 0 <= v < self._base.n):
            raise InvalidParameterError(
                f"override pair ({u}, {v}) outside the universe [0, {self._base.n})"
            )
        value = float(value)
        if not math.isfinite(value):
            raise MetricError("override distances must be finite")
        if value < 0:
            raise MetricError(f"distances must be non-negative, got {value}")
        if u > v:
            u, v = v, u
        self._overrides[(u, v)] = value
        self._by_node.setdefault(u, {})[v] = value
        self._by_node.setdefault(v, {})[u] = value

    def drop_overrides(self, elements: Iterable[Element]) -> None:
        """Remove every override touching any of ``elements``.

        The dynamic engine calls this when an element is deleted, so a later
        insert reusing the id does not inherit stale patches.
        """
        for u in {int(e) for e in elements}:
            for v in self._by_node.pop(u, {}):
                del self._overrides[(u, v) if u < v else (v, u)]
                partners = self._by_node[v]
                del partners[u]
                if not partners:
                    del self._by_node[v]

    # ------------------------------------------------------------------
    # Metric interface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._base.n

    def distance(self, u: Element, v: Element) -> float:
        key = (u, v) if u < v else (v, u)
        hit = self._overrides.get(key)
        if hit is not None:
            return hit
        return self._base.distance(u, v)

    def distances_from(self, u: Element, targets: Iterable[Element]) -> np.ndarray:
        idx = np.fromiter(targets, dtype=int)
        out = self._base.distances_from(u, idx)
        patch = self._by_node.get(int(u))
        if patch:
            out = np.array(out, copy=True)
            for i, t in enumerate(idx.tolist()):
                value = patch.get(t)
                if value is not None:
                    out[i] = value
        return out

    def row(self, u: Element) -> np.ndarray:
        out = self._base.row(u)
        patch = self._by_node.get(int(u))
        if patch:
            out = np.array(out, copy=True)
            for t, value in patch.items():
                out[t] = value
        return out

    def block(self, rows: Iterable[Element], cols: Iterable[Element]) -> np.ndarray:
        row_idx = np.asarray(rows, dtype=int)
        col_idx = np.asarray(cols, dtype=int)
        out = self._base.block(row_idx, col_idx)
        if not self._by_node:
            return out
        col_pos: Optional[Dict[int, list]] = None
        for i, r in enumerate(row_idx.tolist()):
            patch = self._by_node.get(r)
            if not patch:
                continue
            if col_pos is None:
                col_pos = {}
                for j, c in enumerate(col_idx.tolist()):
                    col_pos.setdefault(c, []).append(j)
            for t, value in patch.items():
                for j in col_pos.get(t, ()):
                    out[i, j] = value
        return out

    def to_matrix(self) -> np.ndarray:
        matrix = self._base.to_matrix()
        for (u, v), value in self._overrides.items():
            matrix[u, v] = value
            matrix[v, u] = value
        return matrix

    def matrix_view(self) -> Optional[np.ndarray]:
        # With patches pending, the base's view would bypass them; only an
        # unpatched wrapper may expose the fast path.
        if self._overrides:
            return None
        return self._base.matrix_view()

    def restrict_lazy(self, elements: Iterable[Element]) -> Optional[Metric]:
        from repro.utils.validation import check_candidate_pool

        pool = check_candidate_pool(elements, self.n)
        lazy = self._base.restrict_lazy(pool)
        if lazy is None:
            return None
        remapped = self._remapped(pool)
        if not remapped:
            return lazy
        return PatchedMetric(lazy, remapped)

    def restrict(self, elements: Iterable[Element]) -> Metric:
        from repro.metrics.matrix import DistanceMatrix
        from repro.utils.validation import check_candidate_pool

        pool = check_candidate_pool(elements, self.n)
        sub = self._base.restrict(pool)
        remapped = self._remapped(pool)
        if not remapped:
            return sub
        matrix = sub.to_matrix()
        for (a, b), value in remapped.items():
            matrix[a, b] = value
            matrix[b, a] = value
        return DistanceMatrix(matrix, copy=False)

    def _remapped(self, pool: np.ndarray) -> Dict[Tuple[int, int], float]:
        """The overrides between members of ``pool``, in pool-local indices."""
        if not self._by_node:
            return {}
        positions = {g: i for i, g in enumerate(pool.tolist())}
        remapped: Dict[Tuple[int, int], float] = {}
        for g, i in positions.items():
            for t, value in self._by_node.get(g, {}).items():
                j = positions.get(t)
                if j is not None and i < j:
                    remapped[(i, j)] = value
        return remapped

    @property
    def parallel_safe(self) -> bool:
        # Dictionary reads of a table that is not mutated during solves are
        # as safe as the base's array reads.
        return self._base.parallel_safe

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PatchedMetric(n={self.n}, overrides={len(self._overrides)}, "
            f"base={type(self._base).__name__})"
        )
