"""First-class sub-universe restrictions (query-scoped candidate pools).

A production diversifier serves queries against one shared corpus: the metric
(and the quality weights) cover the whole universe, but each query selects
from its own candidate pool.  :class:`Restriction` is the one mechanism that
narrows an instance to a pool:

1. build the index-remapped sub-instance — a weight-vector slice for modular
   quality (:meth:`~repro.functions.base.SetFunction.restrict`), a submatrix
   view of the distance matrix (:meth:`~repro.metrics.base.Metric.restrict`,
   copy-free for uniform-stride pools), and, when a matroid constraint is in
   play, the restricted matroid (:meth:`~repro.matroids.base.Matroid.restrict`);
2. run the unmodified algorithm — kernels included — on the sub-instance;
3. :meth:`Restriction.lift` the result back into the corpus' indices.

The algorithms themselves take no pool.  The front doors that do —
:func:`~repro.core.solver.solve`, :func:`~repro.core.sharding.solve_sharded`
and :meth:`~repro.serve.PreparedCorpus.solve_window` (which also serves
:func:`~repro.core.batch.solve_many`) — build the restriction and run the
rest through :func:`~repro.core.solver.solve_restricted`; any other caller
runs the three steps directly::

    restriction = objective.restrict(pool)
    result = restriction.lift(greedy_diversify(restriction.objective, p))

A pool is checked once, where it enters
(:func:`~repro.utils.validation.check_candidate_pool`): in
:class:`Restriction` (behind ``Objective.restrict``), in ``solve``, in
``solve_sharded`` or in ``PreparedCorpus.restriction_for``.  Step 1 hands
the canonical index array to the families' ``_restrict`` hooks, which take
it as checked; the public ``restrict`` methods check their own input.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro._types import Element
from repro.core.objective import Objective
from repro.core.result import SolverResult
from repro.exceptions import InvalidParameterError
from repro.metrics.base import Metric
from repro.utils.validation import check_candidate_pool

__all__ = ["Restriction"]


class Restriction:
    """An index-remapped view of an :class:`Objective` on a candidate pool.

    Parameters
    ----------
    objective:
        The full-universe objective.
    candidates:
        The candidate pool, checked and deduplicated in first-seen order;
        local element ``i`` of the restricted instance is ``candidates[i]``.

    Attributes
    ----------
    objective:
        The restricted objective (quality slice + submatrix metric, same λ).
        Subset values are preserved: for any local set ``S``,
        ``restricted.value(S) == base.value(to_global(S))``.
    """

    def __init__(self, objective: Objective, candidates: Iterable[Element]) -> None:
        pool = check_candidate_pool(candidates, objective.n)
        self._build(objective, pool, objective.metric._restrict(pool))

    @classmethod
    def _from_trusted(
        cls, objective: Objective, pool: np.ndarray, metric: Metric
    ) -> "Restriction":
        """The restriction on a checked ``pool`` whose sub-metric the caller
        built (the corpus cache, the sharded solver's shards and core-set)."""
        restriction = cls.__new__(cls)
        restriction._build(objective, pool, metric)
        return restriction

    def _build(self, objective: Objective, pool: np.ndarray, metric: Metric) -> None:
        self._base = objective
        self._pool = pool
        self._globals: Tuple[Element, ...] = tuple(pool.tolist())
        # Built lazily: the batched front end never needs the global→local
        # map, and building one dict per query is measurable overhead.
        self._locals: Optional[Dict[Element, Element]] = None
        self._objective = Objective(
            objective.quality._restrict(pool), metric, objective.tradeoff
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def base(self) -> Objective:
        """The unrestricted objective."""
        return self._base

    @property
    def objective(self) -> Objective:
        """The restricted (re-indexed) objective the algorithms run on."""
        return self._objective

    @property
    def candidates(self) -> Tuple[Element, ...]:
        """The pool in canonical order: local ``i`` ↔ global ``candidates[i]``."""
        return self._globals

    @property
    def n(self) -> int:
        """Size of the restricted universe."""
        return len(self._globals)

    @property
    def is_identity(self) -> bool:
        """Whether the pool is the full universe in index order."""
        return self._globals == tuple(range(self._base.n))

    # ------------------------------------------------------------------
    # Index translation
    # ------------------------------------------------------------------
    def to_local(self, elements: Iterable[Element]) -> List[Element]:
        """Map global indices into the restricted universe (pool members only)."""
        if self._locals is None:
            self._locals = {g: i for i, g in enumerate(self._globals)}
        try:
            return [self._locals[int(e)] for e in elements]
        except KeyError as error:
            # Chain the KeyError: a caller debugging a bad pool wants to see
            # which lookup failed, not a bare re-raise.
            raise InvalidParameterError(
                f"element {error.args[0]} is not in the candidate pool"
            ) from error

    def to_global(self, elements: Iterable[Element]) -> List[Element]:
        """Map local (restricted) indices back into the corpus' universe."""
        return [self._globals[e] for e in elements]

    # ------------------------------------------------------------------
    # Result lifting
    # ------------------------------------------------------------------
    def lift(self, result: SolverResult) -> SolverResult:
        """Re-express a sub-instance result in the corpus' indices.

        The objective / quality / dispersion values are unchanged — a
        restriction preserves subset values — so only the element indices are
        remapped: ``selected``, ``order``, and the element-bearing metadata
        entries (``pairs`` from Greedy A, ``swaps`` traces from local search).
        The pool itself is recorded under ``metadata["candidates"]``.
        """
        g = self._globals
        metadata = dict(result.metadata)
        if "pairs" in metadata:
            metadata["pairs"] = [(g[u], g[v]) for u, v in metadata["pairs"]]
        if "swaps" in metadata and not isinstance(metadata["swaps"], int):
            metadata["swaps"] = [
                (g[u], g[v], gain) for u, v, gain in metadata["swaps"]
            ]
        metadata["candidates"] = self._globals
        return SolverResult(
            selected=frozenset(g[e] for e in result.selected),
            order=tuple(g[e] for e in result.order),
            objective_value=result.objective_value,
            quality_value=result.quality_value,
            dispersion_value=result.dispersion_value,
            algorithm=result.algorithm,
            iterations=result.iterations,
            elapsed_seconds=result.elapsed_seconds,
            metadata=metadata,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Restriction(n={self.n} of {self._base.n})"
