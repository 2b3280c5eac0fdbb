"""Core algorithms for max-sum diversification.

This package implements the paper's primary contributions and the baselines
its experiments compare against:

* :class:`~repro.core.objective.Objective` — the combined objective
  ``φ(S) = f(S) + λ·d(S)`` with true and *non-oblivious* marginals.
* :func:`~repro.core.greedy.greedy_diversify` — **Greedy B** (Section 4), the
  vertex greedy driven by the potential ``φ'_u(S) = ½f_u(S) + λd_u(S)``;
  2-approximation for monotone submodular quality under a cardinality
  constraint.
* :func:`~repro.core.dispersion.greedy_dispersion` — the Ravi–Rosenkrantz–Tayi
  vertex greedy for pure max-sum dispersion (Corollary 1's special case).
* :func:`~repro.core.baselines.gollapudi_sharma_greedy` — **Greedy A**, the
  Gollapudi–Sharma reduction to dispersion plus the Hassin–Rubinstein–Tamir
  edge greedy (modular quality only).
* :func:`~repro.core.baselines.matching_diversify` — the matching-based
  (2 − 1/⌈p/2⌉) dispersion algorithm applied through the same reduction.
* :func:`~repro.core.mmr.mmr_select` — the Maximal Marginal Relevance
  heuristic the paper positions its greedy as a principled extension of.
* :func:`~repro.core.local_search.local_search_diversify` — the oblivious
  single-swap local search for an arbitrary matroid constraint (Section 5),
  plus :func:`~repro.core.local_search.refine_with_local_search`, the paper's
  time-budgeted "LS" post-processing of Greedy B.
* :func:`~repro.core.exact.exact_diversify` — brute-force optimum for small
  instances (used to compute the approximation factors of Tables 1, 3, 4, 8).
* :func:`~repro.core.solver.solve` — a single entry point that validates
  inputs and dispatches to the appropriate algorithm.
* :class:`~repro.core.restriction.Restriction` — first-class query-scoped
  sub-universe views (index-remapped weight slices, submatrix metric views,
  restricted matroids).  The algorithms run on the ground set they are
  given; a pool enters through ``solve(candidates=)``,
  ``solve_sharded(candidates=)`` and the serving window, which share
  :func:`~repro.core.solver.check_query` and
  :func:`~repro.core.solver.solve_restricted`, or through
  ``Objective.restrict(pool)`` plus ``Restriction.lift``, so restricted
  solves run on the same vectorized kernels as full-universe ones.
* :func:`~repro.core.batch.solve_many` — the batched multi-query front end:
  many candidate pools against one shared corpus with zero per-query O(n²)
  work, run as one :meth:`repro.serve.PreparedCorpus.solve_window`.
* :func:`~repro.core.sharding.solve_sharded` — the sharded core-set pipeline
  for universes beyond matrix scale: partition, solve each shard on lazy
  per-shard state (optionally on a thread/process pool), and run the final
  algorithm on the union of shard winners.
* :class:`~repro.core.control.RunControl` — how a solve runs (deadline,
  checkpoints, resume point, trace) as one value every entry point takes,
  e.g. ``solve(f, d, tradeoff=0.5, p=10, control=RunControl(deadline=0.2))``.
"""

from repro.core.baselines import (
    gollapudi_sharma_greedy,
    matching_diversify,
    reduced_metric,
)
from repro.core.batch import solve_many
from repro.core.checkpoint import SolveCheckpoint
from repro.core.control import RunControl
from repro.core.dispersion import greedy_dispersion
from repro.core.exact import exact_dispersion, exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.knapsack import exact_knapsack_diversify, knapsack_greedy
from repro.core.local_search import (
    LocalSearchConfig,
    local_search_diversify,
    refine_with_local_search,
)
from repro.core.mmr import mmr_select
from repro.core.restriction import Restriction
from repro.core.sharding import solve_sharded
from repro.core.streaming import StreamingDiversifier, streaming_diversify
from repro.core.objective import Objective
from repro.core.result import SolverResult
from repro.core.solver import solve

__all__ = [
    "Objective",
    "Restriction",
    "RunControl",
    "SolverResult",
    "SolveCheckpoint",
    "greedy_diversify",
    "greedy_dispersion",
    "gollapudi_sharma_greedy",
    "matching_diversify",
    "reduced_metric",
    "mmr_select",
    "local_search_diversify",
    "refine_with_local_search",
    "LocalSearchConfig",
    "exact_diversify",
    "exact_dispersion",
    "knapsack_greedy",
    "exact_knapsack_diversify",
    "StreamingDiversifier",
    "streaming_diversify",
    "solve",
    "solve_many",
    "solve_sharded",
]
