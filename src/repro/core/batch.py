"""Batched multi-query solving over one shared corpus.

A production diversifier is query-scoped: many queries arrive against a single
corpus, each carrying its own candidate pool, while the metric (and the
quality weights) are shared.  :func:`solve_many` prepares the shared state
exactly once —

* the corpus distance matrix (materialized once for oracle metrics, reused as
  a shared view for matrix-backed ones),
* the modular weight vector (derived once even for view-less modular
  families, by :func:`~repro.core.kernels.hoist_modular_weights`),

— and then solves every query on an index-remapped sub-instance built by the
restriction layer (:class:`~repro.core.restriction.Restriction`).  Per query
the cost is the O(k²) candidate submatrix (a copy-free view for contiguous
pools) plus the solve itself; no query ever pays an O(n²) copy.

Because an oracle-free instance (matrix-backed metric + modular quality)
touches only read-only shared state during a solve, the per-query map can
optionally run on a thread pool (``max_workers``); NumPy releases the GIL in
the submatrix reductions, so large pools see real parallelism.

Serving windows run through :meth:`repro.serve.PreparedCorpus.solve_window`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro._types import Element
from repro.core import kernels
from repro.core.control import RunControl
from repro.core.local_search import LocalSearchConfig
from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.result import SolverResult, build_result
from repro.core.solver import ALGORITHMS, _dispatch
from repro.exceptions import InvalidParameterError
from repro.functions.base import SetFunction
from repro.matroids.base import Matroid
from repro.metrics.base import Metric
from repro.metrics.matrix import as_distance_matrix
from repro.utils.deadline import mark_interrupted

__all__ = ["solve_many"]


def solve_many(
    quality: SetFunction,
    metric: Metric,
    queries: Sequence[Iterable[Element]],
    *,
    tradeoff: float,
    p: Optional[int] = None,
    matroid: Optional[Matroid] = None,
    algorithm: str = "auto",
    local_search_config: Optional[LocalSearchConfig] = None,
    materialize: bool = True,
    max_workers: Optional[int] = None,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
    control: Optional[RunControl] = None,
) -> List[SolverResult]:
    """Solve one diversification instance per candidate pool on a shared corpus.

    Parameters
    ----------
    quality, metric, tradeoff:
        The shared corpus instance ``(f, d, λ)``.
    queries:
        One candidate pool per query (iterables of corpus element indices).
        An empty pool yields an empty selection for that query.
    p:
        Cardinality constraint applied to every query (clamped to each pool's
        size).  Mutually exclusive with ``matroid``.
    matroid:
        Corpus-level matroid constraint; it is restricted per pool via
        :meth:`~repro.matroids.base.Matroid.restrict`.
    algorithm:
        One of :data:`~repro.core.solver.ALGORITHMS`, as in
        :func:`~repro.core.solver.solve`.
    local_search_config:
        Forwarded to the local search.
    materialize:
        When ``True`` (default) an oracle metric is materialized into a
        shared :class:`~repro.metrics.matrix.DistanceMatrix` once (O(n²),
        amortized over all queries), so every query's kernel blocks are
        slices.  Set to ``False`` for ground sets too large to materialize;
        queries then restrict the oracle pairwise (O(k²) oracle calls each).
    max_workers:
        Optional thread-pool size for the per-query map.  Only honored when
        the shared instance is oracle-free (matrix-backed metric + modular
        quality): those solves read only immutable shared state, and NumPy
        releases the GIL inside the submatrix reductions.  Oracle-backed
        instances run sequentially regardless, since arbitrary user oracles
        make no thread-safety promises.  On the sharded path the budget is
        forwarded to each query's shard map instead.
    shards, shard_size:
        When given, every query is solved through the sharded core-set
        pipeline (:func:`~repro.core.sharding.solve_sharded`) with its pool
        as the candidate set.  The corpus metric is then *not* materialized
        regardless of ``materialize`` — avoiding the O(n²) corpus matrix is
        the point of sharding — so this is the multi-query path for corpora
        beyond matrix scale.
    control:
        Optional :class:`~repro.core.control.RunControl`; checkpoint fields
        raise and a trace is ignored.  Its deadline is shared by the **whole
        batch** (one clock, not one per query): queries still running when it
        expires return their best-so-far solution, and queries not yet
        started return an *empty* selection with
        ``metadata["phase"] = "batch_queue"``.

    Returns
    -------
    list of SolverResult
        One result per query, in query order, expressed in corpus indices;
        each records its pool under ``metadata["candidates"]``.
    """
    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if (p is None) == (matroid is None):
        raise InvalidParameterError("supply exactly one of p and matroid")
    if max_workers is not None and max_workers < 1:
        raise InvalidParameterError("max_workers must be at least 1")

    deadline = RunControl.coerce(control).check("batch").deadline
    query_control = RunControl(deadline=deadline)
    sharded = shards is not None or shard_size is not None
    if sharded and matroid is not None:
        raise InvalidParameterError(
            "sharded solving supports cardinality constraints only"
        )

    # Shared corpus state, prepared once.
    shared_metric = metric
    if materialize and not sharded and metric.matrix_view() is None:
        shared_metric = as_distance_matrix(metric)
    shared_quality = kernels.hoist_modular_weights(quality)
    objective = Objective(shared_quality, shared_metric, tradeoff)
    if matroid is not None and matroid.n != objective.n:
        raise InvalidParameterError(
            f"matroid covers {matroid.n} elements but the corpus covers "
            f"{objective.n}"
        )

    def solve_one(pool: Iterable[Element]) -> SolverResult:
        if deadline is not None and deadline.expired():
            # The batch budget ran out before this query started: report an
            # empty (trivially feasible) selection rather than blocking.
            result = build_result(
                objective,
                set(),
                [],
                algorithm=algorithm,
                iterations=0,
                elapsed_seconds=0.0,
                metadata=mark_interrupted(
                    {"candidates": tuple(pool)}, deadline, "batch_queue"
                ),
            )
            return result
        if sharded:
            from repro.core.sharding import solve_sharded

            # The outer query map stays sequential for lazy metrics (its
            # thread pool needs a matrix-backed metric), so hand the worker
            # budget to the per-query shard map instead of dropping it.
            return solve_sharded(
                shared_quality,
                shared_metric,
                tradeoff=tradeoff,
                p=p,
                shards=shards,
                shard_size=shard_size,
                algorithm=algorithm,
                candidates=pool,
                max_workers=max_workers,
                local_search_config=local_search_config,
                control=query_control,
            )
        restriction = Restriction(objective, pool)
        sub_matroid = (
            matroid.restrict(restriction.candidates) if matroid is not None else None
        )
        result = _dispatch(
            restriction.objective,
            algorithm,
            p=p,
            matroid=sub_matroid,
            local_search_config=local_search_config,
            control=query_control,
        )
        return restriction.lift(result)

    pools = [tuple(query) for query in queries]
    oracle_free = (
        objective.metric.matrix_view() is not None and objective.quality.is_modular
    )
    if max_workers is not None and max_workers > 1 and oracle_free and len(pools) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=max_workers) as executor:
            return list(executor.map(solve_one, pools))
    return [solve_one(pool) for pool in pools]
