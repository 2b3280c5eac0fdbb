"""Batched multi-query solving over one shared corpus.

A production diversifier is query-scoped: many queries arrive against a single
corpus, each carrying its own candidate pool, while the metric (and the
quality weights) are shared.  :func:`solve_many` prepares the shared state
exactly once —

* the corpus distance matrix (materialized once for oracle metrics, reused as
  a shared view for matrix-backed ones),
* the modular weight vector (derived once even for view-less modular
  families),

— and then solves every query on an index-remapped sub-instance built by the
restriction layer (:class:`~repro.core.restriction.Restriction`).  Per query
the cost is the O(k²) candidate submatrix (a copy-free view for contiguous
pools) plus the solve itself; no query ever pays an O(n²) copy.

Because an oracle-free instance (matrix-backed metric + modular quality)
touches only read-only shared state during a solve, the per-query map can
optionally run on a thread pool (``max_workers``); NumPy releases the GIL in
the submatrix reductions, so large pools see real parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro._types import Element
from repro.core import kernels
from repro.core.local_search import LocalSearchConfig
from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.result import SolverResult, build_result
from repro.core.solver import ALGORITHMS, _dispatch
from repro.exceptions import InvalidParameterError
from repro.functions.base import SetFunction
from repro.functions.modular import ModularFunction
from repro.matroids.base import Matroid
from repro.metrics.base import Metric
from repro.metrics.matrix import as_distance_matrix
from repro.utils.deadline import Deadline, mark_interrupted

__all__ = ["WindowQuery", "solve_many", "solve_window"]


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
    deadline_s: Union[None, float, Deadline] = None,
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
    deadline_s:
        Optional cooperative wall-clock budget shared by the **whole batch**
        (one clock, not one per query).  Queries still running when it
        expires stop early and return their best-so-far solution; queries
        that have not started yet return an *empty* selection with
        ``metadata["interrupted"] = True`` and
        ``metadata["phase"] = "batch_queue"``.  Either way the returned list
        always has one (feasible) result per query.

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

    deadline = Deadline.coerce(deadline_s)
    sharded = shards is not None or shard_size is not None
    if sharded and matroid is not None:
        raise InvalidParameterError(
            "sharded solving supports cardinality constraints only"
        )

    # Shared corpus state, prepared once.
    shared_metric = metric
    if materialize and not sharded and metric.matrix_view() is None:
        shared_metric = as_distance_matrix(metric)
    shared_quality = quality
    if quality.is_modular and kernels.weights_view_of(quality) is None:
        # View-less modular families would pay one O(n) oracle sweep per
        # query inside the kernels; hoist the sweep out of the loop.
        weights = kernels.modular_weights(quality)
        try:
            shared_quality = ModularFunction(weights)
        except InvalidParameterError:
            shared_quality = quality
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
                deadline=deadline,
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
            deadline=deadline,
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


@dataclass
class WindowQuery:
    """One pre-restricted query inside a serving batch window.

    Where :func:`solve_many` takes raw candidate pools and builds a
    :class:`~repro.core.restriction.Restriction` per query, a window query
    carries the restriction *already built* — the serving tier's
    :class:`~repro.serve.PreparedCorpus` keeps hot pools' restrictions in an
    LRU cache, so a cached view is reused across windows instead of being
    rebuilt per request.

    Attributes
    ----------
    restriction:
        The pre-built sub-universe view the query solves on.
    p, matroid:
        The constraint — exactly one must be set.  A matroid must already be
        restricted to the pool (``matroid.n == restriction.n``); ``p`` is
        clamped to the pool size.
    weights:
        Optional per-query modular quality override, in *local* (pool) order
        with one weight per pool element.  The query then solves
        ``f_w + λ·d`` on the same sub-metric, which is how per-request
        relevance scores ride on a shared corpus.
    algorithm, local_search_config:
        As in :func:`~repro.core.solver.solve`.
    deadline:
        Optional per-query budget; the window executor combines it with the
        shared window deadline via :meth:`~repro.utils.deadline.Deadline.earliest`.
    tag:
        Opaque caller payload (request ids, ...), untouched by the solver.
    """

    restriction: Restriction
    p: Optional[int] = None
    matroid: Optional[Matroid] = None
    weights: Optional[np.ndarray] = None
    algorithm: str = "auto"
    local_search_config: Optional[LocalSearchConfig] = None
    deadline: Optional[Deadline] = None
    tag: Any = field(default=None)


def _solve_window_query(
    query: WindowQuery, deadline: Optional[Deadline]
) -> SolverResult:
    """Solve one window query on its pre-restricted view and lift the result."""
    restriction = query.restriction
    objective = restriction.objective
    if query.weights is not None:
        weights = np.asarray(query.weights, dtype=float)
        if weights.shape != (restriction.n,):
            raise InvalidParameterError(
                f"per-query weights cover {weights.shape} elements but the "
                f"pool has {restriction.n}"
            )
        objective = Objective(
            ModularFunction(weights), objective.metric, objective.tradeoff
        )
    p = query.p
    if p is not None:
        if not isinstance(p, int) or isinstance(p, bool) or p < 0:
            raise InvalidParameterError(
                f"cardinality p must be a non-negative integer, got {p!r}"
            )
        p = min(p, restriction.n)
    result = _dispatch(
        objective,
        query.algorithm,
        p=p,
        matroid=query.matroid,
        local_search_config=query.local_search_config,
        deadline=deadline,
    )
    return restriction.lift(result)


def solve_window(
    queries: Sequence[WindowQuery],
    *,
    deadline: Union[None, float, Deadline] = None,
    skip: Optional[Callable[[int], bool]] = None,
    isolate: bool = True,
) -> List[Union[SolverResult, Exception, None]]:
    """Execute one micro-batch window of pre-restricted queries.

    The serving tier's batch-window entry point: the async front end gathers
    concurrent requests into a window, resolves each request's pool to a
    (cached) :class:`~repro.core.restriction.Restriction`, and hands the
    resulting :class:`WindowQuery` list here to run off-loop.

    Parameters
    ----------
    queries:
        The window, in request order.
    deadline:
        Optional budget shared by the whole window.  Each query's effective
        deadline is the *earliest* of this and its own
        :attr:`WindowQuery.deadline`; a query whose effective deadline has
        already expired when its turn comes returns an empty interrupted
        result with ``metadata["phase"] = "window_queue"`` instead of
        running.
    skip:
        Optional predicate called with each query's window index immediately
        before it would run; returning ``True`` skips the query (its slot in
        the returned list is ``None``).  This is the cancellation hook — a
        disconnected client's query is simply never solved, without
        disturbing its co-batched neighbours.
    isolate:
        When ``True`` (default) a query that is invalid or whose solve
        raises keeps the failure to itself: the exception object occupies
        its slot and the remaining queries still run.  ``False`` raises
        immediately (debugging).

    Returns
    -------
    list
        One entry per query, in order: a :class:`SolverResult`, ``None``
        (skipped), or the ``Exception`` the query's solve raised.
    """
    invalid: dict = {}
    for index, query in enumerate(queries):
        error: Optional[Exception] = None
        if (query.p is None) == (query.matroid is None):
            error = InvalidParameterError(
                f"window query {index}: supply exactly one of p and matroid"
            )
        elif query.algorithm not in ALGORITHMS:
            error = InvalidParameterError(
                f"window query {index}: unknown algorithm {query.algorithm!r}; "
                f"expected one of {ALGORITHMS}"
            )
        elif (
            query.matroid is not None
            and query.matroid.n != query.restriction.n
        ):
            error = InvalidParameterError(
                f"window query {index}: matroid covers {query.matroid.n} "
                f"elements but the pool has {query.restriction.n}"
            )
        if error is not None:
            if not isolate:
                raise error
            invalid[index] = error
    shared = Deadline.coerce(deadline)
    results: List[Union[SolverResult, Exception, None]] = []
    for index, query in enumerate(queries):
        if skip is not None and skip(index):
            results.append(None)
            continue
        if index in invalid:
            # An invalid query fails alone; co-batched neighbours still run.
            results.append(invalid[index])
            continue
        effective = Deadline.earliest(query.deadline, shared)
        if effective is not None and effective.expired():
            # The budget ran out while the query sat in the window queue:
            # report an empty (trivially feasible) selection immediately.
            empty = build_result(
                query.restriction.objective,
                set(),
                [],
                algorithm=query.algorithm,
                iterations=0,
                elapsed_seconds=0.0,
                metadata=mark_interrupted({}, effective, "window_queue"),
            )
            results.append(query.restriction.lift(empty))
            continue
        try:
            results.append(_solve_window_query(query, effective))
        except Exception as error:
            if not isolate:
                raise
            results.append(error)
    return results
