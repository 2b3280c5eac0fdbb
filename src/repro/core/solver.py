"""Unified solver facade.

:func:`solve` is the single entry point most users need: give it a quality
function, a metric, a trade-off and a constraint (a cardinality ``p`` or a
:class:`~repro.matroids.base.Matroid`), and it validates the inputs, picks an
appropriate algorithm and returns a :class:`~repro.core.result.SolverResult`.

Every front door runs one query pipeline: :func:`check_query` validates the
constraint, and :func:`solve_restricted` runs a checked query on its
candidate pool (restrict, run, lift).  :func:`solve`,
:func:`~repro.core.sharding.solve_sharded` and
:meth:`~repro.serve.PreparedCorpus.solve_window` (which also serves
:func:`~repro.core.batch.solve_many`) share both.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

import numpy as np

from repro._types import Element
from repro.core.baselines import gollapudi_sharma_greedy, matching_diversify
from repro.core.control import RunControl
from repro.core.exact import exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.local_search import LocalSearchConfig, local_search_diversify
from repro.core.mmr import mmr_select
from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.result import SolverResult
from repro.exceptions import InvalidParameterError, SolverError
from repro.functions.base import SetFunction
from repro.functions.modular import ModularFunction
from repro.matroids.base import Matroid
from repro.matroids.uniform import UniformMatroid
from repro.metrics.base import Metric
from repro.obs.instrument import (
    SOLVE_SECONDS,
    SOLVES,
    maybe_span,
    maybe_start_span,
    phase_timings,
)
from repro.utils.validation import check_candidate_pool, check_cardinality

#: Algorithms accepted by :func:`solve`.
ALGORITHMS = (
    "auto",
    "greedy",
    "greedy_best_pair",
    "greedy_a",
    "greedy_a_improved",
    "matching",
    "mmr",
    "local_search",
    "exact",
)


def solve(
    quality: SetFunction,
    metric: Metric,
    *,
    tradeoff: float,
    p: Optional[int] = None,
    matroid: Optional[Matroid] = None,
    algorithm: str = "auto",
    candidates: Optional[Iterable[Element]] = None,
    local_search_config: Optional[LocalSearchConfig] = None,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
    shard_workers: Optional[int] = None,
    control: Optional[RunControl] = None,
) -> SolverResult:
    """Solve a max-sum diversification instance.

    Parameters
    ----------
    quality, metric, tradeoff:
        The instance ``(f, d, λ)``.
    p:
        Cardinality constraint, a non-negative integer (mutually exclusive
        with ``matroid``).
    matroid:
        General matroid constraint (mutually exclusive with ``p``).
    algorithm:
        One of :data:`ALGORITHMS`.  ``"auto"`` picks Greedy B for a
        cardinality constraint and local search for a matroid constraint —
        the two algorithms the paper proves 2-approximations for.
    candidates:
        Optional candidate pool (the query-scoped sub-universe), honoured by
        every algorithm and constraint: the query runs on the pool's
        :class:`~repro.core.restriction.Restriction` through
        :func:`solve_restricted`, and the result, in the original universe's
        indices, records the pool under ``result.metadata["candidates"]``.
    local_search_config:
        Configuration forwarded to the local search.
    shards, shard_size, shard_workers:
        When either of ``shards`` / ``shard_size`` is given, the instance is
        solved through the sharded core-set pipeline
        (:func:`~repro.core.sharding.solve_sharded`): the universe is
        partitioned, each shard solved independently on lazy / per-shard
        state (optionally across ``shard_workers`` threads), and
        ``algorithm`` runs on the union of the shard winners.  This is the
        path for universes too large to materialize O(n²) distances;
        cardinality constraints only.
    control:
        Optional :class:`~repro.core.control.RunControl`, routed to the
        algorithm's path (:data:`~repro.core.control.PATHS`): ``greedy_a``,
        ``greedy_a_improved``, ``matching``, ``mmr`` and ``exact`` ignore the
        deadline, and only greedy and sharded solves take checkpoints.  A
        trace records a ``solve`` span over the path's own spans.

    Returns
    -------
    SolverResult
    """
    p = check_query(metric.n, algorithm, p, matroid)
    if shards is not None or shard_size is not None:
        if matroid is not None:
            raise InvalidParameterError(
                "sharded solving supports cardinality constraints only; "
                "matroid constraints need the unsharded path"
            )
        from repro.core.sharding import solve_sharded

        return solve_sharded(
            quality,
            metric,
            tradeoff=tradeoff,
            p=p,
            shards=shards,
            shard_size=shard_size,
            algorithm=algorithm,
            candidates=candidates,
            max_workers=shard_workers,
            local_search_config=local_search_config,
            control=control,
        )

    control = RunControl.coerce(control)
    objective = Objective(quality, metric, tradeoff)
    pool = None if candidates is None else check_candidate_pool(candidates, objective.n)
    return _solve_pool(
        objective,
        pool,
        algorithm,
        p=p,
        matroid=matroid,
        local_search_config=local_search_config,
        control=control,
    )


def _solve_pool(
    objective: Objective,
    pool: Optional[np.ndarray],
    algorithm: str,
    *,
    p: Optional[int],
    matroid: Optional[Matroid],
    local_search_config: Optional[LocalSearchConfig],
    control: RunControl,
) -> SolverResult:
    """:func:`solve` past its checks, on a checked ``pool`` (``None``: the
    whole universe); a one-shard :func:`~repro.core.sharding.solve_sharded`
    delegates here with the pool it checked."""
    trace = control.trace
    started = time.perf_counter()
    root = maybe_start_span(trace, "solve", algorithm=algorithm, n=objective.n)
    try:
        if pool is None:
            result = _dispatch(
                objective,
                algorithm,
                p=p,
                matroid=matroid,
                local_search_config=local_search_config,
                control=control,
            )
        else:
            with maybe_span(trace, "restrict") as restrict_span:
                restriction = Restriction._from_trusted(
                    objective, pool, objective.metric._restrict(pool)
                )
                restrict_span.set(pool=restriction.n)
            result = solve_restricted(
                restriction,
                algorithm,
                p=p,
                matroid=matroid,
                local_search_config=local_search_config,
                control=control,
            )
    finally:
        root.finish()
    elapsed = time.perf_counter() - started
    if trace is not None:
        result.metadata["timings"] = phase_timings(trace, root.id, total=elapsed)
    if SOLVES.enabled():
        SOLVES.inc(path="plain")
        SOLVE_SECONDS.observe(elapsed, path="plain")
    return result


def check_query(
    n: int, algorithm: str, p: Optional[int], matroid: Optional[Matroid]
) -> Optional[int]:
    """Validate one query on a universe of ``n`` elements; return ``p``.

    The one copy of the rules every front door shares: ``algorithm`` is one
    of :data:`ALGORITHMS`, exactly one of ``p`` and ``matroid`` is set, the
    matroid covers the universe, and ``p`` is a non-negative integer (NumPy
    integers included, ``bool`` excluded), returned as an ``int``.
    """
    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if (p is None) == (matroid is None):
        raise InvalidParameterError("supply exactly one of p and matroid")
    if matroid is None:
        return check_cardinality(p)
    if matroid.n != n:
        raise InvalidParameterError(
            f"matroid covers {matroid.n} elements but the objective covers {n}"
        )
    return None


def solve_restricted(
    restriction: Restriction,
    algorithm: str,
    *,
    p: Optional[int] = None,
    matroid: Optional[Matroid] = None,
    weights: Optional[Sequence[float]] = None,
    local_search_config: Optional[LocalSearchConfig] = None,
    control: Optional[RunControl] = None,
) -> SolverResult:
    """Run one checked query (see :func:`check_query`) on its candidate pool.

    The corpus-level ``matroid`` is restricted to the pool and ``p`` clamped
    to the pool size; ``weights``, one per pool element in pool order,
    replace the quality with per-request modular scores.  The algorithm runs
    with checkpoints bound to the pool, and the result is lifted back into
    the corpus' indices.
    """
    objective = restriction.objective
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (restriction.n,):
            raise InvalidParameterError(
                f"per-query weights cover {weights.shape} elements but the "
                f"pool has {restriction.n}"
            )
        objective = Objective(
            ModularFunction(weights), objective.metric, objective.tradeoff
        )
    result = _dispatch(
        objective,
        algorithm,
        p=None if p is None else min(p, restriction.n),
        matroid=None if matroid is None else matroid._restrict(restriction._pool),
        local_search_config=local_search_config,
        control=RunControl.coerce(control).scoped(restriction.candidates),
    )
    return restriction.lift(result)


def _dispatch(
    objective: Objective,
    algorithm: str,
    *,
    p: Optional[int],
    matroid: Optional[Matroid],
    local_search_config: Optional[LocalSearchConfig],
    control: Optional[RunControl] = None,
) -> SolverResult:
    """Run ``algorithm`` on an objective whose query :func:`check_query` passed.

    Called by :func:`solve` on the full universe and by
    :func:`solve_restricted` on a pool's sub-instance (the sharded pipeline's
    shard stage also runs it on each shard's sub-instance); candidate pools
    never reach it.
    """
    control = RunControl.coerce(control)
    if matroid is not None:
        if algorithm in ("auto", "local_search"):
            return local_search_diversify(
                objective, matroid, config=local_search_config, control=control
            )
        if algorithm == "exact":
            control.check("exact")
            return exact_diversify(objective, matroid=matroid)
        raise SolverError(
            f"algorithm {algorithm!r} does not support a general matroid constraint; "
            "use 'local_search', 'exact' or 'auto'"
        )

    assert p is not None
    if algorithm == "auto" or algorithm == "greedy":
        return greedy_diversify(objective, p, control=control)
    if algorithm == "greedy_best_pair":
        return greedy_diversify(objective, p, start="best_pair", control=control)
    if algorithm == "local_search":
        return local_search_diversify(
            objective,
            UniformMatroid(objective.n, p),
            config=local_search_config,
            control=control,
        )
    control.check(algorithm)
    if algorithm == "greedy_a":
        return gollapudi_sharma_greedy(objective, p)
    if algorithm == "greedy_a_improved":
        return gollapudi_sharma_greedy(objective, p, improved=True)
    if algorithm == "matching":
        return matching_diversify(objective, p)
    if algorithm == "mmr":
        return mmr_select(objective, p)
    if algorithm == "exact":
        return exact_diversify(objective, p)
    raise SolverError(f"unhandled algorithm {algorithm!r}")  # pragma: no cover
