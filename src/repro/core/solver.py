"""Unified solver facade.

:func:`solve` is the single entry point most users need: give it a quality
function, a metric, a trade-off and a constraint (a cardinality ``p`` or a
:class:`~repro.matroids.base.Matroid`), and it validates the inputs, picks an
appropriate algorithm and returns a :class:`~repro.core.result.SolverResult`.
"""

from __future__ import annotations

import time
from typing import Iterable, Optional

from repro._types import Element
from repro.core.baselines import gollapudi_sharma_greedy, matching_diversify
from repro.core.control import RunControl
from repro.core.exact import exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.local_search import LocalSearchConfig, local_search_diversify
from repro.core.mmr import mmr_select
from repro.core.objective import Objective
from repro.core.result import SolverResult
from repro.exceptions import InvalidParameterError, SolverError
from repro.functions.base import SetFunction
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
        Cardinality constraint (mutually exclusive with ``matroid``).
    matroid:
        General matroid constraint (mutually exclusive with ``p``).
    algorithm:
        One of :data:`ALGORITHMS`.  ``"auto"`` picks Greedy B for a
        cardinality constraint and local search for a matroid constraint —
        the two algorithms the paper proves 2-approximations for.
    candidates:
        Optional candidate pool restriction (the query-scoped sub-universe).
        Honored by **every** algorithm, including ``local_search`` and the
        matroid-constrained path: the instance (and the matroid, when one is
        given) is restricted through
        :class:`~repro.core.restriction.Restriction` /
        :meth:`~repro.matroids.base.Matroid.restrict`, the algorithm runs on
        the re-indexed sub-instance, and the result is lifted back into the
        original universe's indices (the pool is recorded under
        ``result.metadata["candidates"]``).
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
    if algorithm not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    if (p is None) == (matroid is None):
        raise InvalidParameterError("supply exactly one of p and matroid")

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
    trace = control.trace
    objective = Objective(quality, metric, tradeoff)
    if matroid is not None and matroid.n != objective.n:
        raise InvalidParameterError(
            f"matroid covers {matroid.n} elements but the objective covers "
            f"{objective.n}"
        )

    started = time.perf_counter()
    root = maybe_start_span(trace, "solve", algorithm=algorithm, n=objective.n)
    try:
        if candidates is not None:
            with maybe_span(trace, "restrict") as restrict_span:
                restriction = objective.restrict(candidates)
                restrict_span.set(pool=restriction.n)
            sub_matroid = (
                matroid.restrict(restriction.candidates)
                if matroid is not None
                else None
            )
            result = restriction.lift(
                _dispatch(
                    restriction.objective,
                    algorithm,
                    p=p,
                    matroid=sub_matroid,
                    local_search_config=local_search_config,
                    control=control.scoped(restriction.candidates),
                )
            )
        else:
            result = _dispatch(
                objective,
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


def _dispatch(
    objective: Objective,
    algorithm: str,
    *,
    p: Optional[int],
    matroid: Optional[Matroid],
    local_search_config: Optional[LocalSearchConfig],
    control: Optional[RunControl] = None,
) -> SolverResult:
    """Run ``algorithm`` on an (already restricted) objective.

    This is the single dispatch point shared by :func:`solve`, the batched
    :func:`repro.core.batch.solve_many` front end and the serving window loop
    :meth:`repro.serve.PreparedCorpus.solve_window`; candidate pools never
    reach it — they are re-indexed away by the restriction layer in the
    callers.
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
