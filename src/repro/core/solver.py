"""Unified solver facade.

:func:`solve` is the single entry point most users need: give it a quality
function, a metric, a trade-off and a constraint (a cardinality ``p`` or a
:class:`~repro.matroids.base.Matroid`), and it validates the inputs, picks an
appropriate algorithm and returns a :class:`~repro.core.result.SolverResult`.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Optional, Union

from repro._types import Element
from repro.core.baselines import gollapudi_sharma_greedy, matching_diversify
from repro.core.checkpoint import SolveCheckpoint
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
from repro.obs.trace import Trace
from repro.utils.deadline import Deadline

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
    deadline_s: Union[None, float, Deadline] = None,
    checkpoint_every: Optional[int] = None,
    on_checkpoint: Optional[Callable[[SolveCheckpoint], None]] = None,
    resume_from: Optional[SolveCheckpoint] = None,
    trace: Optional[Trace] = None,
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
    deadline_s:
        Optional cooperative wall-clock budget in seconds (or a pre-built
        :class:`~repro.utils.deadline.Deadline` to share one clock across
        calls).  Every algorithm polls it at loop boundaries and, on expiry,
        stops and returns its best-so-far **feasible** solution instead of
        raising; ``result.metadata["interrupted"]`` is ``True`` and
        ``result.metadata["phase"]`` names the stage that was cut short.
    checkpoint_every, on_checkpoint:
        Periodic checkpointing for the greedy and sharded paths: a
        pickle-safe :class:`~repro.core.checkpoint.SolveCheckpoint` is passed
        to ``on_checkpoint`` after every ``checkpoint_every`` units of
        progress (greedy selections, or solved shards).
    resume_from:
        A checkpoint from a previous (interrupted) run of the same instance;
        the solve replays it and continues.  Only the greedy and sharded
        paths support resuming — other algorithms raise
        :class:`~repro.exceptions.InvalidParameterError`.
    trace:
        Optional :class:`~repro.obs.trace.Trace`.  When given, the solve
        records nested spans for its phases (restriction, gain-state build,
        greedy rounds; per-shard solves and the final core-set stage on the
        sharded path), ``result.metadata["timings"]`` carries the compact
        per-phase breakdown, and ``trace.export(path)`` writes Chrome-trace
        JSON viewable in Perfetto.  The default (``None``) keeps every
        instrumented path at no-op cost.

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
            deadline=deadline_s,
            checkpoint_every=checkpoint_every,
            on_checkpoint=on_checkpoint,
            resume_from=resume_from,
            trace=trace,
        )

    deadline = Deadline.coerce(deadline_s)
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
                    deadline=deadline,
                    checkpoint_every=checkpoint_every,
                    on_checkpoint=on_checkpoint,
                    resume_from=resume_from,
                    trace=trace,
                )
            )
        else:
            result = _dispatch(
                objective,
                algorithm,
                p=p,
                matroid=matroid,
                local_search_config=local_search_config,
                deadline=deadline,
                checkpoint_every=checkpoint_every,
                on_checkpoint=on_checkpoint,
                resume_from=resume_from,
                trace=trace,
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
    deadline: Optional[Deadline] = None,
    checkpoint_every: Optional[int] = None,
    on_checkpoint: Optional[Callable[[SolveCheckpoint], None]] = None,
    resume_from: Optional[SolveCheckpoint] = None,
    trace: Optional[Trace] = None,
) -> SolverResult:
    """Run ``algorithm`` on an (already restricted) objective.

    This is the single dispatch point shared by :func:`solve`, the batched
    :func:`repro.core.batch.solve_many` front end and the serving window loop
    :meth:`repro.serve.PreparedCorpus.solve_window`; candidate pools never
    reach it — they are re-indexed away by the restriction layer in the
    callers.
    """
    checkpointing = (
        checkpoint_every is not None
        or on_checkpoint is not None
        or resume_from is not None
    )
    if checkpointing and algorithm not in ("auto", "greedy", "greedy_best_pair"):
        raise InvalidParameterError(
            f"checkpoint/resume is supported by the greedy and sharded paths "
            f"only, not algorithm {algorithm!r}"
        )
    if matroid is not None:
        if algorithm in ("auto", "local_search"):
            return local_search_diversify(
                objective, matroid, config=local_search_config, deadline=deadline
            )
        if algorithm == "exact":
            return exact_diversify(objective, matroid=matroid)
        raise SolverError(
            f"algorithm {algorithm!r} does not support a general matroid constraint; "
            "use 'local_search', 'exact' or 'auto'"
        )

    assert p is not None
    greedy_kwargs = dict(
        deadline=deadline,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
        resume_from=resume_from,
        trace=trace,
    )
    if algorithm == "auto" or algorithm == "greedy":
        return greedy_diversify(objective, p, **greedy_kwargs)
    if algorithm == "greedy_best_pair":
        return greedy_diversify(objective, p, start="best_pair", **greedy_kwargs)
    if algorithm == "greedy_a":
        return gollapudi_sharma_greedy(objective, p)
    if algorithm == "greedy_a_improved":
        return gollapudi_sharma_greedy(objective, p, improved=True)
    if algorithm == "matching":
        return matching_diversify(objective, p)
    if algorithm == "mmr":
        return mmr_select(objective, p)
    if algorithm == "local_search":
        return local_search_diversify(
            objective,
            UniformMatroid(objective.n, p),
            config=local_search_config,
            deadline=deadline,
        )
    if algorithm == "exact":
        return exact_diversify(objective, p)
    raise SolverError(f"unhandled algorithm {algorithm!r}")  # pragma: no cover
