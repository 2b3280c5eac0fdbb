"""Sharded core-set solving for huge universes.

Every solve path below :func:`~repro.core.solver.solve` is O(n²)-in-memory
once the metric is materialized, which caps the universe at tens of
thousands of elements.  This module lifts that cap with the classic
*composable core-set* scheme for max-sum diversification:

1. **Partition** the universe (or candidate pool) into contiguous shards.
2. **Solve each shard** (the *shard stage*) as an independent sub-instance
   built by the restriction hooks on the lazy metric tier
   (:meth:`~repro.metrics.base.Metric.restrict_lazy` /
   :meth:`~repro.metrics.base.Metric.block`) so no step ever touches the
   global ``n × n`` matrix.  Shards are independent, so the map optionally
   runs on a thread or process pool.
3. **Union** the per-shard winners into a small core-set and run the final
   algorithm on that union (the *core stage*), lifting indices back into the
   original universe.

:func:`solve_sharded` runs the two stages on its own partition; the sharded
dynamic engine runs them on its slot-range shards (a tick repairs its dirty
shards, then the core when it moved; ``resolve_full`` runs both).

With ``per_shard_p = p`` winners per shard the union is the standard
composable core-set for sum-dispersion objectives: each shard keeps every
element the global optimum could need from it up to the approximation factor
of the shard algorithm, so the two-stage objective stays within a constant
factor of the single-stage one (the benchmarks guard a ≥0.95 parity ratio
against global greedy empirically).

Memory model: the peak footprint is O(shard_size² + core²) — the one shard
block being solved (when the shard algorithm needs a materialized block at
all; plain greedy runs on O(shard_size · d) lazy state) plus the final
core-set block — instead of O(n²).

Fault tolerance
---------------
Shard independence is also what makes the map *recoverable*: losing a shard
loses only that shard's winners, never the solve.  The shard map therefore
harvests futures individually (instead of ``Executor.map``) so that

* a shard exceeding ``shard_timeout_s`` or a crashed process-pool worker
  (``BrokenProcessPool``) abandons the pool — ``shutdown(wait=False,
  cancel_futures=True)`` — harvests whatever already finished, and re-runs
  the unfinished shards **serially in-process** with bounded exponential-
  backoff retries;
* a shard that still fails serially keeps the winners it already had —
  none on a fresh solve, the previous ones on a dynamic tick — and gets a
  structured ``{"shard", "stage", "error"}`` record (in
  ``metadata["sharding"]["failures"]``, and counted by ``SHARD_FAILURES``):
  the core-set simply shrinks, the final stage still runs, and
  ``metadata["degraded"] = True`` flags the loss;
* a cooperative :class:`~repro.utils.deadline.Deadline` caps the whole
  pipeline: it is shipped *into* every shard solve (re-anchoring across
  process boundaries) and checked between harvests, so expiry stops
  dispatching, keeps the winners gathered so far, and returns an interrupted
  but feasible result;
* periodic :class:`~repro.core.checkpoint.SolveCheckpoint` snapshots record
  the global winners of every solved shard, so a resumed run skips straight
  to the shards that were lost.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from repro._types import Element
from repro.core.checkpoint import SolveCheckpoint
from repro.core.control import RunControl
from repro.core.kernels import weights_view_of
from repro.core.local_search import LocalSearchConfig
from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.result import SolverResult, build_result
from repro.exceptions import InvalidParameterError
from repro.functions.base import SetFunction
from repro.metrics.base import Metric
from repro.metrics.matrix import DistanceMatrix
from repro.obs.instrument import (
    SHARD_FAILURES,
    SOLVE_SECONDS,
    SOLVES,
    maybe_span,
    maybe_start_span,
    phase_timings,
)
from repro.obs.trace import SpanBundle, Stopwatch, Trace
from repro.utils.deadline import Deadline, mark_interrupted
from repro.utils.validation import _check_integer, check_candidate_pool

__all__ = ["shard_pool", "solve_sharded", "sub_metric"]

#: Shard-stage algorithms that run efficiently on a *lazy* sub-metric (their
#: hot loops only need rows, which feature metrics answer in O(k·d)).  Every
#: other algorithm wants the shard's distance block materialized so its
#: kernel blocks are slices.  Submodular quality keeps shard solves fast on
#: either tier: the restriction layer's quality views compose their parent's
#: batched marginal-gain states, so each per-shard greedy runs the CELF fast
#: path instead of a per-candidate oracle loop.
_LAZY_FRIENDLY_ALGORITHMS = frozenset({"auto", "greedy", "mmr"})

_EXECUTORS = ("thread", "process")

#: Ceiling on a single retry backoff sleep so a misconfigured
#: ``retry_backoff_s`` cannot stall the serial fallback for minutes.
_MAX_BACKOFF_SECONDS = 5.0


def shard_pool(
    pool: np.ndarray,
    *,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
) -> List[np.ndarray]:
    """Split a sorted candidate pool into contiguous, non-empty shards.

    Exactly one of ``shards`` / ``shard_size`` may drive the split (when both
    are given, ``shards`` wins).  The shard count is clamped to the pool size
    and empty shards (requested count exceeding the pool) are dropped, so the
    result is always a partition of ``pool`` into non-empty pieces.
    """
    if shards is None and shard_size is None:
        raise InvalidParameterError("supply shards or shard_size")
    if shard_size is not None:
        shard_size = _check_integer("shard_size", shard_size, 1)
    if shards is None:
        shards = -(-pool.size // shard_size) if pool.size else 1
    count = min(_check_integer("shards", shards, 1), max(pool.size, 1))
    return [part for part in np.array_split(pool, count) if part.size]


def _block_matrix(metric: Metric, pool: np.ndarray) -> DistanceMatrix:
    """Materialize ``pool × pool`` distances into a :class:`DistanceMatrix`.

    The block is symmetrized first: GEMM-based blocks (cosine) can disagree
    between ``B[i, j]`` and ``B[j, i]`` by a few ulps of reassociation noise,
    which the :class:`DistanceMatrix` axiom check would reject at high
    dimension.  Exactly-symmetric blocks (euclidean, matrix slices) pass
    through bitwise unchanged since ``(x + x) / 2 == x``.
    """
    block = metric.block(pool, pool)
    return DistanceMatrix((block + block.T) / 2.0, copy=False)


def sub_metric(metric: Metric, pool: np.ndarray, materialize: bool) -> Metric:
    """The restriction of ``metric`` onto a checked ``pool`` for one solve.

    ``materialize=True`` produces a :class:`DistanceMatrix` (a copy-free view
    for matrix-backed parents, a chunk-computed block otherwise) so kernel
    blocks are slices; ``materialize=False`` prefers the lazy tier and
    only falls back to the default O(k²) restriction for pure oracle metrics.

    ``pool`` is not re-checked: it goes straight to the metric's
    ``_restrict`` / ``_restrict_lazy`` hooks.  Every caller is in-tree and
    passes a canonical index array — a checked pool (the serving corpus),
    shards and the core-set of one (:func:`solve_sharded`), or engine-built
    live ids (the dynamic session's shard-local repair).
    """
    if materialize:
        if metric.matrix_view() is not None:
            return metric._restrict(pool)
        return _block_matrix(metric, pool)
    lazy = metric._restrict_lazy(pool)
    return lazy if lazy is not None else metric._restrict(pool)


def _materialize_objective(objective: Objective) -> Objective:
    """Swap a lazy metric for its block-materialized :class:`DistanceMatrix`."""
    if objective.metric.matrix_view() is not None:
        return objective
    matrix = _block_matrix(objective.metric, np.arange(objective.n))
    return Objective(objective.quality, matrix, objective.tradeoff)


def _solve_shard(
    objective: Objective,
    index: int,
    *,
    algorithm: str,
    p: int,
    config: Optional[LocalSearchConfig],
    materialize: bool,
    deadline: Optional[Deadline],
    traced: bool,
) -> Tuple[List[Element], SpanBundle]:
    """Solve one shard sub-instance; returns (local winners, span bundle).

    Top-level so process pools can pickle it.  Materialization happens *here*
    rather than in the parent, so with a pool the block computations run in
    the workers (threads: NumPy releases the GIL; processes: each worker owns
    its block) and the parent never holds more than one shard's payload.  The
    deadline rides along in the payload: pickling re-anchors it with the
    parent's remaining budget, so even inside a process-pool worker the
    per-shard greedy stops cooperatively.

    Timing and tracing share one code path: the worker records into its own
    local :class:`~repro.obs.trace.Trace` (contextvars and pickled traces
    cannot cross pool boundaries) and ships the bundle back with the result —
    the bundle's root ``shard`` span *is* the shard's elapsed-seconds record,
    and when the parent solve is ``traced`` the inner solve phases ride along
    and are adopted into the parent trace.
    """
    from repro.core.solver import _dispatch

    worker_trace = Trace()
    with worker_trace.span("shard", shard=index, size=objective.n) as handle:
        if materialize:
            with maybe_span(
                worker_trace if traced else None, "materialize", shard=index
            ):
                objective = _materialize_objective(objective)
        result = _dispatch(
            objective,
            algorithm,
            p=p,
            matroid=None,
            local_search_config=config,
            control=RunControl(
                deadline=deadline, trace=worker_trace if traced else None
            ),
        )
        handle.set(selected=len(result.selected))
    return sorted(result.selected), worker_trace.bundle()


def solve_sharded(
    quality: SetFunction,
    metric: Metric,
    *,
    tradeoff: float,
    p: int,
    shards: Optional[int] = None,
    shard_size: Optional[int] = None,
    algorithm: str = "auto",
    shard_algorithm: Optional[str] = None,
    per_shard_p: Optional[int] = None,
    candidates: Optional[Iterable[Element]] = None,
    materialize_shards: Optional[bool] = None,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    local_search_config: Optional[LocalSearchConfig] = None,
    shard_timeout_s: Optional[float] = None,
    shard_retries: int = 1,
    retry_backoff_s: float = 0.05,
    control: Optional[RunControl] = None,
) -> SolverResult:
    """Solve a huge cardinality-constrained instance via a sharded core-set.

    Parameters
    ----------
    quality, metric, tradeoff:
        The instance ``(f, d, λ)``.  The metric is never asked for its full
        matrix: shard solves see at most a ``shard_size²`` block.
    p:
        Cardinality constraint.  Matroid constraints are not supported — the
        core-set union argument is cardinality-specific.
    shards, shard_size:
        Partition control: an explicit shard count, or a target elements-per-
        shard (the count is derived).  One of the two is required.  A single
        shard degenerates to — and returns exactly the result of — the plain
        unsharded solve.
    algorithm:
        Final-stage algorithm run on the core-set union, as in
        :func:`~repro.core.solver.solve` (the core-set is small, so expensive
        algorithms are affordable here).
    shard_algorithm:
        Per-shard algorithm (default ``"greedy"`` — Greedy B's 2-approximation
        is what the composability argument wants, and it runs on lazy O(k·d)
        state).
    per_shard_p:
        Winners kept per shard (default ``p``).  Raising it grows the
        core-set and tightens parity at the cost of final-stage work.
    candidates:
        Optional candidate pool; sharding then partitions the pool instead of
        the full universe.
    materialize_shards:
        Force (``True``) or forbid (``False``) materializing each shard's
        distance block.  Default ``None`` picks per algorithm: lazy for
        greedy-style shard algorithms, materialized for kernels that need the
        block (local search, pair seeding, Greedy A).
    max_workers, executor:
        Optional pool for the shard map: ``executor="thread"`` (honored only
        when the metric reports :attr:`~repro.metrics.base.Metric.parallel_safe`
        and the quality slices are array-backed) or ``executor="process"``
        (sub-instances are pickled to workers; shard timings are merged back
        into the parent, see :class:`~repro.obs.trace.Stopwatch`).
    local_search_config:
        Forwarded to any local-search stage (shard and final).
    shard_timeout_s:
        Per-shard wall-clock timeout for pooled shard solves.  A shard that
        exceeds it is treated as lost: the pool is abandoned (a hung worker
        cannot be cancelled individually), finished shards are harvested and
        the unfinished ones re-run serially in-process.
    shard_retries:
        Bounded retry budget for *failing* (raising) shard solves in the
        serial fallback path, with exponential backoff starting at
        ``retry_backoff_s``.  0 disables retries.
    retry_backoff_s:
        Initial backoff sleep between serial retries, doubled per attempt
        (capped at 5 s).
    control:
        Optional :class:`~repro.core.control.RunControl`, honoured in full.
        The deadline is shipped into every shard solve and checked between
        shard harvests and before the final stage.  A ``kind="sharded"``
        checkpoint records every solved shard's global winners, and a resume
        over the same partition and pool skips those shards.  Shard solves
        and the final stage get only the deadline and the trace; a single
        shard delegates to the plain solve without checkpoints.  A trace
        records ``restrict``, per-``shard`` and ``final_solve`` spans under
        a ``solve_sharded`` root (workers' spans are adopted; a lost shard
        gets a ``shard`` span whose ``status`` names the failure stage).

    Returns
    -------
    SolverResult
        Expressed in the original universe's indices.  ``metadata["sharding"]``
        records the shard layout, core-set size, executor, the summed
        per-shard solve seconds and any per-shard ``failures``;
        ``metadata["candidates"]`` is the user's pool when one was given, and
        ``metadata["degraded"]`` is ``True`` when any shard was lost or the
        pool fell back to serial execution.
    """
    started = time.perf_counter()
    objective = Objective(quality, metric, tradeoff)
    control = RunControl.coerce(control)
    if candidates is not None:
        # Keep the user's first-seen order for delegation and metadata (the
        # restriction-layer convention); sort only the partitioning pool so
        # shards are contiguous (copy-free views on matrix-backed metrics).
        user_pool = check_candidate_pool(candidates, objective.n)
        pool = np.sort(user_pool)
        control = control.scoped(pool)
    else:
        user_pool = None
        pool = np.arange(objective.n)
    return _solve_parts(
        objective,
        shard_pool(pool, shards=shards, shard_size=shard_size),
        user_pool,
        p=p,
        started=started,
        algorithm=algorithm,
        shard_algorithm=shard_algorithm,
        per_shard_p=per_shard_p,
        materialize_shards=materialize_shards,
        max_workers=max_workers,
        executor=executor,
        local_search_config=local_search_config,
        shard_timeout_s=shard_timeout_s,
        shard_retries=shard_retries,
        retry_backoff_s=retry_backoff_s,
        control=control,
    )


def _solve_parts(
    objective: Objective,
    parts: List[np.ndarray],
    pool: Optional[np.ndarray],
    *,
    p: int,
    started: float,
    algorithm: str = "auto",
    shard_algorithm: Optional[str] = None,
    per_shard_p: Optional[int] = None,
    materialize_shards: Optional[bool] = None,
    max_workers: Optional[int] = None,
    executor: str = "thread",
    local_search_config: Optional[LocalSearchConfig] = None,
    shard_timeout_s: Optional[float] = None,
    shard_retries: int = 1,
    retry_backoff_s: float = 0.05,
    control: Optional[RunControl] = None,
) -> SolverResult:
    """:func:`solve_sharded` past its partition: ``parts`` are sorted id
    arrays, ``pool`` the checked candidate pool in first-seen order (``None``
    for the whole universe), on which a single part runs the plain solve."""
    if executor not in _EXECUTORS:
        raise InvalidParameterError(
            f"unknown executor {executor!r}; expected one of {_EXECUTORS}"
        )
    if max_workers is not None:
        max_workers = _check_integer("max_workers", max_workers, 1)
    if per_shard_p is not None:
        per_shard_p = _check_integer("per_shard_p", per_shard_p, 1)
    if shard_timeout_s is not None and shard_timeout_s <= 0:
        raise InvalidParameterError("shard_timeout_s must be positive")
    shard_retries = _check_integer("shard_retries", shard_retries, 0)
    if retry_backoff_s < 0:
        raise InvalidParameterError("retry_backoff_s must be non-negative")
    from repro.core.solver import ALGORITHMS, _solve_pool, check_query

    p = check_query(objective.n, algorithm, p, None)
    control = RunControl.coerce(control)
    deadline, trace = control.deadline, control.trace
    # Shard solves and the final stage get the deadline and the trace only.
    stage_control = RunControl(deadline=deadline, trace=trace)

    if len(parts) <= 1:
        # One shard ≡ the plain solve on the checked pool; delegate so results
        # are bit-identical.  Checkpoint/resume does not apply to the
        # degenerate path (there is no shard progress to snapshot); the
        # deadline still does.
        result = _solve_pool(
            objective,
            pool,
            algorithm,
            p=p,
            matroid=None,
            local_search_config=local_search_config,
            control=stage_control,
        )
        size = sum(int(part.size) for part in parts)
        metadata = dict(result.metadata)
        metadata["sharding"] = {
            "shards": 1,
            "shard_sizes": [size],
            "core_size": size,
            "degenerate": True,
        }
        return dataclasses.replace(result, metadata=metadata)

    shard_algorithm = shard_algorithm or "greedy"
    if shard_algorithm not in ALGORITHMS:
        raise InvalidParameterError(
            f"unknown shard_algorithm {shard_algorithm!r}; expected one of "
            f"{ALGORITHMS}"
        )
    keep = per_shard_p if per_shard_p is not None else max(p, 1)
    if materialize_shards is None:
        materialize_shards = shard_algorithm not in _LAZY_FRIENDLY_ALGORITHMS

    shard_sizes = tuple(int(part.size) for part in parts)
    # Shard layout is deliberately outside the fingerprint: a layout change
    # has its own dedicated InvalidParameterError below.
    fingerprint = control.fingerprint("sharded", objective.n, objective.tradeoff)
    resume_from = control.resume("sharded", objective.n, fingerprint)
    winners: Dict[int, np.ndarray] = {}
    if resume_from is not None:
        if tuple(resume_from.shard_sizes) != shard_sizes:
            raise InvalidParameterError(
                f"checkpoint shard layout {tuple(resume_from.shard_sizes)} does "
                f"not match the current partition {shard_sizes}"
            )
        for index, global_winners in resume_from.shard_winners.items():
            ids = check_candidate_pool(global_winners, objective.n)
            if not (0 <= index < len(parts) and np.isin(ids, parts[index]).all()):
                raise InvalidParameterError(
                    f"checkpoint winners of shard {index} do not lie in that shard"
                )
            winners[int(index)] = ids
    resumed = sorted(winners)

    def checkpoint() -> SolveCheckpoint:
        return SolveCheckpoint(
            kind="sharded",
            n=objective.n,
            p=p,
            shard_winners={
                index: tuple(winners[index].tolist()) for index in sorted(winners)
            },
            shard_sizes=shard_sizes,
            elapsed_seconds=time.perf_counter() - started,
            metadata={"algorithm": algorithm, "shard_algorithm": shard_algorithm},
            fingerprint=fingerprint,
        )

    # Explicit-start root span, closed at the end, where it also yields
    # ``metadata["timings"]``.
    root = maybe_start_span(
        trace,
        "solve_sharded",
        n=objective.n,
        p=p,
        shards=len(parts),
        executor=executor,
    )
    report = _shard_stage(
        objective,
        {index: part for index, part in enumerate(parts) if index not in winners},
        winners,
        algorithm=shard_algorithm,
        keep=keep,
        control=control,
        materialize=materialize_shards,
        local_search_config=local_search_config,
        executor=executor,
        max_workers=max_workers,
        shard_timeout_s=shard_timeout_s,
        shard_retries=shard_retries,
        retry_backoff_s=retry_backoff_s,
        checkpoint=checkpoint,
    )
    core = np.sort(np.concatenate([np.zeros(0, dtype=int), *winners.values()]))
    result = _core_stage(
        objective,
        core,
        algorithm=algorithm,
        p=p,
        local_search_config=local_search_config,
        control=stage_control,
    )

    degraded = bool(report.failures)
    metadata = dict(result.metadata)
    if pool is not None:
        metadata["candidates"] = tuple(pool.tolist())
    else:
        metadata.pop("candidates", None)
    metadata["sharding"] = {
        "shards": len(parts),
        "shard_sizes": list(shard_sizes),
        "core_size": int(core.size),
        "per_shard_p": keep,
        "shard_algorithm": shard_algorithm,
        "materialized_shards": bool(materialize_shards),
        "executor": report.executor,
        "shard_seconds": report.seconds,
    }
    if degraded or len(winners) < len(parts) or core.size == 0:
        metadata["sharding"]["failures"] = report.failures
        metadata["sharding"]["failed_shards"] = [
            index for index in range(len(parts)) if index not in winners
        ]
    if resumed and core.size:
        metadata["sharding"]["resumed_shards"] = resumed
    if degraded:
        metadata["degraded"] = True
        metadata["degradation"] = "shard_map"
    if report.interrupted:
        mark_interrupted(metadata, deadline, "shard_map")
    elapsed = time.perf_counter() - started
    if SOLVES.enabled():
        SOLVES.inc(path="sharded")
        SOLVE_SECONDS.observe(elapsed, path="sharded")
    if trace is not None:
        root.set(
            core_size=int(core.size),
            degraded=degraded,
            interrupted=report.interrupted,
        )
        root.finish()
        metadata["timings"] = phase_timings(trace, root.id, total=elapsed)
    return dataclasses.replace(result, elapsed_seconds=elapsed, metadata=metadata)


class _ShardReport(NamedTuple):
    """What the shard stage reports besides the winners it wrote."""

    failures: List[dict]
    interrupted: bool
    executor: Optional[str]
    seconds: float


def _shard_stage(
    objective: Objective,
    parts: Dict[int, np.ndarray],
    winners: Dict[int, np.ndarray],
    *,
    keep: int,
    control: RunControl,
    algorithm: str = "greedy",
    materialize: bool = False,
    local_search_config: Optional[LocalSearchConfig] = None,
    executor: str = "thread",
    max_workers: Optional[int] = None,
    shard_timeout_s: Optional[float] = None,
    shard_retries: int = 0,
    retry_backoff_s: float = 0.0,
    checkpoint: Optional[Callable[[], SolveCheckpoint]] = None,
) -> _ShardReport:
    """Write the winners of each shard of ``parts`` (index → sorted ids) to
    ``winners``; a shard whose solve fails keeps the winners it had and gets
    a failure record.  The defaults are the dynamic engine's: greedy, serial,
    no retries.  ``control.on_checkpoint`` gets ``checkpoint()`` every
    ``checkpoint_every`` solved shards."""
    deadline, trace = control.deadline, control.trace
    parent = None if trace is None else trace.current_span_id()
    on_checkpoint, checkpoint_every = control.on_checkpoint, control.checkpoint_every

    # Build the shard sub-instances (cheap: lazy metric slices + weight
    # slices), keeping the winners of shards no bigger than their quota
    # without solving at all.
    solve = functools.partial(
        _solve_shard,
        algorithm=algorithm,
        p=keep,
        config=local_search_config,
        materialize=materialize,
        deadline=deadline,
        traced=trace is not None,
    )
    payloads: List[Tuple[int, Callable]] = []
    with maybe_span(trace, "restrict", shards=len(parts)):
        for index, shard in parts.items():
            if shard.size <= keep:
                winners[index] = shard
                continue
            sub_objective = Objective(
                objective.quality._restrict(shard),
                sub_metric(objective.metric, shard, materialize=False),
                objective.tradeoff,
            )
            payloads.append((index, functools.partial(solve, sub_objective, index)))

    shard_watch = Stopwatch()
    failures: List[dict] = []
    interrupted = False
    completions = 0

    def record_success(
        index: int, local_winners: List[Element], bundle: SpanBundle
    ) -> None:
        nonlocal completions
        winners[index] = parts[index][np.asarray(local_winners, dtype=int)]
        # Tolerant timing merge: only shards that actually finished ship a
        # span bundle back; lost workers simply contribute nothing here
        # instead of poisoning the merged total.  The bundle's root span
        # duration *is* the shard's elapsed time — span and stopwatch
        # accounting share this one code path.
        shard_watch.add(bundle.elapsed)
        if trace is not None:
            trace.adopt(bundle, parent_id=parent)
        completions += 1
        if on_checkpoint is not None and completions % checkpoint_every == 0:
            on_checkpoint(checkpoint())

    def record_failure(index: int, stage: str, error: BaseException) -> None:
        failures.append({"shard": index, "stage": stage, "error": repr(error)})
        if SHARD_FAILURES.enabled():
            SHARD_FAILURES.inc(stage=stage)
        if trace is not None:
            # A crashed or timed-out worker takes its locally recorded spans
            # with it; record a synthetic zero-duration shard span so the
            # loss is visible in the trace instead of silent.
            trace.record_span(
                "shard",
                parent_id=parent,
                status=stage,
                shard=index,
                error=repr(error),
            )

    def run_serial(tasks: List[Tuple[int, Callable]]) -> None:
        """In-process shard solves with bounded exponential-backoff retries."""
        nonlocal interrupted
        for index, task in tasks:
            if deadline is not None and deadline.expired():
                interrupted = True
                break
            last_error: Optional[BaseException] = None
            for attempt in range(shard_retries + 1):
                if attempt and retry_backoff_s > 0:
                    time.sleep(
                        min(
                            retry_backoff_s * (2 ** (attempt - 1)),
                            _MAX_BACKOFF_SECONDS,
                        )
                    )
                try:
                    local_winners, bundle = task()
                except Exception as error:
                    last_error = error
                    continue
                record_success(index, local_winners, bundle)
                last_error = None
                break
            if last_error is not None:
                # The shard is lost: record it and move on with a smaller
                # core-set rather than failing the whole solve.
                record_failure(index, "serial", last_error)

    def run_pool(tasks: List[Tuple[int, Callable]]) -> List[Tuple[int, Callable]]:
        """Pooled shard map; returns the shards that need the serial fallback.

        Futures are harvested in submission order with a per-shard timeout.
        Any unrecoverable pool condition — a shard overrunning
        ``shard_timeout_s`` (a hung worker cannot be cancelled individually)
        or a crashed worker process (``BrokenProcessPool``) — abandons the
        pool with ``shutdown(wait=False, cancel_futures=True)``, keeps every
        already-finished shard's result, and hands the rest back for serial
        in-process execution.  The pool is never allowed to kill the solve.
        """
        nonlocal interrupted
        from concurrent.futures import (
            BrokenExecutor,
            ProcessPoolExecutor,
            ThreadPoolExecutor,
        )
        from concurrent.futures import TimeoutError as FutureTimeoutError

        pool_cls = ThreadPoolExecutor if executor == "thread" else ProcessPoolExecutor
        fallback: List[Tuple[int, Callable]] = []
        workers = pool_cls(max_workers=max_workers)
        abandoned = False
        try:
            submitted = [(index, task, workers.submit(task)) for index, task in tasks]
            for index, task, future in submitted:
                if abandoned:
                    # Completed futures keep their results even after the
                    # pool broke or was abandoned; harvest them for free.
                    if future.done():
                        try:
                            record_success(index, *future.result(timeout=0))
                        except Exception as error:
                            record_failure(index, "worker", error)
                            fallback.append((index, task))
                    elif not interrupted:
                        fallback.append((index, task))
                    continue
                budget = shard_timeout_s
                if deadline is not None:
                    remaining = deadline.remaining()
                    budget = remaining if budget is None else min(budget, remaining)
                try:
                    local_winners, bundle = future.result(timeout=budget)
                except FutureTimeoutError as error:
                    abandoned = True
                    if deadline is not None and deadline.expired():
                        # The global budget ran out, not the shard; skip the
                        # unfinished shards without blaming them.
                        interrupted = True
                    else:
                        record_failure(index, "worker_timeout", error)
                        fallback.append((index, task))
                except BrokenExecutor as error:
                    abandoned = True
                    record_failure(index, "worker_crash", error)
                    fallback.append((index, task))
                except Exception as error:
                    # The shard itself raised inside a healthy worker; retry
                    # it serially, keep harvesting the others from the pool.
                    record_failure(index, "worker", error)
                    fallback.append((index, task))
                else:
                    record_success(index, local_winners, bundle)
        finally:
            workers.shutdown(wait=False, cancel_futures=True)
        return fallback

    array_backed = weights_view_of(objective.quality) is not None
    # Thread-pooled shard maps need every oracle touched by a worker to be a
    # pure read of immutable NumPy state: the metric must declare itself
    # parallel-safe, and the quality must either expose an array weight view
    # (modular families) or declare `parallel_safe` itself (the built-in
    # submodular families, whose gains/gain-state protocol reads only the
    # immutable similarity/kernel arrays — per-shard states live inside each
    # worker's solve).
    use_pool = (
        max_workers is not None
        and max_workers > 1
        and len(payloads) > 1
        and (
            executor == "process"
            or (
                objective.metric.parallel_safe
                and (array_backed or objective.quality.parallel_safe)
            )
        )
    )
    if deadline is not None and deadline.expired():
        interrupted = True
    elif use_pool:
        # Every shard the pool lost was recorded as a failure; retry serially.
        run_serial(run_pool(payloads))
    else:
        run_serial(payloads)
    return _ShardReport(
        failures,
        interrupted,
        executor if use_pool else None,
        shard_watch.elapsed_seconds,
    )


def _core_stage(
    objective: Objective,
    core: np.ndarray,
    *,
    algorithm: str,
    p: int,
    control: RunControl,
    local_search_config: Optional[LocalSearchConfig] = None,
) -> SolverResult:
    """Run ``algorithm`` for ``p`` on the sorted ``core`` ids, lifted back."""
    if core.size == 0:
        # Every shard was lost (or the deadline expired before any winners
        # existed): the only feasible answer left is the empty selection.
        return build_result(
            objective, set(), [], algorithm=algorithm, metadata={"p": p}
        )
    from repro.core.solver import solve_restricted

    with maybe_span(
        control.trace, "final_solve", core=int(core.size), algorithm=algorithm
    ):
        materialize = algorithm not in _LAZY_FRIENDLY_ALGORITHMS
        restriction = Restriction._from_trusted(
            objective, core, sub_metric(objective.metric, core, materialize)
        )
        if algorithm != "local_search":
            return solve_restricted(
                restriction,
                algorithm,
                p=p,
                local_search_config=local_search_config,
                control=control,
            )
        # Seed the final search with the core-set greedy solution instead of
        # the default best-pair basis: the shard stage already paid for good
        # winners, and a bounded search budget should refine them, not
        # rebuild from scratch.
        from repro.core.greedy import greedy_diversify
        from repro.core.local_search import local_search_diversify
        from repro.matroids.uniform import UniformMatroid

        final_p = min(p, core.size)
        seed = greedy_diversify(restriction.objective, final_p, control=control)
        final = local_search_diversify(
            restriction.objective,
            UniformMatroid(restriction.n, final_p),
            config=local_search_config,
            initial=seed.selected,
            control=control,
        )
        return restriction.lift(final)
