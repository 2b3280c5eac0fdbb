"""``ingest`` and ``recover``: a durable sharded session under a skewed stream.

``ingest`` times a fixed tick sequence applied back to back by one producer
(a closed loop): per tick, the builder adds, ``build()`` and
``DynamicSession.apply_events``, which journals the tick, applies and repairs
it, and on its cadence re-solves the whole universe (``resolve_every``) or
compacts the journal into a snapshot (``snapshot_every``).  Small ticks hit
one Zipf-popular shard; every 20th tick is a three-shard burst that also
inserts points and deletes the previous burst's inserts.  A tenth of the
events set distances, so the sparse override overlay grows as the run goes,
which is why the tick count is fixed rather than time-bounded.

``recover`` runs a shorter stream whose journal tail after the last
compaction holds more than 100 ticks, drops the live session (its journal is
flushed, never compacted), and times ``DynamicSession.recover`` on that
directory several times; recovery never modifies a cleanly written journal,
so every repetition replays the same tail.
"""

from __future__ import annotations

import os
from typing import Dict, List

import numpy as np

from repro.durability.recovery import SNAPSHOT_DIRNAME, WAL_FILENAME, DurableStore
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import RECORD_TICK, read_wal
from repro.dynamic.events import (
    EventBatchBuilder,
    decode_event_batch,
    encode_event_batch,
)
from repro.dynamic.session import DynamicSession
from repro.exceptions import PerturbationError

from perflib.common import RunContext, median_of, ms, peak_rss_mb, perf, timed_median
from perflib.inputs import tick_stream, universe
from perflib.report import Outcome
from perflib.spans import SpanLog, check_additive
from perflib.stats import failed_frac, percentile, summarize

N = 100_000
DIM = 8
P = 10
SHARD_SIZE = 2048  # DynamicSession's default, spelled out for the tick plan
RESOLVE_EVERY = 200
BURST_EVERY = 20
BURST_EVENTS = 1000
BURST_SHARDS = 3
BURST_INSERTS = 2
SMALL_MAX = 16
SHARD_EXPONENT = 1.2
DISTANCE_SHARE = 0.1
PARITY = 0.95
SETUP_REPS = 5
CALIBRATE_EVERY = 20  # ticks between calibration passes
CALIBRATION_PASSES = 5  # around the set-ups and every recovery

INGEST_TICKS_PER_S = 35  # ticks = 35 x --seconds, fixed for a given run length
INGEST_SNAPSHOT_EVERY = 300
RECOVER_TICKS = 280
RECOVER_SNAPSHOT_EVERY = 150  # one compaction at tick 150, a 130-tick tail
RECOVERIES = 8

_TRACE = ["trace.p50_ms", "trace.unattributed_ms"]
OWNED_INGEST = [
    "events.build_ms",
    "codec.encode_ms",
    "codec.decode_ms",
    "codec.bytes_per_tick",
    "durable.journal_ms",
    "engine.apply_ms",
    "engine.dirty_shards",
    "engine.core_resolve_ratio",
    "engine.overrides",
    "sharding.resolve_full_ms",
    "snapshot.compact_ms",
    "snapshot.bytes",
] + _TRACE
OWNED_RECOVER = [
    "recovery.read_wal_ms",
    "recovery.snapshot_load_ms",
    "recovery.replay_tick_ms",
    "snapshot.bytes",
] + _TRACE


def ingest_ticks(seconds: float) -> int:
    return max(2 * BURST_EVERY, int(round(INGEST_TICKS_PER_S * seconds)))


def make_ticks(seed: int, ticks: int):
    return tick_stream(
        seed,
        ticks,
        n=N,
        dim=DIM,
        shard_size=SHARD_SIZE,
        burst_every=BURST_EVERY,
        burst_events=BURST_EVENTS,
        burst_shards=BURST_SHARDS,
        burst_inserts=BURST_INSERTS,
        small_max=SMALL_MAX,
        shard_exponent=SHARD_EXPONENT,
        distance_share=DISTANCE_SHARE,
    )


def _setup(ctx: RunContext, points, weights, snapshot_every: int):
    """Build the durable session ``SETUP_REPS`` times; keep the last one.

    Returns the session, its directory and each set-up's ``(start, end)``.
    """
    ctx.speed.sample(CALIBRATION_PASSES)
    times = []
    session = None
    for rep in range(SETUP_REPS):
        if session is not None:
            session.close()
        directory = os.path.join(ctx.workdir, f"session-{rep}")
        start = perf()
        session = DynamicSession(
            weights,
            P,
            points=points,
            durable_dir=directory,
            fsync="interval",
            resolve_every=RESOLVE_EVERY,
            snapshot_every=snapshot_every,
        )
        times.append((start, perf()))
    ctx.speed.sample(CALIBRATION_PASSES)
    return session, directory, times


def _wrap(obj, attr: str, name: str, calls: List[tuple]) -> None:
    """Replace ``obj.attr`` by a wrapper that records each call's span."""
    original = getattr(obj, attr)

    def wrapper(*args, **kwargs):
        start = perf()
        try:
            return original(*args, **kwargs)
        finally:
            calls.append((name, start, perf()))

    setattr(obj, attr, wrapper)


class _Stream:
    """Applies the tick plan to a session, recording what the run needs."""

    def __init__(self, session: DynamicSession, trace: bool) -> None:
        self.session = session
        self.trace = trace
        self.latency: List[float] = []
        self.intervals: List[tuple] = []
        self.events = 0
        self.failed = 0
        self.dirty: List[int] = []
        self.core_resolved: List[bool] = []
        self.batches = []
        self.spans = SpanLog()
        self.bounds: Dict[int, tuple] = {}
        self.calls: List[tuple] = []
        self._pending_deletes: List[int] = []
        if trace:
            _wrap(session.durable, "journal", "durable.journal", self.calls)
            _wrap(session.durable, "compact", "snapshot.compact", self.calls)
            _wrap(session.engine, "apply_events", "engine.apply_events", self.calls)
            _wrap(session.engine, "resolve_full", "sharding.resolve_full", self.calls)

    def apply(self, index: int, tick) -> None:
        start = perf()
        builder = EventBatchBuilder()
        weights = zip(tick.weight_elements.tolist(), tick.weight_values.tolist())
        for element, value in weights:
            builder.set_weight(element, value)
        distances = zip(tick.distance_pairs.tolist(), tick.distance_values.tolist())
        for (u, v), value in distances:
            builder.set_distance(u, v, value)
        for point, weight in zip(tick.insert_points, tick.insert_weights.tolist()):
            builder.insert(weight, point=point)
        if tick.burst:
            for element in self._pending_deletes:
                builder.delete(element)
        batch = builder.build()
        built = perf()
        called = perf()
        try:
            outcome = self.session.apply_events(batch)
        except PerturbationError:
            outcome = None
        end = perf()
        self.latency.append(end - start)
        self.intervals.append((start, end))
        if self.trace:
            self._record_spans(index, start, built, called, end)
            self.batches.append(batch)
        if outcome is None or outcome.metadata.get("degraded"):
            self.failed += 1
            return
        self.events += batch.num_events
        self.dirty.append(len(outcome.metadata["dirty_shards"]))
        self.core_resolved.append(bool(outcome.metadata["core_resolved"]))
        if tick.burst:
            self._pending_deletes = list(outcome.metadata.get("inserted", ()))

    def _record_spans(
        self, index: int, start: float, built: float, called: float, end: float
    ) -> None:
        log = self.spans
        self.bounds[index] = (start, end)
        log.add("events.build", start, built, units=[index])
        parent = log.add("session.apply_events", called, end, units=[index])
        for name, call_start, call_end in self.calls:
            log.add(name, call_start, call_end, parent=parent, units=[index])
        self.calls.clear()


def _newest_snapshot_bytes(directory: str) -> float:
    store = SnapshotStore(os.path.join(directory, SNAPSHOT_DIRNAME))
    generations = store.generations()
    if not generations:
        return 0.0
    return float(os.path.getsize(store.path_for(generations[-1])))


def run_ingest(ctx: RunContext) -> Outcome:
    points, weights = universe(ctx.seed, N, DIM)
    ticks = make_ticks(ctx.seed, ingest_ticks(ctx.seconds))
    session, directory, setups = _setup(ctx, points, weights, INGEST_SNAPSHOT_EVERY)
    stream = _Stream(session, ctx.trace)
    for index, tick in enumerate(ticks):
        if index % CALIBRATE_EVERY == 0:
            ctx.speed.sample(2)
        stream.apply(index, tick)
    ctx.speed.sample(2)
    loop_s = sum(stream.latency)  # the tick loop without the calibration passes
    rss = peak_rss_mb()

    problems = []
    live = session.solution_value
    reference = session.resolve_full(adopt=False).objective_value
    if not live >= PARITY * reference:
        problems.append(
            f"live value {live:.6f} < {PARITY} x resolve_full {reference:.6f}"
        )
    if len(session.solution) != P:
        problems.append(f"live solution has {len(session.solution)} elements, not {P}")
    overrides = session.engine.num_overrides
    snapshot_bytes = _newest_snapshot_bytes(directory)
    session.close()

    tick_stats = summarize(stream.latency)
    events_per_s = stream.events / loop_s
    setup_s = median_of([end - start for start, end in setups])
    report = [
        f"ingest: ticks={len(ticks)} failed={stream.failed} events={stream.events} "
        f"tick_p50_ms={ms(tick_stats['p50']):.3f} "
        f"tick_tail_ms={ms(tick_stats['tail']):.3f} (p{tick_stats['tail_pct']:g} of "
        f"{tick_stats['count']}) tick_p99_ms={ms(percentile(stream.latency, 99)):.3f} "
        f"events_per_s={events_per_s:.1f}/s setup_s={setup_s:.6f} "
        f"failed_frac={failed_frac(stream.failed, len(ticks)):.4f} "
        f"peak_rss_mb={rss:.1f} "
        f"live/resolve_full={live / reference:.6f}"
    ]
    scaled = [ctx.speed.scaled(*interval) for interval in stream.intervals]
    scaled_stats = summarize(scaled)
    if not ctx.trace:
        metrics = {
            "p50_ms": (ms(scaled_stats["p50"]), "ms"),
            "tail_ms": (ms(scaled_stats["tail"]), "ms"),
            "throughput_per_s": (stream.events / sum(scaled), "1/s"),
            "setup_s": (median_of([ctx.speed.scaled(*s) for s in setups]), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return Outcome(len(ticks), stream.failed, metrics, problems, report)

    log = stream.spans
    bad = check_additive(log, stream.bounds)
    if bad:
        problems.append(f"{len(bad)} ticks whose spans do not partition their latency")
    by_name = {}
    for name, start, end in zip(log.names, log.starts, log.ends):
        by_name.setdefault(name, []).append(end - start)
    encoded = [encode_event_batch(batch) for batch in stream.batches]
    encode_times, decode_times = [], []
    for batch, blob in zip(stream.batches, encoded):
        start = perf()
        encode_event_batch(batch)
        encode_times.append(perf() - start)
        start = perf()
        decode_event_batch(blob)
        decode_times.append(perf() - start)
    remainders = [rem for _, rem in log.unattributed(stream.bounds).values()]

    def p50_ms(name: str) -> float:
        return ms(percentile(by_name.get(name, []), 50)) if name in by_name else 0.0

    metrics = {
        "events.build_ms": (p50_ms("events.build"), "ms"),
        "codec.encode_ms": (ms(percentile(encode_times, 50)), "ms"),
        "codec.decode_ms": (ms(percentile(decode_times, 50)), "ms"),
        "codec.bytes_per_tick": (float(np.mean([len(b) for b in encoded])), "B"),
        "durable.journal_ms": (p50_ms("durable.journal"), "ms"),
        "engine.apply_ms": (p50_ms("engine.apply_events"), "ms"),
        "engine.dirty_shards": (float(np.mean(stream.dirty)), "count"),
        "engine.core_resolve_ratio": (float(np.mean(stream.core_resolved)), "ratio"),
        "engine.overrides": (float(overrides), "count"),
        "sharding.resolve_full_ms": (p50_ms("sharding.resolve_full"), "ms"),
        "snapshot.compact_ms": (p50_ms("snapshot.compact"), "ms"),
        "snapshot.bytes": (snapshot_bytes, "B"),
        "trace.p50_ms": (ms(scaled_stats["p50"]), "ms"),
        "trace.unattributed_ms": (ms(percentile(remainders, 50)), "ms"),
    }
    return Outcome(len(ticks), stream.failed, metrics, problems, report, log)


def _tail(directory: str) -> tuple:
    """(tick records after the newest snapshot's watermark, their events)."""
    records, _ = read_wal(os.path.join(directory, WAL_FILENAME))
    latest = SnapshotStore(os.path.join(directory, SNAPSHOT_DIRNAME)).load_latest()
    watermark = latest[1].wal_seq if latest is not None else 0
    tail = [r for r in records if r.kind == RECORD_TICK and r.seq > watermark]
    events = sum(DurableStore.decode_tick(r.body)[0].num_events for r in tail)
    return len(tail), events


def run_recover(ctx: RunContext) -> Outcome:
    points, weights = universe(ctx.seed, N, DIM)
    ticks = make_ticks(ctx.seed, RECOVER_TICKS)
    session, directory, setups = _setup(ctx, points, weights, RECOVER_SNAPSHOT_EVERY)
    stream = _Stream(session, trace=False)
    for index, tick in enumerate(ticks):
        stream.apply(index, tick)
    live_solution = session.solution
    live_value = session.solution_value
    stream_failed = stream.failed
    session.close()  # the crash: the journal tail stays uncompacted
    del session, stream

    problems = []
    tail_ticks, tail_events = _tail(directory)
    if tail_ticks <= 100:
        problems.append(f"journal tail holds {tail_ticks} ticks, not more than 100")
    log = SpanLog()
    bounds = {}
    times = []
    for rep in range(RECOVERIES):
        ctx.speed.sample(CALIBRATION_PASSES)
        outer = perf()
        start = perf()
        recovered = DynamicSession.recover(directory)
        end = perf()
        bounds[rep] = (outer, perf())
        log.add("session.recover", start, end, units=[rep])
        times.append((start, end))
        if (
            recovered.solution != live_solution
            or recovered.solution_value != live_value
        ):
            problems.append(f"recovery {rep} differs from the live session")
        recovered.close()
        del recovered
    ctx.speed.sample(CALIBRATION_PASSES)
    rss = peak_rss_mb()

    stats = summarize([end - start for start, end in times])
    recover_s = stats["p50"]
    setup_s = median_of([end - start for start, end in setups])
    report = [
        f"recover: stream_ticks={len(ticks)} failed={stream_failed} "
        f"tail_ticks={tail_ticks} tail_events={tail_events} "
        f"recover_s={recover_s:.6f} (median of {len(times)}) setup_s={setup_s:.6f} "
        f"peak_rss_mb={rss:.1f}"
    ]
    attempted = len(ticks) + RECOVERIES
    failed = stream_failed
    scaled = summarize([ctx.speed.scaled(*interval) for interval in times])
    if not ctx.trace:
        metrics = {
            "p50_ms": (ms(scaled["p50"]), "ms"),
            "tail_ms": (ms(scaled["tail"]), "ms"),
            "throughput_per_s": (tail_events / scaled["p50"], "1/s"),
            "setup_s": (median_of([ctx.speed.scaled(*s) for s in setups]), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return Outcome(attempted, failed, metrics, problems, report)

    wal_path = os.path.join(directory, WAL_FILENAME)
    store = SnapshotStore(os.path.join(directory, SNAPSHOT_DIRNAME))
    read_s = timed_median(lambda: read_wal(wal_path), 3)
    load_s = timed_median(store.load_latest, 3)
    remainders = [rem for _, rem in log.unattributed(bounds).values()]
    metrics = {
        "recovery.read_wal_ms": (ms(read_s), "ms"),
        "recovery.snapshot_load_ms": (ms(load_s), "ms"),
        "recovery.replay_tick_ms": (
            ms((recover_s - read_s - load_s) / tail_ticks),
            "ms",
        ),
        "snapshot.bytes": (_newest_snapshot_bytes(directory), "B"),
        "trace.p50_ms": (ms(scaled["p50"]), "ms"),
        "trace.unattributed_ms": (ms(percentile(remainders, 50)), "ms"),
    }
    return Outcome(attempted, failed, metrics, problems, report, log)
