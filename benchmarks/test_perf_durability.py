"""Performance guards for the durability tier.

Two contracts from the write-ahead-log subsystem:

* **Journal overhead ≤10% (fsync="interval").**  A durable sharded session
  consuming the same event stream as a plain one must stay within 10% of
  its throughput: journaling is one in-memory ``np.savez`` encode plus one
  buffered append per tick, with fsync amortized across the interval — it
  must never rival the repair work itself.

* **Recovery stays bounded for a 10⁴-tick journal at n=10k.**  Replay runs
  every journaled tick back through the normal apply path, so its cost is
  the apply cost of the stream — not the crash. The guard journals 10 000
  single-event ticks against a sharded n=10 000 session (fsync="off": the
  log content, not the sync policy, is what recovery sees), recovers the
  directory, and asserts both the wall-time bound and bit-identical state.
"""

from __future__ import annotations

import time

import numpy as np

from repro.dynamic.events import EventBatchBuilder
from repro.dynamic.session import DynamicSession

from .conftest import run_once

# Overhead guard: the headline stream scale (n=100k, ~2500 mixed events per
# tick on two hot shards) — per-tick repair work has to dwarf the journal
# append, and the run must span several fsync intervals so the "interval"
# policy actually amortizes (a short run would price one raw fsync instead).
OVERHEAD_N, OVERHEAD_DIM, OVERHEAD_P = 100_000, 8, 10
OVERHEAD_SHARD_SIZE = 4096
OVERHEAD_TICKS, OVERHEAD_TICK_EVENTS = 12, 2500
MAX_WAL_OVERHEAD = 0.10
# The stream runs on this many fresh (plain, durable) session pairs, ticks
# alternating between the arms; the guard takes the median over pairs of the
# durable/plain ratio of summed tick times, so a scheduler stall that hits
# one pair cannot decide it.  Nine pairs: the stream now takes ~0.2 s per
# arm, and five pairs of it read from +3.7% to +9.1%.
OVERHEAD_REPLICAS = 9

# Recovery guard: 10^4 one-event ticks at n=10k, small shards so every tick's
# replay re-solves exactly one cheap shard.
RECOVERY_N, RECOVERY_DIM, RECOVERY_P = 10_000, 4, 8
RECOVERY_SHARD_SIZE = 512
RECOVERY_TICKS = 10_000
MAX_RECOVERY_SECONDS = 60.0


def _stream_ticks(rng, n, shard_size, ticks, events_per_tick):
    """Deterministic mixed ticks clustered on two hot shards each."""
    batches = []
    num_shards = n // shard_size
    for _ in range(ticks):
        hot = rng.choice(num_shards, size=2, replace=False)
        builder = EventBatchBuilder()
        shards = rng.integers(0, 2, size=events_per_tick)
        offsets = rng.integers(0, shard_size, size=(events_per_tick, 2))
        kinds = rng.uniform(size=events_per_tick)
        values = rng.uniform(0.5, 2.0, size=events_per_tick)
        for i in range(events_per_tick):
            base = int(hot[shards[i]]) * shard_size
            element = min(base + int(offsets[i, 0]), n - 1)
            if kinds[i] < 0.85:
                builder.set_weight(element, float(values[i]))
            else:
                other = min(base + int(offsets[i, 1]), n - 1)
                if other != element:
                    builder.set_distance(element, other, float(values[i] + 0.5))
        batches.append(builder.build())
    return batches


def _interleaved_seconds(plain, durable, batches, first):
    """Apply each tick to both sessions, alternating which goes first.

    ``first`` (0 or 1) picks the arm that leads on even ticks.  Returns the
    summed per-tick apply times ``(plain, durable)``.  Timing the arms tick
    by tick spreads host speed drift over both; timing one whole stream
    after the other lands it on a single arm.
    """
    totals = {id(plain): 0.0, id(durable): 0.0}
    for index, batch in enumerate(batches):
        order = (plain, durable) if (index + first) % 2 == 0 else (durable, plain)
        for session in order:
            started = time.perf_counter()
            session.apply_events(batch)
            totals[id(session)] += time.perf_counter() - started
    return totals[id(plain)], totals[id(durable)]


def test_wal_append_overhead(benchmark, tmp_path):
    """Durable (fsync="interval") stream within 10% of the plain stream."""
    rng = np.random.default_rng(51)
    points = rng.normal(size=(OVERHEAD_N, OVERHEAD_DIM))
    weights = rng.uniform(0.5, 2.0, OVERHEAD_N)
    batches = _stream_ticks(
        np.random.default_rng(53),
        OVERHEAD_N,
        OVERHEAD_SHARD_SIZE,
        OVERHEAD_TICKS,
        OVERHEAD_TICK_EVENTS,
    )

    def replicated_streams():
        sums = np.empty((OVERHEAD_REPLICAS, 2))
        for replica in range(OVERHEAD_REPLICAS):
            plain = DynamicSession(
                weights, OVERHEAD_P, points=points, shard_size=OVERHEAD_SHARD_SIZE
            )
            durable = DynamicSession(
                weights,
                OVERHEAD_P,
                points=points,
                shard_size=OVERHEAD_SHARD_SIZE,
                durable_dir=str(tmp_path / f"wal-overhead-{replica}"),
                fsync="interval",
            )
            sums[replica] = _interleaved_seconds(plain, durable, batches, replica % 2)
            durable.close()
            # identical streams through identical engines: the states must agree
            assert durable.solution == plain.solution
            assert durable.solution_value == plain.solution_value
        return sums

    sums = run_once(benchmark, replicated_streams)
    plain_seconds, durable_seconds = np.median(sums, axis=0)

    events = sum(batch.num_events for batch in batches)
    overhead = max(0.0, float(np.median(sums[:, 1] / sums[:, 0])) - 1.0)
    benchmark.extra_info["n"] = OVERHEAD_N
    benchmark.extra_info["ticks"] = OVERHEAD_TICKS
    benchmark.extra_info["replicas"] = OVERHEAD_REPLICAS
    benchmark.extra_info["events"] = events
    benchmark.extra_info["plain_events_per_sec"] = round(events / plain_seconds, 1)
    benchmark.extra_info["durable_events_per_sec"] = round(
        events / durable_seconds, 1
    )
    benchmark.extra_info["wal_overhead"] = round(overhead, 4)
    print(
        f"\nwal overhead n={OVERHEAD_N}: plain {plain_seconds:.3f}s, durable "
        f"{durable_seconds:.3f}s over {events} events, median of "
        f"{OVERHEAD_REPLICAS} interleaved pairs "
        f"({overhead:+.1%} overhead, fsync=interval)"
    )
    assert overhead <= MAX_WAL_OVERHEAD, (
        f"journaling added {overhead:.1%} to the event stream "
        f"(budget {MAX_WAL_OVERHEAD:.0%})"
    )


def test_recovery_time_bounded(benchmark, tmp_path):
    """Recovering a 10^4-tick journal at n=10k stays under the wall bound."""
    rng = np.random.default_rng(61)
    points = rng.normal(size=(RECOVERY_N, RECOVERY_DIM))
    weights = rng.uniform(0.5, 2.0, RECOVERY_N)
    directory = str(tmp_path / "recovery")
    session = DynamicSession(
        weights,
        RECOVERY_P,
        points=points,
        shard_size=RECOVERY_SHARD_SIZE,
        durable_dir=directory,
        fsync="off",
    )

    event_rng = np.random.default_rng(63)
    elements = event_rng.integers(0, RECOVERY_N, size=RECOVERY_TICKS)
    values = event_rng.uniform(0.5, 2.0, size=RECOVERY_TICKS)
    journal_started = time.perf_counter()
    for element, value in zip(elements, values):
        session.apply_events(
            EventBatchBuilder().set_weight(int(element), float(value)).build()
        )
    journal_seconds = time.perf_counter() - journal_started
    reference_solution = session.solution
    reference_value = session.solution_value
    session.close()

    recovered = run_once(benchmark, DynamicSession.recover, directory)
    recovery_seconds = benchmark.stats.stats.min
    recovered.close()

    assert recovered.ticks == RECOVERY_TICKS
    assert recovered.solution == reference_solution
    assert recovered.solution_value == reference_value

    benchmark.extra_info["n"] = RECOVERY_N
    benchmark.extra_info["ticks"] = RECOVERY_TICKS
    benchmark.extra_info["journal_seconds"] = round(journal_seconds, 3)
    benchmark.extra_info["recovery_seconds"] = round(recovery_seconds, 3)
    benchmark.extra_info["recovered_ticks_per_sec"] = round(
        RECOVERY_TICKS / max(recovery_seconds, 1e-12), 1
    )
    print(
        f"\nrecovery n={RECOVERY_N}: {RECOVERY_TICKS} ticks journaled in "
        f"{journal_seconds:.2f}s, recovered bit-identically in "
        f"{recovery_seconds:.2f}s"
    )
    assert recovery_seconds <= MAX_RECOVERY_SECONDS, (
        f"recovery took {recovery_seconds:.1f}s "
        f"(budget {MAX_RECOVERY_SECONDS:.0f}s)"
    )
