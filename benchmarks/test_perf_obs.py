"""Performance guards for the observability layer.

Two contracts from the tracing/metrics subsystem:

* **Enabled tracing overhead ≤5%.**  Passing ``trace=Trace()`` into the
  n=100k sharded solve records a few dozen spans (restrict, per-shard
  solves, greedy phases, final solve) — bookkeeping that must stay in the
  noise next to the solve itself.  Traced and untraced solves alternate one
  by one; the guard takes the median over 5 groups of rounds of the
  traced/untraced ratio of summed solve times.  Guard key ``obs_overhead``.

* **Disabled instrumentation ≈0% (≤1%).**  With no trace attached every
  instrumented site runs ``maybe_span(None, ...)`` — a shared no-op handle
  — and a single ``enabled()`` check per metric.  The guard micro-times
  that no-op path, scales it by the span count an instrumented solve
  actually emits, and asserts the projected fraction of the untraced solve
  stays ≤1%.  Guard key ``obs_overhead_disabled``.

Both numbers are exported to ``BENCH_<sha>.json`` via ``extra_info`` and
ratcheted by ``compare_bench.py``; the traced run's per-phase breakdown
rides along under ``extra_info["obs"]``.
"""

from __future__ import annotations

import time

from repro.data.synthetic import make_feature_instance
from repro.obs.instrument import maybe_span
from repro.obs.trace import Trace

from .conftest import grouped_ratio, interleaved_seconds, run_once

N, DIMENSION, P = 100_000, 8, 10
SHARDS, SHARD_WORKERS = 16, 2
# Single solves vary by ±10% from one to the next on a shared 2-vCPU host;
# 5 groups of 8 alternating rounds (80 solves) average that jitter out,
# though the overhead itself still moves with host load there (readings
# from -1% to +8%, the same with twice the rounds).
OVERHEAD_GROUPS, ROUNDS_PER_GROUP = 5, 8
MAX_OBS_OVERHEAD = 0.05
MAX_OBS_OVERHEAD_DISABLED = 0.01
NULL_SPAN_CALLS = 100_000


def _solve(instance, trace=None):
    from repro import solve

    return solve(
        instance.quality,
        instance.metric,
        tradeoff=instance.tradeoff,
        p=P,
        shards=SHARDS,
        shard_workers=SHARD_WORKERS,
        trace=trace,
    )


def _null_span_seconds(calls: int) -> float:
    """Per-call cost of the no-op instrumentation path (trace is None)."""
    started = time.perf_counter()
    for _ in range(calls):
        with maybe_span(None, "noop", phase="bench"):
            pass
    return (time.perf_counter() - started) / calls


def test_tracing_overhead(benchmark):
    """Traced n=100k sharded solve within 5% of untraced; no-op path ≤1%."""
    instance = make_feature_instance(N, dimension=DIMENSION, seed=71)
    last = {}

    def untraced():
        last["base"] = _solve(instance)

    def traced():
        last["trace"] = Trace()
        last["traced"] = _solve(instance, trace=last["trace"])

    # Warm both paths before timing.
    untraced()
    traced()
    seconds = run_once(
        benchmark,
        interleaved_seconds,
        [untraced, traced],
        rounds=OVERHEAD_GROUPS * ROUNDS_PER_GROUP,
    )
    base_seconds, traced_seconds = seconds.mean(axis=0)
    base_result, traced_result, trace = last["base"], last["traced"], last["trace"]

    # Tracing is observability, not behaviour: selections must be identical.
    assert traced_result.selected == base_result.selected
    assert traced_result.objective_value == base_result.objective_value

    span_count = len(trace.spans())
    assert span_count >= SHARDS, "expected at least one span per shard"
    timings = traced_result.metadata["timings"]
    assert "total" in timings and "shard" in timings

    ratio = grouped_ratio(seconds, OVERHEAD_GROUPS)
    overhead = max(0.0, ratio - 1.0)

    # Project the disabled cost: per-call no-op price x the number of spans
    # an instrumented solve emits, as a fraction of the untraced solve.
    null_per_call = _null_span_seconds(NULL_SPAN_CALLS)
    disabled = (null_per_call * span_count) / max(base_seconds, 1e-12)

    benchmark.extra_info["n"] = N
    benchmark.extra_info["shards"] = SHARDS
    benchmark.extra_info["span_count"] = span_count
    benchmark.extra_info["base_seconds"] = round(base_seconds, 4)
    benchmark.extra_info["traced_seconds"] = round(traced_seconds, 4)
    benchmark.extra_info["obs_overhead"] = round(overhead, 4)
    benchmark.extra_info["obs_overhead_disabled"] = round(disabled, 6)
    benchmark.extra_info["obs"] = {
        name: round(value, 6) for name, value in timings.items()
    }
    print(
        f"\nobs overhead n={N}: untraced {base_seconds:.3f}s, traced "
        f"{traced_seconds:.3f}s mean per solve, median of {OVERHEAD_GROUPS} "
        f"groups ({ratio - 1.0:+.1%}, {span_count} spans); "
        f"no-op path {null_per_call * 1e9:.0f} ns/call "
        f"-> {disabled:.4%} disabled overhead"
    )
    assert overhead <= MAX_OBS_OVERHEAD, (
        f"enabled tracing added {overhead:.1%} to the sharded solve "
        f"(budget {MAX_OBS_OVERHEAD:.0%})"
    )
    assert disabled <= MAX_OBS_OVERHEAD_DISABLED, (
        f"disabled instrumentation projects to {disabled:.2%} "
        f"(budget {MAX_OBS_OVERHEAD_DISABLED:.0%})"
    )
