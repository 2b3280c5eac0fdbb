"""Unit tests of the benchmark's own machinery (not of the library).

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the repository
root.  Nothing here runs a workload; the one subprocess test checks that the
benchmark refuses to run without the library under test.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perflib import ingest, matroid, serve
from perflib.calib import REFERENCE_S, SpeedIndex, at_reference
from perflib.inputs import poisson_schedule, rng, serve_queries, tick_stream
from perflib.report import (
    Outcome,
    check_result,
    declared,
    fill_unowned,
    load_spec,
    result_line,
)
from perflib.spans import SpanLog, check_additive, covered
from perflib.stats import failed_frac, summarize, tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Tail rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (1_000_000, 90.0),  # the ladder stops at p90
        (100, 90.0),
        (99, 50.0),
        (20, 50.0),
        (19, 50.0),  # no percentile has ten samples beyond it: the median
        (1, 50.0),
    ],
)
def test_tail_percentile_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected


def test_summarize_reports_tail_percentile_and_count():
    values = np.arange(1, 1001, dtype=float)
    stats = summarize(values)
    assert stats["count"] == 1000
    assert stats["tail_pct"] == 90.0
    assert stats["p50"] == pytest.approx(500.5)
    assert stats["tail"] == pytest.approx(np.percentile(values, 90))
    assert (values > stats["tail"]).sum() == 100


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def test_poisson_schedule_is_deterministic_per_seed():
    first = poisson_schedule(rng(7, 110), 300.0, 4.0)
    again = poisson_schedule(rng(7, 110), 300.0, 4.0)
    other = poisson_schedule(rng(8, 110), 300.0, 4.0)
    np.testing.assert_array_equal(first, again)
    assert first.shape != other.shape or not np.array_equal(first, other)
    assert np.all(np.diff(first) > 0)
    assert first[0] >= 0 and first[-1] < 4.0
    # 1200 expected arrivals; five standard deviations either way.
    assert abs(first.size - 1200) < 5 * math.sqrt(1200)


def test_serve_queries_and_tick_stream_are_deterministic_per_seed():
    catalog = np.stack([rng(3, 2).choice(5000, 64, replace=False) for _ in range(16)])
    shares = dict(hot_share=0.7, weighted_share=0.5)
    a = serve_queries(3, 1, "low", 200, catalog, 5000, **shares)
    b = serve_queries(3, 1, "low", 200, catalog, 5000, **shares)
    np.testing.assert_array_equal(a.pools, b.pools)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.weighted, b.weighted)
    assert all(len(set(row.tolist())) == 64 for row in a.pools)
    kwargs = dict(
        n=5000, dim=4, shard_size=512, burst_every=5, burst_events=50, burst_shards=3,
        burst_inserts=2, small_max=16, shard_exponent=1.2, distance_share=0.1,
    )
    ticks = tick_stream(5, 20, **kwargs)
    again = tick_stream(5, 20, **kwargs)
    for x, y in zip(ticks, again):
        np.testing.assert_array_equal(x.weight_elements, y.weight_elements)
        np.testing.assert_array_equal(x.distance_pairs, y.distance_pairs)
    assert [t.burst for t in ticks].count(True) == 4
    for tick in ticks:
        assert np.all(tick.distance_pairs[:, 0] != tick.distance_pairs[:, 1])
        if not tick.burst:  # a small tick stays inside one shard
            pairs = tick.distance_pairs.ravel()
            touched = np.concatenate([tick.weight_elements, pairs])
            assert np.unique(touched // 512).size == 1


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered([(0, 2), (1, 3), (5, 6)], 1.5, 5.5) == pytest.approx(2.0)
    assert covered([], 0, 1) == 0.0


def test_self_time_and_unattributed_on_nested_spans():
    log = SpanLog()
    # Unit 1 is measured over [0, 10]; unit 2 over [0.5, 9.5].
    outer = log.add("server", 1.0, 9.0, units=[1, 2])
    log.add("restrict", 2.0, 4.0, parent=outer, units=[1, 2])
    log.add("solve", 5.0, 6.0, parent=outer, units=[1, 2])
    log.add("lag", 0.0, 0.5, units=[1])
    assert log.self_times() == pytest.approx([5.0, 2.0, 1.0, 0.5])
    bounds = {1: (0.0, 10.0), 2: (0.5, 9.5)}
    breakdown = log.unattributed(bounds)
    assert breakdown[1] == pytest.approx((8.5, 1.5))
    assert breakdown[2] == pytest.approx((8.0, 1.0))
    for unit, (attributed, remainder) in breakdown.items():
        start, end = bounds[unit]
        assert attributed + remainder == pytest.approx(end - start)
    assert check_additive(log, bounds) == []


def test_check_additive_flags_spans_outside_their_unit():
    log = SpanLog()
    log.add("late", 4.0, 12.0, units=[1])
    log.add("fine", 0.0, 1.0, units=[2])
    assert check_additive(log, {1: (0.0, 10.0), 2: (0.0, 1.0)}) == [1]


def test_check_additive_flags_overlapping_siblings():
    log = SpanLog()
    log.add("a", 0.0, 6.0, units=[1])
    log.add("b", 4.0, 10.0, units=[1])  # overlaps a: 12 s of spans in 10 s
    assert check_additive(log, {1: (0.0, 10.0)}) == [1]


def test_span_dump_round_trips(tmp_path):
    log = SpanLog()
    parent = log.add("window", 1.0, 2.0, units=[3, 4])
    log.add("restriction", 1.2, 1.4, parent=parent, units=[3, 4])
    path = tmp_path / "spans.json"
    log.dump(str(path))
    data = json.loads(path.read_text())
    assert data["spans"] == [
        ["window", 1.0, 2.0, None, [3, 4]],
        ["restriction", 1.2, 1.4, 0, [3, 4]],
    ]


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
def test_failed_frac_counts_against_attempted():
    assert failed_frac(0, 10) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(5, 4)


def test_serve_counts_errors_interrupted_and_degraded_as_failed():
    from repro.core.result import SolverResult

    def result(**metadata):
        return SolverResult(
            frozenset({1}), (1,), 1.0, 1.0, 0.0, "greedy_b", metadata=metadata
        )

    assert serve._failed(RuntimeError("shed"))
    assert serve._failed(result(interrupted=True))
    assert serve._failed(result(degraded=True))
    assert not serve._failed(result())


# ----------------------------------------------------------------------
# Reference speed
# ----------------------------------------------------------------------
def test_at_reference_scales_times_and_rates_only():
    metrics = {
        "a_ms": (10.0, "ms"),
        "b_s": (2.0, "s"),
        "rate": (100.0, "1/s"),
        "rss": (50.0, "MB"),
        "hits": (3.0, "count"),
    }
    assert at_reference(metrics, 0.5) == {
        "a_ms": (5.0, "ms"),
        "b_s": (1.0, "s"),
        "rate": (200.0, "1/s"),
        "rss": (50.0, "MB"),
        "hits": (3.0, "count"),
    }


def test_speed_index_factor_is_reference_over_median_pass():
    index = SpeedIndex()
    with pytest.raises(ValueError):
        index.factor()
    index.gaps = [(0.0, 1.0, [0.002, 0.006]), (5.0, 6.0, [0.004])]
    assert index.factor() == pytest.approx(REFERENCE_S / 0.004)
    index.sample(2)  # one untimed pass, then two timed ones
    assert len(index.samples) == 5 and min(index.samples[3:]) > 0
    assert gc.isenabled()  # restored after the passes


def test_local_factor_uses_the_gaps_around_the_work():
    index = SpeedIndex()
    index.gaps = [
        (0.0, 1.0, [0.001]),
        (3.0, 4.0, [0.002, 0.002]),
        (6.0, 7.0, [0.004]),
        (9.0, 10.0, [0.008]),
    ]
    # Work in [4.5, 5.5] sits between the second and third gaps.
    assert index.local(4.5, 5.5) == pytest.approx(REFERENCE_S / 0.002)
    assert index.scaled(4.5, 5.5) == pytest.approx(1.0 * REFERENCE_S / 0.002)
    # Work overlapping a gap takes the gaps wholly before and after it.
    assert index.local(2.0, 6.5) == pytest.approx(REFERENCE_S / 0.0045)
    # Work after the last gap falls back on that gap alone.
    assert index.local(10.5, 11.0) == pytest.approx(REFERENCE_S / 0.008)


# ----------------------------------------------------------------------
# Output self-check
# ----------------------------------------------------------------------
SPEC = {
    "end_to_end": [
        {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "a.x_ms", "unit": "ms", "better": "lower"},
        {"name": "b.y", "unit": "count", "better": "higher"},
    ],
}


def _good():
    return result_line(Outcome(10, 0, {"p50_ms": (1.5, "ms"), "setup_s": (0.25, "s")}))


def test_well_formed_result_passes_the_self_check():
    assert check_result(_good(), declared(SPEC, trace=False)) == []


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r["metrics"].pop("setup_s"), "missing"),
        (
            lambda r: r["metrics"].__setitem__("x_ms", {"value": 1.0, "unit": "ms"}),
            "undeclared",
        ),
        (lambda r: r["metrics"]["p50_ms"].__setitem__("unit", "s"), "unit"),
        (lambda r: r["metrics"]["p50_ms"].__setitem__("value", float("nan")), "finite"),
        (lambda r: r["metrics"]["p50_ms"].__setitem__("value", "1.5"), "not a number"),
        (lambda r: r.__setitem__("failed", 11), "exceeds"),
        (lambda r: r.__setitem__("attempted", 0), "attempted"),
        (lambda r: r.__setitem__("correct", "yes"), "boolean"),
        (lambda r: r.pop("failed"), "keys"),
    ],
)
def test_malformed_result_fails_the_self_check(mutate, fragment):
    sample = _good()
    mutate(sample)
    problems = check_result(sample, declared(SPEC, trace=False))
    assert any(fragment in problem for problem in problems), problems


def test_traced_result_fills_only_metrics_other_workloads_own():
    units = declared(SPEC, trace=True)
    filled = fill_unowned({"a.x_ms": (2.0, "ms")}, ["a.x_ms"], units)
    assert filled == {"a.x_ms": (2.0, "ms"), "b.y": (0.0, "count")}
    # A metric the workload owns but did not report stays missing.
    missing = fill_unowned({}, ["a.x_ms"], units)
    assert check_result(result_line(Outcome(1, 0, missing)), units)


def test_benchmark_json_matches_the_workloads():
    spec = load_spec(ROOT)
    owned = set(serve.OWNED) | set(ingest.OWNED_INGEST) | set(ingest.OWNED_RECOVER)
    owned |= set(matroid.OWNED)
    assert owned == set(declared(spec, trace=True))
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == {"serve", "ingest", "recover", "matroid"}
    names = [e["name"] for e in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
