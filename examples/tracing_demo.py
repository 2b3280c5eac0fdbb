#!/usr/bin/env python3
"""Observability: span traces and Prometheus-style metrics for the stack.

Passing ``control=RunControl(trace=Trace())`` into :func:`repro.solve` or a
:class:`repro.DynamicSession` (or ``trace=Trace()`` into a
:class:`repro.Server`) records nested
wall-clock spans — restriction, per-shard solves, greedy rounds, WAL
appends, tick repairs — and exports them as Chrome ``trace_event`` JSON
(open the file in ``chrome://tracing`` or https://ui.perfetto.dev).  The
process-wide metrics registry independently accumulates counters and
latency histograms, rendered in Prometheus text format.

This demo:

1. runs a sharded solve with tracing on and prints the per-phase breakdown
   from ``result.metadata["timings"]``;
2. drives a few dynamic ticks through a traced ``DynamicSession`` (showing
   the no-swap certificate hits in the span attributes);
3. exports both traces and re-parses them, validating the Chrome-trace
   schema and parent/child nesting — the same checks CI's smoke job runs;
4. prints an excerpt of the enabled metrics registry.

Run:  python examples/tracing_demo.py [--quick] [--out DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile

import numpy as np

from repro import (
    DynamicSession,
    EventBatch,
    RunControl,
    Trace,
    WeightIncrease,
    get_registry,
    make_feature_instance,
    solve,
)


def check_chrome_trace(path: str) -> dict:
    """Re-parse an exported trace, asserting the Chrome-trace schema."""
    with open(path, "r", encoding="utf-8") as stream:
        doc = json.load(stream)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}, sorted(doc)
    events = doc["traceEvents"]
    assert events, "trace must contain at least one event"
    ids = set()
    for event in events:
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            assert key in event, f"event missing {key!r}: {event}"
        assert event["ph"] == "X" and event["cat"] == "repro"
        assert event["ts"] >= 0.0 and event["dur"] >= 0.0
        ids.add(event["args"]["span_id"])
    for event in events:
        parent = event["args"]["parent_id"]
        assert parent is None or parent in ids, f"dangling parent {parent}"
    return doc


def solve_demo(out_dir: str, *, quick: bool) -> None:
    n = 5_000 if quick else 200_000
    instance = make_feature_instance(n, dimension=8, seed=0)
    trace = Trace()
    result = solve(
        instance.quality,
        instance.metric,
        tradeoff=instance.tradeoff,
        p=10,
        shards=4 if quick else 16,
        shard_workers=2,
        control=RunControl(trace=trace),
    )
    path = os.path.join(out_dir, "solve.trace.json")
    trace.export(path)
    doc = check_chrome_trace(path)

    print(f"sharded solve, n={n}: objective={result.objective_value:.3f}")
    print("  per-phase timings (result.metadata['timings']):")
    for name, seconds in result.metadata["timings"].items():
        print(f"    {name:<14} {seconds * 1000.0:9.2f} ms")
    print(f"  exported {len(doc['traceEvents'])} span events -> {path}")


def dynamic_demo(out_dir: str, *, quick: bool) -> None:
    n = 80 if quick else 400
    rng = np.random.default_rng(1)
    points = rng.normal(size=(n, 4))
    diff = points[:, None, :] - points[None, :, :]
    distances = np.sqrt((diff**2).sum(axis=-1))
    weights = rng.uniform(1.0, 2.0, size=n)

    trace = Trace()
    session = DynamicSession(
        weights, 8, distances=distances, control=RunControl(trace=trace)
    )
    ticks = 6 if quick else 30
    hits = 0
    for tick in range(ticks):
        element = int(rng.integers(n))
        batch = EventBatch.from_perturbations([WeightIncrease(element, 0.05)])
        outcome = session.apply_events(batch)
        if outcome.metadata["certified_stable"]:
            hits += 1
    path = os.path.join(out_dir, "ticks.trace.json")
    trace.export(path)
    doc = check_chrome_trace(path)

    # Validate the tick -> apply -> repair nesting from the export itself.
    events = doc["traceEvents"]
    by_id = {e["args"]["span_id"]: e for e in events}
    repairs = [e for e in events if e["name"] == "repair"]
    assert repairs, "expected repair spans"
    for repair in repairs:
        apply_event = by_id[repair["args"]["parent_id"]]
        assert apply_event["name"] == "apply"
        assert by_id[apply_event["args"]["parent_id"]]["name"] == "tick"

    print(f"dynamic session: {ticks} ticks, certificate hits={hits}")
    print(f"  exported {len(events)} span events -> {path}")
    last = session.engine.history[-1][1] if session.engine.history else None
    if last is not None and "timings" in last.metadata:
        print(f"  last tick timings: {last.metadata['timings']}")


def metrics_demo() -> None:
    lines = get_registry().render().splitlines()
    interesting = [
        line
        for line in lines
        if line.startswith(("# TYPE", "repro_ticks", "repro_solve_total"))
    ]
    print("metrics registry excerpt:")
    for line in interesting[:12]:
        print(f"  {line}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small sizes")
    parser.add_argument(
        "--out", default=None, help="directory for the exported traces"
    )
    args = parser.parse_args()

    out_dir = args.out or tempfile.mkdtemp(prefix="repro-traces-")
    os.makedirs(out_dir, exist_ok=True)
    get_registry().enable()

    solve_demo(out_dir, quick=args.quick)
    print()
    dynamic_demo(out_dir, quick=args.quick)
    print()
    metrics_demo()
    print("\nall trace exports re-parsed and schema-checked OK")


if __name__ == "__main__":
    main()
