"""Command line: ``run.py --workload NAME --seed N --seconds S --trace 0|1``.

Exit codes: 0 for a correct, well-formed run; 1 when a correctness check
failed (the result line is still printed, with ``"correct": false``); 2 when
the result does not match ``BENCHMARK.json`` (nothing is printed on stdout);
3 when the library under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import traceback

from perflib.calib import at_reference
from perflib.report import check_result, declared, fill_unowned, load_spec, result_line

OUT_DIR = ".perfbench-out"
TRACED_P50 = "trace.p50_ms"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _workloads():
    """Import the workload modules; they import the library under test."""
    from perflib import ingest, matroid, serve

    return {
        "serve": (serve.run, serve.OWNED),
        "ingest": (ingest.run_ingest, ingest.OWNED_INGEST),
        "recover": (ingest.run_recover, ingest.OWNED_RECOVER),
        "matroid": (matroid.run, matroid.OWNED),
    }


def main(root: str, argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    spec = load_spec(root)
    src = os.path.join(root, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"no library under test at {src}/repro", file=sys.stderr)
        return 3
    sys.path.insert(0, src)
    try:
        workloads = _workloads()
    except ImportError:
        traceback.print_exc()
        print("cannot import the library under test from src/", file=sys.stderr)
        return 3
    names = [entry["name"] for entry in spec["workloads"]]
    if args.workload not in names or args.workload not in workloads:
        print(
            f"unknown workload {args.workload!r}; expected one of {names}",
            file=sys.stderr,
        )
        return 2
    owned_everywhere = set().union(*(owned for _, owned in workloads.values()))
    per_layer = declared(spec, trace=True)
    if owned_everywhere != set(per_layer):
        print(
            "per-layer metrics owned by the workloads differ from BENCHMARK.json: "
            f"{sorted(owned_everywhere ^ set(per_layer))}",
            file=sys.stderr,
        )
        return 2

    from perflib.common import RunContext

    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    run, owned = workloads[args.workload]
    ctx = RunContext(args.seed, args.seconds, bool(args.trace), workdir)
    try:
        outcome = run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # End-to-end metrics arrive scaled unit by unit (``SpeedIndex.scaled``),
    # and so does ``trace.p50_ms``, so that it minus the untraced ``p50_ms``
    # is the tracing overhead; other per-layer metrics are scaled here by the
    # run's median factor.
    factor = ctx.speed.factor()
    outcome.report.append(
        f"{args.workload}: calibration median {ctx.speed.median_s() * 1e3:.4f} ms over "
        f"{len(ctx.speed.samples)} passes in {len(ctx.speed.gaps)} gaps; "
        f"run factor {factor:.4f} (reference time = raw time x factor)"
    )
    expected = declared(spec, trace=bool(args.trace))
    if args.trace:
        layers = {k: v for k, v in outcome.metrics.items() if k != TRACED_P50}
        outcome.metrics.update(at_reference(layers, factor))
        outcome.metrics = fill_unowned(outcome.metrics, owned, expected)
        if outcome.spans is not None:
            path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")
            outcome.spans.dump(path)
            outcome.report.append(
                f"{args.workload}: {len(outcome.spans)} spans -> {path}"
            )
    result = result_line(outcome)
    problems = check_result(result, expected)
    if problems:
        for problem in problems:
            print(f"self-check: {problem}", file=sys.stderr)
        return 2
    for line in outcome.report:
        print(line)
    for problem in outcome.problems:
        print(f"correctness: {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
