"""Run outcomes, the result line, and its self-check against BENCHMARK.json.

Every run prints, as its last stdout line, one JSON object with exactly the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  An untraced run
carries every ``end_to_end`` metric of ``BENCHMARK.json``; a traced run every
``per_layer`` metric.  Per-layer metrics belong to the workloads whose layers
they measure; a workload reports ``0`` for a metric owned only by other
workloads, because it never reaches that layer.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

Metric = Tuple[float, str]  # (value, unit)


@dataclass
class Outcome:
    """What one workload run hands back to the command line in ``cli``."""

    attempted: int
    failed: int
    metrics: Dict[str, Metric]
    problems: List[str] = field(default_factory=list)
    report: List[str] = field(default_factory=list)
    spans: Optional[object] = None

    @property
    def correct(self) -> bool:
        return not self.problems


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        return json.load(handle)


def declared(spec: dict, trace: bool) -> Dict[str, str]:
    """``{name: unit}`` of the metrics a run with this trace setting prints."""
    section = "per_layer" if trace else "end_to_end"
    return {entry["name"]: entry["unit"] for entry in spec[section]}


def fill_unowned(
    metrics: Dict[str, Metric], owned: Iterable[str], spec_units: Dict[str, str]
) -> Dict[str, Metric]:
    """Add a zero for every declared metric this workload does not own."""
    owned = set(owned)
    out = dict(metrics)
    for name, unit in spec_units.items():
        if name not in owned and name not in out:
            out[name] = (0.0, unit)
    return out


def result_line(outcome: Outcome) -> dict:
    return {
        "correct": outcome.correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(outcome.metrics.items())
        },
    }


def check_result(result: dict, expected: Dict[str, str]) -> List[str]:
    """Every way ``result`` departs from the contract; empty when it is sound."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    attempted, failed = result["attempted"], result["failed"]
    if not isinstance(attempted, int) or isinstance(attempted, bool) or attempted < 1:
        problems.append(f"attempted={attempted!r} is not a whole number >= 1")
    if not isinstance(failed, int) or isinstance(failed, bool) or failed < 0:
        problems.append(f"failed={failed!r} is not a whole number >= 0")
    elif isinstance(attempted, int) and failed > attempted:
        problems.append(f"failed={failed} exceeds attempted={attempted}")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    missing = sorted(set(expected) - set(metrics))
    extra = sorted(set(metrics) - set(expected))
    if missing:
        problems.append(f"declared metrics missing: {missing}")
    if extra:
        problems.append(f"undeclared metrics present: {extra}")
    for name in sorted(set(expected) & set(metrics)):
        entry = metrics[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            problems.append(f"{name}: entry must have exactly value and unit")
            continue
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{name}: value {value!r} is not a number")
        elif not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not finite")
        if entry["unit"] != expected[name]:
            problems.append(
                f"{name}: unit {entry['unit']!r}, "
                f"BENCHMARK.json says {expected[name]!r}"
            )
    return problems
