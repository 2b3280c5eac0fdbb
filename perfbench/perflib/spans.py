"""In-memory spans recorded by the benchmark around calls into each layer.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
index of the span that caused it, and the units of work it serves (request or
tick ids).  A span shared by several units, such as one serving window, lists
them all, because each of those units waits for the whole span.

A span's self time is its duration minus the part of it that its children
cover.  For one unit, the self times of its spans plus the ``unattributed``
remainder add up to the unit's measured latency by construction; the traced
runs check that identity for every request and tick.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


class SpanLog:
    """Append-only span store; written to disk once, when the run ends."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[Optional[int]] = []
        self.units: List[Tuple[int, ...]] = []

    def __len__(self) -> int:
        return len(self.names)

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: Optional[int] = None,
        units: Sequence[int] = (),
    ) -> int:
        """Record one span and return its index (the id children refer to)."""
        self.names.append(name)
        self.starts.append(float(start))
        self.ends.append(float(end))
        self.parents.append(parent)
        self.units.append(tuple(int(u) for u in units))
        return len(self.names) - 1

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its children cover."""
        children: Dict[int, List[int]] = defaultdict(list)
        for index, parent in enumerate(self.parents):
            if parent is not None:
                children[parent].append(index)
        out = []
        for index in range(len(self.names)):
            lo, hi = self.starts[index], self.ends[index]
            kids = children.get(index, ())
            inner = covered(((self.starts[k], self.ends[k]) for k in kids), lo, hi)
            out.append((hi - lo) - inner)
        return out

    def unattributed(
        self, bounds: Dict[int, Tuple[float, float]]
    ) -> Dict[int, Tuple[float, float]]:
        """Per unit: ``(sum of span self times, unattributed remainder)``.

        ``bounds`` maps each unit id to the interval its latency was measured
        over; the remainder is that latency minus the self times of every span
        serving the unit.
        """
        attributed: Dict[int, float] = defaultdict(float)
        for units, value in zip(self.units, self.self_times()):
            for unit in units:
                attributed[unit] += value
        return {
            unit: (attributed[unit], (end - start) - attributed[unit])
            for unit, (start, end) in bounds.items()
        }

    def dump(self, path: str) -> None:
        """Write every span as one JSON document."""
        rows = [
            [name, start, end, parent, list(units)]
            for name, start, end, parent, units in zip(
                self.names, self.starts, self.ends, self.parents, self.units
            )
        ]
        with open(path, "w") as handle:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "units"], "spans": rows},
                handle,
            )


def check_additive(
    log: SpanLog,
    bounds: Dict[int, Tuple[float, float]],
    *,
    tolerance_s: float = 1e-6,
) -> List[int]:
    """Units whose spans do not partition their latency.

    The remainder is the latency minus the attributed self times, so the sum
    matches by definition; what can go wrong is a span reaching outside its
    unit's interval, or overlapping spans whose self times add up to more
    than the latency (a negative remainder).  Returns the offending unit ids.
    """
    bad = set()
    for start, end, units in zip(log.starts, log.ends, log.units):
        for unit in units:
            lo, hi = bounds[unit]
            if start < lo - tolerance_s or end > hi + tolerance_s:
                bad.add(unit)
    for unit, (_, remainder) in log.unattributed(bounds).items():
        if remainder < -tolerance_s:
            bad.add(unit)
    return sorted(bad)
