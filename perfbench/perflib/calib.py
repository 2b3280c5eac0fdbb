"""Host speed index: every reported time is scaled to one reference speed.

The shared two-vCPU host this benchmark was sized on changes speed by 20-40%
over seconds to minutes, for every process alike.  In 15-second windows of
one three-minute run, the interquartile spread of the same serve,
local-search and ingest work was 0.15-0.32 of its median, so raw times of
runs a minute apart differ by more than a usable regression bound.

Each run therefore also times a fixed calibration pass in the gaps where the
program under test is idle.  A pass has an interpreter half (calls, attribute
reads, dict and set traffic) and a NumPy half (small vector ops and a
pairwise-distance block), and its time is the geometric mean of the two.  In
the same windows, work divided by the pass time spread 0.02-0.05.

A unit of work (a request, a tick, a recovery, a solve, a set-up) that ran
from ``start`` to ``end`` is reported at ``(end - start) * REFERENCE_S / c``,
where ``c`` is the median pass of the gap just before it and the gap just
after it; a rate is computed from the scaled times.  Per-layer metrics of a
traced run use the median pass of the whole run.  The pass uses only Python
and NumPy, never the library under test, so a change to the library moves
the scaled figures exactly as it moves the raw ones.  Report lines print the
raw figures and the run's factor.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Dict, List, Tuple

import numpy as np

#: Median calibration pass (geometric mean of the halves), in seconds, on the
#: host the benchmark was sized on.  Any constant would do: gates compare
#: runs of the same benchmark, so only the ratio between runs matters.
REFERENCE_S = 0.003

#: Units scaled like a time and like a rate; other units are not times.
TIME_UNITS = {"s", "ms"}
RATE_UNITS = {"1/s"}

_A = np.random.default_rng(0).standard_normal((64, 8))
_B = np.random.default_rng(1).standard_normal((1024, 8))
# Preallocated, so the pass never asks malloc for a large block: how malloc
# serves one depends on the program's allocation history, not the host.
_DIFF = np.empty((1024, 64, 8))
_BLOCK = np.empty((1024, 64))


class _Box:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value


def _add(x: int, y: int) -> int:
    return x + y


def _interpreter_half() -> int:
    counts: Dict[int, int] = {}
    total = 0
    boxes = []
    for i in range(6000):
        counts[i & 511] = counts.get(i & 511, 0) + i
        box = _Box(i)
        total = _add(total, box.value)
        boxes.append(box)
    odd = {x for x in range(2000) if x & 1}
    return total + len(odd) + len(boxes)


def _numpy_half() -> float:
    for i in range(60):
        gap = np.sqrt(((_B[:256] - _A[i]) ** 2).sum(axis=1))
        gap[int(np.argmax(gap))] = -1.0
    np.subtract(_B[:, None, :], _B[None, :64, :], out=_DIFF)
    np.multiply(_DIFF, _DIFF, out=_DIFF)
    np.sum(_DIFF, axis=-1, out=_BLOCK)
    np.sqrt(_BLOCK, out=_BLOCK)
    return float(_BLOCK[0, 1] + gap[0])


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


class SpeedIndex:
    """Calibration samples of one run, grouped by the idle gap they were
    taken in, and the factors they imply."""

    def __init__(self) -> None:
        #: ``(gap start, gap end, passes)`` per call of :meth:`sample`.
        self.gaps: List[Tuple[float, float, List[float]]] = []

    @property
    def samples(self) -> List[float]:
        return [p for gap in self.gaps for p in gap[2]]

    def sample(self, count: int = 1) -> None:
        """Time ``count`` calibration passes after one untimed pass.

        Call only while the program under test is idle, so the passes measure
        the host alone.  The untimed pass brings the kernels back into the
        caches the program used, and the garbage collector is off while they
        run, so neither the program's cache footprint nor its heap size
        moves the index.
        """
        begin = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _interpreter_half()
            _numpy_half()
            passes = [
                math.sqrt(_timed(_interpreter_half) * _timed(_numpy_half))
                for _ in range(count)
            ]
        finally:
            if enabled:
                gc.enable()
        self.gaps.append((begin, time.perf_counter(), passes))

    def median_s(self) -> float:
        samples = self.samples
        if not samples:
            raise ValueError("no calibration samples were taken")
        return float(np.median(samples))

    def factor(self) -> float:
        """Reference speed over the run's median speed: below 1 on a slow
        host."""
        return REFERENCE_S / self.median_s()

    def local(self, start: float, end: float) -> float:
        """The factor for work done between ``start`` and ``end``
        (``perf_counter`` seconds): from the passes of the last gap that
        ended by ``start`` and of the first gap that began at ``end`` or
        later, since the host's speed drifts within a run."""
        before = [g for g in self.gaps if g[1] <= start][-1:]
        after = [g for g in self.gaps if g[0] >= end][:1]
        passes = [p for gap in before + after for p in gap[2]]
        if not passes:
            return self.factor()
        return REFERENCE_S / float(np.median(passes))

    def scaled(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed."""
        return (end - start) * self.local(start, end)


def at_reference(
    metrics: Dict[str, Tuple[float, str]], factor: float
) -> Dict[str, Tuple[float, str]]:
    """Scale every time by ``factor`` and every rate by its inverse."""
    out = {}
    for name, (value, unit) in metrics.items():
        if unit in TIME_UNITS:
            value = value * factor
        elif unit in RATE_UNITS:
            value = value / factor
        out[name] = (value, unit)
    return out
