"""Helpers shared by the workload modules."""

from __future__ import annotations

import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, List

import numpy as np

from perflib.calib import SpeedIndex

perf = time.perf_counter


@dataclass
class RunContext:
    """Command-line settings, the work directory and the host speed index
    of one run; workloads sample ``speed`` wherever the library is idle."""

    seed: int
    seconds: float
    trace: bool
    workdir: str
    speed: SpeedIndex = field(default_factory=SpeedIndex)


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0


def median_of(values: List[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def timed_median(fn: Callable[[], object], repeats: int) -> float:
    """Median wall time of ``repeats`` calls of ``fn``, in seconds."""
    samples = []
    for _ in range(repeats):
        start = perf()
        fn()
        samples.append(perf() - start)
    return median_of(samples)


def ms(seconds: float) -> float:
    return seconds * 1000.0
