"""Percentiles, the tail rule and the per-run failure fraction.

The tail of a sample is the highest percentile of :data:`TAIL_LADDER` that
still has at least :data:`MIN_BEYOND` samples beyond it: p90 needs 100
samples and p50 needs 20.  A smaller sample has no such percentile, and its
tail is reported as the median (percentile 50), so a metric exists on every
run; the report line records which percentile was used and over how many
samples.

The ladder stops at p90.  On the shared two-vCPU host the benchmark was
sized on, a run's p99 is decided by the two or three scheduler stalls that
fall into it: over ten seeds the p99 of the serve phases spread 0.22-0.34 of
its median and the p99.9 0.29-0.56, while the p90 of the ``low`` phase spread
0.08.  Report lines still print the higher percentiles.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

#: Candidate tail percentiles in hundredths of a percent, highest first.
TAIL_LADDER = (9000, 5000)

#: Samples that must lie beyond a percentile for it to count as the tail.
MIN_BEYOND = 10


def tail_percentile(count: int) -> float:
    """The tail percentile for ``count`` samples (see the module docstring)."""
    for hundredths in TAIL_LADDER:
        # count * (100% - q) >= MIN_BEYOND, in exact integer arithmetic.
        if count * (10000 - hundredths) >= MIN_BEYOND * 10000:
            return hundredths / 100.0
    return 50.0


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile; ``nan`` for an empty sample."""
    values = np.asarray(samples, dtype=float)
    if values.size == 0:
        return float("nan")
    return float(np.percentile(values, q))


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median and tail of ``samples``, with the tail percentile and count."""
    values = np.asarray(samples, dtype=float)
    q = tail_percentile(int(values.size))
    return {
        "count": int(values.size),
        "p50": percentile(values, 50.0),
        "tail_pct": q,
        "tail": percentile(values, q),
    }


def failed_frac(failed: int, attempted: int) -> float:
    """Failed ÷ attempted units of work (requests, ticks, recoveries, solves)."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one unit of work")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} must lie in [0, attempted={attempted}]")
    return failed / attempted
