"""Shared helpers for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures (or an
ablation) exactly once per run (``benchmark.pedantic`` with a single round —
these are experiment harnesses, not micro-benchmarks), prints the rendered
table so ``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's
rows, and stores the headline numbers in ``benchmark.extra_info`` so they are
kept in the benchmark JSON.
"""

from __future__ import annotations

import gc
import time
from typing import Callable, Sequence

import numpy as np


def interleaved_seconds(
    arms: Sequence[Callable[[], object]], *, rounds: int, min_block_s: float = 0.0
) -> np.ndarray:
    """Per-call seconds of every arm, timed round by round in alternating order.

    Each round times each arm once, as a block of back-to-back calls lasting
    at least ``min_block_s`` (a single call when 0), after a ``gc.collect()``
    so every block starts from the same heap.  Odd rounds run the arms in
    reverse order, so host-speed drift lands on every arm alike instead of on
    whichever arm happened to run in a slow window.  Returns a
    ``(rounds, len(arms))`` array.
    """
    seconds = np.empty((rounds, len(arms)))
    for round_index in range(rounds):
        order = list(range(len(arms)))
        if round_index % 2:
            order.reverse()
        for arm in order:
            gc.collect()
            calls = 0
            started = time.perf_counter()
            while True:
                arms[arm]()
                calls += 1
                elapsed = time.perf_counter() - started
                if elapsed >= min_block_s:
                    break
            seconds[round_index, arm] = elapsed / calls
    return seconds


def grouped_ratio(seconds: np.ndarray, groups: int) -> float:
    """Median over ``groups`` consecutive round groups of Σ arm 1 / Σ arm 0.

    Summing a group of interleaved rounds averages per-call jitter; the median
    over groups keeps one stalled group from deciding the ratio.
    """
    sums = seconds.reshape(groups, -1, seconds.shape[1]).sum(axis=1)
    return float(np.median(sums[:, 1] / sums[:, 0]))


def run_once(benchmark, func: Callable, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def record_table(benchmark, table) -> None:
    """Print a reproduced table and stash its records in extra_info."""
    print()
    print(table.render())
    benchmark.extra_info["table"] = table.name
    benchmark.extra_info["records"] = [
        {key: (round(value, 4) if isinstance(value, float) else value)
         for key, value in record.items()}
        for record in table.records
    ]
