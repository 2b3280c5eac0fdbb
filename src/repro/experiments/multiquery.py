"""Multi-query serving benchmark: many candidate pools over one shared corpus.

The production workload the restriction layer targets: one corpus instance
(weights + distances) serves a stream of queries, each restricted to its own
candidate pool.  This scenario compares

* **naive** — one :func:`~repro.core.solver.solve` per query on a freshly
  materialized sub-instance (what a caller without the restriction layer
  writes: re-materialize the submatrix through the validating constructor and
  re-derive the weight slice per query), against
* **batched** — :func:`~repro.core.batch.solve_many`, which prepares the
  shared matrix view and weight vector once and runs every query as one
  serving window on its restriction.

Both must return identical selections; the report records the wall-clock
ratio per algorithm.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from repro.core.batch import solve_many
from repro.core.solver import solve
from repro.data.synthetic import make_synthetic_instance
from repro.exceptions import InvalidParameterError
from repro.experiments.tables import TableResult
from repro.functions.modular import ModularFunction
from repro.metrics.matrix import DistanceMatrix
from repro.utils.rng import SeedLike, make_rng


def multiquery(
    n: int = 2000,
    num_queries: int = 64,
    pool_size: int = 200,
    p: int = 10,
    algorithms: Sequence[str] = ("greedy", "greedy_a", "mmr"),
    tradeoff: float = 0.2,
    seed: SeedLike = 0,
) -> TableResult:
    """Benchmark batched vs naive multi-query solving on a synthetic corpus.

    Parameters
    ----------
    n, num_queries, pool_size, p:
        Corpus size, number of queries, per-query candidate-pool size, and
        the per-query cardinality constraint.
    algorithms:
        Which :data:`~repro.core.solver.ALGORITHMS` entries to compare.
    tradeoff, seed:
        Instance parameters (Section 7.1 defaults).
    """
    if pool_size > n:
        raise InvalidParameterError("pool_size cannot exceed the corpus size")
    instance = make_synthetic_instance(n, tradeoff=tradeoff, seed=seed)
    quality, metric = instance.quality, instance.metric
    rng = make_rng(seed)
    pools = [
        rng.choice(n, size=pool_size, replace=False).tolist()
        for _ in range(num_queries)
    ]

    result = TableResult(
        name=(
            f"Multi-query serving: {num_queries} queries, corpus n={n}, "
            f"pools of {pool_size}, p={p}"
        ),
        headers=[
            "Algorithm",
            "Naive (ms)",
            "Batched (ms)",
            "Speedup",
            "Identical",
        ],
    )
    for algorithm in algorithms:
        started = time.perf_counter()
        naive = []
        for pool in pools:
            idx = np.asarray(pool, dtype=int)
            sub_metric = DistanceMatrix(metric.to_matrix()[np.ix_(idx, idx)])
            sub_quality = ModularFunction(instance.weights[idx])
            local = solve(
                sub_quality, sub_metric, tradeoff=tradeoff, p=p, algorithm=algorithm
            )
            naive.append(frozenset(pool[e] for e in local.selected))
        naive_seconds = time.perf_counter() - started

        started = time.perf_counter()
        batched = solve_many(
            quality, metric, pools, tradeoff=tradeoff, p=p, algorithm=algorithm
        )
        batched_seconds = time.perf_counter() - started

        identical = [r.selected for r in batched] == naive
        result.records.append(
            {
                "Algorithm": algorithm,
                "Naive (ms)": round(naive_seconds * 1e3, 1),
                "Batched (ms)": round(batched_seconds * 1e3, 1),
                "Speedup": round(naive_seconds / max(batched_seconds, 1e-12), 1),
                "Identical": identical,
            }
        )
    return result
