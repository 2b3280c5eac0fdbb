"""Micro-benchmarks: scaling of the core algorithms with the universe size.

These complement the table reproductions with conventional pytest-benchmark
timings (multiple rounds) of the two greedy algorithms and the incremental
distance tracker, backing the complexity discussion after Theorem 1
(Greedy B is O(np) thanks to the marginal-distance bookkeeping, Greedy A
iterates over edges).

``test_scaling_sharded_200k`` is the huge-universe contract: the sharded
core-set pipeline must complete at n=200000 on a metric that *refuses* to
produce the global matrix, proving no solve path materializes O(n²) state.
"""

from __future__ import annotations

import pytest

from repro.core.baselines import gollapudi_sharma_greedy
from repro.core.greedy import greedy_diversify
from repro.core.solver import solve
from repro.data.synthetic import make_feature_instance
from repro.data.synthetic import make_synthetic_instance
from repro.metrics.aggregates import MarginalDistanceTracker
from repro.metrics.euclidean import EuclideanMetric


@pytest.fixture(scope="module")
def instance_300():
    return make_synthetic_instance(300, seed=31)


def test_scaling_greedy_b(benchmark, instance_300):
    objective = instance_300.objective
    result = benchmark(lambda: greedy_diversify(objective, 30))
    assert result.size == 30


def test_scaling_greedy_a(benchmark, instance_300):
    objective = instance_300.objective
    result = benchmark(lambda: gollapudi_sharma_greedy(objective, 30))
    assert result.size == 30


class _NoGlobalMatrixMetric(EuclideanMetric):
    """A Euclidean metric that refuses to materialize the global matrix.

    At n=200000 the full matrix would be 320 GB; any code path that asks for
    it is a bug, so it raises instead of allocating.
    """

    def to_matrix(self):
        raise AssertionError("solve path materialized the global O(n²) matrix")

    def _restrict(self, pool):
        # The default restriction is fine (shard-sized), but keep the guard
        # on the *global* universe: only pools smaller than n may pass.  The
        # hook sits behind the public restrict() and every in-tree caller.
        if pool.size >= self.n:
            raise AssertionError("solve path materialized the global O(n²) matrix")
        return super()._restrict(pool)


def test_scaling_sharded_200k(benchmark):
    """Sharded core-set solve at n=200000 without any O(n²) materialization."""
    instance = make_feature_instance(200_000, dimension=4, tradeoff=0.2, seed=5)
    metric = _NoGlobalMatrixMetric(instance.metric.points)
    quality = instance.quality

    def run():
        return solve(
            quality, metric, tradeoff=0.2, p=10, shards=100, algorithm="greedy"
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.size == 10
    assert result.metadata["sharding"]["shards"] == 100
    benchmark.extra_info["n"] = 200_000
    benchmark.extra_info["p"] = 10
    benchmark.extra_info["shards"] = 100
    benchmark.extra_info["core_size"] = result.metadata["sharding"]["core_size"]
    benchmark.extra_info["objective_value"] = round(result.objective_value, 4)


def test_scaling_tracker_updates(benchmark, instance_300):
    metric = instance_300.metric

    def run():
        tracker = MarginalDistanceTracker(metric)
        for element in range(0, 300, 10):
            tracker.add(element)
        for element in range(0, 300, 10):
            tracker.remove(element)
        return tracker

    tracker = benchmark(run)
    assert len(tracker) == 0
