"""Tests for the batched multi-query front end (repro.core.batch)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import solve_many
from repro.core.solver import solve
from repro.data.synthetic import make_synthetic_instance
from repro.exceptions import InvalidParameterError
from repro.functions.modular import ModularFunction
from repro.matroids.partition import PartitionMatroid
from repro.metrics.base import Metric


class OracleMetric(Metric):
    """Matrix distances served only through the oracle interface."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._backing = np.asarray(matrix, dtype=float)
        self.calls = 0

    @property
    def n(self) -> int:
        return self._backing.shape[0]

    def distance(self, u, v) -> float:
        self.calls += 1
        return float(self._backing[u, v])


@pytest.fixture
def corpus():
    return make_synthetic_instance(40, seed=11)


@pytest.fixture
def pools():
    rng = np.random.default_rng(4)
    return [sorted(rng.choice(40, size=10, replace=False).tolist()) for _ in range(6)]


class TestSolveMany:
    def test_matches_per_query_solve(self, corpus, pools):
        batched = solve_many(
            corpus.quality, corpus.metric, pools, tradeoff=corpus.tradeoff, p=4
        )
        assert len(batched) == len(pools)
        for pool, result in zip(pools, batched):
            single = solve(
                corpus.quality,
                corpus.metric,
                tradeoff=corpus.tradeoff,
                p=4,
                candidates=pool,
            )
            assert result.selected == single.selected
            assert result.objective_value == pytest.approx(single.objective_value)
            assert result.metadata["candidates"] == tuple(pool)

    def test_results_in_query_order(self, corpus, pools):
        batched = solve_many(
            corpus.quality, corpus.metric, pools, tradeoff=corpus.tradeoff, p=3
        )
        for pool, result in zip(pools, batched):
            assert result.selected <= set(pool)

    def test_empty_and_singleton_pools(self, corpus):
        batched = solve_many(
            corpus.quality,
            corpus.metric,
            [[], [7], list(range(40))],
            tradeoff=corpus.tradeoff,
            p=3,
        )
        assert batched[0].size == 0
        assert batched[1].selected == frozenset({7})
        assert batched[2].size == 3

    def test_every_algorithm_dispatches(self, corpus, pools):
        for algorithm in (
            "greedy_best_pair", "greedy_a", "matching", "mmr", "local_search"
        ):
            results = solve_many(
                corpus.quality,
                corpus.metric,
                pools[:2],
                tradeoff=corpus.tradeoff,
                p=3,
                algorithm=algorithm,
            )
            for pool, result in zip(pools, results):
                assert result.selected <= set(pool)

    def test_matroid_restricted_per_query(self, corpus, pools):
        matroid = PartitionMatroid([i % 4 for i in range(40)], {j: 1 for j in range(4)})
        results = solve_many(
            corpus.quality,
            corpus.metric,
            pools,
            tradeoff=corpus.tradeoff,
            matroid=matroid,
        )
        for pool, result in zip(pools, results):
            assert result.selected <= set(pool)
            assert matroid.is_independent(result.selected)

    def test_oracle_metric_materialized_once(self, corpus, pools):
        oracle = OracleMetric(corpus.metric.to_matrix())
        results = solve_many(
            corpus.quality, oracle, pools, tradeoff=corpus.tradeoff, p=4
        )
        # Materialization costs one O(n²) sweep; per-query restriction then
        # touches the shared matrix, not the oracle.
        n = oracle.n
        assert oracle.calls <= n * (n - 1)
        reference = solve_many(
            corpus.quality, corpus.metric, pools, tradeoff=corpus.tradeoff, p=4
        )
        for a, b in zip(results, reference):
            assert a.selected == b.selected

    def test_unmaterialized_oracle_still_correct(self, corpus, pools):
        oracle = OracleMetric(corpus.metric.to_matrix())
        results = solve_many(
            corpus.quality,
            oracle,
            pools[:2],
            tradeoff=corpus.tradeoff,
            p=4,
            materialize=False,
        )
        reference = solve_many(
            corpus.quality, corpus.metric, pools[:2], tradeoff=corpus.tradeoff, p=4
        )
        for a, b in zip(results, reference):
            assert a.selected == b.selected
            assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)

    def test_no_per_query_full_matrix_copies(self, corpus):
        # Contiguous pools run on copy-free views of the shared matrix.
        results = solve_many(
            corpus.quality,
            corpus.metric,
            [range(0, 10), range(10, 20)],
            tradeoff=corpus.tradeoff,
            p=3,
        )
        assert all(r.size == 3 for r in results)

    def test_validation(self, corpus, pools):
        with pytest.raises(InvalidParameterError):
            solve_many(corpus.quality, corpus.metric, pools, tradeoff=0.2)
        with pytest.raises(InvalidParameterError):
            solve_many(
                corpus.quality,
                corpus.metric,
                pools,
                tradeoff=0.2,
                p=3,
                algorithm="magic",
            )
        with pytest.raises(InvalidParameterError):
            solve_many(
                corpus.quality, corpus.metric, [[0, 99]], tradeoff=0.2, p=2
            )

    def test_view_less_modular_quality_precomputed(self, corpus, pools):
        class CountingModular(ModularFunction):
            """Modular function whose weights_view is hidden (forces sweeps)."""

            sweeps = 0

            def marginal(self, element, subset):
                type(self).sweeps += 1
                return super().marginal(element, subset)

        CountingModular.sweeps = 0
        quality = CountingModular(corpus.weights)
        quality.weights_view = None  # hide the O(1) accessor
        results = solve_many(
            quality, corpus.metric, pools, tradeoff=corpus.tradeoff, p=4
        )
        assert len(results) == len(pools)
        # One O(n) sweep up front, not one per query.
        assert CountingModular.sweeps <= corpus.n
