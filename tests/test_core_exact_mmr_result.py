"""Tests for the exact solvers, the MMR baseline and the result container."""

from __future__ import annotations

import pytest

from repro.core.exact import exact_dispersion, exact_diversify
from repro.core.mmr import mmr_select
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.data.synthetic import make_synthetic_instance
from repro.exceptions import InvalidParameterError, SolverError
from repro.matroids.partition import PartitionMatroid
from repro.metrics.discrete import UniformRandomMetric

import numpy as np


class TestExact:
    def test_branch_and_bound_matches_enumeration(self):
        for seed in range(4):
            instance = make_synthetic_instance(10, seed=seed)
            objective = instance.objective
            bnb = exact_diversify(objective, 4, method="branch_and_bound")
            enum = exact_diversify(objective, 4, method="enumerate")
            assert bnb.objective_value == pytest.approx(enum.objective_value)

    def test_branch_and_bound_with_submodular_quality(self):
        from repro.functions.coverage import CoverageFunction

        metric = UniformRandomMetric(9, seed=2)
        coverage = CoverageFunction.random(9, 5, seed=3)
        objective = Objective(coverage, metric, tradeoff=0.3)
        bnb = exact_diversify(objective, 3, method="branch_and_bound")
        enum = exact_diversify(objective, 3, method="enumerate")
        assert bnb.objective_value == pytest.approx(enum.objective_value)

    def test_matroid_constraint_enumeration(self):
        instance = make_synthetic_instance(8, seed=1)
        matroid = PartitionMatroid([i % 2 for i in range(8)], {0: 1, 1: 1})
        result = exact_diversify(instance.objective, matroid=matroid)
        assert matroid.is_independent(result.selected)
        assert result.size == 2

    def test_requires_exactly_one_constraint(self, synthetic_objective_20):
        with pytest.raises(InvalidParameterError):
            exact_diversify(synthetic_objective_20)
        with pytest.raises(InvalidParameterError):
            exact_diversify(
                synthetic_objective_20, 3, matroid=PartitionMatroid([0] * 20, {0: 3})
            )

    def test_subset_limit_guard(self, synthetic_objective_20):
        with pytest.raises(SolverError):
            exact_diversify(
                synthetic_objective_20, 8, method="enumerate", subset_limit=10
            )

    def test_unknown_method_rejected(self, synthetic_objective_20):
        with pytest.raises(InvalidParameterError):
            exact_diversify(synthetic_objective_20, 3, method="magic")

    def test_exact_dispersion(self):
        metric = UniformRandomMetric(8, seed=4)
        result = exact_dispersion(metric, 3)
        assert result.size == 3
        assert result.quality_value == 0.0

    def test_candidates_restriction(self, synthetic_objective_20):
        restriction = synthetic_objective_20.restrict(range(6))
        result = restriction.lift(exact_diversify(restriction.objective, 3))
        assert result.selected <= set(range(6))

    def test_p_zero(self, synthetic_objective_20):
        assert exact_diversify(synthetic_objective_20, 0).size == 0


class TestMMR:
    def test_selects_requested_cardinality(self, synthetic_objective_20):
        result = mmr_select(synthetic_objective_20, 5, theta=0.7)
        assert result.size == 5
        assert result.algorithm == "mmr"

    def test_pure_relevance_picks_top_weights(self, small_objective):
        result = mmr_select(small_objective, 2, theta=1.0)
        # weights are [0.9, 0.1, 0.5, 0.4] → top two are 0 and 2.
        assert result.selected == frozenset({0, 2})

    def test_theta_validation(self, small_objective):
        with pytest.raises(InvalidParameterError):
            mmr_select(small_objective, 2, theta=1.5)

    def test_explicit_similarity_matrix(self, small_objective):
        similarity = np.ones((4, 4))
        result = mmr_select(small_objective, 2, theta=0.5, similarity=similarity)
        assert result.size == 2

    def test_similarity_shape_validated(self, small_objective):
        with pytest.raises(InvalidParameterError):
            mmr_select(small_objective, 2, similarity=np.ones((3, 3)))

    def test_candidates_restriction(self, synthetic_objective_20):
        restriction = synthetic_objective_20.restrict([0, 1, 2, 3])
        result = restriction.lift(mmr_select(restriction.objective, 3))
        assert result.selected <= {0, 1, 2, 3}


class TestSolverResult:
    def test_build_result_evaluates_components(self, small_objective):
        result = build_result(
            small_objective, {0, 2}, [0, 2], algorithm="test", iterations=2
        )
        assert result.objective_value == pytest.approx(small_objective.value({0, 2}))
        assert result.quality_value == pytest.approx(1.4)
        assert result.size == 2
        assert result.sorted_elements() == (0, 2)

    def test_build_result_sweeps_each_term_once(self, small_objective):
        from repro.functions.modular import ModularFunction
        from repro.metrics.base import Metric

        class CountingMetric(Metric):
            calls = 0

            def __init__(self, matrix):
                self._backing = np.asarray(matrix, dtype=float)

            @property
            def n(self):
                return self._backing.shape[0]

            def distance(self, u, v):
                CountingMetric.calls += 1
                return float(self._backing[u, v])

        class CountingQuality(ModularFunction):
            calls = 0

            def value(self, subset):
                CountingQuality.calls += 1
                return super().value(subset)

        objective = Objective(
            CountingQuality([0.9, 0.1, 0.5, 0.4]),
            CountingMetric(small_objective.metric.to_matrix()),
            tradeoff=0.5,
        )
        result = build_result(objective, {0, 2, 3}, [0, 2, 3], algorithm="test")
        assert CountingMetric.calls == 3  # one distance per pair of S
        assert CountingQuality.calls == 1
        assert result.objective_value == small_objective.value({0, 2, 3})
        assert result.objective_value == (
            result.quality_value + 0.5 * result.dispersion_value
        )

    def test_approximation_factor(self):
        result = SolverResult(
            selected=frozenset({0}),
            order=(0,),
            objective_value=5.0,
            quality_value=5.0,
            dispersion_value=0.0,
            algorithm="x",
        )
        assert result.approximation_factor(10.0) == pytest.approx(2.0)

    def test_approximation_factor_zero_cases(self):
        zero = SolverResult(
            selected=frozenset(),
            order=(),
            objective_value=0.0,
            quality_value=0.0,
            dispersion_value=0.0,
            algorithm="x",
        )
        assert zero.approximation_factor(0.0) == 1.0
        assert zero.approximation_factor(3.0) == float("inf")

    def test_elapsed_ms_and_summary(self):
        result = SolverResult(
            selected=frozenset({1, 2}),
            order=(1, 2),
            objective_value=3.0,
            quality_value=1.0,
            dispersion_value=2.0,
            algorithm="greedy_b",
            elapsed_seconds=0.25,
        )
        assert result.elapsed_ms == pytest.approx(250.0)
        summary = result.summary()
        assert "greedy_b" in summary and "|S|=2" in summary
