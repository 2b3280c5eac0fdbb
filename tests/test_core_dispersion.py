"""Tests for the pure max-sum dispersion greedy (Ravi et al. / Corollary 1)."""

from __future__ import annotations

import pytest

from repro.core.dispersion import greedy_dispersion
from repro.core.exact import exact_dispersion
from repro.core.objective import Objective
from repro.exceptions import InvalidParameterError
from repro.functions.modular import ZeroFunction
from repro.metrics.discrete import UniformRandomMetric
from repro.metrics.euclidean import EuclideanMetric

import numpy as np


class TestGreedyDispersion:
    def test_selects_requested_cardinality(self):
        metric = UniformRandomMetric(15, seed=0)
        result = greedy_dispersion(metric, 5)
        assert result.size == 5
        assert result.quality_value == 0.0

    def test_picks_farthest_points_on_a_line(self):
        metric = EuclideanMetric(np.array([0.0, 1.0, 2.0, 10.0, 20.0]))
        result = greedy_dispersion(metric, 2)
        assert result.selected == frozenset({0, 4})

    def test_two_approximation(self):
        for seed in range(4):
            metric = UniformRandomMetric(12, seed=seed)
            greedy = greedy_dispersion(metric, 4)
            optimum = exact_dispersion(metric, 4)
            assert greedy.objective_value >= optimum.objective_value / 2 - 1e-9

    def test_batch_variant_also_two_approximation(self):
        metric = UniformRandomMetric(10, seed=3)
        greedy = greedy_dispersion(metric, 4, batch_size=2)
        optimum = exact_dispersion(metric, 4)
        assert greedy.objective_value >= optimum.objective_value / 2 - 1e-9
        assert greedy.size == 4

    def test_batch_size_validation(self):
        metric = UniformRandomMetric(5, seed=0)
        with pytest.raises(InvalidParameterError):
            greedy_dispersion(metric, 3, batch_size=0)

    def test_candidate_restriction(self):
        metric = UniformRandomMetric(10, seed=1)
        restriction = Objective(ZeroFunction(10), metric, tradeoff=1.0).restrict(
            [0, 1, 2, 3]
        )
        result = restriction.lift(greedy_dispersion(restriction.objective.metric, 3))
        assert result.selected <= {0, 1, 2, 3}

    def test_dispersion_equals_objective_value(self):
        metric = UniformRandomMetric(8, seed=2)
        result = greedy_dispersion(metric, 3)
        assert result.objective_value == pytest.approx(result.dispersion_value)
