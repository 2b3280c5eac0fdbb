"""Tests for the dynamic-update machinery (Section 6)."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from repro.core.greedy import greedy_diversify
from repro.core.kernels import GAIN_TOLERANCE
from repro.core.objective import Objective
from repro.data.synthetic import make_synthetic_instance
from repro.dynamic.engine import DynamicDiversifier
from repro.dynamic.perturbation import (
    DistanceDecrease,
    DistanceIncrease,
    PerturbationType,
    WeightDecrease,
    WeightIncrease,
    describe,
)
from repro.dynamic.update_rules import (
    best_swap,
    oblivious_update,
    required_updates_for_weight_decrease,
    update_until_stable,
)
from repro.exceptions import InvalidParameterError, PerturbationError
from repro.functions.modular import ModularFunction
from repro.metrics.matrix import DistanceMatrix

from dynamic_instances import budget_tick


class TestPerturbationModel:
    def test_kinds(self):
        assert WeightIncrease(0, 1.0).kind is PerturbationType.WEIGHT_INCREASE
        assert WeightDecrease(0, 1.0).kind is PerturbationType.WEIGHT_DECREASE
        assert DistanceIncrease(0, 1, 1.0).kind is PerturbationType.DISTANCE_INCREASE
        assert DistanceDecrease(0, 1, 1.0).kind is PerturbationType.DISTANCE_DECREASE

    def test_deltas_must_be_positive(self):
        with pytest.raises(PerturbationError):
            WeightIncrease(0, 0.0)
        with pytest.raises(PerturbationError):
            WeightDecrease(0, -1.0)
        with pytest.raises(PerturbationError):
            DistanceIncrease(0, 1, 0.0)

    def test_distance_perturbation_needs_distinct_endpoints(self):
        with pytest.raises(PerturbationError):
            DistanceIncrease(2, 2, 1.0)

    def test_describe(self):
        assert "Type I" in describe(WeightIncrease(3, 0.5))
        assert "Type IV" in describe(DistanceDecrease(0, 1, 0.25))


class TestUpdateRules:
    def _objective(self):
        weights = ModularFunction([1.0, 0.2, 0.3, 0.1])
        metric = DistanceMatrix(
            np.array(
                [
                    [0.0, 1.0, 1.0, 1.0],
                    [1.0, 0.0, 1.5, 1.2],
                    [1.0, 1.5, 0.0, 1.9],
                    [1.0, 1.2, 1.9, 0.0],
                ]
            )
        )
        return Objective(weights, metric, tradeoff=1.0)

    def test_best_swap_finds_improving_move(self):
        objective = self._objective()
        solution = {0, 1}
        move = best_swap(objective, solution)
        assert move is not None
        incoming, outgoing, gain = move
        assert gain == pytest.approx(
            objective.value(solution - {outgoing} | {incoming})
            - objective.value(solution)
        )
        assert gain > 0

    def test_best_swap_none_at_local_optimum(self):
        objective = self._objective()
        # {2, 3} has the largest pairwise distance and decent weight; check if
        # it is locally optimal, otherwise walk to the local optimum first.
        outcome = update_until_stable(objective, {2, 3})
        assert best_swap(objective, set(outcome.solution)) is None

    def test_oblivious_update_single_swap_only(self):
        objective = self._objective()
        outcome = oblivious_update(objective, {1, 3})
        assert outcome.num_swaps <= 1
        assert outcome.objective_value == pytest.approx(
            objective.value(outcome.solution)
        )

    def test_update_until_stable_improves_monotonically(self):
        objective = self._objective()
        outcome = update_until_stable(objective, {1, 3})
        gains = [gain for _, _, gain in outcome.swaps]
        assert all(g > 0 for g in gains)
        assert outcome.objective_value >= objective.value({1, 3})

    def test_update_until_stable_respects_cap(self):
        objective = self._objective()
        outcome = update_until_stable(objective, {1, 3}, max_updates=0)
        assert outcome.num_swaps == 0
        with pytest.raises(InvalidParameterError):
            update_until_stable(objective, {1, 3}, max_updates=-1)


class TestTiedSolutions:
    def test_update_until_stable_stops_on_a_tie(self):
        # The n=11, seed=2724 tick state: two solutions tie exactly, and a
        # swap between them computes as a +4.4e-16 gain, which a rule
        # accepting any gain above 0 trades back and forth forever.
        engine, _ = budget_tick(11, 2724)
        objective = engine.objective
        for start in combinations(range(objective.n), 4):
            outcome = update_until_stable(objective, set(start), max_updates=50)
            assert outcome.num_swaps < 50
            assert all(gain > GAIN_TOLERANCE for _, _, gain in outcome.swaps)
            assert best_swap(objective, set(outcome.solution)) is None


class TestTheorem4Schedule:
    def test_small_decrease_single_update(self):
        assert required_updates_for_weight_decrease(10.0, 1.0, p=6) == 1

    def test_threshold_is_w_over_p_minus_2(self):
        w, p = 12.0, 6
        assert required_updates_for_weight_decrease(w, w / (p - 2), p) == 1
        assert required_updates_for_weight_decrease(w, w / (p - 2) + 0.5, p) >= 1

    def test_formula_matches_paper(self):
        w, delta, p = 10.0, 5.0, 7
        expected = math.ceil(math.log(w / (w - delta), (p - 2) / (p - 3)))
        assert required_updates_for_weight_decrease(w, delta, p) == expected

    def test_p_at_most_three_needs_single_update(self):
        assert required_updates_for_weight_decrease(10.0, 9.0, p=3) == 1

    def test_zero_delta_needs_no_update(self):
        assert required_updates_for_weight_decrease(10.0, 0.0, p=5) == 0

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameterError):
            required_updates_for_weight_decrease(-1.0, 0.5, 5)
        with pytest.raises(InvalidParameterError):
            required_updates_for_weight_decrease(1.0, -0.5, 5)
        with pytest.raises(InvalidParameterError):
            required_updates_for_weight_decrease(1.0, 2.0, 5)


class TestDynamicDiversifier:
    def _engine(self, n=10, p=4, seed=0, **kwargs) -> DynamicDiversifier:
        instance = make_synthetic_instance(n, seed=seed)
        return DynamicDiversifier(
            instance.weights,
            instance.distances,
            p,
            tradeoff=instance.tradeoff,
            **kwargs,
        )

    def test_initial_solution_is_greedy(self):
        instance = make_synthetic_instance(10, seed=0)
        engine = DynamicDiversifier(
            instance.weights, instance.distances, 4, tradeoff=instance.tradeoff
        )
        greedy = greedy_diversify(instance.objective, 4)
        assert engine.solution == greedy.selected

    def test_explicit_initial_solution(self):
        instance = make_synthetic_instance(8, seed=1)
        engine = DynamicDiversifier(
            instance.weights,
            instance.distances,
            3,
            tradeoff=instance.tradeoff,
            initial_solution=[0, 1, 2],
        )
        assert engine.solution == frozenset({0, 1, 2})

    def test_initial_solution_size_validated(self):
        instance = make_synthetic_instance(8, seed=1)
        with pytest.raises(InvalidParameterError):
            DynamicDiversifier(
                instance.weights,
                instance.distances,
                3,
                initial_solution=[0, 1],
            )

    def test_weight_increase_applied(self):
        engine = self._engine()
        element = next(iter(set(range(engine.n)) - engine.solution))
        before = engine.weight(element)
        engine.apply(WeightIncrease(element, 0.7))
        assert engine.weight(element) == pytest.approx(before + 0.7)

    def test_weight_decrease_cannot_go_negative(self):
        engine = self._engine()
        element = 0
        with pytest.raises(PerturbationError):
            engine.apply(WeightDecrease(element, engine.weight(element) + 1.0))

    def test_distance_perturbations_applied(self):
        engine = self._engine()
        before = engine.distance(0, 1)
        engine.apply(DistanceIncrease(0, 1, 0.05))
        assert engine.distance(0, 1) == pytest.approx(before + 0.05)
        engine.apply(DistanceDecrease(0, 1, 0.03))
        assert engine.distance(0, 1) == pytest.approx(before + 0.02)

    def test_metric_validation_rejects_triangle_breaking_change(self):
        engine = self._engine(validate_metric=True)
        before = engine.distance(0, 1)
        with pytest.raises(PerturbationError):
            engine.apply(DistanceIncrease(0, 1, 10.0))
        # rolled back
        assert engine.distance(0, 1) == pytest.approx(before)

    def test_update_improves_or_keeps_value(self):
        engine = self._engine()
        element = next(iter(set(range(engine.n)) - engine.solution))
        value_before = engine.solution_value
        outcome = engine.apply(WeightIncrease(element, 1.5))
        assert outcome.objective_value >= value_before - 1e-9

    def test_history_records_everything(self):
        engine = self._engine()
        engine.apply(WeightIncrease(1, 0.2))
        engine.apply(DistanceDecrease(0, 1, 0.01))
        assert len(engine.history) == 2
        assert isinstance(engine.history[0][0], WeightIncrease)

    def test_history_is_bounded(self):
        # Regression: an unbounded history list grew without limit on long
        # streams; the deque must cap at history_limit, keeping the newest.
        engine = self._engine(history_limit=5)
        assert engine.history_limit == 5
        for _ in range(12):
            engine.apply(WeightIncrease(1, 0.01))
        assert len(engine.history) == 5
        assert engine.applied_events == 12

    def test_history_limit_none_keeps_everything(self):
        engine = self._engine(history_limit=None)
        for _ in range(8):
            engine.apply(WeightIncrease(1, 0.01))
        assert len(engine.history) == 8

    def test_rebuild_recomputes_greedy(self):
        engine = self._engine()
        engine.apply(WeightIncrease(0, 2.0))
        rebuilt = engine.rebuild()
        greedy = greedy_diversify(engine.objective, engine.p)
        assert rebuilt == greedy.selected

    def test_p_validation(self):
        instance = make_synthetic_instance(5, seed=2)
        with pytest.raises(InvalidParameterError):
            DynamicDiversifier(instance.weights, instance.distances, 0)
        with pytest.raises(InvalidParameterError):
            DynamicDiversifier(instance.weights, instance.distances, 6)

    def test_external_mutation_does_not_leak_into_engine(self):
        # Aliasing regression: the engine must own independent copies of both
        # the weight vector and the distance matrix.
        weights = np.array([1.0, 0.2, 0.3, 0.1])
        distances = np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 1.5, 1.2],
                [1.0, 1.5, 0.0, 1.9],
                [1.0, 1.2, 1.9, 0.0],
            ]
        )
        engine = DynamicDiversifier(weights, distances, 2, tradeoff=1.0)
        weights[0] = 99.0
        distances[0, 1] = 99.0
        distances[1, 0] = 99.0
        assert engine.weight(0) == pytest.approx(1.0)
        assert engine.distance(0, 1) == pytest.approx(1.0)

    def test_engine_mutation_does_not_leak_out(self):
        weights = np.array([1.0, 0.2, 0.3, 0.1])
        distances = np.array(
            [
                [0.0, 1.0, 1.0, 1.0],
                [1.0, 0.0, 1.5, 1.2],
                [1.0, 1.5, 0.0, 1.9],
                [1.0, 1.2, 1.9, 0.0],
            ]
        )
        engine = DynamicDiversifier(weights, distances, 2, tradeoff=1.0)
        engine.apply(WeightIncrease(0, 0.5))
        engine.apply(DistanceIncrease(0, 1, 0.05))
        assert weights[0] == pytest.approx(1.0)
        assert distances[0, 1] == pytest.approx(1.0)

    def test_distance_matrix_input_is_copied(self):
        from repro.metrics.matrix import DistanceMatrix as DM

        matrix = DM(
            np.array(
                [
                    [0.0, 1.0, 1.0],
                    [1.0, 0.0, 1.5],
                    [1.0, 1.5, 0.0],
                ]
            )
        )
        engine = DynamicDiversifier([1.0, 0.2, 0.3], matrix, 2, tradeoff=1.0)
        matrix.set_distance(0, 1, 1.3)
        assert engine.distance(0, 1) == pytest.approx(1.0)

    def test_weights_accept_plain_lists_and_arrays(self):
        distances = np.array([[0.0, 1.0], [1.0, 0.0]])
        from_list = DynamicDiversifier([1.0, 0.5], distances, 1, tradeoff=1.0)
        from_array = DynamicDiversifier(
            np.array([1.0, 0.5]), distances, 1, tradeoff=1.0
        )
        assert from_list.weight(1) == from_array.weight(1) == pytest.approx(0.5)


class TestUpdateRuleCandidates:
    def _objective(self):
        weights = ModularFunction([1.0, 0.2, 0.3, 0.1, 0.6])
        metric = DistanceMatrix(
            np.array(
                [
                    [0.0, 1.0, 1.0, 1.0, 1.1],
                    [1.0, 0.0, 1.5, 1.2, 1.4],
                    [1.0, 1.5, 0.0, 1.9, 1.0],
                    [1.0, 1.2, 1.9, 0.0, 1.3],
                    [1.1, 1.4, 1.0, 1.3, 0.0],
                ]
            )
        )
        return Objective(weights, metric, tradeoff=1.0)

    def test_best_swap_respects_pool(self):
        objective = self._objective()
        solution = {0, 1}
        restriction = objective.restrict([0, 1, 4])
        move = best_swap(restriction.objective, set(restriction.to_local(solution)))
        if move is not None:
            incoming, outgoing = restriction.to_global(move[:2])
            gain = move[2]
            assert incoming in {0, 1, 4}
            assert gain == pytest.approx(
                objective.value(solution - {outgoing} | {incoming})
                - objective.value(solution)
            )

    def test_best_swap_pool_equals_restricted_instance(self):
        objective = self._objective()
        solution = {0, 1}
        pool = [0, 1, 2, 4]
        restricted = objective.restrict(pool)
        local_move = best_swap(
            restricted.objective, set(restricted.to_local(solution))
        )
        # The best single swap over the pool, scored on the full instance.
        gains = {
            (incoming, outgoing): objective.value(solution - {outgoing} | {incoming})
            - objective.value(solution)
            for incoming in set(pool) - solution
            for outgoing in solution
        }
        pooled_move = max(gains, key=gains.get)
        if gains[pooled_move] <= GAIN_TOLERANCE:
            assert local_move is None
        else:
            lifted = tuple(restricted.to_global(local_move[:2]))
            assert lifted == pooled_move
            assert local_move[2] == pytest.approx(gains[pooled_move])

    def test_solution_outside_pool_rejected(self):
        objective = self._objective()
        with pytest.raises(InvalidParameterError):
            objective.restrict([0, 1, 2]).to_local({0, 3})

    def test_update_until_stable_stays_in_pool(self):
        objective = self._objective()
        pool = [0, 1, 2]
        restriction = objective.restrict(pool)
        outcome = update_until_stable(
            restriction.objective, set(restriction.to_local({0, 1}))
        )
        assert set(restriction.to_global(outcome.solution)) <= set(pool)
        assert best_swap(restriction.objective, set(outcome.solution)) is None


class TestRatioMaintenance:
    """Corollary 4: starting from a good solution, a single oblivious update
    keeps the approximation ratio at most 3 for all four perturbation types
    (with the Type II magnitude restriction)."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_weight_increase_keeps_ratio_3(self, seed):
        instance = make_synthetic_instance(9, seed=seed)
        engine = DynamicDiversifier(
            instance.weights, instance.distances, 4, tradeoff=instance.tradeoff
        )
        rng = np.random.default_rng(seed)
        element = int(rng.integers(0, 9))
        engine.apply(WeightIncrease(element, float(rng.uniform(0.1, 1.0))), updates=1)
        assert engine.approximation_ratio() <= 3.0 + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_bounded_weight_decrease_keeps_ratio_3(self, seed):
        instance = make_synthetic_instance(9, seed=seed)
        engine = DynamicDiversifier(
            instance.weights, instance.distances, 4, tradeoff=instance.tradeoff
        )
        rng = np.random.default_rng(seed + 100)
        element = int(rng.integers(0, 9))
        # Restrict the decrease to w/(p-2) of the current solution value
        # (Theorem 4's single-update regime), and to the element's weight.
        cap = min(engine.solution_value / (engine.p - 2), engine.weight(element))
        if cap <= 0:
            pytest.skip("element has zero weight")
        engine.apply(WeightDecrease(element, float(cap * 0.9)), updates=1)
        assert engine.approximation_ratio() <= 3.0 + 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_distance_perturbations_keep_ratio_3(self, seed):
        instance = make_synthetic_instance(9, seed=seed)
        engine = DynamicDiversifier(
            instance.weights, instance.distances, 4, tradeoff=instance.tradeoff
        )
        rng = np.random.default_rng(seed + 200)
        u, v = map(int, rng.choice(9, size=2, replace=False))
        current = engine.distance(u, v)
        target = float(rng.uniform(1.0, 2.0))
        if target > current:
            engine.apply(DistanceIncrease(u, v, target - current), updates=1)
        elif target < current:
            engine.apply(DistanceDecrease(u, v, current - target), updates=1)
        assert engine.approximation_ratio() <= 3.0 + 1e-9

    def test_large_weight_decrease_with_theorem4_schedule(self):
        instance = make_synthetic_instance(9, seed=7)
        engine = DynamicDiversifier(
            instance.weights, instance.distances, 5, tradeoff=instance.tradeoff
        )
        # Decrease a solution element's weight by a large fraction and let the
        # engine apply the Theorem 4 multi-update schedule automatically.
        element = next(iter(engine.solution))
        delta = engine.weight(element) * 0.95
        if delta <= 0:
            pytest.skip("element has zero weight")
        engine.apply(WeightDecrease(element, delta))
        assert engine.approximation_ratio() <= 3.0 + 1e-9
