"""Kernel/reference equivalence tests.

Every array kernel (pair seeding, best-swap scan, aggregates, streaming
arrival rule, dynamic best swap, blocked triangle check) must agree with the
loop formulations of :mod:`repro.testing.reference` to 1e-9 on random
instances.  Wrapping the same distance matrix in an oracle-only adapter that
hides :meth:`~repro.metrics.base.Metric.matrix_view` additionally checks that
the block path gives the same answers for oracle metrics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import kernels
from repro.core.greedy import greedy_diversify
from repro.core.local_search import local_search_diversify
from repro.core.objective import Objective
from repro.core.streaming import streaming_diversify
from repro.dynamic.update_rules import best_swap
from repro.functions.facility_location import FacilityLocationFunction
from repro.functions.modular import ModularFunction
from repro.matroids.partition import PartitionMatroid
from repro.matroids.uniform import UniformMatroid
from repro.metrics.aggregates import (
    MarginalDistanceTracker,
    marginal_distance,
    set_cross_distance,
    set_distance,
)
from repro.metrics.matrix import DistanceMatrix
from repro.metrics.validation import triangle_violations
from repro.testing.reference import (
    OracleOnlyMetric,
    best_pair_reference,
    best_swap_reference,
    local_search_reference,
    restriction_feasible_pairs,
    scan_swaps_reference,
)


def random_instance(seed: int, n: int = 40):
    rng = np.random.default_rng(seed)
    metric = DistanceMatrix.from_points(rng.normal(size=(n, 3)))
    weights = rng.uniform(0.0, 5.0, size=n)
    quality = ModularFunction(weights)
    tradeoff = float(rng.uniform(0.2, 2.0))
    return metric, quality, tradeoff


def paired_objectives(seed: int, n: int = 40):
    metric, quality, tradeoff = random_instance(seed, n)
    fast = Objective(quality, metric, tradeoff)
    slow = Objective(quality, OracleOnlyMetric(metric), tradeoff)
    return fast, slow


def _weights(objective):
    return kernels.modular_weights(objective.quality)


class TestPairSeeding:
    @pytest.mark.parametrize("seed", range(5))
    def test_best_pair_matches_loop(self, seed):
        fast, slow = paired_objectives(seed)
        pool = list(range(fast.n))
        expected = best_pair_reference(slow, pool)
        for objective in (fast, slow):
            move = kernels.pair_argmax(objective, _weights(objective), pool)
            assert move[:2] == expected[:2]
            assert move[2] == pytest.approx(expected[2], abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_best_pair_on_restricted_pool(self, seed):
        fast, slow = paired_objectives(seed)
        rng = np.random.default_rng(seed + 100)
        pool = list(rng.choice(fast.n, size=17, replace=False))
        expected = best_pair_reference(slow, pool)
        for objective in (fast, slow):
            move = kernels.pair_argmax(objective, _weights(objective), pool)
            assert move[:2] == expected[:2]

    @pytest.mark.parametrize("seed", range(3))
    def test_pair_argmax_respects_partition_mask(self, seed):
        fast, _ = paired_objectives(seed)
        blocks = [u % 3 for u in range(fast.n)]
        matroid = PartitionMatroid(blocks, {0: 1, 1: 2, 2: 1})
        move = kernels.pair_argmax(
            fast,
            _weights(fast),
            range(fast.n),
            mask=matroid.pair_feasibility_mask(),
        )
        best_loop = max(
            restriction_feasible_pairs(matroid),
            key=lambda pair: fast.pair_value(*pair),
        )
        assert (move[0], move[1]) == best_loop
        assert move[2] == pytest.approx(fast.pair_value(*best_loop), abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_submodular_pair_scores_match_loop(self, seed):
        metric, _, tradeoff = random_instance(seed, n=30)
        quality = FacilityLocationFunction.from_distances(metric.to_matrix())
        objective = Objective(quality, OracleOnlyMetric(metric), tradeoff)
        expected = best_pair_reference(objective, range(objective.n))
        move = kernels.pair_argmax(objective, None, range(objective.n))
        assert move[:2] == expected[:2]
        assert move[2] == pytest.approx(expected[2], abs=1e-9)


class TestSwapScanEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_uniform_matroid_scan(self, seed):
        fast, slow = paired_objectives(seed)
        rng = np.random.default_rng(seed)
        selected = set(rng.choice(fast.n, size=8, replace=False).tolist())
        matroid = UniformMatroid(fast.n, len(selected))
        vec, _ = kernels.best_swap_scan(
            fast,
            selected,
            fast.make_tracker(selected).marginals_view(),
            weights=_weights(fast),
            matroid=matroid,
        )
        ref = scan_swaps_reference(
            slow, matroid, selected, slow.make_tracker(selected), 0.0
        )
        assert (vec is None) == (ref is None)
        if vec is not None:
            assert vec[:2] == ref[:2]
            assert vec[2] == pytest.approx(ref[2], abs=1e-9)
            # The reported gain must be the true objective delta.
            assert vec[2] == pytest.approx(
                fast.swap_gain(selected, vec[0], vec[1]), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_matroid_scan(self, seed):
        fast, slow = paired_objectives(seed)
        blocks = [u % 4 for u in range(fast.n)]
        matroid = PartitionMatroid(blocks, {b: 2 for b in range(4)})
        selected = set(matroid.extend_to_basis(frozenset()))
        vec, _ = kernels.best_swap_scan(
            fast,
            selected,
            fast.make_tracker(selected).marginals_view(),
            weights=_weights(fast),
            matroid=matroid,
        )
        ref = scan_swaps_reference(
            slow, matroid, selected, slow.make_tracker(selected), 0.0
        )
        assert (vec is None) == (ref is None)
        if vec is not None:
            assert vec[:2] == ref[:2]
            assert vec[2] == pytest.approx(ref[2], abs=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_threshold_respected(self, seed):
        fast, slow = paired_objectives(seed)
        rng = np.random.default_rng(seed)
        selected = set(rng.choice(fast.n, size=6, replace=False).tolist())
        matroid = UniformMatroid(fast.n, len(selected))
        huge = 1e9
        move, _ = kernels.best_swap_scan(
            fast,
            selected,
            fast.make_tracker(selected).marginals_view(),
            weights=_weights(fast),
            matroid=matroid,
            threshold=huge,
        )
        assert move is None


class TestSubmodularSwapScanEquivalence:
    """The protocol-backed scan must match the reference loop scan."""

    @staticmethod
    def _submodular_objective(seed: int, n: int = 30):
        metric, _, tradeoff = random_instance(seed, n)
        rng = np.random.default_rng(seed + 41)
        if seed % 2 == 0:
            quality = FacilityLocationFunction.from_distances(metric.to_matrix())
        else:
            from repro.functions.saturated import SaturatedCoverageFunction

            similarity = rng.uniform(0.0, 1.0, size=(n, n))
            quality = SaturatedCoverageFunction(
                (similarity + similarity.T) / 2.0, saturation=0.3
            )
        return Objective(quality, metric, tradeoff)

    @pytest.mark.parametrize("seed", range(6))
    def test_uniform_matroid_scan(self, seed):
        objective = self._submodular_objective(seed)
        rng = np.random.default_rng(seed)
        selected = set(rng.choice(objective.n, size=7, replace=False).tolist())
        matroid = UniformMatroid(objective.n, len(selected))
        tracker = objective.make_tracker(selected)
        vec, _ = kernels.best_swap_scan(
            objective, selected, tracker.marginals_view(), weights=None, matroid=matroid
        )
        ref = scan_swaps_reference(objective, matroid, selected, tracker, 0.0)
        assert (vec is None) == (ref is None)
        if vec is not None:
            assert vec[:2] == ref[:2]
            assert vec[2] == pytest.approx(ref[2], abs=1e-9)
            # The reported gain must be the true objective delta.
            assert vec[2] == pytest.approx(
                objective.swap_gain(selected, vec[0], vec[1]), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_matroid_scan(self, seed):
        objective = self._submodular_objective(seed, n=24)
        blocks = [u % 4 for u in range(objective.n)]
        matroid = PartitionMatroid(blocks, {b: 2 for b in range(4)})
        selected = set(matroid.extend_to_basis(frozenset()))
        tracker = objective.make_tracker(selected)
        vec, _ = kernels.best_swap_scan(
            objective, selected, tracker.marginals_view(), weights=None, matroid=matroid
        )
        ref = scan_swaps_reference(objective, matroid, selected, tracker, 0.0)
        assert (vec is None) == (ref is None)
        if vec is not None:
            assert vec[:2] == ref[:2]
            assert vec[2] == pytest.approx(ref[2], abs=1e-9)

    def test_threshold_respected(self):
        objective = self._submodular_objective(0)
        rng = np.random.default_rng(0)
        selected = set(rng.choice(objective.n, size=5, replace=False).tolist())
        matroid = UniformMatroid(objective.n, len(selected))
        move, _ = kernels.best_swap_scan(
            objective,
            selected,
            objective.make_tracker(selected).marginals_view(),
            weights=None,
            matroid=matroid,
            threshold=1e9,
        )
        assert move is None


def _assert_matches_reference(result, objective, matroid):
    selection, swaps, value = local_search_reference(objective, matroid)
    assert result.selected == selection
    assert result.iterations == swaps
    assert result.objective_value == pytest.approx(value, abs=1e-9)


class TestEndToEndEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_greedy_matches_oracle_path(self, seed):
        fast, slow = paired_objectives(seed)
        for start in ("potential", "best_pair"):
            a = greedy_diversify(fast, 8, start=start)
            b = greedy_diversify(slow, 8, start=start)
            assert a.selected == b.selected
            assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)
        pair = best_pair_reference(slow, range(slow.n))
        assert tuple(a.order[:2]) == pair[:2]

    @pytest.mark.parametrize("seed", range(4))
    def test_local_search_matches_oracle_path(self, seed):
        fast, slow = paired_objectives(seed, n=25)
        matroid = UniformMatroid(fast.n, 6)
        a = local_search_diversify(fast, matroid)
        b = local_search_diversify(slow, matroid)
        assert a.selected == b.selected
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)
        _assert_matches_reference(a, slow, matroid)

    @pytest.mark.parametrize("seed", range(3))
    def test_local_search_partition_matches_oracle_path(self, seed):
        fast, slow = paired_objectives(seed, n=24)
        blocks = [u % 3 for u in range(fast.n)]
        matroid = PartitionMatroid(blocks, {b: 2 for b in range(3)})
        a = local_search_diversify(fast, matroid)
        b = local_search_diversify(slow, matroid)
        assert a.selected == b.selected
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)
        _assert_matches_reference(a, slow, matroid)

    @pytest.mark.parametrize("seed", range(3))
    def test_submodular_local_search_still_correct(self, seed):
        metric, _, tradeoff = random_instance(seed, n=18)
        quality = FacilityLocationFunction.from_distances(metric.to_matrix())
        fast = Objective(quality, metric, tradeoff)
        slow = Objective(quality, OracleOnlyMetric(metric), tradeoff)
        matroid = UniformMatroid(metric.n, 5)
        a = local_search_diversify(fast, matroid)
        b = local_search_diversify(slow, matroid)
        assert a.selected == b.selected
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)
        _assert_matches_reference(a, slow, matroid)

    @pytest.mark.parametrize("seed", range(4))
    def test_streaming_matches_oracle_path(self, seed):
        fast, slow = paired_objectives(seed)
        rng = np.random.default_rng(seed + 7)
        order = rng.permutation(fast.n).tolist()
        a = streaming_diversify(fast, 7, order)
        b = streaming_diversify(slow, 7, order)
        assert a.selected == b.selected
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_dynamic_best_swap_matches_oracle_path(self, seed):
        fast, slow = paired_objectives(seed)
        rng = np.random.default_rng(seed + 13)
        solution = set(rng.choice(fast.n, size=6, replace=False).tolist())
        expected = best_swap_reference(slow, solution)
        for objective in (fast, slow):
            move = best_swap(objective, solution)
            assert (move is None) == (expected is None)
            if move is not None:
                assert move[:2] == expected[:2]
                assert move[2] == pytest.approx(expected[2], abs=1e-9)


class TestAggregateEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_set_distances(self, seed):
        metric, _, _ = random_instance(seed)
        oracle = OracleOnlyMetric(metric)
        rng = np.random.default_rng(seed + 3)
        subset = rng.choice(metric.n, size=9, replace=False).tolist()
        first, second = subset[:4], subset[4:]
        assert set_distance(metric, subset) == pytest.approx(
            set_distance(oracle, subset), abs=1e-9
        )
        assert set_cross_distance(metric, first, second) == pytest.approx(
            set_cross_distance(oracle, first, second), abs=1e-9
        )
        for u in range(0, metric.n, 5):
            assert marginal_distance(metric, u, subset) == pytest.approx(
                marginal_distance(oracle, u, subset), abs=1e-9
            )

    @pytest.mark.parametrize("seed", range(3))
    def test_tracker_updates(self, seed):
        metric, _, _ = random_instance(seed)
        oracle = OracleOnlyMetric(metric)
        fast_tracker = MarginalDistanceTracker(metric)
        slow_tracker = MarginalDistanceTracker(oracle)
        rng = np.random.default_rng(seed + 5)
        members = rng.choice(metric.n, size=10, replace=False).tolist()
        for element in members:
            fast_tracker.add(element)
            slow_tracker.add(element)
        for element in members[:4]:
            fast_tracker.remove(element)
            slow_tracker.remove(element)
        assert np.allclose(
            fast_tracker.marginals(), slow_tracker.marginals(), atol=1e-9
        )
        assert fast_tracker.internal_dispersion == pytest.approx(
            slow_tracker.internal_dispersion, abs=1e-9
        )

    def test_marginal_distance_counts_duplicates_on_both_tiers(self):
        metric, _, _ = random_instance(0)
        oracle = OracleOnlyMetric(metric)
        subset = [1, 1, 2, 0]  # duplicates and the element itself
        assert marginal_distance(metric, 0, subset) == pytest.approx(
            marginal_distance(oracle, 0, subset), abs=1e-9
        )

    def test_marginals_view_is_read_only_and_live(self):
        metric, _, _ = random_instance(0)
        tracker = MarginalDistanceTracker(metric)
        view = tracker.marginals_view()
        with pytest.raises(ValueError):
            view[0] = 1.0
        tracker.add(3)
        assert view[0] == pytest.approx(metric.distance(0, 3))

    def test_matrix_view_and_row_are_read_only(self):
        metric, _, _ = random_instance(1)
        view = metric.matrix_view()
        with pytest.raises(ValueError):
            view[0, 1] = 99.0
        with pytest.raises(ValueError):
            metric.row(0)[1] = 99.0
        # ...while the sanctioned mutation path still works and is reflected.
        metric.set_distance(0, 1, 0.5)
        assert view[0, 1] == 0.5

    def test_zero_function_uses_fast_path_and_matches_oracle(self):
        from repro.functions.modular import ZeroFunction

        metric, _, tradeoff = random_instance(2)
        fast = Objective(ZeroFunction(metric.n), metric, tradeoff)
        slow = Objective(ZeroFunction(metric.n), OracleOnlyMetric(metric), tradeoff)
        assert kernels.modular_weights(fast.quality) is not None
        a = streaming_diversify(fast, 6)
        b = streaming_diversify(slow, 6)
        assert a.selected == b.selected
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-9)


class TestFeasibilityMasks:
    @pytest.mark.parametrize("seed", range(4))
    def test_partition_swap_feasibility_matches_candidates(self, seed):
        rng = np.random.default_rng(seed)
        n = 20
        blocks = rng.integers(0, 4, size=n).tolist()
        matroid = PartitionMatroid(
            blocks, {b: int(rng.integers(1, 3)) for b in range(4)}
        )
        basis = set(matroid.extend_to_basis(frozenset()))
        inside = np.array(sorted(basis), dtype=int)
        outside = np.array([u for u in range(n) if u not in basis], dtype=int)
        mask = matroid.swap_feasibility(basis, outside, inside)
        for i, incoming in enumerate(outside):
            allowed = set(matroid.swap_candidates(basis, int(incoming)))
            assert {int(inside[j]) for j in np.nonzero(mask[i])[0]} == allowed

    @pytest.mark.parametrize("seed", range(4))
    def test_partition_pair_mask_matches_is_independent(self, seed):
        rng = np.random.default_rng(seed)
        n = 14
        blocks = rng.integers(0, 3, size=n).tolist()
        matroid = PartitionMatroid(
            blocks, {b: int(rng.integers(1, 3)) for b in range(3)}
        )
        mask = matroid.pair_feasibility_mask()
        for x in range(n):
            for y in range(n):
                if x == y:
                    continue
                assert mask[x, y] == matroid.is_independent({x, y})

    def test_uniform_masks(self):
        matroid = UniformMatroid(6, 3)
        assert matroid.pair_feasibility_mask().all()
        assert not UniformMatroid(6, 1).pair_feasibility_mask().any()
        mask = matroid.swap_feasibility(
            {0, 1, 2}, np.array([3, 4]), np.array([0, 1, 2])
        )
        assert mask.shape == (2, 3) and mask.all()


class TestBlockedTriangleCheck:
    @staticmethod
    def _brute_force(matrix: np.ndarray, tolerance: float = 1e-9):
        n = matrix.shape[0]
        found = []
        for y in range(n):
            for x in range(n):
                for z in range(n):
                    if len({x, y, z}) != 3:
                        continue
                    gap = matrix[x, z] - matrix[x, y] - matrix[y, z]
                    if gap > tolerance:
                        found.append((x, y, z))
        return found

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed, monkeypatch):
        # Small block size so the blocked path actually iterates.
        monkeypatch.setattr(
            "repro.metrics.validation._TRIANGLE_BLOCK_ELEMENTS", 3 * 12 * 12
        )
        rng = np.random.default_rng(seed)
        matrix = rng.uniform(0.0, 3.0, size=(12, 12))
        matrix = (matrix + matrix.T) / 2.0
        np.fill_diagonal(matrix, 0.0)
        metric = DistanceMatrix(matrix)
        expected = set(self._brute_force(matrix))
        got = {
            (x, y, z)
            for x, y, z, _ in triangle_violations(metric, max_violations=10**6)
        }
        assert got == expected

    def test_violation_gap_values(self):
        matrix = np.array(
            [
                [0.0, 1.0, 5.0],
                [1.0, 0.0, 1.0],
                [5.0, 1.0, 0.0],
            ]
        )
        violations = triangle_violations(DistanceMatrix(matrix))
        assert violations
        for x, y, z, gap in violations:
            assert gap == pytest.approx(matrix[x, z] - matrix[x, y] - matrix[y, z])
