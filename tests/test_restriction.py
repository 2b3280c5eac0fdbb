"""Tests for the sub-universe restriction layer.

Covers the three layers a pool restriction is built from —
``Metric.restrict`` / ``SetFunction.restrict`` / ``Matroid.restrict`` — the
:class:`~repro.core.restriction.Restriction` bundle, the property every
algorithm must satisfy: ``solve(..., candidates=C)`` equals solving the
induced sub-instance (``metric.restrict(C)``, sliced weights) lifted back,
and never selects outside ``C`` — and that the algorithms themselves take no
pool: one enters through a front door such as ``solve`` or through
``Objective.restrict`` plus ``Restriction.lift``.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import numpy as np
import pytest

from repro.core.baselines import gollapudi_sharma_greedy, matching_diversify
from repro.core.dispersion import greedy_dispersion
from repro.core.exact import exact_dispersion, exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.local_search import local_search_diversify
from repro.core.mmr import mmr_select
from repro.core.restriction import Restriction
from repro.core.solver import ALGORITHMS, solve
from repro.core.streaming import streaming_diversify
from repro.data.synthetic import make_synthetic_instance
from repro.dynamic.update_rules import best_swap, oblivious_update, update_until_stable
from repro.exceptions import InvalidParameterError
from repro.functions.coverage import CoverageFunction
from repro.functions.modular import ModularFunction, ZeroFunction
from repro.functions.restricted import RestrictedSetFunction
from repro.matroids.graphic import GraphicMatroid
from repro.matroids.partition import PartitionMatroid
from repro.matroids.restriction import RestrictedMatroid
from repro.matroids.truncation import TruncatedMatroid
from repro.matroids.uniform import UniformMatroid
from repro.metrics.base import Metric
from repro.metrics.matrix import DistanceMatrix


class OracleMetric(Metric):
    """Matrix distances served only through the oracle interface.

    Forces the reference (loop) code paths: ``matrix_view()`` stays ``None``.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self._backing = np.asarray(matrix, dtype=float)

    @property
    def n(self) -> int:
        return self._backing.shape[0]

    def distance(self, u, v) -> float:
        return float(self._backing[u, v])


# ----------------------------------------------------------------------
# Metric restriction
# ----------------------------------------------------------------------
class TestMetricRestrict:
    @pytest.fixture
    def matrix(self):
        return DistanceMatrix(make_synthetic_instance(12, seed=3).metric.to_matrix())

    def test_contiguous_pool_is_a_copy_free_view(self, matrix):
        sub = matrix.restrict(range(3, 9))
        assert sub.n == 6
        assert np.shares_memory(sub.matrix_view(), matrix.array)
        assert sub.distance(0, 1) == matrix.distance(3, 4)

    def test_strided_pool_is_a_copy_free_view(self, matrix):
        sub = matrix.restrict([2, 5, 8, 11])
        assert sub.n == 4
        assert np.shares_memory(sub.matrix_view(), matrix.array)
        assert sub.distance(1, 3) == matrix.distance(5, 11)

    def test_view_reflects_parent_mutation(self, matrix):
        sub = matrix.restrict(range(0, 4))
        matrix.set_distance(1, 2, 1.234)
        assert sub.distance(1, 2) == pytest.approx(1.234)

    def test_view_is_read_only(self, matrix):
        sub = matrix.restrict(range(0, 4))
        with pytest.raises(ValueError):
            sub.array[0, 1] = 5.0

    def test_arbitrary_pool_is_an_independent_copy(self, matrix):
        pool = [7, 1, 4]
        sub = matrix.restrict(pool)
        assert not np.shares_memory(sub.matrix_view(), matrix.array)
        for i, u in enumerate(pool):
            for j, v in enumerate(pool):
                assert sub.distance(i, j) == matrix.distance(u, v)
        matrix.set_distance(7, 1, 1.111)
        assert sub.distance(0, 1) != pytest.approx(1.111)

    def test_empty_and_singleton_pools(self, matrix):
        assert matrix.restrict([]).n == 0
        single = matrix.restrict([5])
        assert single.n == 1
        assert single.distance(0, 0) == 0.0

    def test_duplicates_deduplicated_in_order(self, matrix):
        sub = matrix.restrict([4, 2, 4, 2, 9])
        assert sub.n == 3
        assert sub.distance(0, 2) == matrix.distance(4, 9)

    def test_out_of_universe_rejected(self, matrix):
        with pytest.raises(InvalidParameterError):
            matrix.restrict([0, 99])
        with pytest.raises(InvalidParameterError):
            matrix.restrict([-1])

    def test_oracle_metric_default_restrict(self):
        backing = make_synthetic_instance(8, seed=5).metric.to_matrix()
        oracle = OracleMetric(backing)
        sub = oracle.restrict([1, 6, 3])
        assert isinstance(sub, DistanceMatrix)
        assert sub.distance(0, 2) == pytest.approx(backing[1, 3])


# ----------------------------------------------------------------------
# Quality-function restriction
# ----------------------------------------------------------------------
class TestFunctionRestrict:
    def test_modular_slice(self):
        fn = ModularFunction([0.5, 1.0, 1.5, 2.0])
        sub = fn.restrict([3, 1])
        assert isinstance(sub, ModularFunction)
        assert sub.n == 2
        assert sub.value({0, 1}) == pytest.approx(3.0)
        fn.set_weight(3, 9.0)
        assert sub.value({0}) == pytest.approx(2.0)  # independent copy

    def test_zero_function(self):
        sub = ZeroFunction(6).restrict([0, 5])
        assert isinstance(sub, ZeroFunction)
        assert sub.n == 2

    def test_generic_wrapper_delegates(self):
        coverage = CoverageFunction.random(10, 6, seed=0)
        pool = [2, 7, 4]
        sub = coverage.restrict(pool)
        assert isinstance(sub, RestrictedSetFunction)
        assert sub.n == 3
        assert sub.value({0, 2}) == pytest.approx(coverage.value({2, 4}))
        assert sub.marginal(1, {0}) == pytest.approx(coverage.marginal(7, {2}))
        assert sub.is_modular == coverage.is_modular

    def test_out_of_universe_rejected(self):
        with pytest.raises(InvalidParameterError):
            ModularFunction([1.0, 2.0]).restrict([0, 5])
        with pytest.raises(InvalidParameterError):
            CoverageFunction.random(4, 3, seed=0).restrict([9])


# ----------------------------------------------------------------------
# Matroid restriction
# ----------------------------------------------------------------------
class TestMatroidRestrict:
    def test_uniform(self):
        sub = UniformMatroid(10, 4).restrict([0, 1, 2])
        assert isinstance(sub, UniformMatroid)
        assert sub.n == 3 and sub.p == 3
        sub = UniformMatroid(10, 2).restrict(range(5))
        assert sub.p == 2

    def test_partition_keeps_blocks_and_capacities(self):
        matroid = PartitionMatroid([0, 0, 1, 1, 2, 2], {0: 1, 1: 2, 2: 1})
        sub = matroid.restrict([0, 2, 3, 4])  # local blocks: [0, 1, 1, 2]
        assert isinstance(sub, PartitionMatroid)
        assert sub.is_independent({1, 2})  # both in block 1, capacity 2
        assert sub.is_independent({0, 1, 2, 3})  # within every capacity
        assert sub.rank() == matroid.rank([0, 2, 3, 4])

    def test_truncation_commutes(self):
        inner = PartitionMatroid([0, 0, 1, 1], {0: 2, 1: 2})
        sub = TruncatedMatroid(inner, 3).restrict([0, 1, 2])
        assert isinstance(sub, TruncatedMatroid)
        assert sub.rank() == 3
        assert sub.is_independent({0, 1, 2})

    def test_generic_wrapper_matches_inner_oracle(self):
        edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]
        matroid = GraphicMatroid(5, edges)
        pool = [0, 1, 2, 4]
        sub = matroid.restrict(pool)
        assert isinstance(sub, RestrictedMatroid)
        from itertools import combinations

        for size in range(len(pool) + 1):
            for combo in combinations(range(len(pool)), size):
                expected = matroid.is_independent({pool[i] for i in combo})
                assert sub.is_independent(set(combo)) == expected

    def test_restricted_axioms_hold(self):
        matroid = PartitionMatroid([0, 1, 0, 1, 0], {0: 2, 1: 1})
        matroid.restrict([4, 1, 0]).check_axioms()

    def test_swap_feasibility_delegates(self):
        matroid = PartitionMatroid([0, 0, 1, 1], {0: 1, 1: 1})
        sub = RestrictedMatroid(matroid, [0, 1, 2, 3])
        basis = {0, 2}
        feasible = sub.swap_feasibility(
            basis, np.array([1, 3]), np.array([0, 2])
        )
        expected = matroid.swap_feasibility(
            {0, 2}, np.array([1, 3]), np.array([0, 2])
        )
        assert np.array_equal(feasible, expected)


# ----------------------------------------------------------------------
# The Restriction bundle
# ----------------------------------------------------------------------
class TestRestrictionBundle:
    @pytest.fixture
    def objective(self):
        return make_synthetic_instance(12, seed=9).objective

    def test_value_preservation(self, objective):
        pool = [8, 1, 5, 11]
        restriction = Restriction(objective, pool)
        assert restriction.objective.value({0, 2}) == pytest.approx(
            objective.value({8, 5})
        )

    def test_index_round_trip(self, objective):
        restriction = Restriction(objective, [8, 1, 5, 11])
        assert restriction.to_local([5, 8]) == [2, 0]
        assert restriction.to_global([2, 0]) == [5, 8]
        with pytest.raises(InvalidParameterError):
            restriction.to_local([3])

    def test_identity_detection(self, objective):
        assert Restriction(objective, range(12)).is_identity
        assert not Restriction(objective, [0, 2]).is_identity

    def test_lift_remaps_metadata(self, objective):
        pool = [8, 1, 5, 11, 3, 6]
        restriction = Restriction(objective, pool)
        result = restriction.lift(gollapudi_sharma_greedy(restriction.objective, 4))
        assert result.metadata["candidates"] == tuple(pool)
        for u, v in result.metadata["pairs"]:
            assert u in pool and v in pool

    @pytest.mark.parametrize("constraint", ["uniform", "partition"])
    def test_lift_remaps_local_search_swap_trace(self, constraint):
        instance = make_synthetic_instance(15, seed=21)
        pool = [3, 11, 2, 9, 14, 0, 5, 12]
        if constraint == "uniform":
            matroid = UniformMatroid(15, 3)
        else:
            matroid = PartitionMatroid([i % 3 for i in range(15)], {0: 2, 1: 1, 2: 1})
        start = [3, 9, 11]
        restriction = instance.objective.restrict(pool)
        sub_matroid = matroid.restrict(restriction.candidates)
        local_start = set(restriction.to_local(start))
        # A basis already, so the trace starts from `start` itself.
        assert sub_matroid.is_independent(local_start)
        assert len(local_start) == sub_matroid.rank()
        result = restriction.lift(
            local_search_diversify(
                restriction.objective, sub_matroid, initial=local_start
            )
        )
        swaps = result.metadata["swaps"]
        assert swaps
        current = set(start)
        for incoming, outgoing, _ in swaps:
            assert incoming in pool and outgoing in pool
            assert incoming not in current and outgoing in current
            current = (current - {outgoing}) | {incoming}
        assert current == result.selected


# ----------------------------------------------------------------------
# Property: solve(candidates=) honors the pool for every algorithm and
# matches the induced sub-instance (includes the local_search regression).
# ----------------------------------------------------------------------
POOLS = {
    "empty": [],
    "singleton": [7],
    "scattered": [3, 11, 2, 9, 14, 0, 5, 12],
    "contiguous": list(range(4, 12)),
    "full": list(range(15)),
}


class TestRestrictionEquivalence:
    @pytest.fixture
    def instance(self):
        return make_synthetic_instance(15, seed=21)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("pool_name", sorted(POOLS))
    def test_candidates_equal_induced_sub_instance(
        self, instance, algorithm, pool_name
    ):
        pool = POOLS[pool_name]
        restricted = solve(
            instance.quality,
            instance.metric,
            tradeoff=instance.tradeoff,
            p=3,
            algorithm=algorithm,
            candidates=pool,
        )
        # Never select outside the pool.
        assert restricted.selected <= set(pool)
        # Equal to solving the induced sub-instance and lifting back.
        idx = np.asarray(pool, dtype=int)
        induced = solve(
            ModularFunction(instance.weights[idx]),
            instance.metric.restrict(pool),
            tradeoff=instance.tradeoff,
            p=3,
            algorithm=algorithm,
        )
        assert frozenset(pool[e] for e in induced.selected) == restricted.selected
        assert restricted.objective_value == pytest.approx(
            induced.objective_value, abs=1e-9
        )
        assert restricted.quality_value == pytest.approx(
            induced.quality_value, abs=1e-9
        )
        assert restricted.dispersion_value == pytest.approx(
            induced.dispersion_value, abs=1e-9
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_kernel_and_reference_paths_agree(self, instance, algorithm):
        """Matrix-backed (kernel) vs oracle (loop) paths: 1e-9 parity."""
        pool = [3, 11, 2, 9, 14, 0, 5, 12]
        kernel = solve(
            instance.quality,
            instance.metric,
            tradeoff=instance.tradeoff,
            p=3,
            algorithm=algorithm,
            candidates=pool,
        )
        oracle = solve(
            instance.quality,
            OracleMetric(instance.metric.to_matrix()),
            tradeoff=instance.tradeoff,
            p=3,
            algorithm=algorithm,
            candidates=pool,
        )
        assert kernel.selected == oracle.selected
        assert kernel.objective_value == pytest.approx(
            oracle.objective_value, abs=1e-9
        )

    def test_local_search_regression_pool_0_to_4(self, instance):
        """Regression for the silently-ignored pool: local_search used to
        return elements outside [0..4] (e.g. {2, 4, 7}-style escapes)."""
        result = solve(
            instance.quality,
            instance.metric,
            tradeoff=instance.tradeoff,
            p=3,
            algorithm="local_search",
            candidates=[0, 1, 2, 3, 4],
        )
        assert result.selected <= {0, 1, 2, 3, 4}
        assert result.size == 3

    def test_matroid_constraint_with_candidates(self, instance):
        matroid = PartitionMatroid([i % 3 for i in range(15)], {0: 2, 1: 2, 2: 2})
        pool = [0, 1, 2, 3, 4, 5, 6, 7]
        result = solve(
            instance.quality,
            instance.metric,
            tradeoff=instance.tradeoff,
            matroid=matroid,
            candidates=pool,
        )
        assert result.selected <= set(pool)
        assert matroid.is_independent(result.selected)

    def test_streaming_honors_candidates(self, instance):
        pool = [3, 11, 2, 9, 14, 0]
        restriction = instance.objective.restrict(pool)
        result = restriction.lift(streaming_diversify(restriction.objective, 3))
        assert result.selected <= set(pool)
        with pytest.raises(InvalidParameterError):
            restriction.to_local([1, 3])  # arrival 1 outside the pool

    def test_submodular_quality_with_candidates(self, instance):
        coverage = CoverageFunction.random(15, 8, seed=2)
        pool = [1, 4, 6, 10, 13]
        result = solve(
            coverage,
            instance.metric,
            tradeoff=0.3,
            p=3,
            candidates=pool,
        )
        assert result.selected <= set(pool)
        assert result.size == 3


# ----------------------------------------------------------------------
# The algorithms take no pool: a pool enters through a front door or
# through Objective.restrict + Restriction.lift.
# ----------------------------------------------------------------------
POOL_FREE = [
    greedy_diversify,
    local_search_diversify,
    streaming_diversify,
    mmr_select,
    gollapudi_sharma_greedy,
    matching_diversify,
    greedy_dispersion,
    exact_diversify,
    exact_dispersion,
    best_swap,
    oblivious_update,
    update_until_stable,
]


def _called_attributes(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    return {
        node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }


@pytest.mark.parametrize("function", POOL_FREE, ids=lambda f: f.__name__)
def test_algorithms_take_no_pool(function):
    assert "candidates" not in inspect.signature(function).parameters
    assert not {"restrict", "lift"} & _called_attributes(function)
