"""Tests for the concrete matroid families and the generic Matroid machinery."""

from __future__ import annotations

import pytest

from repro.exceptions import (
    InfeasibleError,
    InvalidParameterError,
    MatroidError,
    NotIndependentError,
)
from repro.matroids.graphic import GraphicMatroid
from repro.matroids.partition import PartitionMatroid
from repro.matroids.transversal import TransversalMatroid
from repro.matroids.truncation import TruncatedMatroid
from repro.matroids.uniform import UniformMatroid
from repro.testing.reference import restriction_feasible_pairs


class TestUniformMatroid:
    def test_independence(self):
        matroid = UniformMatroid(5, 2)
        assert matroid.is_independent(set())
        assert matroid.is_independent({0, 4})
        assert not matroid.is_independent({0, 1, 2})

    def test_rank(self):
        matroid = UniformMatroid(5, 2)
        assert matroid.rank() == 2
        assert matroid.rank({0}) == 1
        assert matroid.rank({0, 1, 2, 3}) == 2

    def test_out_of_range_elements_dependent(self):
        assert not UniformMatroid(3, 2).is_independent({0, 5})

    def test_p_clamped_to_n(self):
        assert UniformMatroid(3, 10).p == 3

    def test_swap_candidates_all_members(self):
        matroid = UniformMatroid(5, 3)
        assert set(matroid.swap_candidates({0, 1, 2}, 4)) == {0, 1, 2}
        assert list(matroid.swap_candidates({0, 1, 2}, 1)) == []

    def test_axioms(self):
        UniformMatroid(6, 3).check_axioms()

    def test_basis_and_extension(self):
        matroid = UniformMatroid(5, 3)
        basis = matroid.extend_to_basis({1}, preference=[4, 3, 2, 1, 0])
        assert basis == frozenset({1, 4, 3})
        assert matroid.is_basis(basis)
        assert not matroid.is_basis({0})

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            UniformMatroid(-1, 2)
        with pytest.raises(InvalidParameterError):
            UniformMatroid(3, -1)


class TestPartitionMatroid:
    def _matroid(self) -> PartitionMatroid:
        return PartitionMatroid(["a", "a", "b", "b", "b"], {"a": 1, "b": 2})

    def test_independence(self):
        matroid = self._matroid()
        assert matroid.is_independent({0, 2, 3})
        assert not matroid.is_independent({0, 1})
        assert not matroid.is_independent({2, 3, 4})

    def test_rank(self):
        assert self._matroid().rank() == 3
        assert self._matroid().rank({0, 1}) == 1

    def test_default_capacity_is_one(self):
        matroid = PartitionMatroid(["x", "x", "y"])
        assert not matroid.is_independent({0, 1})
        assert matroid.is_independent({0, 2})

    def test_swap_candidates_respect_blocks(self):
        matroid = self._matroid()
        basis = {0, 2, 3}
        # incoming 1 is in block "a" which is full: only 0 can leave.
        assert set(matroid.swap_candidates(basis, 1)) == {0}
        # incoming 4 is in block "b" which is full: only 2 or 3 can leave.
        assert set(matroid.swap_candidates(basis, 4)) == {2, 3}

    def test_axioms(self):
        self._matroid().check_axioms()

    def test_uniform_blocks_constructor(self):
        matroid = PartitionMatroid.uniform_blocks([2, 3], [1, 2])
        assert matroid.n == 5
        assert matroid.rank() == 3
        assert matroid.capacity(0) == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(InvalidParameterError):
            PartitionMatroid(["a"], {"a": -1})
        with pytest.raises(InvalidParameterError):
            PartitionMatroid.uniform_blocks([2], [1, 2])


class TestTransversalMatroid:
    def _matroid(self) -> TransversalMatroid:
        # Collections: C1 = {0, 1}, C2 = {1, 2}, C3 = {3}
        return TransversalMatroid(5, [[0, 1], [1, 2], [3]])

    def test_independence_via_matching(self):
        matroid = self._matroid()
        assert matroid.is_independent({0, 1, 3})
        assert matroid.is_independent({1, 2})
        assert not matroid.is_independent({0, 1, 2})  # only two sets cover {0,1,2}
        assert not matroid.is_independent({4})  # element in no collection

    def test_representatives_certificate(self):
        matroid = self._matroid()
        assignment = matroid.representatives({0, 1, 3})
        assert assignment is not None
        assert set(assignment.keys()) == {0, 1, 3}
        assert len(set(assignment.values())) == 3
        for element, collection in assignment.items():
            assert element in matroid.collections[collection]

    def test_representatives_none_when_dependent(self):
        assert self._matroid().representatives({0, 1, 2}) is None

    def test_rank(self):
        assert self._matroid().rank() == 3

    def test_axioms(self):
        self._matroid().check_axioms()

    def test_out_of_range_collection_rejected(self):
        with pytest.raises(InvalidParameterError):
            TransversalMatroid(2, [[0, 5]])


class TestGraphicMatroid:
    def _matroid(self) -> GraphicMatroid:
        # Triangle 0-1-2 plus a pendant edge 2-3.
        return GraphicMatroid(4, [(0, 1), (1, 2), (0, 2), (2, 3)])

    def test_forest_independent_cycle_dependent(self):
        matroid = self._matroid()
        assert matroid.is_independent({0, 1, 3})
        assert not matroid.is_independent({0, 1, 2})

    def test_self_loop_dependent(self):
        matroid = GraphicMatroid(2, [(0, 0), (0, 1)])
        assert not matroid.is_independent({0})
        assert matroid.is_independent({1})

    def test_rank_is_spanning_forest_size(self):
        assert self._matroid().rank() == 3

    def test_axioms(self):
        self._matroid().check_axioms()

    def test_edge_accessor(self):
        assert self._matroid().edge(3) == (2, 3)

    def test_invalid_edge_rejected(self):
        with pytest.raises(InvalidParameterError):
            GraphicMatroid(2, [(0, 5)])


class TestTruncatedMatroid:
    def test_cardinality_cap_applied(self):
        inner = PartitionMatroid(["a", "a", "b", "b"], {"a": 2, "b": 2})
        truncated = TruncatedMatroid(inner, 3)
        assert truncated.is_independent({0, 1, 2})
        assert not truncated.is_independent({0, 1, 2, 3})
        assert truncated.rank() == 3

    def test_inner_constraint_still_applies(self):
        inner = PartitionMatroid(["a", "a", "b"], {"a": 1, "b": 1})
        truncated = TruncatedMatroid(inner, 3)
        assert not truncated.is_independent({0, 1})

    def test_axioms(self):
        inner = PartitionMatroid(["a", "a", "b", "b"], {"a": 2, "b": 2})
        TruncatedMatroid(inner, 2).check_axioms()

    def test_swap_candidates_delegate(self):
        inner = UniformMatroid(4, 3)
        truncated = TruncatedMatroid(inner, 2)
        assert set(truncated.swap_candidates({0, 1}, 3)) == {0, 1}

    def test_negative_cap_rejected(self):
        with pytest.raises(InvalidParameterError):
            TruncatedMatroid(UniformMatroid(3, 2), -1)


class TestGenericMachinery:
    def test_extend_to_basis_rejects_dependent_input(self):
        with pytest.raises(NotIndependentError):
            UniformMatroid(4, 2).extend_to_basis({0, 1, 2})

    def test_bases_enumeration(self):
        matroid = UniformMatroid(4, 2)
        bases = list(matroid.bases())
        assert len(bases) == 6
        assert all(len(b) == 2 for b in bases)

    def test_independent_sets_enumeration(self):
        matroid = PartitionMatroid(["a", "a"], {"a": 1})
        independents = set(matroid.independent_sets())
        assert independents == {frozenset(), frozenset({0}), frozenset({1})}

    def test_feasible_pairs(self):
        matroid = PartitionMatroid(["a", "a", "b"], {"a": 1, "b": 1})
        pairs = set(restriction_feasible_pairs(matroid))
        assert pairs == {(0, 2), (1, 2)}

    def test_require_rank_at_least(self):
        with pytest.raises(InfeasibleError):
            UniformMatroid(3, 1).require_rank_at_least(2)
        UniformMatroid(3, 2).require_rank_at_least(2)

    def test_check_axioms_catches_non_matroid(self):
        class FakeMatroid(UniformMatroid):
            """Independence = sets of size != 1 up to 2 — violates hereditary."""

            def is_independent(self, subset):
                members = set(subset)
                return len(members) != 1 and len(members) <= 2

        with pytest.raises(MatroidError):
            FakeMatroid(4, 2).check_axioms()
