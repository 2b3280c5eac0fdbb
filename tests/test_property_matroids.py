"""Property-based tests (hypothesis) for the matroid substrate.

Random instances of every concrete matroid family are checked against the
matroid axioms (hereditary + augmentation), rank consistency, the exchange
bijection of Lemma 2, and the consistency of swap_candidates with the
independence oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NotIndependentError
from repro.matroids.base import Matroid
from repro.matroids.exchange import exchange_bijection
from repro.matroids.graphic import GraphicMatroid
from repro.matroids.partition import PartitionMatroid
from repro.matroids.transversal import TransversalMatroid
from repro.matroids.truncation import TruncatedMatroid
from repro.matroids.uniform import UniformMatroid

seeds = st.integers(min_value=0, max_value=10_000)


def _random_partition(seed: int) -> PartitionMatroid:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    num_blocks = int(rng.integers(1, 4))
    blocks = [int(rng.integers(0, num_blocks)) for _ in range(n)]
    capacities = {b: int(rng.integers(1, 3)) for b in range(num_blocks)}
    return PartitionMatroid(blocks, capacities)


def _random_transversal(seed: int) -> TransversalMatroid:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    num_collections = int(rng.integers(1, 4))
    collections = [
        list(map(int, rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)))
        for _ in range(num_collections)
    ]
    return TransversalMatroid(n, collections)


def _random_graphic(seed: int) -> GraphicMatroid:
    rng = np.random.default_rng(seed)
    vertices = int(rng.integers(2, 6))
    num_edges = int(rng.integers(1, 8))
    edges = [
        (int(rng.integers(0, vertices)), int(rng.integers(0, vertices)))
        for _ in range(num_edges)
    ]
    return GraphicMatroid(vertices, edges)


def _random_uniform(seed: int) -> UniformMatroid:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    return UniformMatroid(n, int(rng.integers(0, n + 1)))


def _random_truncated(seed: int) -> TruncatedMatroid:
    return TruncatedMatroid(
        _random_partition(seed), int(np.random.default_rng(seed).integers(1, 4))
    )


FAMILIES = {
    "uniform": _random_uniform,
    "partition": _random_partition,
    "transversal": _random_transversal,
    "graphic": _random_graphic,
    "truncated": _random_truncated,
}


def _check_swap_candidates(matroid: Matroid) -> None:
    basis = matroid.a_basis()
    for incoming in range(matroid.n):
        if incoming in basis:
            continue
        claimed = set(matroid.swap_candidates(basis, incoming))
        actual = {
            outgoing
            for outgoing in basis
            if matroid.is_independent((set(basis) - {outgoing}) | {incoming})
        }
        # swap_candidates may over-approximate only if every yielded swap is
        # actually feasible — require exact agreement.
        assert claimed == actual


class TestMatroidAxiomsProperty:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_axioms_hold(self, family, seed):
        FAMILIES[family](seed).check_axioms()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_rank_equals_basis_size(self, family, seed):
        matroid = FAMILIES[family](seed)
        basis = matroid.a_basis()
        assert len(basis) == matroid.rank()
        assert matroid.is_basis(basis)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_swap_candidates_match_oracle(self, family, seed):
        _check_swap_candidates(FAMILIES[family](seed))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_exchange_bijection_between_random_bases(self, family, seed):
        matroid = FAMILIES[family](seed)
        rng = np.random.default_rng(seed + 1)
        # Build two (possibly different) bases by extending from random orders.
        order_a = list(rng.permutation(matroid.n))
        order_b = list(rng.permutation(matroid.n))
        basis_a = matroid.extend_to_basis(
            frozenset(), preference=[int(x) for x in order_a]
        )
        basis_b = matroid.extend_to_basis(
            frozenset(), preference=[int(x) for x in order_b]
        )
        mapping = exchange_bijection(matroid, basis_a, basis_b)
        assert set(mapping.keys()) == set(basis_a) - set(basis_b)
        assert set(mapping.values()) == set(basis_b) - set(basis_a)
        for x, y in mapping.items():
            assert matroid.is_independent((set(basis_a) - {x}) | {y})


_labels = st.one_of(st.integers(0, 3), st.sampled_from(["a", "b", "c"]))


@st.composite
def _partition_extensions(draw):
    """A partition matroid, a start set and a preference for extend_to_basis.

    Labels mix ints and strings; capacities include 0 and leave some labels
    out (capacity 1).  Starts may be dependent or out of range, and
    preferences may be ``None``, a permutation, or a list with repeated and
    out-of-range entries.
    """
    n = draw(st.integers(0, 10))
    block_of = draw(st.lists(_labels, min_size=n, max_size=n))
    capacities = draw(st.dictionaries(_labels, st.integers(0, 3), max_size=5))
    start = draw(st.sets(st.integers(-1, n), max_size=4))
    preference = draw(
        st.one_of(
            st.none(),
            st.permutations(list(range(n))),
            st.lists(st.integers(-2, n + 2), max_size=2 * n + 4),
        )
    )
    return PartitionMatroid(block_of, capacities), start, preference


class TestPartitionExtendToBasis:
    @given(case=_partition_extensions())
    @settings(max_examples=200, deadline=None)
    def test_matches_base_loop(self, case):
        matroid, start, preference = case
        try:
            expected = Matroid.extend_to_basis(matroid, start, preference=preference)
        except NotIndependentError:
            with pytest.raises(NotIndependentError):
                matroid.extend_to_basis(start, preference=preference)
            return
        assert matroid.extend_to_basis(start, preference=preference) == expected
