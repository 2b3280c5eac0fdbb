"""Property tests: each scan's one array path agrees with its loop reference.

Small random instances on an oracle-only metric — only ``distance`` is
implemented, so distances reach the scans through the base
:meth:`~repro.metrics.base.Metric.block` default — under uniform, partition,
graphic, transversal, restricted and truncated matroids, each with modular
quality, facility-location quality, and a composed quality (a mixture holding
a scaled facility location on a restricted pool) whose swap and pair scores
reach facility location through every forwarding layer.  The local-search
swap scan and initial pair, Greedy B's pair seeding, the dynamic update rules
and the streaming arrival rule must pick the same move as the loops of
:mod:`repro.testing.reference`, with gains within 1e-9.  The base-class
feasibility masks must equal what ``swap_candidates`` / ``is_independent``
say, entry by entry.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.local_search import local_search_diversify
from repro.core.objective import Objective
from repro.core.streaming import StreamingDiversifier
from repro.dynamic.update_rules import best_swap, oblivious_update, update_until_stable
from repro.functions.facility_location import FacilityLocationFunction
from repro.functions.mixtures import MixtureFunction, ScaledFunction
from repro.functions.modular import ModularFunction
from repro.matroids.base import Matroid
from repro.matroids.graphic import GraphicMatroid
from repro.matroids.matching import hopcroft_karp
from repro.matroids.partition import PartitionMatroid
from repro.matroids.restriction import RestrictedMatroid
from repro.matroids.transversal import TransversalMatroid
from repro.matroids.truncation import TruncatedMatroid
from repro.matroids.uniform import UniformMatroid
from repro.metrics.matrix import DistanceMatrix
from repro.testing.reference import (
    OracleOnlyMetric,
    arrival_swap_reference,
    best_pair_reference,
    best_swap_reference,
    local_search_reference,
    scan_swaps_reference,
)

seeds = st.integers(min_value=0, max_value=100_000)
TOLERANCE = 1e-9
QUALITIES = ("modular", "facility", "composed")


class BipartiteMatchingMatroid(Matroid):
    """Matching matroid of a bipartite graph, through its oracle only.

    Ground set: left vertices ``0..left-1`` then right vertices.  A vertex
    set is independent when one matching covers all of it; by the
    Mendelsohn–Dulmage theorem that holds exactly when its left part and its
    right part can each be matched on their own.
    """

    def __init__(self, left: int, right: int, edges: Sequence[Tuple[int, int]]):
        self._left, self._right = left, right
        self._neighbours: List[List[int]] = [[] for _ in range(left + right)]
        for a, b in edges:
            self._neighbours[a].append(b)
            self._neighbours[left + b].append(a)

    @property
    def n(self) -> int:
        return self._left + self._right

    def _matchable(self, side: List[int], other: int) -> bool:
        adjacency = {i: self._neighbours[v] for i, v in enumerate(side)}
        return len(hopcroft_karp(adjacency, len(side), other)) == len(side)

    def is_independent(self, subset: Iterable[int]) -> bool:
        members = set(subset)
        if any(e < 0 or e >= self.n for e in members):
            return False
        left = [v for v in members if v < self._left]
        right = [v for v in members if v >= self._left]
        return self._matchable(left, self._right) and self._matchable(
            right, self._left
        )


def _uniform(rng, n):
    return UniformMatroid(n, int(rng.integers(2, n)))


def _partition(rng, n):
    blocks = rng.integers(0, 3, size=n).tolist()
    return PartitionMatroid(blocks, {b: int(rng.integers(1, 3)) for b in range(3)})


def _graphic(rng, n):
    vertices = int(rng.integers(3, 7))
    edges = [
        (int(rng.integers(0, vertices)), int(rng.integers(0, vertices)))
        for _ in range(n)
    ]
    return GraphicMatroid(vertices, edges)


def _transversal(rng, n):
    collections = [
        rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False).tolist()
        for _ in range(int(rng.integers(2, 5)))
    ]
    return TransversalMatroid(n, collections)


def _restricted(rng, n):
    return RestrictedMatroid(_partition(rng, n + 4), rng.permutation(n + 4)[:n])


def _truncated(rng, n):
    return TruncatedMatroid(_graphic(rng, n), int(rng.integers(2, 5)))


def _matching(rng, n):
    left = n // 2
    edges = [
        (int(rng.integers(0, left)), int(rng.integers(0, n - left)))
        for _ in range(int(rng.integers(n // 2, 2 * n)))
    ]
    return BipartiteMatchingMatroid(left, n - left, edges)


MATROIDS = {
    "uniform": _uniform,
    "partition": _partition,
    "graphic": _graphic,
    "transversal": _transversal,
    "restricted": _restricted,
    "truncated": _truncated,
}
ORACLE_MATROIDS = {
    "graphic": _graphic,
    "transversal": _transversal,
    "matching": _matching,
}


def _objective(rng, n: int, quality: str) -> Objective:
    metric = OracleOnlyMetric(DistanceMatrix.from_points(rng.normal(size=(n, 3))))
    if quality == "modular":
        function = ModularFunction(rng.uniform(0.0, 5.0, size=n))
    elif quality == "facility":
        function = FacilityLocationFunction(rng.uniform(0.0, 1.0, size=(n, n)))
    else:
        facility = FacilityLocationFunction(rng.uniform(0.0, 1.0, size=(n + 4, n + 4)))
        pool = rng.permutation(n + 4)[:n].tolist()
        function = MixtureFunction(
            [
                ScaledFunction(facility.restrict(pool), 1.5),
                ModularFunction(rng.uniform(0.0, 2.0, size=n)),
            ],
            [0.6, 0.8],
        )
    return Objective(function, metric, float(rng.uniform(0.2, 2.0)))


def _instance(seed: int, family: str, quality: str):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 13))
    matroid = MATROIDS[family](rng, n)
    return rng, _objective(rng, n, quality), matroid


def _assert_same_move(move, expected) -> None:
    assert (move is None) == (expected is None)
    if move is not None:
        assert tuple(move[:-1]) == tuple(expected[:-1])
        assert move[-1] == pytest.approx(expected[-1], abs=TOLERANCE)


@pytest.mark.parametrize("quality", QUALITIES)
@pytest.mark.parametrize("family", sorted(MATROIDS))
class TestLocalSearchPaths:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_swap_scan_matches_reference(self, family, quality, seed):
        rng, objective, matroid = _instance(seed, family, quality)
        assume(matroid.rank() >= 1)
        order = rng.permutation(objective.n)
        selected = set(matroid.extend_to_basis((), preference=order))
        tracker = objective.make_tracker(selected)
        weights = kernels.modular_weights(objective.quality)
        for first in (False, True):
            move, _ = kernels.best_swap_scan(
                objective,
                selected,
                tracker.marginals_view(),
                weights=weights,
                matroid=matroid,
                first_improvement=first,
            )
            expected = scan_swaps_reference(
                objective, matroid, selected, tracker, 0.0, first_improvement=first
            )
            _assert_same_move(move, expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_initial_pair_matches_reference(self, family, quality, seed):
        _, objective, matroid = _instance(seed, family, quality)
        move = kernels.pair_argmax(
            objective,
            kernels.modular_weights(objective.quality),
            range(objective.n),
            mask=matroid.pair_feasibility_mask(),
        )
        expected = best_pair_reference(objective, range(objective.n), matroid)
        _assert_same_move(move, expected)

    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_local_search_matches_reference(self, family, quality, seed):
        _, objective, matroid = _instance(seed, family, quality)
        assume(matroid.rank() >= 2)
        result = local_search_diversify(objective, matroid)
        selection, swaps, value = local_search_reference(objective, matroid)
        assert result.selected == selection
        assert result.iterations == swaps
        assert result.objective_value == pytest.approx(value, abs=TOLERANCE)


@pytest.mark.parametrize("quality", QUALITIES)
class TestCardinalityPaths:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_pair_seeding_matches_reference(self, quality, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        objective = _objective(rng, n, quality)
        pool = rng.permutation(n).tolist()
        move = kernels.pair_argmax(
            objective, kernels.modular_weights(objective.quality), pool
        )
        _assert_same_move(move, best_pair_reference(objective, pool))

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_best_swap_matches_reference(self, quality, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 14))
        objective = _objective(rng, n, quality)
        size = int(rng.integers(1, n))
        solution = set(rng.choice(n, size=size, replace=False).tolist())
        _assert_same_move(
            best_swap(objective, solution), best_swap_reference(objective, solution)
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_update_rules_match_local_search_reference(self, quality, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 14))
        objective = _objective(rng, n, quality)
        size = int(rng.integers(1, n))
        solution = set(rng.choice(n, size=size, replace=False).tolist())
        matroid = UniformMatroid(n, size)
        for outcome, max_swaps in (
            (update_until_stable(objective, solution), None),
            (oblivious_update(objective, solution), 1),
        ):
            selection, swaps, value = local_search_reference(
                objective, matroid, initial=solution, max_swaps=max_swaps
            )
            assert outcome.solution == selection
            assert outcome.num_swaps == swaps
            assert outcome.objective_value == pytest.approx(value, abs=TOLERANCE)

    @settings(max_examples=20, deadline=None)
    @given(seed=seeds)
    def test_streaming_arrival_matches_reference(self, quality, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 16))
        objective = _objective(rng, n, quality)
        stream = StreamingDiversifier(objective, int(rng.integers(2, n)))
        for element in rng.permutation(n).tolist():
            before = stream.solution
            full = len(before) == stream.p
            expected = arrival_swap_reference(objective, sorted(before), element, 0.0)
            changed = stream.process(element)
            if not full:
                assert changed and stream.solution == before | {element}
                continue
            assert changed == (expected is not None)
            if expected is not None:
                outgoing, gain = expected
                assert stream.solution == (before - {outgoing}) | {element}
                delta = objective.value(stream.solution) - objective.value(before)
                assert delta == pytest.approx(gain, abs=TOLERANCE)
        assert stream.solution_value == pytest.approx(
            objective.value(stream.solution), abs=TOLERANCE
        )


@pytest.mark.parametrize("family", sorted(ORACLE_MATROIDS))
class TestBaseFeasibilityMasks:
    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_swap_feasibility_matches_candidates(self, family, seed):
        rng = np.random.default_rng(seed)
        matroid = ORACLE_MATROIDS[family](rng, int(rng.integers(4, 11)))
        basis = matroid.extend_to_basis((), preference=rng.permutation(matroid.n))
        inside = np.array(sorted(basis), dtype=int)
        outside = np.array([u for u in range(matroid.n) if u not in basis], dtype=int)
        mask = matroid.swap_feasibility(basis, outside, inside)
        assert mask.shape == (outside.size, inside.size)
        for i, incoming in enumerate(outside.tolist()):
            allowed = set(matroid.swap_candidates(basis, incoming))
            for j, outgoing in enumerate(inside.tolist()):
                assert mask[i, j] == (outgoing in allowed)
                assert mask[i, j] == matroid.is_independent(
                    (set(basis) - {outgoing}) | {incoming}
                )

    @settings(max_examples=30, deadline=None)
    @given(seed=seeds)
    def test_pair_mask_matches_is_independent(self, family, seed):
        rng = np.random.default_rng(seed)
        matroid = ORACLE_MATROIDS[family](rng, int(rng.integers(4, 11)))
        mask = matroid.pair_feasibility_mask()
        assert mask.shape == (matroid.n, matroid.n)
        for x in range(matroid.n):
            for y in range(matroid.n):
                if x != y:
                    assert mask[x, y] == matroid.is_independent({x, y})


def test_bipartite_matching_matroid_satisfies_axioms():
    rng = np.random.default_rng(5)
    for _ in range(5):
        _matching(rng, int(rng.integers(4, 8))).check_axioms()
