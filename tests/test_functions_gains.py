"""Property tests for the stateful batched marginal-gain protocol.

For every built-in family (and the generic fallback), batched
``gains(candidates, gain_state(S))`` must equal the looped ``marginal(u, S)``
to 1e-9 on random subsets — including candidates already inside ``S`` (whose
gain is 0 by definition) — and ``push`` must keep a state equivalent to a
freshly built one.  The scan scores ``swap_gains`` and ``pair_gains`` must
equal ``f(S − v + u) − f(S)`` and ``f({x, y})`` from ``value``, also after a
``push`` has changed the set behind a cached swap query.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError
from repro.functions import (
    CoverageFunction,
    FacilityLocationFunction,
    GainState,
    LogDeterminantFunction,
    MixtureFunction,
    ModularFunction,
    SaturatedCoverageFunction,
    ScaledFunction,
    SetFunction,
    ZeroFunction,
)
from repro.functions.restricted import RestrictedSetFunction
from repro.functions.weakly_submodular import DispersionFunction
from repro.metrics.matrix import DistanceMatrix

N = 36
TOLERANCE = 1e-9


class _OracleQuality(SetFunction):
    """Value-only oracle: exercises the generic protocol fallback."""

    def __init__(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=float)

    @property
    def n(self) -> int:
        return self._weights.size

    def value(self, subset: Iterable[int]) -> float:
        members = self._as_set(subset)
        if not members:
            return 0.0
        idx = np.fromiter(members, dtype=int)
        return float(np.sqrt(self._weights[idx].sum()))


def _similarity(rng: np.random.Generator, n: int = N) -> np.ndarray:
    matrix = rng.uniform(0.0, 1.0, size=(n, n))
    return (matrix + matrix.T) / 2.0


def _distance_matrix(rng: np.random.Generator, n: int = N) -> DistanceMatrix:
    matrix = 0.5 + rng.uniform(0.0, 0.5, size=(n, n))
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    return DistanceMatrix(matrix)


def _functions():
    rng = np.random.default_rng(17)
    similarity = _similarity(rng)
    features = rng.normal(size=(N, 4))
    facility = FacilityLocationFunction(similarity)
    coverage = CoverageFunction.random(N, 24, topics_per_element=3, seed=5)
    log_det = LogDeterminantFunction.from_features(features, bandwidth=1.5)
    cases = [
        ("modular", ModularFunction(rng.uniform(0.0, 5.0, size=N))),
        ("zero", ZeroFunction(N)),
        ("facility", facility),
        ("coverage", coverage),
        ("log_det", log_det),
        ("saturated", SaturatedCoverageFunction(similarity, saturation=0.3)),
        ("mixture", MixtureFunction([facility, coverage], [0.7, 1.3])),
        ("scaled", ScaledFunction(log_det, 2.5)),
        ("restricted", RestrictedSetFunction(facility, list(range(4, 32)))),
        ("dispersion", DispersionFunction(_distance_matrix(rng))),
        ("oracle", _OracleQuality(rng.uniform(0.5, 2.0, size=N))),
    ]
    return cases


FUNCTION_CASES = _functions()


@pytest.fixture(params=[case[0] for case in FUNCTION_CASES])
def function(request):
    return dict(FUNCTION_CASES)[request.param]


def _random_subset(rng: np.random.Generator, n: int, size: int) -> frozenset:
    return frozenset(map(int, rng.choice(n, size=size, replace=False)))


class TestBatchedGainsEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    def test_gains_match_looped_marginal(self, function, seed):
        rng = np.random.default_rng(100 + seed)
        n = function.n
        for size in (0, 1, min(6, n - 1)):
            subset = _random_subset(rng, n, size)
            state = function.gain_state(subset)
            # Mix outside candidates with members (whose gain must be 0).
            candidates = np.unique(
                np.concatenate(
                    [
                        rng.choice(n, size=min(12, n), replace=False),
                        np.fromiter(subset, dtype=int, count=len(subset)),
                    ]
                ).astype(int)
            )
            batched = function.gains(candidates, state)
            looped = np.array(
                [function.marginal(int(u), subset) for u in candidates]
            )
            np.testing.assert_allclose(batched, looped, atol=TOLERANCE, rtol=0)

    def test_full_universe_state(self, function):
        n = function.n
        state = function.gain_state(range(n))
        gains = function.gains(np.arange(n), state)
        np.testing.assert_allclose(gains, np.zeros(n), atol=TOLERANCE, rtol=0)

    def test_empty_candidate_batch(self, function):
        state = function.gain_state({0, 1})
        assert function.gains(np.zeros(0, dtype=int), state).shape == (0,)

    @pytest.mark.parametrize("seed", range(3))
    def test_push_matches_fresh_state(self, function, seed):
        rng = np.random.default_rng(200 + seed)
        n = function.n
        subset = set(_random_subset(rng, n, min(4, n - 3)))
        state = function.gain_state(subset)
        outside = [u for u in range(n) if u not in subset]
        for element in outside[:3]:
            function.push(state, int(element))
            subset.add(int(element))
        candidates = np.arange(n)
        incremental = function.gains(candidates, state)
        rebuilt = function.gains(candidates, function.gain_state(subset))
        np.testing.assert_allclose(incremental, rebuilt, atol=TOLERANCE, rtol=0)
        looped = np.array(
            [function.marginal(int(u), frozenset(subset)) for u in candidates]
        )
        np.testing.assert_allclose(incremental, looped, atol=TOLERANCE, rtol=0)

    def test_push_duplicate_raises(self, function):
        state = function.gain_state({1, 2})
        with pytest.raises(InvalidParameterError):
            function.push(state, 1)
        # The failed push must not have corrupted the state.
        gains = function.gains(np.array([1, 2]), state)
        np.testing.assert_allclose(gains, np.zeros(2), atol=TOLERANCE, rtol=0)


def _swap_reference(function: SetFunction, subset, incoming, outgoing) -> np.ndarray:
    members = frozenset(subset)
    base = function.value(members)
    return np.array(
        [
            [function.value((members - {v}) | {u}) - base for v in outgoing]
            for u in incoming
        ]
    )


class TestSwapAndPairGains:
    @pytest.mark.parametrize("seed", range(3))
    def test_swap_gains_match_value(self, function, seed):
        rng = np.random.default_rng(300 + seed)
        n = function.n
        for size in (1, 2, 6):
            subset = _random_subset(rng, n, size)
            # Incoming mixes outside elements with members; outgoing is every
            # member, in a random order.
            incoming = rng.choice(n, size=10, replace=False)
            outgoing = rng.permutation(sorted(subset))
            state = function.gain_state(subset)
            got = function.swap_gains(state, incoming, outgoing)
            np.testing.assert_allclose(
                got,
                _swap_reference(function, subset, incoming, outgoing),
                atol=TOLERANCE,
                rtol=0,
            )

    @pytest.mark.parametrize("seed", range(2))
    def test_pair_gains_match_value(self, function, seed):
        rng = np.random.default_rng(400 + seed)
        n = function.n
        incoming = rng.choice(n, size=12, replace=False)
        anchors = np.concatenate([incoming[:2], rng.choice(n, size=4, replace=False)])
        got = function.pair_gains(incoming, anchors)
        expected = np.array(
            [[function.value({int(u), int(x)}) for x in anchors] for u in incoming]
        )
        np.testing.assert_allclose(got, expected, atol=TOLERANCE, rtol=0)

    def test_push_drops_swap_cache(self, function):
        rng = np.random.default_rng(500)
        n = function.n
        subset = set(_random_subset(rng, n, 4))
        state = function.gain_state(subset)
        incoming = np.array([u for u in range(n) if u not in subset])
        function.swap_gains(state, incoming, sorted(subset))
        added = int(incoming[0])
        function.push(state, added)
        subset.add(added)
        got = function.swap_gains(state, incoming[1:], sorted(subset))
        np.testing.assert_allclose(
            got,
            _swap_reference(function, subset, incoming[1:], sorted(subset)),
            atol=TOLERANCE,
            rtol=0,
        )

    def test_empty_batches(self, function):
        state = function.gain_state({0, 1})
        none = np.zeros(0, dtype=int)
        assert function.swap_gains(state, none, [0, 1]).shape == (0, 2)
        assert function.swap_gains(state, [2, 3], none).shape == (2, 0)
        assert function.pair_gains(none, [0]).shape == (0, 1)


class TestFacilitySwapEdgeCases:
    """The owner / runner-up bookkeeping against ``value`` on corner sets."""

    @staticmethod
    def _check(function, subset, outgoing) -> None:
        n = function.n
        incoming = np.arange(n)
        state = function.gain_state(subset)
        got = function.swap_gains(state, incoming, outgoing)
        expected = _swap_reference(function, subset, incoming, outgoing)
        np.testing.assert_allclose(got, expected, atol=TOLERANCE, rtol=0)

    def test_single_member(self):
        function = FacilityLocationFunction(_similarity(np.random.default_rng(1)))
        self._check(function, {7}, [7])

    def test_tied_members(self):
        similarity = _similarity(np.random.default_rng(2))
        # Elements 3 and 9 serve every client equally well.
        similarity[:, 9] = similarity[:, 3]
        function = FacilityLocationFunction(similarity)
        self._check(function, {3, 9, 20}, [3, 9, 20])
        self._check(function, {3, 9}, [9, 3])

    def test_zero_similarity_column(self):
        similarity = _similarity(np.random.default_rng(3))
        similarity[:, 5] = 0.0
        function = FacilityLocationFunction(similarity)
        self._check(function, {5, 11, 30}, [5, 11, 30])
        self._check(function, {5}, [5])

    def test_outgoing_strict_subset(self):
        function = FacilityLocationFunction(_similarity(np.random.default_rng(4)))
        self._check(function, {2, 8, 15, 27, 33}, [27, 2])


class TestGainStateBasics:
    def test_generic_state_tracks_members(self):
        state = GainState({3, 5})
        assert state.members == {3, 5}
        assert sorted(state.member_indices().tolist()) == [3, 5]

    def test_mask_members_small_and_large_batches(self):
        state = GainState(range(10))
        small = np.arange(4)
        out = state.mask_members(small, np.ones(4))
        np.testing.assert_array_equal(out, np.zeros(4))
        large = np.arange(30)
        out = state.mask_members(large, np.ones(30))
        np.testing.assert_array_equal(out[:10], np.zeros(10))
        np.testing.assert_array_equal(out[10:], np.ones(20))

    def test_coverage_accepts_unorderable_topic_ids(self):
        # Topic ids are arbitrary hashables; mixed types must not break the
        # dense re-indexing behind the batched-gains path.
        function = CoverageFunction([{"sports", 3}, {3}], {"sports": 2.0})
        assert function.value({0}) == 3.0
        assert function.marginal(0, frozenset({1})) == 2.0
        state = function.gain_state({1})
        np.testing.assert_allclose(
            function.gains(np.array([0, 1]), state), [2.0, 0.0]
        )

    def test_coverage_gains_csr_edge_cases(self):
        # The per-candidate segments of the CSR gather: topic-less elements
        # (empty segments), repeated and unordered candidates, a member, and a
        # batch of topic-less elements only (still a float vector).
        coverage = CoverageFunction([{1, 2}, set(), {2, 3}, {4}, set()], {3: 0.5})
        members = frozenset({2})
        state = coverage.gain_state(members)
        candidates = np.array([4, 0, 1, 3, 2, 0])
        np.testing.assert_allclose(
            coverage.gains(candidates, state),
            [coverage.marginal(int(u), members) for u in candidates],
            atol=TOLERANCE,
            rtol=0,
        )
        empty = coverage.gains(np.array([1, 4]), state)
        assert empty.dtype == float
        assert empty.tolist() == [0.0, 0.0]


class TestLogDetValidation:
    def test_indefinite_kernel_rejected(self):
        kernel = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(InvalidParameterError):
            LogDeterminantFunction(kernel)

    def test_validate_false_skips_psd_check(self):
        kernel = np.array([[1.0, 2.0], [2.0, 1.0]])
        function = LogDeterminantFunction(kernel, validate=False)
        assert function.n == 2

    def test_near_psd_tolerated(self):
        # Slightly negative eigenvalue within the -1e-6 tolerance.
        kernel = np.diag([1.0, 1.0, -5e-7])
        function = LogDeterminantFunction(kernel)
        assert function.n == 3

    def test_empty_kernel(self):
        function = LogDeterminantFunction(np.zeros((0, 0)))
        assert function.n == 0


class TestVerificationUsesBatchedGains:
    def test_checker_routes_through_gains(self):
        """The submodularity checker calls gains batches, not marginal loops."""
        from repro.functions.verification import is_monotone, is_submodular

        calls = {"gains": 0, "marginal": 0}

        class _Instrumented(ModularFunction):
            def gains(self, candidates, state):
                calls["gains"] += 1
                return super().gains(candidates, state)

            def marginal(self, element, subset):
                calls["marginal"] += 1
                return super().marginal(element, subset)

        function = _Instrumented(np.linspace(0.1, 1.0, 6))
        assert is_monotone(function)
        assert is_submodular(function)
        assert calls["gains"] > 0
        assert calls["marginal"] == 0
