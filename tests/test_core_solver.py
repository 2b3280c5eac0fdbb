"""Tests for the solve() facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.baselines import gollapudi_sharma_greedy, matching_diversify
from repro.core.batch import solve_many
from repro.core.dispersion import greedy_dispersion
from repro.core.exact import exact_dispersion, exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.mmr import mmr_select
from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.sharding import solve_sharded
from repro.core.solver import ALGORITHMS, solve
from repro.core.streaming import streaming_diversify
from repro.data.synthetic import make_synthetic_instance
from repro.dynamic.engine import DynamicDiversifier
from repro.dynamic.session import DynamicSession, ShardedDynamicEngine
from repro.exceptions import InvalidParameterError, SolverError
from repro.functions.coverage import CoverageFunction
from repro.matroids.partition import PartitionMatroid
from repro.metrics.discrete import UniformRandomMetric
from repro.serve import PreparedCorpus


@pytest.fixture
def instance():
    return make_synthetic_instance(15, seed=21)


class TestDispatch:
    def test_auto_cardinality_uses_greedy(self, instance):
        result = solve(instance.quality, instance.metric, tradeoff=0.2, p=4)
        assert result.algorithm.startswith("greedy_b")
        assert result.size == 4

    def test_auto_matroid_uses_local_search(self, instance):
        matroid = PartitionMatroid([i % 3 for i in range(15)], {0: 1, 1: 1, 2: 1})
        result = solve(
            instance.quality, instance.metric, tradeoff=0.2, matroid=matroid
        )
        assert result.algorithm == "local_search"
        assert matroid.is_independent(result.selected)

    @pytest.mark.parametrize(
        "algorithm",
        [
            "greedy",
            "greedy_best_pair",
            "greedy_a",
            "greedy_a_improved",
            "matching",
            "mmr",
            "exact",
            "local_search",
        ],
    )
    def test_all_cardinality_algorithms_run(self, instance, algorithm):
        result = solve(
            instance.quality, instance.metric, tradeoff=0.2, p=3, algorithm=algorithm
        )
        assert result.size == 3

    def test_exact_under_matroid(self, instance):
        matroid = PartitionMatroid(
            [i % 5 for i in range(15)], {j: 1 for j in range(5)}
        )
        result = solve(
            instance.quality,
            instance.metric,
            tradeoff=0.2,
            matroid=matroid,
            algorithm="exact",
        )
        assert result.algorithm == "exact"

    def test_every_listed_algorithm_is_dispatchable(self, instance):
        for algorithm in ALGORITHMS:
            if algorithm == "auto":
                continue
            # greedy_a variants require modular quality, which this instance has.
            result = solve(
                instance.quality,
                instance.metric,
                tradeoff=0.2,
                p=3,
                algorithm=algorithm,
            )
            assert result.size == 3


class TestValidation:
    def test_unknown_algorithm(self, instance):
        with pytest.raises(InvalidParameterError):
            solve(
                instance.quality, instance.metric, tradeoff=0.2, p=3, algorithm="magic"
            )

    def test_exactly_one_constraint(self, instance):
        with pytest.raises(InvalidParameterError):
            solve(instance.quality, instance.metric, tradeoff=0.2)
        matroid = PartitionMatroid([0] * 15, {0: 3})
        with pytest.raises(InvalidParameterError):
            solve(instance.quality, instance.metric, tradeoff=0.2, p=3, matroid=matroid)

    def test_matroid_with_candidates_restricts_both(self, instance):
        matroid = PartitionMatroid([i % 3 for i in range(15)], {0: 1, 1: 1, 2: 1})
        candidates = [0, 1, 2, 3, 4, 5]
        result = solve(
            instance.quality,
            instance.metric,
            tradeoff=0.2,
            matroid=matroid,
            candidates=candidates,
        )
        assert result.selected <= set(candidates)
        assert matroid.is_independent(result.selected)
        assert result.metadata["candidates"] == tuple(candidates)

    def test_local_search_honors_candidates(self, instance):
        # Regression: this used to silently ignore the pool (the solver built
        # a full-universe UniformMatroid and dropped `candidates`), returning
        # elements outside [0..4].
        candidates = [0, 1, 2, 3, 4]
        result = solve(
            instance.quality,
            instance.metric,
            tradeoff=0.2,
            p=3,
            algorithm="local_search",
            candidates=candidates,
        )
        assert result.selected <= set(candidates)
        assert result.size == 3

    def test_matroid_universe_mismatch_rejected(self, instance):
        # A pool that is valid for both universes must not mask the mismatch.
        matroid = PartitionMatroid([0] * 20, {0: 3})
        with pytest.raises(InvalidParameterError):
            solve(instance.quality, instance.metric, tradeoff=0.2, matroid=matroid)
        with pytest.raises(InvalidParameterError):
            solve(
                instance.quality,
                instance.metric,
                tradeoff=0.2,
                matroid=matroid,
                candidates=[0, 1, 2],
            )

    def test_cardinality_only_algorithm_with_matroid_rejected(self, instance):
        matroid = PartitionMatroid([0] * 15, {0: 3})
        with pytest.raises(SolverError):
            solve(
                instance.quality,
                instance.metric,
                tradeoff=0.2,
                matroid=matroid,
                algorithm="greedy_a",
            )

    def test_greedy_a_requires_modular_quality(self):
        metric = UniformRandomMetric(8, seed=0)
        coverage = CoverageFunction.random(8, 5, seed=0)
        with pytest.raises(SolverError):
            solve(coverage, metric, tradeoff=0.2, p=3, algorithm="greedy_a")

    def test_submodular_quality_with_default_greedy_works(self):
        metric = UniformRandomMetric(8, seed=0)
        coverage = CoverageFunction.random(8, 5, seed=0)
        result = solve(coverage, metric, tradeoff=0.2, p=3)
        assert result.size == 3


POOL = [0, 2, 3, 5, 7, 8, 11, 13]

#: Every front door that takes a cardinality ``p``, as ``door(instance, p,
#: algorithm) -> SolverResult``.
DOORS = {
    "solve": lambda i, p, a: solve(
        i.quality, i.metric, tradeoff=0.2, p=p, algorithm=a
    ),
    "solve_candidates": lambda i, p, a: solve(
        i.quality, i.metric, tradeoff=0.2, p=p, algorithm=a, candidates=POOL
    ),
    "solve_many": lambda i, p, a: solve_many(
        i.quality, i.metric, [POOL], tradeoff=0.2, p=p, algorithm=a
    )[0],
    "corpus": lambda i, p, a: PreparedCorpus(
        i.quality, i.metric, tradeoff=0.2
    ).solve(POOL, p=p, algorithm=a),
    "solve_sharded": lambda i, p, a: solve_sharded(
        i.quality, i.metric, tradeoff=0.2, p=p, algorithm=a, shards=2
    ),
}


@pytest.mark.parametrize("door", sorted(DOORS))
@pytest.mark.parametrize("p", [40.5, 2.5, True, -1, "3", np.int64(3)], ids=repr)
def test_p_rule_holds_on_every_door(instance, door, p):
    """A malformed p raises InvalidParameterError; a NumPy integer is an int."""
    run = DOORS[door]
    for algorithm in ("greedy", "greedy_a", "matching", "mmr", "local_search", "exact"):
        if isinstance(p, np.integer):
            got, want = run(instance, p, algorithm), run(instance, int(p), algorithm)
            assert got.order == want.order
            assert got.objective_value == want.objective_value
        else:
            with pytest.raises(InvalidParameterError):
                run(instance, p, algorithm)


_POINTS = np.random.default_rng(4).normal(size=(15, 2))
_DISTANCES = np.linalg.norm(_POINTS[:, None] - _POINTS[None, :], axis=-1)


def _sharded(i, value, knob):
    """``solve_sharded`` (two shards unless sized) with ``knob=value``."""
    options = {knob: value} if knob == "shard_size" else {"shards": 2, knob: value}
    return solve_sharded(i.quality, i.metric, tradeoff=0.2, p=3, **options).order


def _engine(i, value, knob):
    """A sharded engine (p 3, shards of 4) with ``knob=value``; its solution."""
    options = {"p": 3, "shard_size": 4, knob: value}
    weights = i.quality.weights_view()
    return sorted(ShardedDynamicEngine(_POINTS, weights, **options).solution)


#: Every count knob beside the solve ``p``, as ``door(instance, value)``.
COUNT_KNOBS = {
    **{
        f"solve_sharded.{knob}": lambda i, v, knob=knob: _sharded(i, v, knob)
        for knob in (
            "shards",
            "shard_size",
            "per_shard_p",
            "max_workers",
            "shard_retries",
        )
    },
    **{
        f"sharded_engine.{knob}": lambda i, v, knob=knob: _engine(i, v, knob)
        for knob in ("p", "shard_size", "per_shard_p")
    },
    "dense_engine.p": lambda i, v: sorted(
        DynamicDiversifier(i.quality.weights_view(), _DISTANCES, v).solution
    ),
    "session.p": lambda i, v: sorted(
        DynamicSession(i.quality.weights_view(), v, distances=_DISTANCES).solution
    ),
}


@pytest.mark.parametrize("door", sorted(COUNT_KNOBS))
@pytest.mark.parametrize("value", [2.5, True, "4", np.int64(4)], ids=repr)
def test_count_knobs_hold_the_integer_rule(instance, door, value):
    """A non-integer count raises InvalidParameterError; a NumPy one is an int."""
    run = COUNT_KNOBS[door]
    if isinstance(value, np.integer):
        assert run(instance, value) == run(instance, int(value))
    else:
        with pytest.raises(InvalidParameterError):
            run(instance, value)


def _objective(instance):
    return Objective(instance.quality, instance.metric, 0.2)


def _corpus(instance):
    return PreparedCorpus(instance.quality, instance.metric, tradeoff=0.2)


#: Every door a candidate pool enters through, as ``door(instance, pool)``.
POOL_DOORS = {
    "solve_candidates": lambda i, pool: solve(
        i.quality, i.metric, tradeoff=0.2, p=3, candidates=pool
    ),
    "solve_sharded": lambda i, pool: solve_sharded(
        i.quality, i.metric, tradeoff=0.2, p=3, shards=2, candidates=pool
    ),
    "solve_many": lambda i, pool: solve_many(
        i.quality, i.metric, [pool], tradeoff=0.2, p=3
    ),
    "corpus": lambda i, pool: _corpus(i).solve(pool, p=3),
    "restriction_for": lambda i, pool: _corpus(i).restriction_for(pool),
    "objective_restrict": lambda i, pool: _objective(i).restrict(pool),
    "restriction": lambda i, pool: Restriction(_objective(i), pool),
}


@pytest.mark.parametrize("door", sorted(POOL_DOORS))
@pytest.mark.parametrize(
    "entry", [15, -1, 2.5, 3.0, True, "4", None, [1, 2], np.float64(1.0)], ids=repr
)
def test_pool_rule_holds_on_every_door(instance, door, entry):
    """An out-of-range, negative or non-integer entry raises at every door."""
    with pytest.raises(InvalidParameterError):
        POOL_DOORS[door](instance, [0, 2, 5, 7, entry])


@pytest.mark.parametrize("door", sorted(POOL_DOORS))
def test_pool_doors_accept_numpy_integers(instance, door):
    pool = [0, 2, 5, 7, 11]
    got = POOL_DOORS[door](instance, [np.int64(e) for e in pool])
    want = POOL_DOORS[door](instance, pool)
    if isinstance(want, list):
        got, want = got[0], want[0]
    if isinstance(want, Restriction):
        assert got.candidates == want.candidates == tuple(pool)
    else:
        assert got.order == want.order


#: Every algorithm function that takes ``p``, as ``run(objective, p)``.
P_FUNCTIONS = {
    "greedy_diversify": greedy_diversify,
    "mmr_select": mmr_select,
    "gollapudi_sharma_greedy": gollapudi_sharma_greedy,
    "matching_diversify": matching_diversify,
    "exact_diversify": exact_diversify,
    "greedy_dispersion": lambda objective, p: greedy_dispersion(objective.metric, p),
    "exact_dispersion": lambda objective, p: exact_dispersion(objective.metric, p),
    "streaming_diversify": streaming_diversify,
}


@pytest.mark.parametrize("function", sorted(P_FUNCTIONS))
@pytest.mark.parametrize("p", [40.5, 2.5, True, -1, "3"], ids=repr)
def test_p_rule_holds_on_every_function(function, p):
    """Called directly, every algorithm function rejects a malformed p."""
    objective = make_synthetic_instance(8, seed=3).objective
    with pytest.raises(InvalidParameterError):
        P_FUNCTIONS[function](objective, p)


@pytest.mark.parametrize("function", sorted(P_FUNCTIONS))
def test_p_is_clamped_to_the_universe(function):
    objective = make_synthetic_instance(8, seed=3).objective
    run = P_FUNCTIONS[function]
    assert run(objective, 40).size == 8
    assert run(objective, np.int64(3)).order == run(objective, 3).order
