"""Each candidate pool is checked once, at the door where it enters.

:func:`~repro.utils.validation.check_candidate_pool` runs at the doors its
docstring names — the pool front doors, ``Objective.restrict`` /
``Restriction`` and the public ``restrict`` / ``restrict_lazy`` of the
metric, quality and matroid protocols — and everything below a door takes
the canonical index array it returns.  These tests count the calls per
operation and check that every family door still rejects a malformed pool.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

import repro.utils.validation as validation
from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.sharding import solve_sharded
from repro.core.solver import solve
from repro.dynamic.events import EventBatchBuilder
from repro.dynamic.session import ShardedDynamicEngine
from repro.exceptions import InvalidParameterError
from repro.functions.coverage import CoverageFunction
from repro.functions.modular import ModularFunction, ZeroFunction
from repro.matroids.graphic import GraphicMatroid
from repro.matroids.partition import PartitionMatroid
from repro.matroids.truncation import TruncatedMatroid
from repro.matroids.uniform import UniformMatroid
from repro.metrics.cosine import CosineMetric
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.matrix import DistanceMatrix
from repro.metrics.overlay import PatchedMetric
from repro.serve import PreparedCorpus, ServeQuery
from repro.testing.faults import CrashingMetric
from repro.testing.reference import OracleOnlyMetric

N = 24
POOL = [3, 17, 5, 3, 11, 0, 22, 9, 14]


@pytest.fixture
def checks(monkeypatch):
    """The list of ``check_candidate_pool`` calls made while the test runs.

    The counter replaces the function in every loaded ``repro`` module that
    holds it, so a copy imported anywhere in the package is counted too.
    """
    original = validation.check_candidate_pool
    calls = []

    def counting(elements, n):
        calls.append(n)
        return original(elements, n)

    for name, module in list(sys.modules.items()):
        held = getattr(module, "check_candidate_pool", None)
        if name.split(".")[0] == "repro" and held is original:
            monkeypatch.setattr(module, "check_candidate_pool", counting)
    return calls


def _points(n=N, seed=7):
    return np.random.default_rng(seed).normal(size=(n, 3))


def _weights(n=N, seed=8):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=n)


def _families():
    """One instance of every restrictable family over ``N`` elements."""
    points = _points()
    euclidean = EuclideanMetric(points)
    partition = PartitionMatroid([i % 4 for i in range(N)], {j: 2 for j in range(4)})
    edges = [(i % 7, (i * 3 + 1) % 7) for i in range(N)]
    return {
        "DistanceMatrix": DistanceMatrix(euclidean.to_matrix()),
        "EuclideanMetric": euclidean,
        "CosineMetric": CosineMetric(points),
        "PatchedMetric": PatchedMetric(euclidean, {(3, 5): 4.0, (0, 9): 0.5}),
        "OracleOnlyMetric": OracleOnlyMetric(euclidean),
        "CrashingMetric": CrashingMetric(euclidean, fail_times=0),
        "ModularFunction": ModularFunction(_weights()),
        "ZeroFunction": ZeroFunction(N),
        "CoverageFunction": CoverageFunction.random(N, 6, seed=1),
        "UniformMatroid": UniformMatroid(N, 4),
        "PartitionMatroid": partition,
        "TruncatedMatroid": TruncatedMatroid(partition, 3),
        "GraphicMatroid": GraphicMatroid(7, edges),
    }


#: ``(family, public restriction method)`` for every family door.
FAMILY_DOORS = [
    (name, method)
    for name, family in _families().items()
    for method in ("restrict", "restrict_lazy")
    if hasattr(family, method)
]


@pytest.mark.parametrize("family, method", FAMILY_DOORS)
def test_family_door_checks_once(checks, family, method):
    getattr(_families()[family], method)(POOL)
    assert len(checks) == 1


@pytest.mark.parametrize("family, method", FAMILY_DOORS)
@pytest.mark.parametrize("entry", [N, -1, 2.5, 3.0, True, "4", None, [1, 2]], ids=repr)
def test_family_door_rejects_malformed_pool(family, method, entry):
    door = getattr(_families()[family], method)
    with pytest.raises(InvalidParameterError):
        door([0, 2, entry])


def test_family_hooks_match_doors():
    """A hook on the canonical pool builds what its door builds."""
    pool = validation.check_candidate_pool(POOL, N)
    for family in _families().values():
        door, hook = family.restrict(POOL), family._restrict(pool)
        assert type(door) is type(hook) and door.n == hook.n == pool.size
        if hasattr(door, "to_matrix"):
            np.testing.assert_array_equal(door.to_matrix(), hook.to_matrix())


def _objective(metric=None):
    metric = EuclideanMetric(_points()) if metric is None else metric
    return Objective(ModularFunction(_weights()), metric, 0.3)


def test_objective_restrict_checks_once(checks):
    _objective().restrict(POOL)
    Restriction(_objective(), POOL)
    assert len(checks) == 2


def test_solve_with_candidates_checks_once(checks):
    objective = _objective()
    solve(objective.quality, objective.metric, tradeoff=0.3, p=4, candidates=POOL)
    assert len(checks) == 1


def test_solve_with_candidates_and_matroid_checks_once(checks):
    objective = _objective()
    matroid = PartitionMatroid([i % 4 for i in range(N)], {j: 1 for j in range(4)})
    result = solve(
        objective.quality,
        objective.metric,
        tradeoff=0.3,
        matroid=matroid,
        candidates=POOL,
    )
    assert matroid.is_independent(result.selected)
    assert len(checks) == 1


@pytest.mark.parametrize("materialize", [True, False], ids=["matrix", "lazy"])
def test_window_query_checks_once_on_miss_and_hit(checks, materialize):
    objective = _objective()
    corpus = PreparedCorpus(
        objective.quality, objective.metric, tradeoff=0.3, materialize=materialize
    )
    assert corpus.materialized is materialize
    miss = corpus.solve_window([ServeQuery(pool=POOL, p=4)])[0]
    assert len(checks) == 1
    hit = corpus.solve(POOL, p=4)
    assert corpus.cache_info()["hits"] == 1
    assert len(checks) == 2
    assert hit.order == miss.order


def test_solve_sharded_with_candidates_checks_once(checks):
    objective = _objective()
    pool = POOL + [1, 2, 4, 6, 7, 8, 10, 12]
    result = solve_sharded(
        objective.quality,
        objective.metric,
        tradeoff=0.3,
        p=3,
        shards=3,
        candidates=pool,
    )
    # Every shard holds more than p elements, so all three are solved.
    assert result.metadata["sharding"]["shard_sizes"] == [6, 5, 5]
    assert len(checks) == 1


def test_one_shard_solve_sharded_checks_once(checks):
    objective = _objective()
    result = solve_sharded(
        objective.quality,
        objective.metric,
        tradeoff=0.3,
        p=3,
        shards=1,
        candidates=POOL,
    )
    assert result.metadata["sharding"]["degenerate"]
    assert len(checks) == 1
    plain = solve(
        objective.quality, objective.metric, tradeoff=0.3, p=3, candidates=POOL
    )
    assert result.order == plain.order
    assert result.objective_value == plain.objective_value
    assert result.metadata["candidates"] == plain.metadata["candidates"]


def test_sharded_engine_tick_checks_no_pool(checks):
    engine = ShardedDynamicEngine(_points(64), _weights(64), 5, shard_size=16)
    checks.clear()
    batch = (
        EventBatchBuilder()
        .change_weight(3, 50.0)
        .change_weight(40, 60.0)
        .set_distance(0, 1, 9.5)
        .build()
    )
    outcome = engine.apply_events(batch)
    assert outcome.metadata["dirty_shards"] == (0, 2)
    assert outcome.metadata["core_resolved"]
    assert engine.num_overrides == 1
    assert len(checks) == 0


def test_sharded_engine_resolve_full_checks_no_pool(checks):
    engine = ShardedDynamicEngine(_points(64), _weights(64), 5, shard_size=16)
    checks.clear()
    result = engine.resolve_full(adopt=False)
    assert result.metadata["sharding"]["shard_sizes"] == [16, 16, 16, 16]
    assert len(checks) == 0
