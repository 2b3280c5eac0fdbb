"""The paper's guarantees on every pool tier.

Each tier adapter answers one query on a candidate pool and returns a
:class:`~repro.core.result.SolverResult` in corpus indices.  Every adapter
must satisfy, against ``OPT(pool)`` from :func:`exact_diversify` on
``objective.restrict(pool)``:

* Theorem 1 — Greedy B under a cardinality constraint is ≥ OPT(pool)/2;
* Theorem 2 — local search under a matroid constraint is ≥ OPT(pool)/2 and
  locally optimal under ``matroid.restrict(pool)``: the loop reference scan
  finds no swap the search would accept;
* every selection lies inside the pool.

Instances: n ≤ 9, modular and coverage quality, Euclidean points (so the
lazy corpus tier exists), uniform and partition matroids, pools drawn with
duplicates.

The sharded tiers solve a core-set, not the pool, so Theorem 1 holds against
the core instance instead:

* ``solve_sharded`` selects inside the union of the per-shard greedy
  winners and is ≥ OPT(core)/2;
* a sharded ``DynamicSession`` is ≥ OPT(W ∪ S)/2 after every tick, where
  ``W`` is the union of its shard winners and ``S`` its solution.

Nothing ties OPT(core) to OPT of the whole pool, so the sharded solve's ratio
to it is recorded as a Hypothesis event rather than asserted.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.batch import solve_many
from repro.core.exact import exact_diversify
from repro.core.greedy import greedy_diversify
from repro.core.objective import Objective
from repro.core.result import SolverResult
from repro.core.sharding import shard_pool, solve_sharded
from repro.core.solver import solve
from repro.dynamic.events import EventBatchBuilder
from repro.dynamic.session import DynamicSession
from repro.exceptions import PerturbationError
from repro.functions.coverage import CoverageFunction
from repro.functions.modular import ModularFunction
from repro.matroids.partition import PartitionMatroid
from repro.matroids.uniform import UniformMatroid
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.matrix import DistanceMatrix
from repro.serve import PreparedCorpus, ServeQuery
from repro.testing.reference import scan_swaps_reference

TOLERANCE = 1e-9
TRADEOFF = 0.7


def _window(materialize: bool) -> Callable[..., SolverResult]:
    def run(objective: Objective, pool: List[int], **constraint) -> SolverResult:
        corpus = PreparedCorpus(
            objective.quality,
            objective.metric,
            tradeoff=objective.tradeoff,
            materialize=materialize,
        )
        assert corpus.materialized == materialize
        [outcome] = corpus.solve_window([ServeQuery(pool=pool, **constraint)])
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    return run


#: One query on a pool through each tier.
TIERS: Dict[str, Callable[..., SolverResult]] = {
    "solve": lambda objective, pool, **constraint: solve(
        objective.quality,
        objective.metric,
        tradeoff=objective.tradeoff,
        candidates=pool,
        **constraint,
    ),
    "solve_many": lambda objective, pool, **constraint: solve_many(
        objective.quality,
        objective.metric,
        [pool],
        tradeoff=objective.tradeoff,
        **constraint,
    )[0],
    "window_materialized": _window(True),
    "window_lazy": _window(False),
}


@st.composite
def instances(draw):
    """An objective on n ≤ 9 Euclidean points and a pool with duplicates."""
    n = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        quality = ModularFunction(rng.uniform(0.0, 1.0, size=n))
    else:
        quality = CoverageFunction.random(n, num_topics=max(3, n // 2), seed=seed)
    objective = Objective(quality, EuclideanMetric(rng.normal(size=(n, 2))), TRADEOFF)
    pool = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=2 * n)
    )
    return objective, pool


@st.composite
def matroids(draw, n: int):
    """A uniform or a partition matroid on ``n`` elements."""
    if draw(st.booleans()):
        return UniformMatroid(n, draw(st.integers(min_value=1, max_value=4)))
    blocks = draw(st.integers(min_value=1, max_value=3))
    capacities = {b: draw(st.integers(min_value=1, max_value=2)) for b in range(blocks)}
    return PartitionMatroid([u % blocks for u in range(n)], capacities)


def _assert_in_pool(result: SolverResult, pool: List[int]) -> None:
    assert result.selected <= set(pool)
    assert set(result.order) == set(result.selected)
    assert result.metadata["candidates"] == tuple(dict.fromkeys(pool))


@pytest.mark.parametrize("tier", sorted(TIERS))
class TestPoolTiers:
    @settings(max_examples=40, deadline=None)
    @given(data=instances(), p=st.integers(min_value=1, max_value=5))
    def test_greedy_b_half_of_pool_optimum(self, tier, data, p):
        objective, pool = data
        result = TIERS[tier](objective, pool, p=p, algorithm="greedy")
        _assert_in_pool(result, pool)
        restriction = objective.restrict(pool)
        optimum = exact_diversify(restriction.objective, min(p, restriction.n))
        assert result.size == min(p, restriction.n)
        assert result.objective_value >= optimum.objective_value / 2 - TOLERANCE

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_local_search_half_of_pool_optimum_and_locally_optimal(self, tier, data):
        objective, pool = data.draw(instances())
        matroid = data.draw(matroids(objective.n))
        result = TIERS[tier](objective, pool, matroid=matroid, algorithm="local_search")
        _assert_in_pool(result, pool)
        assert matroid.is_independent(result.selected)
        restriction = objective.restrict(pool)
        sub_matroid = matroid.restrict(restriction.candidates)
        optimum = exact_diversify(restriction.objective, matroid=sub_matroid)
        assert result.objective_value >= optimum.objective_value / 2 - TOLERANCE
        local = set(restriction.to_local(result.selected))
        assert len(local) == sub_matroid.rank()
        swap = scan_swaps_reference(
            restriction.objective,
            sub_matroid,
            local,
            restriction.objective.make_tracker(local),
            0.0,
        )
        assert swap is None


def _greedy_winners(objective: Objective, part: np.ndarray, p: int) -> np.ndarray:
    """The per-shard greedy winners of ``solve_sharded``'s shard stage."""
    if part.size <= p:
        return part
    local = greedy_diversify(objective.restrict(part).objective, p).selected
    return part[sorted(local)]


def _record_ratio(label: str, value: float, optimum: SolverResult) -> None:
    """Record ``value / OPT`` as a Hypothesis event, to one decimal."""
    ratio = value / max(optimum.objective_value, TOLERANCE)
    event(f"{label} >= {np.floor(ratio * 10) / 10:.1f}")


@settings(max_examples=60, deadline=None)
@given(
    data=instances(),
    p=st.integers(min_value=1, max_value=5),
    shards=st.integers(min_value=2, max_value=3),
    pooled=st.booleans(),
)
def test_solve_sharded_half_of_core_optimum(data, p, shards, pooled):
    objective, pool = data
    result = solve_sharded(
        objective.quality,
        objective.metric,
        tradeoff=objective.tradeoff,
        p=p,
        shards=shards,
        candidates=pool if pooled else None,
    )
    universe = np.unique(pool) if pooled else np.arange(objective.n)
    parts = shard_pool(universe, shards=shards)
    core = np.concatenate([_greedy_winners(objective, part, p) for part in parts])
    assert result.selected <= set(core.tolist())
    assert result.size == min(p, core.size)
    optimum = exact_diversify(objective.restrict(core).objective, result.size)
    assert result.objective_value >= optimum.objective_value / 2 - TOLERANCE
    overall = exact_diversify(objective.restrict(universe).objective, result.size)
    _record_ratio("solve_sharded / OPT(pool)", result.objective_value, overall)


def _live_instance(session: DynamicSession, ids: List[int]) -> Objective:
    """The session's current instance restricted to ``ids``."""
    distances = np.array([[session.distance(u, v) for v in ids] for u in ids])
    np.fill_diagonal(distances, 0.0)
    weights = ModularFunction([session.weight(e) for e in ids])
    return Objective(weights, DistanceMatrix(distances), session.tradeoff)


def _is_metric(objective: Objective) -> bool:
    d = objective.metric.to_matrix()
    return bool((d[:, :, None] <= d[:, None, :] + d[None, :, :] + TOLERANCE).all())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sharded_session_half_of_core_optimum_after_every_tick(data):
    """Theorem 1 on the core instance W ∪ S after every tick of a stream.

    Distance events stay inside the triangle bounds of the live elements;
    an insert can still break the metric against an override, and Greedy B's
    guarantee needs one, so the stream stops at the first tick whose live
    instance is not a metric.
    """
    n = data.draw(st.integers(min_value=2, max_value=9))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=100_000)))
    p = data.draw(st.integers(min_value=1, max_value=min(4, n)))
    session = DynamicSession(
        rng.uniform(0.0, 1.0, size=n),
        p,
        points=rng.normal(size=(n, 2)),
        tradeoff=TRADEOFF,
        shard_size=data.draw(st.integers(min_value=2, max_value=4)),
    )
    for _ in range(data.draw(st.integers(min_value=1, max_value=10))):
        live = session.engine.active_elements().tolist()
        kind = data.draw(st.sampled_from(["weight", "distance", "insert", "delete"]))
        builder = EventBatchBuilder()
        if kind == "weight":
            element = data.draw(st.sampled_from(live))
            builder.set_weight(element, data.draw(st.floats(0.0, 5.0)))
        elif kind == "distance":
            if len(live) < 2:
                continue
            u, v = data.draw(st.permutations(live))[:2]
            others = [w for w in live if w not in (u, v)]
            du = np.array([session.distance(u, w) for w in others])
            dv = np.array([session.distance(v, w) for w in others])
            low = max(float(np.abs(du - dv).max(initial=0.0)), 1e-3)
            high = float((du + dv).min(initial=3.0))
            if low > high:
                continue
            builder.set_distance(u, v, data.draw(st.floats(low, high)))
        elif kind == "insert":
            point = rng.normal(size=2)
            builder.insert(data.draw(st.floats(0.0, 5.0)), point=point)
        else:
            builder.delete(data.draw(st.sampled_from(live)))
        try:
            session.apply_events(builder.build())
        except PerturbationError:
            continue
        live = session.engine.active_elements().tolist()
        if not _is_metric(_live_instance(session, live)):
            break
        winners = {e for _, shard in session.snapshot().winners for e in shard}
        core = sorted(winners | session.solution)
        size = len(session.solution)
        optimum = exact_diversify(_live_instance(session, core), size)
        assert size == min(p, len(live))
        assert session.solution_value >= optimum.objective_value / 2 - TOLERANCE
        overall = exact_diversify(_live_instance(session, live), size)
        _record_ratio("sharded session / OPT", session.solution_value, overall)
