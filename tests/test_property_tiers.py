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
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import solve_many
from repro.core.exact import exact_diversify
from repro.core.objective import Objective
from repro.core.result import SolverResult
from repro.core.solver import solve
from repro.functions.coverage import CoverageFunction
from repro.functions.modular import ModularFunction
from repro.matroids.partition import PartitionMatroid
from repro.matroids.uniform import UniformMatroid
from repro.metrics.euclidean import EuclideanMetric
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
