"""Tests for the sparse distance-override overlay (repro.metrics.overlay).

Every read of :class:`PatchedMetric` is checked against a dense reference
matrix kept in step with the same random sequence of overrides and drops.
The base is a Euclidean metric over integer points on a line, so every
distance path (scalar, row, block, restriction) is exact and the checks can
demand equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.events import EventBatchBuilder
from repro.dynamic.session import ShardedDynamicEngine
from repro.exceptions import InvalidParameterError
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.overlay import PatchedMetric


def _operations(n: int):
    element = st.integers(min_value=0, max_value=n - 1)
    override = st.tuples(
        st.just("set"),
        st.tuples(element, element).filter(lambda pair: pair[0] != pair[1]),
        st.floats(min_value=0.0, max_value=10.0),
    )
    drop = st.tuples(st.just("drop"), st.sets(element, max_size=3), st.just(0.0))
    return st.lists(st.one_of(override, override, drop), max_size=30)


@st.composite
def overlay_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return n, seed, draw(_operations(n)), draw(st.randoms(use_true_random=False))


def _line_points(seed, n):
    return np.random.default_rng(seed).integers(-50, 50, size=(n, 1)).astype(float)


def _replay(n, seed, operations):
    """The overlay after ``operations``, plus the dense matrix it must equal."""
    points = _line_points(seed, n)
    base = EuclideanMetric(points)
    metric = PatchedMetric(base)
    reference = base.to_matrix()
    table = {}
    for kind, target, value in operations:
        if kind == "set":
            u, v = target
            metric.set_override(u, v, value)
            reference[u, v] = reference[v, u] = value
            table[(min(u, v), max(u, v))] = value
        else:
            metric.drop_overrides(target)
            for pair in [pair for pair in table if set(pair) & target]:
                u, v = pair
                reference[u, v] = reference[v, u] = base.distance(u, v)
                del table[pair]
    return metric, reference, table


class TestPatchedMetricAgainstDense:
    @given(case=overlay_cases())
    @settings(max_examples=60, deadline=None)
    def test_every_read_matches_reference(self, case):
        n, seed, operations, rand = case
        metric, reference, table = _replay(n, seed, operations)

        assert metric.overrides == table
        assert metric.num_overrides == len(table)
        np.testing.assert_array_equal(metric.to_matrix(), reference)
        for u in range(n):
            np.testing.assert_array_equal(metric.row(u), reference[u])
            for v in range(n):
                assert metric.distance(u, v) == reference[u, v]
            targets = [rand.randrange(n) for _ in range(rand.randrange(n + 1))]
            np.testing.assert_array_equal(
                metric.distances_from(u, targets), reference[u, targets]
            )

        rows = [rand.randrange(n) for _ in range(rand.randrange(1, n + 2))]
        cols = [rand.randrange(n) for _ in range(rand.randrange(1, n + 2))]
        np.testing.assert_array_equal(
            metric.block(rows, cols), reference[np.ix_(rows, cols)]
        )

        pool = rand.sample(range(n), rand.randrange(1, n + 1))
        expected = reference[np.ix_(pool, pool)]
        lazy = metric.restrict_lazy(pool)
        np.testing.assert_array_equal(lazy.to_matrix(), expected)
        patched_pairs = sum(
            1 for u, v in table if u in set(pool) and v in set(pool)
        )
        if patched_pairs:
            assert isinstance(lazy, PatchedMetric)
            assert lazy.num_overrides == patched_pairs
        else:
            assert not isinstance(lazy, PatchedMetric)
        np.testing.assert_array_equal(metric.restrict(pool).to_matrix(), expected)

    @given(case=overlay_cases())
    @settings(max_examples=30, deadline=None)
    def test_rebase_onto_grown_universe_keeps_table(self, case):
        n, seed, operations, _ = case
        metric, reference, table = _replay(n, seed, operations)
        grown = np.vstack([metric.base.points, _line_points(seed + 1, 2)])
        metric.rebase(EuclideanMetric(grown))
        assert metric.n == n + 2
        assert metric.overrides == table
        np.testing.assert_array_equal(metric.to_matrix()[:n, :n], reference)
        assert metric.distance(0, n + 1) == EuclideanMetric(grown).distance(0, n + 1)


class TestPatchedMetricEdges:
    def test_drop_clears_both_endpoints_index(self):
        metric = PatchedMetric(EuclideanMetric(np.eye(4)), {(0, 1): 5.0, (1, 2): 6.0})
        metric.drop_overrides([1])
        assert metric.num_overrides == 0
        np.testing.assert_array_equal(metric.row(0), EuclideanMetric(np.eye(4)).row(0))
        assert metric.restrict_lazy([0, 1, 2]).__class__ is EuclideanMetric

    def test_rebase_rejects_a_base_that_drops_patched_elements(self):
        metric = PatchedMetric(EuclideanMetric(np.eye(4)), {(0, 3): 5.0})
        with pytest.raises(InvalidParameterError):
            metric.rebase(EuclideanMetric(np.eye(3)))
        assert metric.n == 4


def _remapped_reference(metric, pool):
    """The position-dict loop over every pool member ``_remapped`` replaced."""
    positions = {g: i for i, g in enumerate(pool.tolist())}
    remapped = {}
    for g, i in positions.items():
        for t, value in metric._by_node.get(g, {}).items():
            j = positions.get(t)
            if j is not None and i < j:
                remapped[(i, j)] = value
    return remapped


@pytest.mark.parametrize("seed", range(20))
def test_remapped_matches_the_full_pool_loop(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    metric = PatchedMetric(EuclideanMetric(_line_points(seed, n)))
    for _ in range(int(rng.integers(0, 3 * n))):
        u, v = rng.choice(n, size=2, replace=False)
        metric.set_override(u, v, float(rng.uniform(0.0, 10.0)))
    if rng.random() < 0.5:
        metric.drop_overrides(rng.choice(n, size=int(rng.integers(1, 4))))
    pool = rng.permutation(n)[: int(rng.integers(0, n + 1))]
    got = metric._remapped(pool)
    assert list(got.items()) == list(_remapped_reference(metric, pool).items())


# ----------------------------------------------------------------------
# The index of overridden ids, under the engine's own operations
# ----------------------------------------------------------------------
def _filtered(overrides, pool):
    """Brute force: the pairs of ``overrides`` inside ``pool``, re-indexed."""
    position = {g: i for i, g in enumerate(pool.tolist())}
    out = {}
    for (u, v), value in overrides.items():
        if u in position and v in position:
            out[tuple(sorted((position[u], position[v])))] = value
    return out


def _check_restrictions(metric, rng):
    """Every restriction of ``metric`` agrees with a filter of its table."""
    table = metric.overrides
    n = metric.n
    assert set(np.flatnonzero(metric._marked).tolist()) == {
        e for pair in table for e in pair
    }
    patched = np.array(sorted({e for pair in table for e in pair}), dtype=int)
    plain = np.setdiff1d(np.arange(n), patched)
    # About half the overridden ids beside two plain ones.
    mixed = np.concatenate(
        [rng.permutation(patched)[: len(patched) // 2 + 1], plain[:2]]
    )
    pools = [
        np.arange(n),
        rng.permutation(n)[: int(rng.integers(1, n + 1))],
        rng.permutation(mixed),
    ]
    reference = metric.to_matrix()
    base = metric.base.to_matrix()
    for pool in pools:
        expected = _filtered(table, pool)
        lazy = metric.restrict_lazy(pool)
        got = lazy.overrides if isinstance(lazy, PatchedMetric) else {}
        assert got == expected
        matrix = base[np.ix_(pool, pool)]
        for (i, j), value in expected.items():
            matrix[i, j] = matrix[j, i] = value
        np.testing.assert_array_equal(metric._restrict(pool).to_matrix(), matrix)
        np.testing.assert_array_equal(matrix, reference[np.ix_(pool, pool)])
        np.testing.assert_array_equal(lazy.to_matrix(), matrix)
        if expected:
            # The restriction owns its table: later parent writes stay out.
            (i, j), value = next(iter(expected.items()))
            metric.set_override(pool[i], pool[j], value + 1.0)
            assert lazy.distance(i, j) == value
            assert lazy.overrides == expected
            metric.set_override(pool[i], pool[j], value)


def _step(engine, rng):
    """One random operation on ``engine``'s override table; the next engine."""
    live = engine.active_elements()
    table = engine._overlay.overrides
    kind = rng.choice(["set", "set", "drop", "grow", "restore"])
    batch = EventBatchBuilder()
    if kind == "set":
        for _ in range(int(rng.integers(1, 4))):
            u, v = rng.choice(live, size=2, replace=False)
            batch.set_distance(int(u), int(v), float(rng.integers(0, 40)))
    elif kind == "drop" and live.size > engine.p + 1:
        degree = {}
        for pair in table:
            for e in pair:
                degree[e] = degree.get(e, 0) + 1
        # Prefer an element whose partner then loses its last override.
        lonely = [u for (u, v) in table if degree[v] == 1] + [
            v for (u, v) in table if degree[u] == 1
        ]
        victim = int(rng.choice(lonely)) if lonely else int(rng.choice(live))
        batch.delete(victim)
    elif kind == "grow":
        # One more point than there are retired slots: the base must grow.
        for _ in range(engine.n - live.size + 1):
            batch.insert(1.0, point=[float(rng.integers(-50, 50))])
    elif kind == "restore":
        return ShardedDynamicEngine.restore(engine.snapshot())
    engine.apply_events(batch.build())
    return engine


@pytest.mark.parametrize("seed", range(12))
def test_restrictions_match_a_filter_of_the_table_after_every_step(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 14))
    engine = ShardedDynamicEngine(
        _line_points(seed, n), rng.uniform(0.5, 2.0, n), 2, shard_size=4
    )
    for _ in range(20):
        engine = _step(engine, rng)
        _check_restrictions(engine._overlay, rng)


def test_a_partner_losing_its_last_override_leaves_the_index():
    metric = PatchedMetric(
        EuclideanMetric(_line_points(0, 5)), {(0, 1): 5.0, (1, 2): 6.0, (3, 4): 1.0}
    )
    metric.drop_overrides([0])
    assert np.flatnonzero(metric._marked).tolist() == [1, 2, 3, 4]
    metric.drop_overrides([2])
    assert np.flatnonzero(metric._marked).tolist() == [3, 4]
    assert not isinstance(metric.restrict_lazy([0, 1, 2]), PatchedMetric)
    metric.rebase(EuclideanMetric(_line_points(1, 9)))
    metric.set_override(8, 1, 2.0)
    assert metric.restrict_lazy([8, 0, 1]).overrides == {(0, 2): 2.0}
    with pytest.raises(InvalidParameterError, match="element 8"):
        metric.rebase(EuclideanMetric(_line_points(1, 5)))
    metric.drop_overrides([8])
    metric.rebase(EuclideanMetric(_line_points(1, 5)))
    assert metric.n == 5
    assert np.flatnonzero(metric._marked).tolist() == [3, 4]
