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
