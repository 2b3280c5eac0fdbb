"""Tests for repro.utils.validation and the Stopwatch / timed helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InvalidParameterError, NonFiniteDataError
from repro.metrics.cosine import CosineMetric
from repro.metrics.euclidean import EuclideanMetric
from repro.obs.trace import Stopwatch, timed
from repro.utils.validation import (
    check_cardinality,
    check_elements,
    check_finite_array,
    check_non_negative,
    check_positive,
    check_probability,
    check_tradeoff,
)


class TestScalarChecks:
    def test_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0.0) == 0.0

    def test_non_negative_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            check_non_negative("x", -0.1)

    def test_positive_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            check_positive("x", 0.0)

    def test_probability_bounds(self):
        assert check_probability("x", 1.0) == 1.0
        with pytest.raises(InvalidParameterError):
            check_probability("x", 1.5)

    def test_tradeoff_rejects_nan_and_inf(self):
        with pytest.raises(InvalidParameterError):
            check_tradeoff("lam", float("nan"))
        with pytest.raises(InvalidParameterError):
            check_tradeoff("lam", float("inf"))
        with pytest.raises(InvalidParameterError):
            check_tradeoff("lam", -1.0)
        assert check_tradeoff("lam", 0.2) == 0.2


class TestCardinality:
    def test_valid(self):
        assert check_cardinality(3, 10) == 3
        p = check_cardinality(np.int64(3), 10)
        assert p == 3 and type(p) is int

    def test_zero_allowed(self):
        assert check_cardinality(0, 10) == 0

    def test_rejects_negative(self):
        with pytest.raises(InvalidParameterError):
            check_cardinality(-1, 10)

    def test_rejects_too_large(self):
        with pytest.raises(InvalidParameterError):
            check_cardinality(11, 10)

    def test_rejects_bool(self):
        with pytest.raises(InvalidParameterError):
            check_cardinality(True, 10)


class TestElements:
    def test_normalizes_to_set(self):
        assert check_elements([1, 2, 2, 3], 5) == {1, 2, 3}

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            check_elements([0, 5], 5)
        with pytest.raises(InvalidParameterError):
            check_elements([-1], 5)


class TestFiniteArray:
    def test_accepts_finite_and_returns_input(self):
        array = np.array([[0.0, 1.5], [-2.0, 3.0]])
        assert check_finite_array("x", array) is array

    def test_rejects_nan_with_location(self):
        array = np.array([1.0, np.nan, 2.0])
        with pytest.raises(NonFiniteDataError, match="index 1"):
            check_finite_array("x", array)

    def test_rejects_inf_with_location(self):
        array = np.array([[1.0, 2.0], [np.inf, 3.0]])
        with pytest.raises(NonFiniteDataError, match="index 2"):
            check_finite_array("x", array)

    def test_empty_array_is_fine(self):
        check_finite_array("x", np.zeros((0, 3)))

    def test_error_names_the_array(self):
        with pytest.raises(NonFiniteDataError, match="distances"):
            check_finite_array("distances", np.array([np.nan]))


class TestNonFiniteProperties:
    """Construction-time gates hold wherever the corruption lands."""

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        d=st.integers(min_value=1, max_value=4),
        row=st.data(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_euclidean_rejects_any_poisoned_row(self, n, d, row, bad):
        points = np.ones((n, d))
        i = row.draw(st.integers(min_value=0, max_value=n - 1))
        j = row.draw(st.integers(min_value=0, max_value=d - 1))
        points[i, j] = bad
        with pytest.raises(NonFiniteDataError):
            EuclideanMetric(points)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        d=st.integers(min_value=1, max_value=4),
        pos=st.data(),
        bad=st.sampled_from([np.nan, np.inf, -np.inf]),
    )
    def test_cosine_rejects_any_poisoned_feature(self, n, d, pos, bad):
        features = np.ones((n, d))
        i = pos.draw(st.integers(min_value=0, max_value=n - 1))
        j = pos.draw(st.integers(min_value=0, max_value=d - 1))
        features[i, j] = bad
        # NaN/inf must surface as NonFiniteDataError, never slip past the
        # zero-norm test (a NaN norm is not equal to zero).
        with pytest.raises(NonFiniteDataError):
            CosineMetric(features)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        d=st.integers(min_value=1, max_value=4),
        pos=st.data(),
    )
    def test_cosine_rejects_zero_variance_row_anywhere(self, n, d, pos):
        features = np.ones((n, d))
        i = pos.draw(st.integers(min_value=0, max_value=n - 1))
        features[i] = 0.0
        with pytest.raises(InvalidParameterError):
            CosineMetric(features)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=8),
        d=st.integers(min_value=1, max_value=4),
        scale=st.floats(min_value=0.1, max_value=10.0),
    )
    def test_finite_features_always_construct(self, n, d, scale):
        rng = np.random.default_rng(n * 10 + d)
        features = rng.uniform(0.5, 1.5, size=(n, d)) * scale
        metric = CosineMetric(features)
        assert metric.n == n
        assert EuclideanMetric(features).n == n


class TestTiming:
    def test_stopwatch_accumulates(self):
        watch = Stopwatch()
        with watch.measure():
            sum(range(100))
        first = watch.elapsed_seconds
        with watch.measure():
            sum(range(100))
        assert watch.elapsed_seconds >= first
        assert watch.elapsed_ms == pytest.approx(watch.elapsed_seconds * 1000)

    def test_stopwatch_reset(self):
        watch = Stopwatch()
        with watch.measure():
            pass
        watch.reset()
        assert watch.elapsed_seconds == 0.0

    def test_timed_returns_value_and_duration(self):
        value, seconds = timed(lambda: 41 + 1)
        assert value == 42
        assert seconds >= 0.0
