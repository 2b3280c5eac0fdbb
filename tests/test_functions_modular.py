"""Tests for modular quality functions (ModularFunction, ZeroFunction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, NonFiniteDataError
from repro.functions.modular import ModularFunction, ZeroFunction
from repro.functions.verification import (
    check_normalized,
    is_monotone,
    is_submodular,
)


class TestModularFunction:
    def test_value_is_sum_of_weights(self):
        f = ModularFunction([1.0, 2.0, 3.0])
        assert f.value({0, 2}) == pytest.approx(4.0)
        assert f.value([]) == 0.0

    def test_marginal_is_weight(self):
        f = ModularFunction([1.0, 2.0, 3.0])
        assert f.marginal(1, {0}) == pytest.approx(2.0)
        assert f.marginal(1, {1, 0}) == 0.0

    def test_is_modular_flag(self):
        assert ModularFunction([1.0]).is_modular
        assert ZeroFunction(3).is_modular

    def test_rejects_negative_weights(self):
        with pytest.raises(InvalidParameterError):
            ModularFunction([1.0, -0.5])

    def test_rejects_2d_weights(self):
        with pytest.raises(InvalidParameterError):
            ModularFunction(np.zeros((2, 2)))

    def test_set_weight_and_copy(self):
        f = ModularFunction([1.0, 2.0])
        clone = f.copy()
        f.set_weight(0, 5.0)
        assert f.weight(0) == 5.0
        assert clone.weight(0) == 1.0
        with pytest.raises(InvalidParameterError):
            f.set_weight(0, -1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_set_weight_rejects_non_finite(self, value):
        f = ModularFunction([1.0, 2.0])
        with pytest.raises(NonFiniteDataError):
            f.set_weight(0, value)
        assert f.weight(0) == 1.0
        assert f.value([0, 1]) == 3.0

    @pytest.mark.parametrize("element", [-1, 2])
    def test_set_weight_rejects_element_outside_universe(self, element):
        f = ModularFunction([1.0, 2.0])
        with pytest.raises(InvalidParameterError):
            f.set_weight(element, 9.0)
        assert list(f.weights) == [1.0, 2.0]

    def test_weights_property_is_copy(self):
        f = ModularFunction([1.0, 2.0])
        w = f.weights
        w[0] = 99.0
        assert f.weight(0) == 1.0

    def test_is_normalized_monotone_submodular(self):
        f = ModularFunction([0.5, 1.5, 0.0, 2.0])
        check_normalized(f)
        assert is_monotone(f)
        assert is_submodular(f)


class TestZeroFunction:
    def test_always_zero(self):
        f = ZeroFunction(5)
        assert f.value({0, 1, 2}) == 0.0
        assert f.marginal(3, {0}) == 0.0

    def test_n(self):
        assert ZeroFunction(7).n == 7
        assert len(ZeroFunction(7)) == 7

    def test_rejects_negative_n(self):
        with pytest.raises(InvalidParameterError):
            ZeroFunction(-1)
