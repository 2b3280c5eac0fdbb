"""Modular (linear) quality functions.

The modular case ``f(S) = Σ_{u ∈ S} w(u)`` is the setting of the original
Gollapudi–Sharma diversification problem, of the paper's experiments
(Section 7), and of the dynamic-update theory (Section 6), where the weights
``w(u)`` change over time.
"""

from __future__ import annotations

from typing import Iterable, Union

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError, NonFiniteDataError
from repro.functions.base import Candidates, GainState, SetFunction
from repro.utils.validation import check_finite_array


class ModularFunction(SetFunction):
    """``f(S) = Σ_{u ∈ S} w(u)`` for non-negative weights ``w``.

    Weights are mutable through :meth:`set_weight` to support the
    dynamic-update engine (Type I / Type II perturbations).
    """

    def __init__(self, weights: Union[np.ndarray, Iterable[float]]) -> None:
        array = np.array(
            list(weights) if not isinstance(weights, np.ndarray) else weights,
            dtype=float,
        )
        if array.ndim != 1:
            raise InvalidParameterError("weights must be a 1-D array")
        # NaN passes ``array < 0`` silently; reject it (and ±inf) up front.
        check_finite_array("weights", array)
        if np.any(array < 0):
            raise InvalidParameterError("weights must be non-negative")
        self._weights = array
        self._weights_view = array.view()
        self._weights_view.flags.writeable = False

    # ------------------------------------------------------------------
    # SetFunction interface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self._weights.shape[0]

    def value(self, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        if not members:
            return 0.0
        idx = np.fromiter(members, dtype=int)
        return float(self._weights[idx].sum())

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        if element in members:
            return 0.0
        return float(self._weights[element])

    @property
    def is_modular(self) -> bool:
        return True

    def gains(self, candidates: Candidates, state: GainState) -> np.ndarray:
        """Batch gains are a weight-vector slice (members zeroed)."""
        idx = np.asarray(candidates, dtype=int)
        return state.mask_members(idx, self._weights[idx])

    @property
    def parallel_safe(self) -> bool:
        return True

    # ------------------------------------------------------------------
    # Weight access / mutation (dynamic updates)
    # ------------------------------------------------------------------
    @property
    def weights(self) -> np.ndarray:
        """The weight vector (a copy; use :meth:`set_weight` to mutate)."""
        return self._weights.copy()

    def weights_view(self) -> np.ndarray:
        """A read-only, copy-free view of the weight vector.

        The view reflects later :meth:`set_weight` mutations, so the
        vectorized kernels can hold onto it across dynamic updates.
        """
        return self._weights_view

    def weight(self, element: Element) -> float:
        """Return ``w(element)``."""
        return float(self._weights[element])

    def set_weight(self, element: Element, value: float) -> None:
        """Set ``w(element) = value`` (must stay finite and non-negative)."""
        index = int(element)
        if not 0 <= index < self.n:
            raise InvalidParameterError(
                f"element {element} is outside the universe of {self.n} elements"
            )
        if not np.isfinite(value):
            raise NonFiniteDataError(
                f"weight of element {element} must be finite, got {value!r}"
            )
        if value < 0:
            raise InvalidParameterError("weights must be non-negative")
        self._weights[index] = value

    @classmethod
    def _from_storage(cls, array: np.ndarray) -> "ModularFunction":
        """Wrap an externally owned weight array without copying.

        The dynamic engine's growable-storage path: the caller owns a
        capacity-doubled buffer and hands an active-prefix view here, so
        weight events mutate the storage directly and this function (and
        every kernel holding :meth:`weights_view`) observes them with no
        copies.  The caller is responsible for keeping entries finite and
        non-negative — exactly the :meth:`set_weight` invariants.
        """
        instance = object.__new__(cls)
        instance._weights = array
        view = array.view()
        view.flags.writeable = False
        instance._weights_view = view
        return instance

    def copy(self) -> "ModularFunction":
        """Return an independent copy (used by the dynamic engine)."""
        return ModularFunction(self._weights.copy())

    def _restrict(self, pool: np.ndarray) -> "ModularFunction":
        """Restriction of a modular function is a weight-vector slice (O(k))."""
        return ModularFunction(self._weights[pool])


class ZeroFunction(SetFunction):
    """The identically-zero function.

    With ``f ≡ 0`` the diversification objective degenerates to pure
    max-sum dispersion, which is how Corollary 1 recovers the Ravi et al.
    greedy dispersion guarantee from Theorem 1.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise InvalidParameterError("n must be non-negative")
        self._n = int(n)
        self._weights_view = np.zeros(self._n)
        self._weights_view.flags.writeable = False

    @property
    def n(self) -> int:
        return self._n

    def value(self, subset: Iterable[Element]) -> float:
        return 0.0

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        return 0.0

    def gains(self, candidates: Candidates, state: GainState) -> np.ndarray:
        return np.zeros(np.asarray(candidates, dtype=int).size, dtype=float)

    def weights_view(self) -> np.ndarray:
        """The (all-zero) weight vector as a read-only view."""
        return self._weights_view

    @property
    def is_modular(self) -> bool:
        return True

    @property
    def parallel_safe(self) -> bool:
        return True

    def _restrict(self, pool: np.ndarray) -> "ZeroFunction":
        """Restriction of the zero function is the zero function on the pool."""
        return ZeroFunction(pool.size)
