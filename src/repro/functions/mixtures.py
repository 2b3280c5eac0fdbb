"""Compositions of set functions.

Non-negative linear combinations of monotone submodular functions are again
monotone submodular, so mixtures let callers build richer quality models
(e.g. coverage + facility location, as in the Lin–Bilmes summarization
objective) while staying inside the class Theorem 1 covers.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.functions.base import Candidates, GainState, SetFunction


class _CompositeGainState(GainState):
    """Child gain states, one per component, kept in component order."""

    __slots__ = ("children",)


class ScaledFunction(SetFunction):
    """``g(S) = scale · f(S)`` for a non-negative scale."""

    def __init__(self, function: SetFunction, scale: float) -> None:
        if scale < 0:
            raise InvalidParameterError("scale must be non-negative")
        self._function = function
        self._scale = float(scale)

    @property
    def n(self) -> int:
        return self._function.n

    @property
    def scale(self) -> float:
        """The multiplicative factor."""
        return self._scale

    def value(self, subset: Iterable[Element]) -> float:
        return self._scale * self._function.value(subset)

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        return self._scale * self._function.marginal(element, subset)

    def gain_state(self, subset=()) -> _CompositeGainState:
        state = _CompositeGainState(subset)
        state.children = [self._function.gain_state(state.members)]
        return state

    def gains(self, candidates: Candidates, state: _CompositeGainState) -> np.ndarray:
        return self._scale * self._function.gains(candidates, state.children[0])

    def push(self, state: _CompositeGainState, element: Element) -> _CompositeGainState:
        super().push(state, element)
        self._function.push(state.children[0], element)
        return state

    def pair_gains(self, incoming: Candidates, anchors: Candidates) -> np.ndarray:
        return self._scale * self._function.pair_gains(incoming, anchors)

    def swap_gains(
        self, state: _CompositeGainState, incoming: Candidates, outgoing: Candidates
    ) -> np.ndarray:
        return self._scale * self._function.swap_gains(
            state.children[0], incoming, outgoing
        )

    @property
    def is_modular(self) -> bool:
        return self._function.is_modular

    @property
    def declares_submodular(self) -> bool:
        return self._function.declares_submodular

    @property
    def declares_monotone(self) -> bool:
        return self._function.declares_monotone

    @property
    def parallel_safe(self) -> bool:
        return self._function.parallel_safe


class MixtureFunction(SetFunction):
    """``g(S) = Σ_k weight_k · f_k(S)`` for non-negative weights.

    All components must share the same ground-set size.
    """

    def __init__(
        self,
        functions: Sequence[SetFunction],
        weights: Sequence[float] | None = None,
    ) -> None:
        if not functions:
            raise InvalidParameterError("a mixture needs at least one component")
        sizes = {f.n for f in functions}
        if len(sizes) != 1:
            raise InvalidParameterError(
                f"all components must share one ground-set size, got {sorted(sizes)}"
            )
        if weights is None:
            weights = [1.0] * len(functions)
        if len(weights) != len(functions):
            raise InvalidParameterError("weights must match the number of components")
        if any(w < 0 for w in weights):
            raise InvalidParameterError("mixture weights must be non-negative")
        self._functions = list(functions)
        self._weights = [float(w) for w in weights]

    @property
    def n(self) -> int:
        return self._functions[0].n

    @property
    def components(self) -> Sequence[SetFunction]:
        """The component functions."""
        return tuple(self._functions)

    @property
    def weights(self) -> Sequence[float]:
        """The mixture weights."""
        return tuple(self._weights)

    def value(self, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        return float(
            sum(w * f.value(members) for w, f in zip(self._weights, self._functions))
        )

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        return float(
            sum(
                w * f.marginal(element, members)
                for w, f in zip(self._weights, self._functions)
            )
        )

    def gain_state(self, subset=()) -> _CompositeGainState:
        state = _CompositeGainState(subset)
        children: List[GainState] = [
            f.gain_state(state.members) for f in self._functions
        ]
        state.children = children
        return state

    def gains(self, candidates: Candidates, state: _CompositeGainState) -> np.ndarray:
        idx = np.asarray(candidates, dtype=int)
        out = np.zeros(idx.size, dtype=float)
        for weight, function, child in zip(
            self._weights, self._functions, state.children
        ):
            out += weight * function.gains(idx, child)
        return out

    def push(self, state: _CompositeGainState, element: Element) -> _CompositeGainState:
        super().push(state, element)
        for function, child in zip(self._functions, state.children):
            function.push(child, element)
        return state

    def pair_gains(self, incoming: Candidates, anchors: Candidates) -> np.ndarray:
        return sum(
            weight * function.pair_gains(incoming, anchors)
            for weight, function in zip(self._weights, self._functions)
        )

    def swap_gains(
        self, state: _CompositeGainState, incoming: Candidates, outgoing: Candidates
    ) -> np.ndarray:
        return sum(
            weight * function.swap_gains(child, incoming, outgoing)
            for weight, function, child in zip(
                self._weights, self._functions, state.children
            )
        )

    @property
    def is_modular(self) -> bool:
        return all(f.is_modular for f in self._functions)

    @property
    def declares_submodular(self) -> bool:
        return all(f.declares_submodular for f in self._functions)

    @property
    def declares_monotone(self) -> bool:
        return all(f.declares_monotone for f in self._functions)

    @property
    def parallel_safe(self) -> bool:
        return all(f.parallel_safe for f in self._functions)
