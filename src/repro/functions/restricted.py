"""Index-remapped views of quality functions (the restriction layer).

A production diversifier is query-scoped: each query solves over a candidate
pool inside one shared corpus.  :class:`RestrictedSetFunction` is the generic
fallback for :meth:`~repro.functions.base.SetFunction.restrict` — it presents
``f`` restricted to a pool, re-indexed to ``{0, ..., k-1}``, by translating
indices and delegating every oracle call to the parent.  Concrete families
override :meth:`restrict` when a direct representation is cheaper (modular
functions slice their weight vector in O(k)).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Sequence, Tuple

import numpy as np

from repro._types import Element
from repro.functions.base import Candidates, GainState, SetFunction


class _RestrictedGainState(GainState):
    """Local member set plus the parent's gain state over global indices."""

    __slots__ = ("parent_state",)


class RestrictedSetFunction(SetFunction):
    """``f`` restricted to a candidate pool, re-indexed from 0.

    Local element ``i`` maps to ``pool[i]`` in the parent's universe, where
    ``pool`` is a checked pool (see :meth:`SetFunction.restrict`).
    Restriction preserves modularity, submodularity and monotonicity, so the
    declared structure passes through to the parent's.
    """

    def __init__(self, parent: SetFunction, pool: Sequence[Element]) -> None:
        self._parent = parent
        self._globals_array = np.asarray(pool, dtype=int)
        self._globals: Tuple[Element, ...] = tuple(self._globals_array.tolist())

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def parent(self) -> SetFunction:
        """The unrestricted function this view delegates to."""
        return self._parent

    @property
    def global_elements(self) -> Tuple[Element, ...]:
        """Local index ``i`` corresponds to ``global_elements[i]``."""
        return self._globals

    # ------------------------------------------------------------------
    # SetFunction interface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._globals)

    def _map(self, subset: FrozenSet[Element]) -> FrozenSet[Element]:
        return frozenset(self._globals[e] for e in subset)

    def value(self, subset: Iterable[Element]) -> float:
        return self._parent.value(self._map(self._as_set(subset)))

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        if element in members:
            return 0.0
        return self._parent.marginal(self._globals[element], self._map(members))

    # ------------------------------------------------------------------
    # Batched marginal-gain protocol (delegates to the parent's state)
    # ------------------------------------------------------------------
    def gain_state(self, subset=()) -> _RestrictedGainState:
        state = _RestrictedGainState(subset)
        state.parent_state = self._parent.gain_state(
            self._globals[e] for e in state.members
        )
        return state

    def gains(self, candidates: Candidates, state: _RestrictedGainState) -> np.ndarray:
        idx = np.asarray(candidates, dtype=int)
        return self._parent.gains(self._globals_array[idx], state.parent_state)

    def push(
        self, state: _RestrictedGainState, element: Element
    ) -> _RestrictedGainState:
        super().push(state, element)
        self._parent.push(state.parent_state, self._globals[element])
        return state

    def pair_gains(self, incoming: Candidates, anchors: Candidates) -> np.ndarray:
        return self._parent.pair_gains(
            self._globals_array[np.asarray(incoming, dtype=int)],
            self._globals_array[np.asarray(anchors, dtype=int)],
        )

    def swap_gains(
        self, state: _RestrictedGainState, incoming: Candidates, outgoing: Candidates
    ) -> np.ndarray:
        return self._parent.swap_gains(
            state.parent_state,
            self._globals_array[np.asarray(incoming, dtype=int)],
            self._globals_array[np.asarray(outgoing, dtype=int)],
        )

    @property
    def is_modular(self) -> bool:
        return self._parent.is_modular

    @property
    def parallel_safe(self) -> bool:
        return self._parent.parallel_safe

    @property
    def declares_submodular(self) -> bool:
        return self._parent.declares_submodular

    @property
    def declares_monotone(self) -> bool:
        return self._parent.declares_monotone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RestrictedSetFunction(n={self.n}, "
            f"parent={type(self._parent).__name__}(n={self._parent.n}))"
        )
