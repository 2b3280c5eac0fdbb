"""Abstract set-valuation function.

Algorithms access quality functions through :meth:`SetFunction.value` and
:meth:`SetFunction.marginal` — exactly the value oracle the paper assumes
("access to an oracle for finding an element maximizing f(S+u) - f(S)") —
plus the *stateful batched marginal-gain protocol* the solvers' fast paths
use: :meth:`SetFunction.gain_state` builds incremental state for a subset,
:meth:`SetFunction.gains` evaluates the marginals of a whole candidate batch
against that state at once, and :meth:`SetFunction.push` grows the state by
one selected element without recomputing it from scratch.  Two more
methods score the moves of the pair and swap scans: :meth:`SetFunction.pair_gains`
gives ``f({x, y})`` for a block of pairs and :meth:`SetFunction.swap_gains`
gives ``f(S − v + u) − f(S)`` for a block of swaps against a state of ``S``.
The base-class protocol falls back to per-candidate :meth:`marginal` loops
(and the swap default to one :func:`removal_gain_state` per outgoing
element), so any oracle function keeps working; the built-in families
override it with vectorized incremental implementations (see the README's
"Submodular fast path").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro._types import Element
from repro.utils.validation import check_candidate_pool


class GainState:
    """Mutable incremental state for the batched marginal-gain protocol.

    The base state only tracks the member set; family-specific subclasses add
    the vectors that make :meth:`SetFunction.gains` a batch array operation
    (a facility-location coverage vector, a coverage bitmask, a growing
    Cholesky factor, ...).  States are owned by exactly one selection run:
    they are mutated in place by :meth:`SetFunction.push` and must not be
    shared across concurrent solves.

    ``swap_cache`` holds whatever a family derives from the member set to
    answer :meth:`SetFunction.swap_gains` (the default's removal states,
    facility location's owner and second-best vectors).  It is built on the
    first swap query and dropped by :meth:`SetFunction.push`, so repeated
    queries against an unchanged set reuse it.
    """

    __slots__ = ("members", "swap_cache")

    def __init__(self, subset: Iterable[Element] = ()) -> None:
        self.members = set(subset)
        self.swap_cache: object = None

    def member_indices(self) -> np.ndarray:
        """The current members as an (unordered) integer index array."""
        return np.fromiter(self.members, dtype=int, count=len(self.members))

    def mask_members(self, candidates: np.ndarray, gains: np.ndarray) -> np.ndarray:
        """Zero the gains of candidates already in the set (in place).

        Marginals of members are 0 by definition of set union; incremental
        formulas that would report something else route through this helper
        so every implementation agrees with :meth:`SetFunction.marginal`.
        """
        if not self.members or candidates.size == 0:
            return gains
        if candidates.size <= 16:
            # Small batches (the CELF re-evaluation path) are dominated by
            # call overhead; python set membership beats np.isin there.
            members = self.members
            for i, u in enumerate(candidates.tolist()):
                if u in members:
                    gains[i] = 0.0
            return gains
        gains[np.isin(candidates, self.member_indices())] = 0.0
        return gains


#: What :meth:`SetFunction.gains` accepts as a candidate batch.
Candidates = Union[Sequence[Element], np.ndarray]


class SetFunction(ABC):
    """A normalized set function ``f : 2^U -> R`` over ``U = {0, ..., n-1}``.

    Subclasses implement :meth:`value`; the default :meth:`marginal` is the
    two-evaluation difference, which concrete families override when a faster
    incremental formula exists.
    """

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of elements in the ground set."""

    @abstractmethod
    def value(self, subset: Iterable[Element]) -> float:
        """Return ``f(S)``.  Must satisfy ``f(∅) == 0`` (normalization)."""

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        """Return ``f_u(S) = f(S + u) - f(S)``.

        ``element`` may already belong to ``subset``, in which case the
        marginal is zero by definition of set union.
        """
        base = self._as_set(subset)
        if element in base:
            return 0.0
        return self.value(base | {element}) - self.value(base)

    # ------------------------------------------------------------------
    # Stateful batched marginal gains (the solvers' fast-path protocol)
    # ------------------------------------------------------------------
    def gain_state(self, subset: Iterable[Element] = ()) -> GainState:
        """Build incremental marginal-gain state for ``subset``.

        The returned state answers :meth:`gains` queries for the *current*
        set and is grown one element at a time with :meth:`push`.  The base
        implementation stores only the member set (so :meth:`gains` falls
        back to a :meth:`marginal` loop); concrete families override it to
        precompute the vectors their batched gains read.
        """
        return GainState(subset)

    def gains(self, candidates: Candidates, state: GainState) -> np.ndarray:
        """Return ``[f_u(S) for u in candidates]`` against ``state``'s set.

        Candidates already in the set get 0.0, matching :meth:`marginal`.
        The base implementation loops :meth:`marginal`; overrides compute the
        whole batch as one array operation (``O(n·|C|)`` or better instead of
        ``|C|`` scratch evaluations).  The result is a fresh array the caller
        owns, aligned with ``candidates``.
        """
        idx = np.asarray(candidates, dtype=int)
        members = frozenset(state.members)
        out = np.empty(idx.size, dtype=float)
        for i, u in enumerate(idx):
            out[i] = self.marginal(int(u), members)
        return out

    def push(self, state: GainState, element: Element) -> GainState:
        """Add ``element`` to the state's set, updating it incrementally.

        Mutates ``state`` in place and returns it.  Raises if the element is
        already a member (mirroring the distance tracker's contract), so the
        fast paths cannot silently double-push.  Overrides must call
        ``super().push(state, element)`` first to keep the member set in sync.
        """
        if element in state.members:
            from repro.exceptions import InvalidParameterError

            raise InvalidParameterError(
                f"element {element} is already in the gain state"
            )
        state.members.add(element)
        state.swap_cache = None
        return state

    def pair_gains(self, incoming: Candidates, anchors: Candidates) -> np.ndarray:
        """Return ``P[i, j] = f({incoming[i], anchors[j]})``.

        The quality part of the pair scores (Greedy B's best-pair start and
        the local-search initial pair).  ``incoming[i] == anchors[j]`` gives
        ``f({x})``.  The default builds one ``{x}`` gain state per anchor and
        answers each column with one :meth:`gains` call.
        """
        incoming = np.asarray(incoming, dtype=int)
        anchors = np.asarray(anchors, dtype=int)
        out = np.empty((incoming.size, anchors.size), dtype=float)
        singletons = self.gains(anchors, self.gain_state())
        for j, anchor in enumerate(anchors.tolist()):
            out[:, j] = self.gains(incoming, self.gain_state((anchor,))) + singletons[j]
        return out

    def swap_gains(
        self, state: GainState, incoming: Candidates, outgoing: Candidates
    ) -> np.ndarray:
        """Return ``G[i, j] = f(S − outgoing[j] + incoming[i]) − f(S)``.

        ``S`` is ``state.members`` and ``outgoing`` any subset of it.  The
        quality part of the swap scores (the local-search scan, the dynamic
        update rule and streaming arrivals).  The default answers column
        ``j`` with one :meth:`gains` call against the
        :func:`removal_gain_state` of ``outgoing[j]``; those states are kept
        in ``state.swap_cache`` until the set changes.
        """
        incoming = np.asarray(incoming, dtype=int)
        outgoing = np.asarray(outgoing, dtype=int)
        if not isinstance(state.swap_cache, dict):
            state.swap_cache = {}
        removal: Dict[Element, Tuple[GainState, float]] = state.swap_cache
        out = np.empty((incoming.size, outgoing.size), dtype=float)
        for j, element in enumerate(outgoing.tolist()):
            entry = removal.get(element)
            if entry is None:
                entry = removal[element] = removal_gain_state(
                    self, state.members, element
                )
            removed, base = entry
            out[:, j] = self.gains(incoming, removed) - base
        return out

    # ------------------------------------------------------------------
    # Declared structure (used by solvers to pick valid algorithms and by
    # the verification utilities to know what to check).
    # ------------------------------------------------------------------
    @property
    def is_modular(self) -> bool:
        """Whether the function is modular (linear).  Default: ``False``."""
        return False

    @property
    def declares_submodular(self) -> bool:
        """Whether the family is submodular by construction.  Default: ``True``."""
        return True

    @property
    def declares_monotone(self) -> bool:
        """Whether the family is monotone by construction.  Default: ``True``."""
        return True

    @property
    def parallel_safe(self) -> bool:
        """Whether concurrent reads from multiple threads are safe.

        Mirrors :attr:`repro.metrics.base.Metric.parallel_safe`: ``True`` only
        when every oracle and gains evaluation is a pure read of immutable
        NumPy state, which is what the thread-pooled shard map in
        :mod:`repro.core.sharding` requires.  Arbitrary user oracles make no
        such promise, so the base default is ``False``.
        """
        return False

    def weights_view(self) -> Optional[np.ndarray]:
        """A read-only, copy-free weight vector for modular families, or ``None``.

        The quality-side counterpart of
        :meth:`repro.metrics.base.Metric.matrix_view`: when a modular family
        returns an array here, the kernels and the sharded solver consume the
        weights directly instead of calling the value oracle per element.
        The view must reflect later weight mutations (the dynamic engine
        holds onto it across perturbations).  Non-modular families — and
        modular ones without an array representation — return ``None``.
        """
        return None

    # ------------------------------------------------------------------
    # Restriction (sub-universe views)
    # ------------------------------------------------------------------
    def restrict(self, elements: Iterable[Element]) -> "SetFunction":
        """Return ``f`` restricted to ``elements``, re-indexed from 0.

        Local element ``i`` of the restriction is the ``i``-th entry of
        ``elements`` (deduplicated, first-seen order), checked here and
        handed to :meth:`_restrict`.  The default wraps this function in an
        index-mapping view that delegates every oracle call; families with a
        direct representation override it (modular functions slice their
        weight vector).
        """
        return self._restrict(check_candidate_pool(elements, self.n))

    def _restrict(self, pool: np.ndarray) -> "SetFunction":
        """:meth:`restrict` on a checked pool (the hook families override)."""
        from repro.functions.restricted import RestrictedSetFunction

        return RestrictedSetFunction(self, pool)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _as_set(subset: Iterable[Element]) -> FrozenSet[Element]:
        if isinstance(subset, frozenset):
            return subset
        return frozenset(subset)

    def elements(self) -> range:
        """Return the range of valid element indices."""
        return range(self.n)

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"


def removal_gain_state(
    quality: SetFunction, selected: Iterable[Element], outgoing: Element
) -> Tuple[GainState, float]:
    """Gain state for ``S − outgoing`` plus the base gain ``f_v(S − v)``.

    The identity behind the default :meth:`SetFunction.swap_gains`:

    ``f(S − v + u) − f(S) = f_u(S − v) − f_v(S − v) = gains(u, state) − base``

    so the quality part of any swap against ``outgoing`` is one batched-gains
    call.  Returns ``(state, base)``.
    """
    state = quality.gain_state(set(selected) - {outgoing})
    base = float(quality.gains((outgoing,), state)[0])
    return state, base
