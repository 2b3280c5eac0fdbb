"""Facility-location quality functions.

``f(S) = Σ_{i ∈ U} max_{j ∈ S} sim(i, j)`` — every ground element is "served"
by its most similar selected element.  Monotone and submodular; the portfolio
and facility examples use it as the quality term while the dispersion term
keeps the selected facilities (or stocks) spread out.

Swap scores use the best/second-best bookkeeping of Resende and Werneck, "A
fast swap-based local search procedure for location problems" (2007): each
client remembers the member serving it and the runner-up's similarity, so a
whole (incoming × outgoing) swap matrix costs one pass over the clients.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.functions.base import Candidates, GainState, SetFunction

#: Column-chunk width for batched gains, bounding the ``n × |C|`` temporary.
_GAINS_CHUNK = 512


class _FacilityGainState(GainState):
    """Running coverage vector ``coverage[i] = max_{j ∈ S} sim(i, j)``."""

    __slots__ = ("coverage",)


class _SwapCache(NamedTuple):
    """Per-client bookkeeping of one set ``S`` for :meth:`swap_gains`."""

    #: ``owner[i]``: the member serving client ``i`` (first of any tie).
    owner: np.ndarray
    #: ``second[i]``: the best similarity over ``S − owner[i]`` (0 if empty).
    second: np.ndarray


class FacilityLocationFunction(SetFunction):
    """Facility-location coverage over a non-negative similarity matrix."""

    def __init__(self, similarity: np.ndarray) -> None:
        matrix = np.asarray(similarity, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidParameterError("similarity must be a square matrix")
        if np.any(matrix < 0):
            raise InvalidParameterError("similarities must be non-negative")
        self._similarity = matrix

    @property
    def n(self) -> int:
        return self._similarity.shape[0]

    def value(self, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        if not members:
            return 0.0
        idx = np.fromiter(members, dtype=int)
        return float(self._similarity[:, idx].max(axis=1).sum())

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        if element in members:
            return 0.0
        if not members:
            current = np.zeros(self.n)
        else:
            idx = np.fromiter(members, dtype=int)
            current = self._similarity[:, idx].max(axis=1)
        improved = np.maximum(current, self._similarity[:, element])
        return float((improved - current).sum())

    # ------------------------------------------------------------------
    # Batched marginal-gain protocol
    # ------------------------------------------------------------------
    def gain_state(self, subset=()) -> _FacilityGainState:
        """O(n·|S|) state build: the coverage vector of the current set."""
        state = _FacilityGainState(subset)
        if state.members:
            idx = state.member_indices()
            state.coverage = self._similarity[:, idx].max(axis=1)
        else:
            state.coverage = np.zeros(self.n)
        return state

    def gains(self, candidates: Candidates, state: _FacilityGainState) -> np.ndarray:
        """Batch gains as one ``np.maximum`` + column sums per chunk."""
        idx = np.asarray(candidates, dtype=int)
        if idx.size == 0:
            return np.zeros(0, dtype=float)
        coverage = state.coverage
        base = coverage.sum()
        out = np.empty(idx.size, dtype=float)
        for start in range(0, idx.size, _GAINS_CHUNK):
            chunk = idx[start : start + _GAINS_CHUNK]
            improved = np.maximum(self._similarity[:, chunk], coverage[:, None])
            out[start : start + _GAINS_CHUNK] = improved.sum(axis=0) - base
        return state.mask_members(idx, out)

    def push(self, state: _FacilityGainState, element: Element) -> _FacilityGainState:
        """O(n) incremental update of the coverage vector."""
        super().push(state, element)
        np.maximum(state.coverage, self._similarity[:, element], out=state.coverage)
        return state

    def pair_gains(self, incoming: Candidates, anchors: Candidates) -> np.ndarray:
        """``f({u, x}) = Σ_i max(sim(i, u), sim(i, x))`` for every pair.

        The incoming columns are gathered once per chunk and reduced against
        each anchor's column with one ``np.maximum`` into a reused buffer and
        one column sum.
        """
        incoming = np.asarray(incoming, dtype=int)
        anchors = np.asarray(anchors, dtype=int)
        out = np.empty((incoming.size, anchors.size), dtype=float)
        columns = self._similarity[:, anchors].T.copy()
        for start in range(0, incoming.size, _GAINS_CHUNK):
            block = self._similarity[:, incoming[start : start + _GAINS_CHUNK]]
            scratch = np.empty_like(block)
            for j, column in enumerate(columns):
                np.maximum(block, column[:, None], out=scratch)
                out[start : start + _GAINS_CHUNK, j] = scratch.sum(axis=0)
        return out

    def swap_gains(
        self, state: _FacilityGainState, incoming: Candidates, outgoing: Candidates
    ) -> np.ndarray:
        """All swap gains from each client's best and second-best member.

        Client ``i`` is served by ``b(i)`` at ``s1(i)`` (the coverage vector)
        with runner-up ``s2(i)``, so with ``x = sim(i, u)``

        ``G[u, v] = Σ_i (max(s1, x) − s1) + Σ_{i: b(i) = v} (max(s2, x) − max(s1, x))``.

        The first sum is :meth:`gains`; the second is one clients × incoming
        array summed per owner with a one-hot product.  That is
        O(n·|incoming|) per matrix instead of one removal state and one gains
        batch per member.
        Ties give ``s2 = s1``, so the owner's correction is 0.
        """
        incoming = np.asarray(incoming, dtype=int)
        outgoing = np.asarray(outgoing, dtype=int)
        out = np.empty((incoming.size, outgoing.size), dtype=float)
        if out.size == 0:
            return out
        cache = state.swap_cache
        if not isinstance(cache, _SwapCache):
            cache = state.swap_cache = self._swap_cache(state)
        owned = (cache.owner[:, None] == outgoing[None, :]).astype(float)
        best = state.coverage[:, None]
        second = cache.second[:, None]
        base = state.coverage.sum()
        for start in range(0, incoming.size, _GAINS_CHUNK):
            chunk = incoming[start : start + _GAINS_CHUNK]
            block = self._similarity[:, chunk]
            improved = np.maximum(block, best)
            gain = state.mask_members(chunk, improved.sum(axis=0) - base)
            np.maximum(block, second, out=block)
            block -= improved
            out[start : start + _GAINS_CHUNK] = gain[:, None] + block.T @ owned
        return out

    def _swap_cache(self, state: _FacilityGainState) -> _SwapCache:
        """Owner and runner-up similarity of every client, O(n·|S|)."""
        members = state.member_indices()
        block = self._similarity[:, members]
        owner = members[block.argmax(axis=1)]
        if members.size == 1:
            second = np.zeros(self.n)
        else:
            second = np.partition(block, members.size - 2, axis=1)[:, -2]
        return _SwapCache(owner, second)

    @property
    def parallel_safe(self) -> bool:
        return True

    @classmethod
    def from_distances(cls, distances: np.ndarray, *, scale: float | None = None
                       ) -> "FacilityLocationFunction":
        """Convert a distance matrix into similarities via ``max_d - d``."""
        matrix = np.asarray(distances, dtype=float)
        top = float(matrix.max()) if scale is None else float(scale)
        return cls(np.maximum(top - matrix, 0.0))
