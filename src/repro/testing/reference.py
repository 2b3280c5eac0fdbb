"""Loop formulations of the array scans, kept as test oracles.

Every pair and swap scan in :mod:`repro.core` runs as one array program
(:mod:`repro.core.kernels`).  The functions here are the per-pair Python
loops those programs replaced: they read distances one
:meth:`~repro.metrics.base.Metric.distance` call at a time and quality
through the value oracle or single-candidate gains calls.  Tests check the
kernels against them on small instances, and the kernel perf guards time
them as the loop baseline.  Nothing in the library calls them.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Sequence, Set, Tuple

import numpy as np

from repro._types import Element
from repro.core import kernels
from repro.functions.base import removal_gain_state
from repro.matroids.base import Matroid
from repro.metrics.base import Metric

__all__ = [
    "OracleOnlyMetric",
    "restriction_feasible_pairs",
    "best_pair_reference",
    "scan_swaps_reference",
    "local_search_reference",
    "best_swap_reference",
    "arrival_swap_reference",
]


class OracleOnlyMetric(Metric):
    """Expose another metric through the ``distance`` oracle alone.

    Every bulk query (rows, blocks, restrictions) then takes the
    :class:`~repro.metrics.base.Metric` base defaults built from per-pair
    ``distance`` calls — the path an arbitrary user oracle gets.
    """

    def __init__(self, inner: Metric) -> None:
        self._inner = inner

    @property
    def n(self) -> int:
        return self._inner.n

    def distance(self, u: Element, v: Element) -> float:
        return self._inner.distance(u, v)


def restriction_feasible_pairs(matroid: Matroid) -> Iterator[Tuple[Element, Element]]:
    """Yield all pairs ``{x, y}`` (``x < y``) that are independent in the matroid.

    The local search initialization (Section 5) picks the feasible pair
    maximizing ``f({x, y}) + λ·d(x, y)``.
    """
    for x in range(matroid.n):
        for y in range(x + 1, matroid.n):
            if matroid.is_independent({x, y}):
                yield x, y


def best_pair_reference(
    objective, pool: Sequence[Element], matroid: Optional[Matroid] = None
) -> Optional[Tuple[Element, Element, float]]:
    """Double loop over ``pool`` pairs by ``Objective.pair_value``.

    Pairs are visited in pool order (``x`` before ``y``) and the first
    strict maximum wins, so ties go to the earliest pair.  With ``matroid``
    only independent pairs count.  Returns ``(x, y, value)`` or ``None``.
    """
    pool = list(pool)
    best: Optional[Tuple[Element, Element, float]] = None
    for i, x in enumerate(pool):
        for y in pool[i + 1 :]:
            if matroid is not None and not matroid.is_independent({x, y}):
                continue
            value = objective.pair_value(x, y)
            if best is None or value > best[2]:
                best = (x, y, value)
    return best


def scan_swaps_reference(
    objective,
    matroid: Matroid,
    selected: Set[Element],
    tracker,
    threshold: float,
    *,
    weights: Optional[np.ndarray] = None,
    first_improvement: bool = False,
) -> Optional[Tuple[Element, Element, float]]:
    """One loop-based best-swap scan of the local search.

    The distance part of each swap gain is read from a
    :class:`~repro.metrics.aggregates.MarginalDistanceTracker` in O(1):

    ``φ(S − v + u) − φ(S) = [f(S − v + u) − f(S)] + λ·[(d_u(S) − d(u, v)) − d_v(S)]``

    For modular quality the bracketed quality term is ``w(u) − w(v)``; for
    general submodular quality it is one single-candidate gains call against
    a removal state per outgoing element, cached for the scan.  Only swaps
    :meth:`~repro.matroids.base.Matroid.swap_candidates` allows are tried,
    incoming then outgoing ascending: the best swap is the first strict
    maximum, and with ``first_improvement`` the first swap beating
    ``threshold`` is returned.  Gains are floored by
    :data:`~repro.core.kernels.GAIN_TOLERANCE`, as in the kernel scan.
    Returns ``(incoming, outgoing, gain)`` with ``gain`` above both, or
    ``None``.
    """
    quality = objective.quality
    metric = objective.metric
    lam = objective.tradeoff
    if weights is None:
        weights = kernels.modular_weights(quality)
    removal_states: dict = {}

    best_move: Optional[Tuple[Element, Element]] = None
    best_gain = max(threshold, kernels.GAIN_TOLERANCE)
    for incoming in range(objective.n):
        if incoming in selected:
            continue
        distance_in = tracker.marginal(incoming)
        for outgoing in sorted(matroid.swap_candidates(selected, incoming)):
            distance_gain = (
                distance_in - metric.distance(incoming, outgoing)
            ) - tracker.marginal(outgoing)
            if weights is not None:
                quality_gain = float(weights[incoming] - weights[outgoing])
            else:
                if outgoing not in removal_states:
                    removal_states[outgoing] = removal_gain_state(
                        quality, selected, outgoing
                    )
                state, base = removal_states[outgoing]
                quality_gain = float(quality.gains((incoming,), state)[0]) - base
            gain = quality_gain + lam * distance_gain
            if gain > best_gain:
                best_gain = gain
                best_move = (incoming, outgoing)
                if first_improvement:
                    return incoming, outgoing, gain
    if best_move is None:
        return None
    return best_move[0], best_move[1], best_gain


def local_search_reference(
    objective,
    matroid: Matroid,
    initial: Optional[Iterable[Element]] = None,
    *,
    max_swaps: Optional[int] = None,
) -> Tuple[FrozenSet[Element], int, float]:
    """The Section 5 local search driven by :func:`scan_swaps_reference`.

    Starts from ``initial`` (or the best independent pair of
    :func:`best_pair_reference`), extends it to a basis preferring high
    singleton quality, and performs best-improvement swaps until none
    improves or ``max_swaps`` is reached.  Returns
    ``(selection, swaps, value)``.
    """
    if initial is None:
        pair = best_pair_reference(objective, range(matroid.n), matroid)
        initial = () if pair is None else pair[:2]
    preference = sorted(
        range(matroid.n),
        key=lambda u: objective.quality.marginal(u, frozenset()),
        reverse=True,
    )
    selected = set(matroid.extend_to_basis(set(initial), preference=preference))
    tracker = objective.make_tracker(selected)
    weights = kernels.modular_weights(objective.quality)
    swaps = 0
    while max_swaps is None or swaps < max_swaps:
        move = scan_swaps_reference(
            objective, matroid, selected, tracker, 0.0, weights=weights
        )
        if move is None:
            break
        incoming, outgoing, _ = move
        selected.remove(outgoing)
        selected.add(incoming)
        tracker.swap(incoming, outgoing)
        swaps += 1
    return frozenset(selected), swaps, objective.value(selected)


def best_swap_reference(
    objective, solution: Set[Element]
) -> Optional[Tuple[Element, Element, float]]:
    """The oblivious update rule (Section 6) as O(n·p) ``swap_gain`` calls.

    Returns the best ``(incoming, outgoing, gain)`` with ``gain`` above
    :data:`~repro.core.kernels.GAIN_TOLERANCE` — incoming ascending, the
    first strict maximum winning — or ``None``.
    """
    best: Optional[Tuple[Element, Element, float]] = None
    for incoming in range(objective.n):
        if incoming in solution:
            continue
        for outgoing in sorted(solution):
            gain = objective.swap_gain(solution, incoming, outgoing)
            if gain > kernels.GAIN_TOLERANCE and (best is None or gain > best[2]):
                best = (incoming, outgoing, gain)
    return best


def arrival_swap_reference(
    objective, members: Sequence[Element], element: Element, threshold: float
) -> Optional[Tuple[Element, float]]:
    """The streaming arrival rule as one ``swap_gain`` call per member.

    Returns the member whose replacement by ``element`` gains the most,
    with that gain, when it strictly exceeds ``threshold`` (the first
    member in ``members`` order wins ties); ``None`` otherwise.
    """
    best: Optional[Tuple[Element, float]] = None
    best_gain = threshold
    for outgoing in members:
        gain = objective.swap_gain(members, element, outgoing)
        if gain > best_gain:
            best_gain = gain
            best = (outgoing, gain)
    return best
