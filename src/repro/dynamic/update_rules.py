"""The oblivious single-swap update rule (Section 6).

Given the current solution ``S``, find the pair ``(u, v)`` with ``u ∈ S``,
``v ∉ S`` maximizing the swap gain

``φ_{v→u}(S) = φ(S − u + v) − φ(S)``

and perform the swap iff the gain is positive — above floating-point noise,
:data:`~repro.core.kernels.GAIN_TOLERANCE`.  The rule is *oblivious* because
it ignores which perturbation happened.

The update is one best-improvement step of Section 5's local search under
the uniform matroid ``U(p, n)`` with ``p = |S|``: :func:`best_swap` is one
:func:`~repro.core.kernels.best_swap_scan`, and :func:`update_until_stable`
(with :func:`oblivious_update` as its one-update case) runs
:func:`~repro.core.local_search.local_search_diversify` from ``S``.

:func:`required_updates_for_weight_decrease` computes Theorem 4's bound
``⌈log_{(p-2)/(p-3)} w/(w-δ)⌉`` on the number of updates needed after a large
weight decrease.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro._types import Element
from repro.core import kernels
from repro.core.local_search import LocalSearchConfig, local_search_diversify
from repro.core.objective import Objective
from repro.exceptions import InvalidParameterError
from repro.matroids.uniform import UniformMatroid


@dataclass(frozen=True)
class UpdateOutcome:
    """Result of applying the oblivious update rule once (or repeatedly).

    Attributes
    ----------
    solution:
        The solution after the update(s).
    swaps:
        The performed moves ``(incoming, outgoing, gain)`` in order, where
        ``gain`` is always the *true* objective change of that move.  For the
        single-swap rules ``incoming``/``outgoing`` are elements; for a
        simultaneous k-swap (:func:`k_swap_update` with ``k > 1``) they are
        tuples of elements and the entry records the gain of the whole move —
        a simultaneous swap has no well-defined per-pair gains.
    objective_value:
        ``φ`` of the final solution.
    metadata:
        Rule-specific extras (e.g. the labelled pairwise decomposition of a
        k-swap move).
    """

    solution: FrozenSet[Element]
    swaps: Tuple[Tuple[Any, Any, float], ...]
    objective_value: float
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_swaps(self) -> int:
        """Number of swaps performed."""
        return len(self.swaps)

    @property
    def changed(self) -> bool:
        """Whether any swap was performed."""
        return bool(self.swaps)


def best_swap(
    objective: Objective, solution: Set[Element]
) -> Optional[Tuple[Element, Element, float]]:
    """Return the best single swap ``(incoming, outgoing, gain)`` or ``None``.

    ``None`` is returned when no swap gains more than
    :data:`~repro.core.kernels.GAIN_TOLERANCE`, i.e. the solution is locally
    optimal for the single-swap neighbourhood.

    The scan is one :func:`~repro.core.kernels.best_swap_scan`, with the
    distance marginals ``d_u(S)`` read from a tracker of ``S``, as the local
    search reads them.
    """
    move, _ = kernels.best_swap_scan(
        objective,
        solution,
        objective.make_tracker(solution).marginals_view(),
        weights=kernels.modular_weights(objective.quality),
    )
    return move


def oblivious_update(objective: Objective, solution: Set[Element]) -> UpdateOutcome:
    """Apply the oblivious single-swap update rule exactly once.

    :func:`update_until_stable` with one update.
    """
    return update_until_stable(objective, solution, max_updates=1)


def update_until_stable(
    objective: Objective,
    solution: Set[Element],
    *,
    max_updates: Optional[int] = None,
) -> UpdateOutcome:
    """Apply the oblivious rule repeatedly until no swap improves (or a cap hits).

    This is the local search of Section 5 started at ``solution`` under the
    uniform matroid ``U(|S|, n)``, capped at ``max_updates`` swaps.
    """
    current = set(solution)
    result = local_search_diversify(
        objective,
        UniformMatroid(objective.n, len(current)),
        initial=current,
        config=LocalSearchConfig(max_swaps=max_updates),
    )
    return UpdateOutcome(
        solution=result.selected,
        swaps=tuple(result.metadata["swaps"]),
        objective_value=result.objective_value,
    )


def best_k_swap(
    objective: Objective, solution: Set[Element], k: int
) -> Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...], float]]:
    """Best simultaneous swap of exactly ``k`` elements, or ``None`` if none improves.

    The paper's conclusion asks whether larger-cardinality swaps (or a
    non-oblivious rule) can maintain a ratio better than 3 with few updates;
    this primitive supports experimenting with that question.  The search is
    exhaustive over ``C(|S|, k) · C(n − |S|, k)`` combinations, so it is only
    intended for small ``k`` (2 in practice).

    Returns ``(incoming, outgoing, gain)`` with ``gain > 0``, or ``None``.
    """
    from itertools import combinations

    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    members = sorted(solution)
    outside = [u for u in range(objective.n) if u not in solution]
    if len(members) < k or len(outside) < k:
        return None
    current_value = objective.value(solution)
    best: Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...], float]] = None
    for outgoing in combinations(members, k):
        without = set(solution) - set(outgoing)
        for incoming in combinations(outside, k):
            candidate = without | set(incoming)
            gain = objective.value(candidate) - current_value
            if gain > 0 and (best is None or gain > best[2]):
                best = (tuple(incoming), tuple(outgoing), gain)
    return best


def k_swap_update(
    objective: Objective, solution: Set[Element], k: int = 2
) -> UpdateOutcome:
    """Apply the best swap of *up to* ``k`` elements exactly once.

    Tries swap sizes ``1 .. k`` and performs the single most improving one
    (sizes are not chained — this is one update, the analogue of the oblivious
    single-swap rule with a larger neighbourhood).

    The outcome records the move with its **true total gain**
    ``φ(S') − φ(S)``.  A move of size > 1 appears as a single
    ``(incoming_tuple, outgoing_tuple, gain)`` entry; the arbitrary pairwise
    alignment is kept only under ``metadata["pairwise_alignment"]`` and
    carries no gains, because a simultaneous swap has no per-pair gains.
    """
    if k < 1:
        raise InvalidParameterError("k must be at least 1")
    current = set(solution)
    best_move: Optional[Tuple[Tuple[Element, ...], Tuple[Element, ...], float]] = None
    for size in range(1, k + 1):
        move = best_k_swap(objective, current, size)
        if move is not None and (best_move is None or move[2] > best_move[2]):
            best_move = move
    swaps: List[Tuple[Any, Any, float]] = []
    metadata: Dict[str, Any] = {}
    if best_move is not None:
        incoming, outgoing, gain = best_move
        for element in outgoing:
            current.remove(element)
        for element in incoming:
            current.add(element)
        if len(incoming) == 1:
            # A 1-swap is a genuine single swap; keep the 1-swap rule's shape.
            swaps.append((incoming[0], outgoing[0], gain))
        else:
            # A simultaneous k-swap is ONE move with ONE true gain.  The
            # element alignment below is an arbitrary zip, not a gain
            # decomposition — per-pair gains are not defined for a
            # simultaneous swap, so none are fabricated.
            swaps.append((incoming, outgoing, gain))
            metadata["pairwise_alignment"] = tuple(zip(incoming, outgoing))
            metadata["pairwise_alignment_note"] = (
                "arbitrary incoming/outgoing pairing of the simultaneous "
                "k-swap; carries no per-pair gains"
            )
    return UpdateOutcome(
        solution=frozenset(current),
        swaps=tuple(swaps),
        objective_value=objective.value(current),
        metadata=metadata,
    )


def required_updates_for_weight_decrease(
    current_solution_value: float, delta: float, p: int
) -> int:
    """Theorem 4's update count ``⌈log_{(p-2)/(p-3)} w/(w-δ)⌉``.

    Parameters
    ----------
    current_solution_value:
        ``w`` — the value ``φ(S)`` of the solution before the weight decrease.
    delta:
        The magnitude of the decrease.
    p:
        The cardinality constraint.  For ``p ≤ 3`` (Corollary 3) a single
        update always suffices.

    Returns
    -------
    int
        The number of oblivious updates sufficient to restore ratio 3.
    """
    if delta < 0:
        raise InvalidParameterError("delta must be non-negative")
    if current_solution_value < 0:
        raise InvalidParameterError("the solution value must be non-negative")
    if delta == 0:
        return 0
    if p <= 3:
        return 1
    if delta <= current_solution_value / (p - 2):
        return 1
    if delta >= current_solution_value:
        # The whole solution value could be wiped out; the bound degenerates.
        raise InvalidParameterError(
            "Theorem 4 requires the decrease to be smaller than the solution value"
        )
    base = (p - 2) / (p - 3)
    ratio = current_solution_value / (current_solution_value - delta)
    return max(1, math.ceil(math.log(ratio, base)))
