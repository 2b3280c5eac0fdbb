"""Max-sum p-dispersion greedy (Ravi, Rosenkrantz and Tayi).

Pure dispersion is the special case ``f ≡ 0`` of the diversification problem
(Problem 1).  The vertex greedy repeatedly adds the element with the largest
total distance to the current set; Corollary 1 of the paper shows it is a
2-approximation (re-deriving Birnbaum–Goldman via Theorem 1), and
Birnbaum–Goldman's tight bound is ``(2p - 2)/(p - 1)``.

``batch_size`` implements the Birnbaum–Goldman generalization that greedily
adds ``d`` vertices at a time, giving a ``(2p - 2)/(p + d - 2)``
approximation.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import List, Set

from repro._types import Element
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import InvalidParameterError
from repro.functions.modular import ZeroFunction
from repro.metrics.base import Metric
from repro.utils.validation import check_cardinality


def greedy_dispersion(
    metric: Metric,
    p: int,
    *,
    batch_size: int = 1,
) -> SolverResult:
    """Greedy vertex selection maximizing ``d(S)`` subject to ``|S| = p``.

    Parameters
    ----------
    metric:
        The distance structure.
    p:
        Target cardinality.
    batch_size:
        Number of vertices added per greedy step (1 = the Ravi et al.
        algorithm; larger values follow Birnbaum–Goldman).
    """
    if batch_size < 1:
        raise InvalidParameterError("batch_size must be at least 1")
    started = time.perf_counter()
    objective = Objective(ZeroFunction(metric.n), metric, tradeoff=1.0)
    p = min(check_cardinality(p), metric.n)
    pool: List[Element] = list(range(metric.n))

    selected: Set[Element] = set()
    order: List[Element] = []
    tracker = objective.make_tracker()
    remaining = set(pool)
    iterations = 0

    while len(selected) < p and remaining:
        take = min(batch_size, p - len(selected))
        if take == 1:
            best_element = None
            best_gain = -float("inf")
            for u in remaining:
                gain = tracker.marginal(u)
                if gain > best_gain or (
                    gain == best_gain and (best_element is None or u < best_element)
                ):
                    best_gain = gain
                    best_element = u
            chosen = (best_element,)
        else:
            # Batch step: pick the group of `take` remaining vertices with the
            # largest combined contribution (marginal to S plus internal).
            best_group = None
            best_gain = -float("inf")
            for group in combinations(sorted(remaining), take):
                gain = sum(tracker.marginal(u) for u in group)
                for i, u in enumerate(group):
                    for v in group[i + 1 :]:
                        gain += metric.distance(u, v)
                if gain > best_gain:
                    best_gain = gain
                    best_group = group
            chosen = best_group or ()
        for element in chosen:
            selected.add(element)
            order.append(element)
            tracker.add(element)
            remaining.discard(element)
        iterations += 1

    elapsed = time.perf_counter() - started
    return build_result(
        objective,
        selected,
        order,
        algorithm=(
            "greedy_dispersion"
            if batch_size == 1
            else f"greedy_dispersion_batch{batch_size}"
        ),
        iterations=iterations,
        elapsed_seconds=elapsed,
        metadata={"p": p, "batch_size": batch_size},
    )
