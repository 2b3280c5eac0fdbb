"""Baseline algorithms the paper's experiments compare against.

* **Greedy A** (:func:`gollapudi_sharma_greedy`) — the Gollapudi–Sharma
  approach: reduce the modular-quality diversification problem to max-sum
  dispersion under the modified metric ``d'(u, v) = w(u) + w(v) + 2λ·d(u, v)``
  and run the Hassin–Rubinstein–Tamir *edge* greedy on ``d'``.  The paper
  calls this "Greedy A"; its 2-approximation only holds for modular quality.
* **Improved Greedy A** — the Table 3 variant that, when ``p`` is odd, picks
  the *best* final vertex (w.r.t. the true objective) instead of an arbitrary
  one.
* **Matching-based algorithm** (:func:`matching_diversify`) — Hassin et al.'s
  (2 − 1/⌈p/2⌉)-approximation: take a maximum-weight matching of ⌊p/2⌋ edges
  under ``d'`` instead of greedily chosen edges.
"""

from __future__ import annotations

import time
from typing import List, Set, Tuple

import numpy as np

from repro._types import Element
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import SolverError
from repro.functions.modular import ModularFunction, ZeroFunction
from repro.metrics.matrix import DistanceMatrix
from repro.utils.validation import check_cardinality


def _require_modular_weights(objective: Objective) -> np.ndarray:
    """Extract the weight vector; Greedy A only applies to modular quality."""
    quality = objective.quality
    if isinstance(quality, ModularFunction):
        return quality.weights
    if isinstance(quality, ZeroFunction):
        return np.zeros(objective.n)
    if quality.is_modular:
        return np.array(
            [quality.marginal(u, frozenset()) for u in range(objective.n)], dtype=float
        )
    raise SolverError(
        "Greedy A (the Gollapudi–Sharma reduction) requires a modular quality "
        f"function; got {type(quality).__name__}. Use greedy_diversify or "
        "local_search_diversify for submodular quality."
    )


def reduced_metric(objective: Objective) -> DistanceMatrix:
    """The Gollapudi–Sharma reduction metric ``d'(u,v) = w(u) + w(v) + 2λ·d(u,v)``.

    ``d'`` is a metric whenever ``d`` is: the star distance ``w(u) + w(v)``
    satisfies the triangle inequality on its own, and metrics are closed under
    non-negative combination.
    """
    weights = _require_modular_weights(objective)
    base = objective.metric.to_matrix()
    reduced = weights[:, None] + weights[None, :] + 2.0 * objective.tradeoff * base
    np.fill_diagonal(reduced, 0.0)
    return DistanceMatrix(reduced, copy=False)


def _edge_greedy_pairs(
    reduced: DistanceMatrix, pool: List[Element], num_pairs: int
) -> List[Tuple[Element, Element]]:
    """Greedily pick ``num_pairs`` disjoint pairs maximizing the reduced distance.

    Works on a masked copy of the reduced distance matrix restricted to the
    candidate pool, so every greedy step is a single vectorized ``argmax``
    over the remaining edges (the HRT algorithm greedily chooses edges and
    removes both endpoints).
    """
    if num_pairs <= 0 or len(pool) < 2:
        return []
    indices = np.array(sorted(pool), dtype=int)
    scores = reduced.array[np.ix_(indices, indices)].copy()
    # Only consider each unordered pair once and never a self-pair.
    scores[np.tril_indices(len(indices))] = -np.inf
    chosen: List[Tuple[Element, Element]] = []
    for _ in range(num_pairs):
        flat = int(np.argmax(scores))
        i, j = divmod(flat, scores.shape[1])
        if not np.isfinite(scores[i, j]):
            break
        chosen.append((int(indices[i]), int(indices[j])))
        scores[i, :] = -np.inf
        scores[:, i] = -np.inf
        scores[j, :] = -np.inf
        scores[:, j] = -np.inf
    return chosen


def gollapudi_sharma_greedy(
    objective: Objective,
    p: int,
    *,
    improved: bool = False,
) -> SolverResult:
    """Greedy A: reduction to dispersion + the HRT edge greedy.

    Parameters
    ----------
    objective:
        Must have a modular quality function (the reduction needs weights).
    p:
        Target cardinality.
    improved:
        When ``True`` and ``p`` is odd, the final singleton vertex is chosen
        to maximize the true objective rather than arbitrarily (the
        "improved Greedy A" of Table 3).
    """
    started = time.perf_counter()
    p = min(check_cardinality(p), objective.n)
    pool: List[Element] = list(range(objective.n))

    reduced = reduced_metric(objective)
    num_pairs = p // 2
    pairs = _edge_greedy_pairs(reduced, pool, num_pairs)

    selected: Set[Element] = set()
    order: List[Element] = []
    for u, v in pairs:
        for element in (u, v):
            selected.add(element)
            order.append(element)

    iterations = len(pairs)
    if len(selected) < p:
        remaining = [u for u in pool if u not in selected]
        if remaining:
            if improved:
                tracker = objective.make_tracker(selected)
                extra = max(
                    remaining,
                    key=lambda u: objective.marginal(u, selected, tracker=tracker),
                )
            else:
                # The paper notes Greedy A "chooses an arbitrary last vertex";
                # we take the lowest-index remaining candidate for determinism.
                extra = min(remaining)
            selected.add(extra)
            order.append(extra)
            iterations += 1

    elapsed = time.perf_counter() - started
    return build_result(
        objective,
        selected,
        order,
        algorithm="greedy_a_improved" if improved else "greedy_a",
        iterations=iterations,
        elapsed_seconds=elapsed,
        metadata={"p": p, "improved": improved, "pairs": pairs},
    )


def matching_diversify(objective: Objective, p: int) -> SolverResult:
    """Hassin–Rubinstein–Tamir matching algorithm through the GS reduction.

    Computes a maximum-weight matching with exactly ⌊p/2⌋ edges under the
    reduced metric ``d'`` and returns the matched vertices (plus a best final
    vertex when ``p`` is odd).  Achieves a (2 − 1/⌈p/2⌉)-approximation for
    modular quality.

    Needs :mod:`networkx` (for the maximum-weight matching), which the
    rest of the library does not: install it to use ``algorithm="matching"``.
    """
    import networkx as nx

    started = time.perf_counter()
    p = min(check_cardinality(p), objective.n)
    pool: List[Element] = list(range(objective.n))

    reduced = reduced_metric(objective)
    num_pairs = p // 2

    selected: Set[Element] = set()
    order: List[Element] = []
    iterations = 0

    if num_pairs > 0 and len(pool) >= 2:
        graph = nx.Graph()
        graph.add_nodes_from(pool)
        # Offset edge weights so maximum-weight matching prefers *more* edges
        # first, then heavier ones, which yields a maximum-weight matching of
        # maximum cardinality; we then keep the heaviest `num_pairs` edges.
        offset = (
            max(
                reduced.distance(u, v)
                for i, u in enumerate(pool)
                for v in pool[i + 1 :]
            )
            + 1.0
        )
        for i, u in enumerate(pool):
            for v in pool[i + 1 :]:
                graph.add_edge(u, v, weight=reduced.distance(u, v) + offset)
        matching = nx.max_weight_matching(graph, maxcardinality=True)
        scored = sorted(
            ((reduced.distance(u, v), tuple(sorted((u, v)))) for u, v in matching),
            reverse=True,
        )
        for _, (u, v) in scored[:num_pairs]:
            selected.update((u, v))
            order.extend((u, v))
            iterations += 1

    if len(selected) < p:
        remaining = [u for u in pool if u not in selected]
        if remaining:
            tracker = objective.make_tracker(selected)
            extra = max(
                remaining,
                key=lambda u: objective.marginal(u, selected, tracker=tracker),
            )
            selected.add(extra)
            order.append(extra)
            iterations += 1

    elapsed = time.perf_counter() - started
    return build_result(
        objective,
        selected,
        order,
        algorithm="matching",
        iterations=iterations,
        elapsed_seconds=elapsed,
        metadata={"p": p},
    )
