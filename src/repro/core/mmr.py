"""Maximal Marginal Relevance (MMR) baseline.

Carbonell and Goldstein's re-ranking heuristic (Section 2 of the paper):

``MMR = argmax_{u ∉ S} [ θ·rel(u) − (1 − θ)·max_{v ∈ S} sim(u, v) ]``

The paper positions its Greedy B as a theoretically justified relative of
MMR, so the library ships MMR as a baseline.  Relevance comes from the
quality function's singleton marginals and similarity is derived from the
metric by ``sim(u, v) = d_max − d(u, v)`` unless an explicit similarity matrix
is supplied.
"""

from __future__ import annotations

import time
from typing import List, Optional, Set

import numpy as np

from repro._types import Element
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import InvalidParameterError
from repro.utils.validation import check_cardinality, check_probability


def mmr_select(
    objective: Objective,
    p: int,
    *,
    theta: float = 0.5,
    similarity: Optional[np.ndarray] = None,
) -> SolverResult:
    """Select ``p`` elements with the MMR heuristic.

    Parameters
    ----------
    objective:
        Supplies relevance (singleton quality marginals) and, through its
        metric, the default similarity.
    p:
        Number of elements to select.
    theta:
        The MMR trade-off (the paper's λ in the MMR definition; renamed to
        avoid clashing with the diversification trade-off).  1.0 is pure
        relevance, 0.0 is pure novelty.
    similarity:
        Optional explicit ``n x n`` similarity matrix overriding the
        metric-derived one.
    """
    p = min(check_cardinality(p), objective.n)
    check_probability("theta", theta)
    if similarity is not None:
        similarity = np.asarray(similarity, dtype=float)
        if similarity.shape != (objective.n, objective.n):
            raise InvalidParameterError(
                "similarity matrix shape must match the universe size"
            )
    started = time.perf_counter()
    pool: List[Element] = list(range(objective.n))

    if similarity is None:
        matrix = objective.metric.to_matrix()
        top = float(matrix.max()) if matrix.size else 0.0
        similarity = top - matrix

    relevance = np.array(
        [objective.quality.marginal(u, frozenset()) for u in range(objective.n)],
        dtype=float,
    )

    selected: Set[Element] = set()
    order: List[Element] = []
    remaining = set(pool)
    iterations = 0

    while len(selected) < p and remaining:
        best_element = None
        best_score = -float("inf")
        for u in remaining:
            redundancy = (
                max(similarity[u, v] for v in selected) if selected else 0.0
            )
            score = theta * relevance[u] - (1.0 - theta) * redundancy
            if score > best_score or (
                score == best_score and (best_element is None or u < best_element)
            ):
                best_score = score
                best_element = u
        assert best_element is not None
        selected.add(best_element)
        order.append(best_element)
        remaining.discard(best_element)
        iterations += 1

    elapsed = time.perf_counter() - started
    return build_result(
        objective,
        selected,
        order,
        algorithm="mmr",
        iterations=iterations,
        elapsed_seconds=elapsed,
        metadata={"theta": theta, "p": p},
    )
