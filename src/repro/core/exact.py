"""Exact solvers for small instances.

Tables 1, 3, 4 and 8 report the true optimum ``OPT`` for moderate universes so
the observed approximation factors can be computed.  Two methods are
provided:

* ``method="enumerate"`` — plain enumeration of all ``C(n, p)`` subsets (or of
  all bases under a matroid constraint).
* ``method="branch_and_bound"`` (default for a cardinality constraint) — a
  depth-first search that maintains the running objective incrementally and
  prunes with an admissible upper bound.  The bound uses submodularity of the
  quality function (``f(S ∪ T) − f(S) ≤ Σ_{u∈T} f_u(S)``) plus a dispersion cap
  ``λ·C(r, 2)·d_max``, so it is exact for the monotone submodular quality
  functions the paper considers.

Both are exponential in the worst case and guarded by an explicit work limit.
"""

from __future__ import annotations

import time
from itertools import combinations
from math import comb
from typing import List, Optional

import numpy as np

from repro._types import Element
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import InvalidParameterError, SolverError
from repro.functions.modular import ZeroFunction
from repro.matroids.base import Matroid
from repro.metrics.base import Metric
from repro.utils.validation import check_cardinality

#: Refuse plain enumeration beyond this many candidate subsets.
DEFAULT_SUBSET_LIMIT = 5_000_000

#: Refuse branch-and-bound beyond this many search nodes.
DEFAULT_NODE_LIMIT = 50_000_000


def _enumerate_cardinality(
    objective: Objective, pool: List[Element], p: int, subset_limit: int
):
    total = comb(len(pool), p)
    if total > subset_limit:
        raise SolverError(
            f"brute force over {total} subsets exceeds the limit {subset_limit}"
        )
    best_set = frozenset()
    best_value = objective.value(frozenset())
    examined = 0
    for combo in combinations(sorted(pool), p):
        value = objective.value(combo)
        examined += 1
        if value > best_value:
            best_value = value
            best_set = frozenset(combo)
    return best_set, best_value, examined


def _branch_and_bound_cardinality(
    objective: Objective, pool: List[Element], p: int, node_limit: int
):
    """Depth-first search with incremental evaluation and an admissible bound."""
    quality = objective.quality
    lam = objective.tradeoff
    matrix = objective.metric.to_matrix()
    n = objective.n

    modular_weights: Optional[np.ndarray] = None
    if quality.is_modular:
        modular_weights = np.array(
            [quality.marginal(u, frozenset()) for u in range(n)], dtype=float
        )

    # Order candidates by singleton attractiveness so good solutions are found
    # early and the incumbent prunes aggressively.
    def singleton_score(u: Element) -> float:
        weight = (
            modular_weights[u]
            if modular_weights is not None
            else quality.marginal(u, frozenset())
        )
        return weight + lam * float(matrix[u, pool].sum()) / max(len(pool), 1)

    candidates = sorted(pool, key=singleton_score, reverse=True)
    index_of = {u: i for i, u in enumerate(candidates)}
    dmax = (
        float(matrix[np.ix_(candidates, candidates)].max())
        if len(candidates) > 1
        else 0.0
    )

    # Seed the incumbent with the greedy solution (cheap, usually excellent).
    from repro.core.greedy import greedy_diversify

    seed = greedy_diversify(objective, p)
    best_value = seed.objective_value
    best_set = set(seed.selected)

    margins = np.zeros(n, dtype=float)  # d_u(S) for the current partial S
    chosen: List[Element] = []
    examined = 0

    def quality_marginal(u: Element, members: frozenset) -> float:
        if modular_weights is not None:
            return float(modular_weights[u])
        return quality.marginal(u, members)

    def dfs(start: int, value: float, quality_value: float) -> None:
        nonlocal best_value, best_set, examined
        examined += 1
        if examined > node_limit:
            raise SolverError(
                f"branch-and-bound exceeded the node limit {node_limit}"
            )
        remaining_slots = p - len(chosen)
        if remaining_slots == 0:
            if value > best_value:
                best_value = value
                best_set = set(chosen)
            return
        tail = candidates[start:]
        if len(tail) < remaining_slots:
            return
        members = frozenset(chosen)
        # Admissible upper bound: best `remaining_slots` single-element gains
        # (valid for submodular quality) plus the largest possible pairwise
        # dispersion among the yet-to-be-chosen elements.
        gains = np.array(
            [quality_marginal(u, members) + lam * margins[u] for u in tail],
            dtype=float,
        )
        if remaining_slots < len(gains):
            top = np.partition(gains, -remaining_slots)[-remaining_slots:]
        else:
            top = gains
        bound = (
            value
            + float(top.sum())
            + lam * (remaining_slots * (remaining_slots - 1) / 2.0) * dmax
        )
        if bound <= best_value + 1e-12:
            return
        for offset, u in enumerate(tail):
            position = start + offset
            if len(candidates) - position < remaining_slots:
                break
            gain = quality_marginal(u, members) + lam * margins[u]
            chosen.append(u)
            margins_delta = matrix[u]
            margins[:] += margins_delta
            dfs(position + 1, value + gain, quality_value + gain - lam * margins[u])
            margins[:] -= margins_delta
            chosen.pop()

    dfs(0, 0.0, 0.0)
    return frozenset(best_set), best_value, examined


def exact_diversify(
    objective: Objective,
    p: Optional[int] = None,
    *,
    matroid: Optional[Matroid] = None,
    method: str = "auto",
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> SolverResult:
    """Exact maximization of ``φ`` under a cardinality or matroid constraint.

    Exactly one of ``p`` and ``matroid`` must be supplied.  ``method`` is one
    of ``"auto"``, ``"branch_and_bound"`` and ``"enumerate"``; matroid
    constraints always use enumeration of bases.
    """
    if (p is None) == (matroid is None):
        raise InvalidParameterError("supply exactly one of p and matroid")
    if method not in ("auto", "branch_and_bound", "enumerate"):
        raise InvalidParameterError(f"unknown exact method {method!r}")
    if matroid is not None and matroid.n != objective.n:
        raise InvalidParameterError("matroid and objective universes differ")
    started = time.perf_counter()
    pool: List[Element] = list(range(objective.n))

    if p is not None:
        p = min(check_cardinality(p), len(pool))
        use_bnb = method == "branch_and_bound" or (
            method == "auto" and p >= 2 and len(pool) > p
        )
        if use_bnb:
            best_set, _, examined = _branch_and_bound_cardinality(
                objective, pool, p, node_limit
            )
        else:
            best_set, _, examined = _enumerate_cardinality(
                objective, pool, p, subset_limit
            )
        metadata = {
            "p": p,
            "examined": examined,
            "method": "branch_and_bound" if use_bnb else "enumerate",
        }
    else:
        assert matroid is not None
        rank = matroid.rank()
        total = comb(len(pool), rank) if rank <= len(pool) else 0
        if total > subset_limit:
            raise SolverError(
                f"brute force over {total} candidate bases exceeds the limit {subset_limit}"
            )
        best_set = frozenset()
        best_value = objective.value(frozenset())
        examined = 0
        for basis in matroid.bases():
            value = objective.value(basis)
            examined += 1
            if value > best_value:
                best_value = value
                best_set = basis
        metadata = {"rank": rank, "examined": examined, "method": "enumerate_bases"}

    elapsed = time.perf_counter() - started
    return build_result(
        objective,
        best_set,
        sorted(best_set),
        algorithm="exact",
        iterations=metadata["examined"],
        elapsed_seconds=elapsed,
        metadata=metadata,
    )


def exact_dispersion(
    metric: Metric,
    p: int,
    *,
    method: str = "auto",
    subset_limit: int = DEFAULT_SUBSET_LIMIT,
) -> SolverResult:
    """Exact max-sum p-dispersion (the ``f ≡ 0`` special case)."""
    objective = Objective(ZeroFunction(metric.n), metric, tradeoff=1.0)
    return exact_diversify(objective, p, method=method, subset_limit=subset_limit)
