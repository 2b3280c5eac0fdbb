"""Oblivious single-swap local search (Section 5).

For an arbitrary matroid constraint the paper's local search:

1. initializes with a basis containing the feasible pair ``{x, y}`` maximizing
   ``f({x, y}) + λ·d(x, y)``,
2. while some swap ``S - v + u`` (``u ∉ S``, ``v ∈ S``, result independent)
   improves the objective, performs the best such swap.

Theorem 2 shows the locally optimal solution is a 2-approximation for
monotone submodular quality.  As the paper notes, requiring at least an
ε-relative improvement per swap bounds the number of iterations polynomially
at a ``2(1 + ε)`` style loss; :class:`LocalSearchConfig.epsilon` exposes that
knob.

:func:`refine_with_local_search` is the experiments' "LS": start from an
existing solution (Greedy B's output) under a uniform matroid and run
best-improvement swaps under a wall-clock budget expressed as a multiple of
the seed solution's running time (the paper uses 10×).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

import numpy as np

from repro._types import Element
from repro.core import kernels
from repro.core.control import RunControl
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import InfeasibleError, InvalidParameterError
from repro.matroids.base import Matroid
from repro.matroids.uniform import UniformMatroid
from repro.utils.deadline import Deadline, mark_interrupted


@dataclass(frozen=True)
class LocalSearchConfig:
    """Termination and improvement policy for the local search.

    Attributes
    ----------
    epsilon:
        Minimum relative improvement per swap: a swap is accepted only if it
        improves the objective by more than ``epsilon * |φ(S)| / n``.  0 means
        any improvement above floating-point noise
        (:data:`~repro.core.kernels.GAIN_TOLERANCE`) counts, the algorithm as
        stated in the paper.
    max_swaps:
        Hard cap on the number of accepted swaps (``None`` = unbounded).
    time_budget_seconds:
        Wall-clock budget (``None`` = unbounded).
    first_improvement:
        Accept the first improving swap found instead of the best one.
    """

    epsilon: float = 0.0
    max_swaps: Optional[int] = None
    time_budget_seconds: Optional[float] = None
    first_improvement: bool = False

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise InvalidParameterError("epsilon must be non-negative")
        if self.max_swaps is not None and self.max_swaps < 0:
            raise InvalidParameterError("max_swaps must be non-negative")
        if self.time_budget_seconds is not None and self.time_budget_seconds < 0:
            raise InvalidParameterError("time_budget_seconds must be non-negative")


def _extend_to_basis(
    objective: Objective, matroid: Matroid, start: Set[Element]
) -> Set[Element]:
    """``start`` extended to a basis, preferring high singleton quality.

    A start that is already a basis comes back unchanged.  Otherwise the
    preference is one batch of singleton gains ``f({u})``, highest first (a
    stable sort, so ties keep index order).
    """
    if len(start) == matroid.rank():
        return set(start)
    quality = objective.quality
    singles = quality.gains(np.arange(matroid.n), quality.gain_state())
    preference = np.argsort(-singles, kind="stable").tolist()
    return set(matroid.extend_to_basis(start, preference=preference))


def _initial_basis(objective: Objective, matroid: Matroid) -> Set[Element]:
    """The paper's initialization: best feasible pair extended to a basis."""
    rank = matroid.rank()
    if rank == 0:
        return set()
    if rank == 1:
        best = max(
            (u for u in range(matroid.n) if matroid.is_independent({u})),
            key=lambda u: objective.value({u}),
            default=None,
        )
        if best is None:
            raise InfeasibleError("matroid has rank 1 but no independent singleton")
        return {best}
    move = kernels.pair_argmax(
        objective,
        kernels.modular_weights(objective.quality),
        range(matroid.n),
        mask=matroid.pair_feasibility_mask(),
    )
    if move is None:
        raise InfeasibleError("no independent pair exists in the matroid")
    return _extend_to_basis(objective, matroid, {move[0], move[1]})


def _run_swaps(
    objective: Objective,
    matroid: Matroid,
    selected: Set[Element],
    config: LocalSearchConfig,
    started: float,
    swap_trace: List[Tuple[Element, Element, float]],
    deadline: Optional[Deadline] = None,
) -> Tuple[int, bool]:
    """Perform improving swaps in place; return the number of swaps accepted.

    Each iteration runs one :func:`~repro.core.kernels.best_swap_scan` with
    the tracker's distance marginals and accepts only a swap better than the
    ε-threshold of :class:`LocalSearchConfig` (and than
    :data:`~repro.core.kernels.GAIN_TOLERANCE`).

    Returns ``(swaps accepted, interrupted)`` — ``interrupted`` is ``True``
    only when a cooperative ``deadline`` expired; the config's own time
    budget counts as ordinary (non-interrupted) termination, matching the
    existing ``converged`` metadata contract.
    """
    swaps = 0
    interrupted = False
    tracker = objective.make_tracker(selected)
    current_value = objective.value(selected)
    weights = kernels.modular_weights(objective.quality)

    while True:
        if config.max_swaps is not None and swaps >= config.max_swaps:
            break
        if deadline is not None and deadline.expired():
            interrupted = True
            break
        if (
            config.time_budget_seconds is not None
            and time.perf_counter() - started > config.time_budget_seconds
        ):
            break
        threshold = config.epsilon * abs(current_value) / max(objective.n, 1)
        move, _ = kernels.best_swap_scan(
            objective,
            selected,
            tracker.marginals_view(),
            weights=weights,
            matroid=matroid,
            threshold=threshold,
            first_improvement=config.first_improvement,
        )
        if move is None:
            break
        incoming, outgoing, best_gain = move
        selected.remove(outgoing)
        selected.add(incoming)
        tracker.swap(incoming, outgoing)
        current_value += best_gain
        swap_trace.append((incoming, outgoing, best_gain))
        swaps += 1
    return swaps, interrupted


def local_search_diversify(
    objective: Objective,
    matroid: Matroid,
    *,
    config: Optional[LocalSearchConfig] = None,
    initial: Optional[Iterable[Element]] = None,
    control: Optional[RunControl] = None,
) -> SolverResult:
    """Run the single-swap local search under a matroid constraint.

    The search runs over the whole ground set of ``objective``.  To search a
    candidate pool, take ``r = objective.restrict(pool)``, run on
    ``r.objective`` under ``matroid.restrict(r.candidates)`` (with
    ``initial`` mapped by ``r.to_local``) and ``r.lift`` the result, which
    is what :func:`~repro.core.solver.solve` does with ``candidates=``.

    Parameters
    ----------
    objective:
        The combined objective ``φ``.
    matroid:
        The independence constraint.  The returned set is a basis.
    config:
        Termination policy (defaults to pure best-improvement until a local
        optimum, as in Theorem 2).
    initial:
        Optional independent set to start from instead of the paper's
        best-pair initialization.  It is extended to a basis first.
    control:
        Optional :class:`~repro.core.control.RunControl`.  Its deadline is
        checked before every swap scan (swaps preserve independence, so the
        current basis is feasible); checkpoint fields raise.
    """
    config = config or LocalSearchConfig()
    control = RunControl.coerce(control).check("local_search")
    if matroid.n != objective.n:
        raise InvalidParameterError(
            f"matroid covers {matroid.n} elements but the objective covers "
            f"{objective.n}"
        )
    started = time.perf_counter()
    deadline = control.deadline
    if initial is None:
        selected = _initial_basis(objective, matroid)
    else:
        initial_set = set(initial)
        if not matroid.is_independent(initial_set):
            raise InvalidParameterError(
                "initial set must be independent in the matroid"
            )
        selected = _extend_to_basis(objective, matroid, initial_set)

    swap_trace: List[Tuple[Element, Element, float]] = []
    swaps, interrupted = _run_swaps(
        objective, matroid, selected, config, started, swap_trace, deadline
    )
    elapsed = time.perf_counter() - started
    metadata = {
        "swaps": swap_trace,
        "epsilon": config.epsilon,
        "converged": (
            not interrupted
            and (config.max_swaps is None or swaps < config.max_swaps)
            and (
                config.time_budget_seconds is None
                or elapsed <= config.time_budget_seconds
            )
        ),
    }
    if interrupted:
        mark_interrupted(metadata, deadline, "local_search_swaps")
    return build_result(
        objective,
        selected,
        sorted(selected),
        algorithm="local_search",
        iterations=swaps,
        elapsed_seconds=elapsed,
        metadata=metadata,
    )


def refine_with_local_search(
    objective: Objective,
    seed_result: SolverResult,
    *,
    p: Optional[int] = None,
    time_budget_multiple: float = 10.0,
    min_budget_seconds: float = 0.01,
    config: Optional[LocalSearchConfig] = None,
    control: Optional[RunControl] = None,
) -> SolverResult:
    """The experiments' "LS": swap-refine a greedy solution under a time budget.

    Parameters
    ----------
    objective:
        The objective the seed was computed for.
    seed_result:
        Typically the output of :func:`repro.core.greedy.greedy_diversify`.
    p:
        Cardinality of the uniform-matroid constraint (defaults to the seed's
        size).
    time_budget_multiple:
        Wall-clock budget as a multiple of the seed's running time (the paper
        runs LS for at most 10× the Greedy B time).
    min_budget_seconds:
        Lower bound on the budget so very fast greedy runs still allow a few
        swaps.
    config:
        Optional base configuration; its time budget is overridden.
    control:
        Optional :class:`~repro.core.control.RunControl`, as for
        :func:`local_search_diversify`.
    """
    deadline = RunControl.coerce(control).check("local_search").deadline
    if time_budget_multiple < 0:
        raise InvalidParameterError("time_budget_multiple must be non-negative")
    cardinality = p if p is not None else seed_result.size
    matroid = UniformMatroid(objective.n, cardinality)
    budget = max(seed_result.elapsed_seconds * time_budget_multiple, min_budget_seconds)
    base = config or LocalSearchConfig()
    refined_config = LocalSearchConfig(
        epsilon=base.epsilon,
        max_swaps=base.max_swaps,
        time_budget_seconds=budget,
        first_improvement=base.first_improvement,
    )
    started = time.perf_counter()
    selected = set(seed_result.selected)
    swap_trace: List[Tuple[Element, Element, float]] = []
    swaps, interrupted = _run_swaps(
        objective, matroid, selected, refined_config, started, swap_trace, deadline
    )
    elapsed = time.perf_counter() - started
    metadata = {
        "seed_algorithm": seed_result.algorithm,
        "seed_value": seed_result.objective_value,
        "budget_seconds": budget,
        "swaps": swap_trace,
    }
    if interrupted:
        mark_interrupted(metadata, deadline, "local_search_refine")
    return build_result(
        objective,
        selected,
        sorted(selected),
        algorithm="local_search_refine",
        iterations=swaps,
        elapsed_seconds=elapsed,
        metadata=metadata,
    )
