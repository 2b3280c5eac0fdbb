"""Greedy B — the paper's non-oblivious greedy algorithm (Section 4).

The algorithm builds ``S`` one vertex at a time, always adding the element
maximizing the potential

``φ'_u(S) = ½·f_u(S) + λ·d_u(S)``

rather than the true objective marginal ``φ_u(S) = f_u(S) + λ·d_u(S)``.
Halving the quality marginal is what makes Theorem 1's charging argument work
and yields a 2-approximation for any normalized monotone submodular ``f``
under a cardinality constraint.

Two starting rules are provided:

* ``start="potential"`` (default) — the algorithm exactly as stated in the
  paper: the first element also maximizes ``φ'_u(∅) = ½·f_u(∅)``.
* ``start="best_pair"`` — the "improved Greedy B" of Table 3, which seeds the
  solution with the pair maximizing ``f({x, y}) + λ·d(x, y)``.

The optional ``oblivious=True`` switch replaces the potential by the true
marginal; it is *not* covered by Theorem 1 and exists for the ablation bench.
"""

from __future__ import annotations

import time

import numpy as np

from typing import List, Optional, Set

from repro._types import Element
from repro.core import kernels
from repro.core.checkpoint import SolveCheckpoint
from repro.core.control import RunControl
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import InvalidParameterError
from repro.obs.instrument import maybe_span, maybe_start_span
from repro.utils.deadline import mark_interrupted
from repro.utils.validation import check_cardinality

#: Number of top stale candidates re-evaluated per CELF round.  Batching
#: amortizes the fixed cost of a gains call; the overshoot per selection step
#: is bounded by one batch.
_LAZY_BATCH = 8


def greedy_diversify(
    objective: Objective,
    p: int,
    *,
    start: str = "potential",
    oblivious: bool = False,
    lazy: Optional[bool] = None,
    control: Optional[RunControl] = None,
) -> SolverResult:
    """Run Greedy B for the cardinality-constrained problem.

    Parameters
    ----------
    objective:
        The combined objective ``φ``.
    p:
        Target cardinality ``|S| = p`` (values larger than ``objective.n``
        are clamped to it).  To select from a pool, run on
        ``objective.restrict(pool).objective`` and
        :meth:`~repro.core.restriction.Restriction.lift` the result, or call
        :func:`~repro.core.solver.solve` with ``candidates=``, which also
        binds checkpoints to the pool.
    start:
        ``"potential"`` (the paper's algorithm) or ``"best_pair"`` (the
        improved variant of Table 3).
    oblivious:
        When ``True``, greedily maximize the true marginal ``φ_u(S)`` instead
        of the non-oblivious potential.  Provided for the ablation study; the
        2-approximation proof does not apply to it.
    lazy:
        CELF lazy evaluation for non-modular quality (the modular path has
        its own O(1)-per-candidate kernel and ignores this flag).  Default
        ``None`` enables laziness exactly when the quality declares itself
        submodular — the property that makes stale quality gains valid upper
        bounds.  ``False`` forces the plain batched evaluation (every
        candidate re-scored each iteration); ``True`` forces laziness for
        functions whose submodularity the caller vouches for.
    control:
        Optional :class:`~repro.core.control.RunControl`, honoured in full.
        The deadline is checked once per selection step (every prefix is
        feasible); a ``kind="greedy"`` checkpoint records the selection order
        and a resume replays it as the prefix.  A trace records
        ``gain_state`` and ``greedy_rounds`` spans.

    Returns
    -------
    SolverResult
        The selected set, its objective decomposition and the insertion order.
    """
    started = time.perf_counter()
    control = RunControl.coerce(control)
    deadline, trace = control.deadline, control.trace
    on_checkpoint, checkpoint_every = control.on_checkpoint, control.checkpoint_every
    n = objective.n
    p = min(check_cardinality(p), n)
    if start not in ("potential", "best_pair"):
        raise InvalidParameterError(f"unknown start rule {start!r}")

    algorithm = "greedy_b_oblivious" if oblivious else "greedy_b"
    if start == "best_pair":
        algorithm += "_bestpair"

    selected: Set[Element] = set()
    order: List[Element] = []
    with maybe_span(trace, "gain_state", kind="tracker"):
        tracker = objective.make_tracker()
    remaining = set(range(n))
    iterations = 0
    interrupted = False

    quality = objective.quality
    weights = kernels.modular_weights(quality)
    fingerprint = control.fingerprint("greedy", n, objective.tradeoff)
    resume_from = control.resume("greedy", n, fingerprint)
    seeded: List[Element] = []
    if resume_from is not None:
        seeded = list(resume_from.order)[:p]
    elif start == "best_pair" and p >= 2 and n >= 2:
        if deadline is not None and deadline.expired():
            interrupted = True
        else:
            # The improved start: the pair maximizing f({x, y}) + λ·d(x, y).
            x, y, _ = kernels.pair_argmax(objective, weights, range(n))
            seeded = [x, y]
            iterations += 1
    for element in seeded:
        selected.add(element)
        order.append(element)
        tracker.add(element)
        remaining.discard(element)

    quality_scale = 1.0 if oblivious else 0.5
    penalty = np.full(n, -np.inf)
    penalty[list(remaining)] = 0.0

    # Fast path for modular quality: the potential of every candidate is
    # ``scale·w(u) + λ·d_u(S)`` with the distance marginals maintained by the
    # tracker, so each iteration is one vectorized argmax over the universe
    # (the O(np) total running time discussed after Theorem 1).  The marginals
    # are read through the tracker's copy-free view and already-selected
    # elements carry a -inf penalty, so no O(n) allocation happens inside the
    # loop.  (Candidate pools never reach this code: they are re-indexed into
    # a dense sub-universe by the restriction layer above.)
    scaled_weights = None
    if weights is not None:
        scaled_weights = quality_scale * weights
        scores = np.empty(n, dtype=float)
    else:
        # Submodular fast path: quality gains served by the stateful batched
        # marginal-gain protocol, distance gains by the tracker view.  With
        # ``use_lazy`` the loop is CELF: quality gains computed in iteration
        # one stay valid *upper bounds* afterwards (submodularity), so each
        # later iteration re-evaluates candidates lazily in upper-bound order
        # until the argmax is fresh — typically a handful of evaluations
        # instead of all of ``remaining``.  The distance term is supermodular
        # (stale values would *under*-estimate), so the upper-bound vector is
        # rebuilt every iteration from the exact tracker marginals; only the
        # quality term is ever stale.
        use_lazy = lazy if lazy is not None else quality.declares_submodular
        with maybe_span(trace, "gain_state", kind="quality"):
            state = objective.make_quality_state(selected)
        quality_gains = np.zeros(n, dtype=float)
        eval_iteration = np.full(n, 0, dtype=np.int64)
        margins = tracker.marginals_view()
        selection_step = 0
        evaluations = 0
        evaluations_after_first = 0
        candidates_after_first = 0

    # Explicit-start span (the loop has `break` exits and the CELF counters
    # only exist at the end); ``finish`` is idempotent, so the no-trace path
    # costs one attribute check per solve.
    rounds = maybe_start_span(trace, "greedy_rounds")
    while len(selected) < p and remaining and not interrupted:
        if deadline is not None and deadline.expired():
            interrupted = True
            break
        if scaled_weights is not None:
            np.multiply(tracker.marginals_view(), objective.tradeoff, out=scores)
            scores += scaled_weights
            scores += penalty
            best_element = int(np.argmax(scores))
        else:
            selection_step += 1
            if selection_step > 1:
                candidates_after_first += len(remaining)
            if not use_lazy or selection_step == 1:
                remaining_idx = np.nonzero(np.isfinite(penalty))[0]
                quality_gains[remaining_idx] = objective.quality_gains(
                    remaining_idx, state
                )
                eval_iteration[remaining_idx] = selection_step
                evaluations += remaining_idx.size
                if selection_step > 1:
                    evaluations_after_first += remaining_idx.size
            scores = quality_scale * quality_gains + objective.tradeoff * margins
            scores += penalty
            while True:
                best_element = int(np.argmax(scores))
                if eval_iteration[best_element] == selection_step:
                    break
                # Re-evaluate the top stale candidates in one protocol batch:
                # the stale argmax is guaranteed to be among them (it is the
                # global score maximum), so every round makes progress, and
                # batching amortizes the per-call cost of tiny gains batches.
                stale_scores = np.where(
                    eval_iteration < selection_step, scores, -np.inf
                )
                if n > _LAZY_BATCH:
                    top = np.argpartition(stale_scores, -_LAZY_BATCH)[-_LAZY_BATCH:]
                else:
                    top = np.arange(n)
                top = top[np.isfinite(stale_scores[top])]
                fresh = quality.gains(top, state)
                quality_gains[top] = fresh
                eval_iteration[top] = selection_step
                evaluations += top.size
                evaluations_after_first += top.size
                scores[top] = (
                    quality_scale * fresh + objective.tradeoff * margins[top]
                )
            quality.push(state, best_element)
        selected.add(best_element)
        order.append(best_element)
        tracker.add(best_element)
        remaining.discard(best_element)
        penalty[best_element] = -np.inf
        iterations += 1
        if on_checkpoint is not None and len(order) % checkpoint_every == 0:
            on_checkpoint(
                SolveCheckpoint(
                    kind="greedy",
                    n=n,
                    p=p,
                    order=tuple(order),
                    elapsed_seconds=time.perf_counter() - started,
                    metadata={"algorithm": algorithm},
                    fingerprint=fingerprint,
                )
            )

    rounds.set(iterations=iterations, interrupted=interrupted)
    if scaled_weights is None:
        rounds.set(lazy=use_lazy, quality_evaluations=evaluations)
    rounds.finish()

    metadata = {"start": start, "oblivious": oblivious, "p": p}
    if resume_from is not None:
        metadata["resumed_at"] = len(seeded)
    if interrupted:
        mark_interrupted(metadata, deadline, "greedy_selection")
    if scaled_weights is None:
        if getattr(state, "degraded", False):
            # A numerical fast path (e.g. the log-det Cholesky state) broke
            # down mid-solve and fell back to oracle gains; surface it.
            metadata["degraded"] = True
            metadata["degradation"] = "quality_gain_state"
        metadata["celf"] = {
            "lazy": use_lazy,
            "quality_evaluations": evaluations,
            "evaluations_after_first": evaluations_after_first,
            "celf_fraction": (
                evaluations_after_first / candidates_after_first
                if candidates_after_first
                else 0.0
            ),
        }

    elapsed = time.perf_counter() - started
    return build_result(
        objective,
        selected,
        order,
        algorithm=algorithm,
        iterations=iterations,
        elapsed_seconds=elapsed,
        metadata=metadata,
    )
