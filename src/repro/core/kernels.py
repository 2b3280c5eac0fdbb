"""Array kernels: the one code path of every pair and swap scan.

Greedy B's best-pair start, the local-search initial pair, the streaming
arrival rule and :func:`best_swap_scan` — the one swap scan of local search,
the Section 6 update rules and the dynamic engine's repair — each run once,
as array programs, for every metric and every quality function:

* **distances** come from :meth:`~repro.metrics.base.Metric.block` — an
  ``np.ix_`` slice for a :class:`~repro.metrics.matrix.DistanceMatrix`, a
  chunked array computation for feature metrics, and the base default built
  from :meth:`~repro.metrics.base.Metric.distances_from` for pure oracles;
* **quality** comes from :func:`quality_gains`, the one place the
  modular-or-protocol choice is made: the weight vector when
  :func:`modular_weights` returns one, otherwise the protocol's
  :meth:`~repro.functions.base.SetFunction.pair_gains` and
  :meth:`~repro.functions.base.SetFunction.swap_gains` (of
  :mod:`repro.functions.base`), which each family answers as one array pass
  or through the protocol's loop defaults;
* **feasibility** comes from the matroid's
  :meth:`~repro.matroids.base.Matroid.swap_feasibility` and
  :meth:`~repro.matroids.base.Matroid.pair_feasibility_mask` masks.

The key identities (paper Sections 4–6):

* pair score  ``f({x, y}) + λ·d(x, y)``
* swap gain   ``φ(S − v + u) − φ(S)
              = [f(S − v + u) − f(S)] + λ·((d_u(S) − d(u, v)) − d_v(S))``

Each scan is a masked argmax over the corresponding score matrix.  The loop
formulations these kernels replace live on in :mod:`repro.testing.reference`
as test oracles.
"""

from __future__ import annotations

import math
import warnings

from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError, NumericalDegradationWarning
from repro.functions.base import GainState, SetFunction
from repro.functions.modular import ModularFunction

__all__ = [
    "PAIR_ROW_CHUNK",
    "modular_weights",
    "hoist_modular_weights",
    "weights_view_of",
    "quality_gains",
    "solution_split",
    "set_margins",
    "best_addition_scan",
    "pair_argmax",
    "swap_gain_matrix",
    "best_swap_scan_from_gains",
    "best_swap_scan",
    "GAIN_TOLERANCE",
]

#: Pool rows scored per block by :func:`pair_argmax`.  Bounds the pair
#: working set at ``PAIR_ROW_CHUNK × |pool|`` floats (distance block plus
#: quality block) however large the pool is.
PAIR_ROW_CHUNK = 32

#: Swap gains within this of zero are floating-point noise: no swap scan
#: accepts a smaller gain, so tied solutions never trade places on rounding
#: error, and the dynamic engine's no-swap certificate needs every swap-gain
#: bound at least this far below zero.
GAIN_TOLERANCE = 1e-9


def weights_view_of(quality: SetFunction) -> Optional[np.ndarray]:
    """``quality.weights_view()``, tolerant of instances that hide the hook.

    ``weights_view`` lives on the :class:`SetFunction` base, but subclasses
    (and tests) may mask it with a plain ``None`` attribute to opt out of the
    array fast path; anything non-callable means "no view".
    """
    accessor = getattr(quality, "weights_view", None)
    return accessor() if callable(accessor) else None


def modular_weights(quality: SetFunction) -> Optional[np.ndarray]:
    """Return the weight vector of a modular quality function, else ``None``.

    For a modular ``f``, ``f(S) = Σ_{u ∈ S} w(u)`` with
    ``w(u) = f({u})``; the kernels consume ``w`` directly instead of calling
    the value oracle per element per scan.  Families exposing a
    ``weights_view`` accessor (:class:`~repro.functions.modular.ModularFunction`,
    :class:`~repro.functions.modular.ZeroFunction`) return it in O(1);
    other modular functions (e.g. modular mixtures) pay one oracle sweep per
    call, so per-arrival hot paths should cache the result.
    """
    if not quality.is_modular:
        return None
    view = weights_view_of(quality)
    if view is not None:
        return view
    return np.fromiter(
        (quality.marginal(u, frozenset()) for u in range(quality.n)),
        dtype=float,
        count=quality.n,
    )


def hoist_modular_weights(quality: SetFunction) -> SetFunction:
    """``quality``, or a ``ModularFunction`` over its weights when it is a
    view-less modular family that would pay one O(n) oracle sweep per query.
    """
    if not quality.is_modular or weights_view_of(quality) is not None:
        return quality
    try:
        return ModularFunction(modular_weights(quality))
    except InvalidParameterError:
        return quality


def quality_gains(
    quality: Optional[SetFunction],
    weights: Optional[np.ndarray],
    incoming: Iterable[Element],
    anchors: Iterable[Element],
    *,
    state: Optional[GainState] = None,
) -> np.ndarray:
    """Quality part ``Q[i, j]`` of the pair and swap scores.

    * **Pair scores** (``state`` omitted):
      ``Q[i, j] = f({incoming[i], anchors[j]})`` — ``w(u) + w(x)`` for
      modular quality, :meth:`~repro.functions.base.SetFunction.pair_gains`
      otherwise.
    * **Swap scores** (``state`` a gain state of the solution ``S``):
      ``Q[i, j] = f(S − anchors[j] + incoming[i]) − f(S)`` — ``w(u) − w(v)``
      for modular quality, :meth:`~repro.functions.base.SetFunction.swap_gains`
      otherwise.  What the family derives from ``S`` is cached on ``state``,
      so repeated scans against an unchanged ``S`` reuse it.

    ``weights`` is :func:`modular_weights` of ``quality`` (``None`` selects
    the protocol); with ``weights`` given ``quality`` is never consulted and
    any :class:`~repro.functions.base.GainState` of ``S`` marks a swap.
    """
    incoming = np.asarray(incoming, dtype=int)
    anchors = np.asarray(anchors, dtype=int)
    if weights is not None:
        if state is None:
            return weights[incoming][:, None] + weights[anchors][None, :]
        return weights[incoming][:, None] - weights[anchors][None, :]
    if state is None:
        return quality.pair_gains(incoming, anchors)
    return quality.swap_gains(state, incoming, anchors)


def solution_split(
    n: int, solution: Iterable[Element]
) -> Tuple[np.ndarray, np.ndarray]:
    """Split the universe into sorted ``(inside, outside)`` index arrays.

    ``inside`` are the members of ``solution`` and ``outside`` everything
    else; both ascending, which fixes the deterministic tie-breaking order of
    the swap scans.
    """
    inside = np.fromiter(sorted(solution), dtype=int)
    outside_mask = np.ones(n, dtype=bool)
    outside_mask[inside] = False
    outside = np.nonzero(outside_mask)[0]
    return inside, outside


def set_margins(matrix: np.ndarray, members: Iterable[Element]) -> np.ndarray:
    """Compute ``margins[u] = d_u(S)`` for every ``u`` with one column sum."""
    idx = np.fromiter(members, dtype=int)
    if idx.size == 0:
        return np.zeros(matrix.shape[0], dtype=float)
    return matrix[:, idx].sum(axis=1)


def best_addition_scan(
    weights: np.ndarray,
    tradeoff: float,
    margins: np.ndarray,
    candidates: np.ndarray,
) -> Optional[Tuple[Element, float]]:
    """Best element to *add* by true marginal ``w(u) + λ·d_u(S)``.

    The refill primitive of the dynamic engine: after a solution member is
    deleted, the replacement maximizing the true marginal is one masked
    argmax over the candidate pool (``margins`` must be synchronized with the
    current solution).  Returns ``(element, marginal)`` or ``None`` on an
    empty pool.  Ties resolve to the lowest candidate in ``candidates``
    order, matching the reference argmax loops.
    """
    idx = np.asarray(candidates, dtype=int)
    if idx.size == 0:
        return None
    scores = weights[idx] + tradeoff * margins[idx]
    i = int(np.argmax(scores))
    return int(idx[i]), float(scores[i])


def pair_argmax(
    objective,
    weights: Optional[np.ndarray],
    pool: Sequence[Element],
    *,
    mask: Optional[np.ndarray] = None,
) -> Optional[Tuple[Element, Element, float]]:
    """Best pair ``{x, y}`` by ``f({x, y}) + λ·d(x, y)`` over ``pool``.

    Only the upper triangle in *pool order* is scored, in blocks of
    :data:`PAIR_ROW_CHUNK` rows, and ties resolve to the first pair in
    row-major order — the pair the reference double loop picks.  ``weights``
    is :func:`modular_weights` of the objective's quality (``None`` scores
    pairs through the gain protocol).  ``mask``, when given, is an
    additional boolean feasibility matrix aligned with ``pool`` (e.g. a
    matroid's :meth:`~repro.matroids.base.Matroid.pair_feasibility_mask`).
    Returns ``(x, y, score)``, or ``None`` when no admissible pair exists.
    """
    idx = np.asarray(pool, dtype=int)
    best: Optional[Tuple[Element, Element, float]] = None
    for start in range(0, idx.size - 1, PAIR_ROW_CHUNK):
        stop = min(start + PAIR_ROW_CHUNK, idx.size - 1)
        rows, cols = idx[start:stop], idx[start + 1 :]
        scores = quality_gains(objective.quality, weights, cols, rows).T
        scores = scores + objective.tradeoff * objective.metric.block(rows, cols)
        # Row r sits at pool position start + r and column c at start + 1 + c,
        # so the strict upper triangle is c >= r.
        admissible = np.arange(cols.size)[None, :] >= np.arange(rows.size)[:, None]
        if mask is not None:
            admissible &= mask[start:stop, start + 1 :]
        if not admissible.any():
            continue
        scores = np.where(admissible, scores, -np.inf)
        i, j = divmod(int(np.argmax(scores)), cols.size)
        if best is None or scores[i, j] > best[2]:
            best = (int(rows[i]), int(cols[j]), float(scores[i, j]))
    return best


def swap_gain_matrix(
    quality_gain: np.ndarray,
    cross: np.ndarray,
    tradeoff: float,
    margins: np.ndarray,
    incoming: np.ndarray,
    outgoing: np.ndarray,
) -> np.ndarray:
    """Gain matrix ``G[i, j] = φ(S − outgoing[j] + incoming[i]) − φ(S)``.

    ``quality_gain`` is the swap-score output of :func:`quality_gains` and
    ``cross`` the distance block ``d(incoming[i], outgoing[j])``; the
    distance part is the O(1)-per-entry identity
    ``(d_in(S) − d(in, out)) − d_out(S)`` with the marginals ``d_·(S)``
    supplied by the caller (a tracker view or :func:`set_margins`).
    """
    distance_gain = (margins[incoming][:, None] - cross) - margins[outgoing][None, :]
    return quality_gain + tradeoff * distance_gain


def best_swap_scan_from_gains(
    gains: np.ndarray,
    incoming: np.ndarray,
    outgoing: np.ndarray,
    *,
    feasible: Optional[np.ndarray] = None,
    threshold: float = 0.0,
    first_improvement: bool = False,
) -> Optional[Tuple[Element, Element, float]]:
    """Select the accepted swap from a precomputed gain matrix.

    The best (or, with ``first_improvement``, the first row-major)
    admissible entry strictly exceeding ``threshold``, or ``None``.
    ``feasible`` is an optional boolean matrix of allowed swaps (all allowed
    when omitted).

    NaN gains (a poisoned oracle slipping past construction checks) would
    otherwise hijack ``argmax`` — NaN wins every comparison there — and then
    fail the ``best > threshold`` test, silently ending the search.  The scan
    guards the selected entry only (O(1) on the clean path): when it is NaN,
    a :class:`~repro.exceptions.NumericalDegradationWarning` is issued, NaN
    entries are masked to ``-inf`` and the argmax is retaken.
    """
    if first_improvement:
        improving = gains > threshold
        if feasible is not None:
            improving &= feasible
        hits = np.argwhere(improving)
        if hits.shape[0] == 0:
            return None
        i, j = hits[0]
        return int(incoming[i]), int(outgoing[j]), float(gains[i, j])
    if feasible is not None:
        gains = np.where(feasible, gains, -np.inf)
    flat = int(np.argmax(gains))
    i, j = divmod(flat, outgoing.size)
    best = float(gains[i, j])
    if math.isnan(best):
        warnings.warn(
            "swap scan found NaN gains; masking them and rescanning",
            NumericalDegradationWarning,
            stacklevel=2,
        )
        gains = np.where(np.isnan(gains), -np.inf, gains)
        flat = int(np.argmax(gains))
        i, j = divmod(flat, outgoing.size)
        best = float(gains[i, j])
    if not best > threshold:
        return None
    return int(incoming[i]), int(outgoing[j]), best


def best_swap_scan(
    objective,
    selected: Iterable[Element],
    margins: np.ndarray,
    *,
    weights: Optional[np.ndarray],
    matroid=None,
    threshold: float = 0.0,
    first_improvement: bool = False,
) -> Tuple[Optional[Tuple[Element, Element, float]], np.ndarray]:
    """One best-swap scan of ``selected``: a masked argmax over all swaps.

    The gain matrix is :func:`swap_gain_matrix` over one
    :meth:`~repro.metrics.base.Metric.block` of cross distances, the
    caller's distance marginals ``margins[u] = d_u(S)`` and the quality part
    of :func:`quality_gains` (``weights``, or ``swap_gains`` against a gain
    state of ``S``), masked by ``matroid.swap_feasibility`` when a matroid
    is given.  The accepted swap is the best (with ``first_improvement``,
    the first row-major) entry above both ``threshold`` and
    :data:`GAIN_TOLERANCE`.

    Returns ``(move, gains)``: ``(incoming, outgoing, gain)`` or ``None``,
    and the unmasked outside × inside gain matrix (empty when either side
    is).
    """
    inside, outside = solution_split(objective.n, selected)
    if inside.size == 0 or outside.size == 0:
        return None, np.empty((outside.size, inside.size))
    quality_gain = quality_gains(
        objective.quality,
        weights,
        outside,
        inside,
        state=objective.make_quality_state(selected),
    )
    gains = swap_gain_matrix(
        quality_gain,
        objective.metric.block(outside, inside),
        objective.tradeoff,
        margins,
        outside,
        inside,
    )
    feasible = (
        None if matroid is None else matroid.swap_feasibility(selected, outside, inside)
    )
    move = best_swap_scan_from_gains(
        gains,
        outside,
        inside,
        feasible=feasible,
        threshold=max(threshold, GAIN_TOLERANCE),
        first_improvement=first_improvement,
    )
    return move, gains
