"""The max-sum diversification objective ``φ(S) = f(S) + λ·d(S)``.

:class:`Objective` bundles a quality function, a metric and the trade-off
parameter λ, and exposes both the *true* marginal gain

``φ_u(S) = f_u(S) + λ·d_u(S)``

and the paper's *non-oblivious* potential marginal (the quantity Greedy B
maximizes)

``φ'_u(S) = ½·f_u(S) + λ·d_u(S)``.

Keeping the two explicit makes it possible to test Theorem 1's mechanics and
to run the ablation comparing the non-oblivious greedy against the oblivious
one.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.core.kernels import weights_view_of
from repro.functions.base import Candidates, GainState, SetFunction
from repro.metrics.aggregates import (
    MarginalDistanceTracker,
    marginal_distance,
    set_distance,
)
from repro.metrics.base import Metric
from repro.utils.validation import check_finite_array, check_tradeoff


class Objective:
    """The combined quality + dispersion objective of Problem 2.

    Parameters
    ----------
    quality:
        The set function ``f`` (normalized, monotone; submodular for the
        guarantees of Theorems 1 and 2 to apply).
    metric:
        The distance structure ``d``.
    tradeoff:
        The parameter λ ≥ 0 weighting the dispersion term.
    """

    def __init__(self, quality: SetFunction, metric: Metric, tradeoff: float) -> None:
        if quality.n != metric.n:
            raise InvalidParameterError(
                f"quality function covers {quality.n} elements but the metric "
                f"covers {metric.n}"
            )
        self._quality = quality
        self._metric = metric
        self._tradeoff = check_tradeoff("tradeoff", float(tradeoff))
        # O(n) finiteness gate on modular weight views: cheap relative to any
        # solve, and it catches NaN/inf planted in a weight vector that was
        # built outside the validating ModularFunction constructor.  The
        # O(n²) metric arrays are validated by their own constructors.
        weights = weights_view_of(quality)
        if weights is not None:
            check_finite_array("quality weights", weights)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Size of the ground set."""
        return self._metric.n

    @property
    def quality(self) -> SetFunction:
        """The quality function ``f``."""
        return self._quality

    @property
    def metric(self) -> Metric:
        """The metric ``d``."""
        return self._metric

    @property
    def tradeoff(self) -> float:
        """The trade-off parameter λ."""
        return self._tradeoff

    # ------------------------------------------------------------------
    # Set evaluations
    # ------------------------------------------------------------------
    def quality_value(self, subset: Iterable[Element]) -> float:
        """``f(S)``."""
        return self._quality.value(subset)

    def dispersion_value(self, subset: Iterable[Element]) -> float:
        """``d(S)`` (the unweighted sum of pairwise distances)."""
        return set_distance(self._metric, subset)

    def value(self, subset: Iterable[Element]) -> float:
        """``φ(S) = f(S) + λ·d(S)``."""
        members = frozenset(subset)
        return (
            self.quality_value(members)
            + self._tradeoff * self.dispersion_value(members)
        )

    # ------------------------------------------------------------------
    # Marginals
    # ------------------------------------------------------------------
    def marginal(
        self,
        element: Element,
        subset: Iterable[Element],
        *,
        tracker: Optional[MarginalDistanceTracker] = None,
    ) -> float:
        """True marginal ``φ_u(S) = f_u(S) + λ·d_u(S)``.

        When a :class:`MarginalDistanceTracker` synchronized with ``subset``
        is supplied, the distance part is read in O(1).
        """
        members = frozenset(subset)
        if element in members:
            return 0.0
        if tracker is not None:
            distance_gain = tracker.marginal(element)
        else:
            distance_gain = marginal_distance(self._metric, element, members)
        return self._quality.marginal(element, members) + self._tradeoff * distance_gain

    def potential_marginal(
        self,
        element: Element,
        subset: Iterable[Element],
        *,
        tracker: Optional[MarginalDistanceTracker] = None,
    ) -> float:
        """Non-oblivious potential ``φ'_u(S) = ½·f_u(S) + λ·d_u(S)`` (Section 4)."""
        members = frozenset(subset)
        if element in members:
            return 0.0
        if tracker is not None:
            distance_gain = tracker.marginal(element)
        else:
            distance_gain = marginal_distance(self._metric, element, members)
        return (
            0.5 * self._quality.marginal(element, members)
            + self._tradeoff * distance_gain
        )

    # ------------------------------------------------------------------
    # Batched marginal gains (the submodular fast path)
    # ------------------------------------------------------------------
    def make_quality_state(
        self, initial: Optional[Iterable[Element]] = None
    ) -> GainState:
        """Incremental gain state for the quality term (see ``SetFunction.gain_state``)."""
        return self._quality.gain_state(initial if initial is not None else ())

    def quality_gains(self, candidates: Candidates, state: GainState) -> np.ndarray:
        """Batched quality marginals ``[f_u(S)]`` against ``state``'s set.

        The quality-side counterpart of reading the tracker's marginal view
        for the distance term; the greedy fast path combines the two into
        ``scale·f_u(S) + λ·d_u(S)`` itself.
        """
        return self._quality.gains(candidates, state)

    def swap_gain(
        self, subset: Iterable[Element], incoming: Element, outgoing: Element
    ) -> float:
        """``φ(S - outgoing + incoming) - φ(S)`` (the local-search move value)."""
        members = frozenset(subset)
        if outgoing not in members or incoming in members:
            raise InvalidParameterError(
                "swap_gain requires outgoing ∈ S and incoming ∉ S"
            )
        swapped = (members - {outgoing}) | {incoming}
        return self.value(swapped) - self.value(members)

    # ------------------------------------------------------------------
    # Restriction (sub-universe views)
    # ------------------------------------------------------------------
    def restrict(self, candidates: Iterable[Element]) -> "Restriction":
        """Build the query-scoped sub-instance on ``candidates``.

        Returns a :class:`~repro.core.restriction.Restriction` bundling the
        re-indexed objective (weight slice + submatrix view, same λ) with the
        index maps and the result lifting.  Running an algorithm on
        ``restriction.objective`` and lifting its result is how every
        ``candidates=`` front door solves a pool.
        """
        from repro.core.restriction import Restriction

        return Restriction(self, candidates)

    # ------------------------------------------------------------------
    # Helpers for algorithms
    # ------------------------------------------------------------------
    def make_tracker(
        self, initial: Optional[Iterable[Element]] = None
    ) -> MarginalDistanceTracker:
        """Create a marginal-distance tracker bound to this objective's metric."""
        return MarginalDistanceTracker(self._metric, initial)

    def pair_value(self, x: Element, y: Element) -> float:
        """``f({x, y}) + λ·d(x, y)`` — the pair score used by initializations."""
        return (
            self._quality.value({x, y})
            + self._tradeoff * self._metric.distance(x, y)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Objective(n={self.n}, tradeoff={self._tradeoff}, "
            f"quality={type(self._quality).__name__}, "
            f"metric={type(self._metric).__name__})"
        )
