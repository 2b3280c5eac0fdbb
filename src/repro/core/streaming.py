"""Streaming (incremental) max-sum diversification.

Section 2 of the paper discusses Minack et al.'s incremental approach for
very large data sets: the input arrives as a stream and a near-optimal
diverse set must be available at any point without storing the whole stream.
The paper's own dynamic-update machinery (Section 6) uses the same single
swap primitive, so this module provides the natural streaming algorithm built
on it:

* keep at most ``p`` elements;
* when a new element arrives and the solution is not full, add it;
* otherwise consider replacing the element whose removal costs least — the
  arriving element is swapped in if the best such swap strictly improves the
  objective (optionally by a relative margin, which bounds the total number
  of swaps logarithmically).

Only the current solution and the arriving element are ever inspected, so the
memory footprint is O(p) plus the distance/quality oracles, and each arrival
costs O(p) marginal evaluations.

The arrival rule scores all ``p`` candidate swaps as one array: distances
from one :meth:`~repro.metrics.base.Metric.block` row plus a maintained
vector of internal distance marginals ``d_v(S)``, quality from
:func:`repro.core.kernels.quality_gains` — the weight vector for modular
quality, and otherwise the family's
:meth:`~repro.functions.base.SetFunction.swap_gains` against one gain state
of the solution, whose per-solution swap cache (the default's removal states,
facility location's owner and runner-up vectors) is built lazily and reused
across arrivals until the solution changes.  An arrival therefore costs O(p)
distances and one ``1 × p`` swap-gain row instead of 2·p value-oracle
evaluations with their O(p²) dispersion recomputations.  (The cache adds
O(state) memory — up to O(n) per member for the default — traded for the
per-arrival oracle work.)
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro._types import Element
from repro.core import kernels
from repro.core.control import RunControl
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.exceptions import InvalidParameterError
from repro.functions.base import GainState
from repro.utils.deadline import mark_interrupted
from repro.utils.validation import check_cardinality


@dataclass
class StreamingDiversifier:
    """Maintain a diverse set of at most ``p`` elements over a stream.

    Parameters
    ----------
    objective:
        The combined objective ``φ``.  The objective's universe must contain
        every element that will ever arrive (elements are integer indices).
    p:
        Maximum solution size.
    improvement_margin:
        Relative improvement a swap must achieve to be accepted, as a fraction
        of the current objective value.  0 accepts any strict improvement;
        a positive margin (e.g. 0.01) bounds the number of swaps over the
        whole stream by ``O(log_{1+margin}(φ_max / φ_min))``.
    """

    objective: Objective
    p: int
    improvement_margin: float = 0.0
    _selected: List[Element] = field(default_factory=list, init=False, repr=False)
    _value: float = field(default=0.0, init=False, repr=False)
    _arrivals: int = field(default=0, init=False, repr=False)
    _swaps: int = field(default=0, init=False, repr=False)
    _weights: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    # Solution-dependent state, built lazily and invalidated when the
    # solution changes:
    _qstate: Optional[GainState] = field(default=None, init=False, repr=False)
    _margins: Optional[np.ndarray] = field(default=None, init=False, repr=False)
    _interrupted: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.p < 1:
            raise InvalidParameterError("p must be at least 1")
        if self.improvement_margin < 0:
            raise InvalidParameterError("improvement_margin must be non-negative")
        # Resolve the weight vector once, not per arrival: weight views are
        # live under in-place mutation, and re-deriving the weight vector of
        # view-less modular families would cost O(n) oracle calls per arrival.
        self._weights = kernels.modular_weights(self.objective.quality)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def solution(self) -> frozenset:
        """The current solution."""
        return frozenset(self._selected)

    @property
    def solution_value(self) -> float:
        """``φ`` of the current solution."""
        return self._value

    @property
    def arrivals(self) -> int:
        """Number of elements processed so far."""
        return self._arrivals

    @property
    def swaps(self) -> int:
        """Number of replacements performed so far."""
        return self._swaps

    # ------------------------------------------------------------------
    # Solution-dependent state (lazy, invalidated on solution changes)
    # ------------------------------------------------------------------
    def _distance_row(self, element: Element) -> np.ndarray:
        """Distances from ``element`` to the current solution, in list order."""
        return self.objective.metric.block((element,), self._selected)[0]

    def _ensure_qstate(self) -> GainState:
        if self._qstate is None:
            self._qstate = self.objective.make_quality_state(self._selected)
        return self._qstate

    def _ensure_margins(self) -> np.ndarray:
        """Internal marginals ``d_v(S)`` of the members, in list order."""
        if self._margins is None:
            self._margins = self.objective.metric.block(
                self._selected, self._selected
            ).sum(axis=1)
        return self._margins

    def _invalidate(self) -> None:
        self._qstate = None
        self._margins = None

    # ------------------------------------------------------------------
    # Stream processing
    # ------------------------------------------------------------------
    def process(self, element: Element) -> bool:
        """Process one arriving element; return ``True`` if the solution changed."""
        if element < 0 or element >= self.objective.n:
            raise InvalidParameterError(
                f"element {element} is outside the objective's universe"
            )
        self._arrivals += 1
        if element in self._selected:
            return False
        quality = self.objective.quality
        tradeoff = self.objective.tradeoff
        row = self._distance_row(element)
        if len(self._selected) < self.p:
            state = self._ensure_qstate()
            gain = float(quality.gains((element,), state)[0])
            gain += tradeoff * float(row.sum())
            quality.push(state, element)
            self._selected.append(element)
            self._margins = None
            self._value += gain
            return True
        # Full: all p candidate swaps of the arriving element in one array.
        quality_gain = kernels.quality_gains(
            quality,
            self._weights,
            (element,),
            self._selected,
            state=self._ensure_qstate(),
        )[0]
        gains = quality_gain + tradeoff * ((row.sum() - row) - self._ensure_margins())
        best_idx = int(np.argmax(gains))
        best_gain = float(gains[best_idx])
        if not best_gain > self.improvement_margin * abs(self._value):
            return False
        del self._selected[best_idx]
        self._selected.append(element)
        self._invalidate()
        self._value += best_gain
        self._swaps += 1
        return True

    def process_stream(
        self,
        elements: Iterable[Element],
        *,
        control: Optional[RunControl] = None,
    ) -> "StreamingDiversifier":
        """Process a whole iterable of arrivals (returns ``self`` for chaining).

        With a ``control`` deadline the loop polls
        :meth:`~repro.utils.deadline.Deadline.expired` before each arrival
        and stops processing on expiry; the solution kept so far stays valid
        (it always has at most ``p`` elements) and unprocessed arrivals are
        simply dropped, as a real stream would drop them under back-pressure.
        Whether the stream was cut short is reported by
        :attr:`interrupted`.  Checkpoint fields raise.
        """
        deadline = RunControl.coerce(control).check("streaming").deadline
        self._interrupted = False
        for element in elements:
            if deadline is not None and deadline.expired():
                self._interrupted = True
                break
            self.process(element)
        return self

    @property
    def interrupted(self) -> bool:
        """Whether the last :meth:`process_stream` hit its deadline."""
        return self._interrupted

    def result(self, *, elapsed_seconds: float = 0.0) -> SolverResult:
        """Package the current solution as a :class:`SolverResult`."""
        return build_result(
            self.objective,
            self._selected,
            list(self._selected),
            algorithm="streaming",
            iterations=self._arrivals,
            elapsed_seconds=elapsed_seconds,
            metadata={
                "swaps": self._swaps,
                "improvement_margin": self.improvement_margin,
                "p": self.p,
            },
        )


def streaming_diversify(
    objective: Objective,
    p: int,
    arrival_order: Optional[Iterable[Element]] = None,
    *,
    improvement_margin: float = 0.0,
    control: Optional[RunControl] = None,
) -> SolverResult:
    """One-shot convenience wrapper: stream the universe through a StreamingDiversifier.

    Parameters
    ----------
    objective:
        The combined objective.
    p:
        Maximum solution size.
    arrival_order:
        The order in which elements arrive (defaults to index order).  To
        stream a pool, run on ``r = objective.restrict(pool)`` with arrivals
        mapped by ``r.to_local`` and ``r.lift`` the result.
    improvement_margin:
        Forwarded to :class:`StreamingDiversifier`.
    control:
        Optional :class:`~repro.core.control.RunControl`, as for
        :meth:`StreamingDiversifier.process_stream`.
    """
    started = time.perf_counter()
    p = check_cardinality(p)
    control = RunControl.coerce(control)
    order: Tuple[Element, ...] = (
        tuple(range(objective.n)) if arrival_order is None else tuple(arrival_order)
    )
    engine = StreamingDiversifier(objective, p, improvement_margin=improvement_margin)
    engine.process_stream(order, control=control)
    result = engine.result(elapsed_seconds=time.perf_counter() - started)
    if engine.interrupted:
        mark_interrupted(result.metadata, control.deadline, "streaming_arrivals")
    return result
