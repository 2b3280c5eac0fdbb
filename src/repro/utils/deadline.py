"""Cooperative wall-clock deadlines for anytime solving.

A :class:`Deadline` is a small monotonic-clock budget that the solver stack
threads through its hot loops: greedy selection, local-search swap scans,
streaming arrivals, the batched multi-query map and the sharded core-set
pipeline all poll :meth:`Deadline.expired` at loop boundaries and, on expiry,
stop and return their best-so-far feasible solution with
``result.metadata["interrupted"] = True`` instead of raising.

Design notes
------------
* **Cooperative, not preemptive.**  Nothing is killed; each algorithm checks
  the deadline between iterations, so the response latency is one loop body
  (one vectorized argmax for greedy, one swap scan for local search, one
  shard solve step for sharding — which is why the sharded solver also
  forwards the deadline *into* each shard's greedy).
* **Cheap.**  One ``time.monotonic()`` call and a comparison per check —
  nanoseconds against loop bodies that sweep arrays of length ``n``.  The
  greedy benchmark guards the total overhead at ≤ 10 %.
* **Pickle-safe.**  A deadline shipped to a process-pool worker re-anchors
  itself on arrival with the *remaining* budget at pickling time (monotonic
  clocks are not meaningfully comparable across processes), so shard workers
  honor roughly the budget the parent had left.
"""

from __future__ import annotations

import time
from typing import Optional, Union

from repro.exceptions import InvalidParameterError

__all__ = ["Deadline", "mark_interrupted"]


class Deadline:
    """A wall-clock budget anchored at construction time.

    Parameters
    ----------
    seconds:
        Budget in seconds from now.  Must be non-negative and finite; a zero
        budget is immediately expired (useful for "return whatever a resumed
        checkpoint already holds").
    """

    __slots__ = ("_seconds", "_started")

    def __init__(self, seconds: float) -> None:
        seconds = float(seconds)
        if not seconds >= 0.0 or seconds != seconds or seconds == float("inf"):
            raise InvalidParameterError(
                f"deadline seconds must be finite and non-negative, got {seconds}"
            )
        self._seconds = seconds
        self._started = time.monotonic()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def coerce(
        cls, deadline: Union[None, float, int, "Deadline"]
    ) -> Optional["Deadline"]:
        """Normalize a user-facing ``deadline_s`` argument.

        ``None`` stays ``None`` (no deadline), a number becomes a fresh
        :class:`Deadline` starting now, and an existing :class:`Deadline`
        passes through unchanged (so nested calls — ``solve`` → sharding →
        per-shard greedy — share one running clock instead of restarting it).
        """
        if deadline is None or isinstance(deadline, cls):
            return deadline
        return cls(deadline)

    @classmethod
    def earliest(
        cls, *deadlines: Optional["Deadline"]
    ) -> Optional["Deadline"]:
        """The deadline with the least remaining budget (``None``s ignored).

        The serving tier's window executor combines a per-request budget with
        the shared batch budget this way: the effective deadline of a query
        is whichever clock runs out first, and ``None`` (no constraint at
        all) only wins when every argument is ``None``.
        """
        live = [deadline for deadline in deadlines if deadline is not None]
        if not live:
            return None
        return min(live, key=lambda deadline: deadline.remaining())

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def seconds(self) -> float:
        """The total budget this deadline was created with."""
        return self._seconds

    def elapsed(self) -> float:
        """Seconds since the deadline was anchored."""
        return time.monotonic() - self._started

    def remaining(self) -> float:
        """Seconds left before expiry (clamped at 0.0)."""
        return max(self._seconds - self.elapsed(), 0.0)

    def expired(self) -> bool:
        """Whether the budget is used up.  The hot-loop check."""
        return time.monotonic() - self._started >= self._seconds

    # ------------------------------------------------------------------
    # Pickling (process-pool workers)
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        # Monotonic clocks are per-process; ship the remaining budget and
        # re-anchor on arrival.  Queue wait in the pool eats into wall time
        # but not into the shipped budget, so a worker can overshoot by its
        # queue latency — acceptable for a cooperative mechanism.
        return {"seconds": self.remaining()}

    def __setstate__(self, state: dict) -> None:
        self._seconds = state["seconds"]
        self._started = time.monotonic()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Deadline(seconds={self._seconds}, remaining={self.remaining():.3f})"


def mark_interrupted(metadata: dict, deadline: Deadline, phase: str) -> dict:
    """Record the standard deadline-expiry keys on a result's metadata.

    Every algorithm that stops early sets the same three keys so callers can
    test one contract: ``interrupted`` (always ``True`` here), ``phase`` (the
    stage that was cut short) and ``deadline_s`` (the original budget).
    """
    metadata["interrupted"] = True
    metadata["phase"] = phase
    metadata["deadline_s"] = deadline.seconds
    return metadata
