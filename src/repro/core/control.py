"""One run-control value for every solve path.

Greedy B is deterministic given its prefix (Theorem 1) and local search keeps
a feasible basis after every swap (Theorem 2), so both can stop at a deadline
with a feasible answer, and greedy and the sharded core-set can checkpoint
and resume.  :class:`RunControl` carries the five settings that do this, and
:data:`PATHS` records which path honours which of them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import (
    SolveCheckpoint,
    check_snapshot_version,
    universe_fingerprint,
)
from repro.exceptions import InvalidParameterError, SnapshotVersionError
from repro.obs.trace import Trace
from repro.utils.deadline import Deadline

__all__ = ["PATHS", "RunControl"]

HONOURS, IGNORES, REJECTS = "honours", "ignores", "rejects"

#: How each path treats each field.  An ignored deadline runs the path to
#: completion and an ignored trace runs it untraced; a rejected field that is
#: set raises :class:`~repro.exceptions.InvalidParameterError`.  ``solve``
#: records its own ``solve`` span on every path.
PATHS: Dict[str, Tuple[str, str, str, str]] = {
    #                   deadline checkpoints resume_from trace
    "greedy": (HONOURS, HONOURS, HONOURS, HONOURS),
    "sharded": (HONOURS, HONOURS, HONOURS, HONOURS),
    "local_search": (HONOURS, REJECTS, REJECTS, IGNORES),
    "streaming": (HONOURS, REJECTS, REJECTS, IGNORES),
    "batch": (HONOURS, REJECTS, REJECTS, IGNORES),
    "greedy_a": (IGNORES, REJECTS, REJECTS, IGNORES),
    "greedy_a_improved": (IGNORES, REJECTS, REJECTS, IGNORES),
    "matching": (IGNORES, REJECTS, REJECTS, IGNORES),
    "mmr": (IGNORES, REJECTS, REJECTS, IGNORES),
    "exact": (IGNORES, REJECTS, REJECTS, IGNORES),
    "session": (REJECTS, HONOURS, REJECTS, HONOURS),
}

#: The fields behind each column of :data:`PATHS`.
_COLUMNS = (
    ("deadline",), ("checkpoint_every", "on_checkpoint"), ("resume_from",), ("trace",)
)


@dataclasses.dataclass(frozen=True)
class RunControl:
    """How a solve runs: its deadline, checkpoints, resume point and trace.

    Attributes
    ----------
    deadline:
        Cooperative wall-clock budget in seconds, or a
        :class:`~repro.utils.deadline.Deadline` to share one clock across
        calls.  A path that honours it polls it at loop boundaries and, on
        expiry, returns its best-so-far feasible solution with
        ``metadata["interrupted"] = True`` and ``metadata["phase"]``.
    checkpoint_every, on_checkpoint:
        Pass a pickle-safe checkpoint to ``on_checkpoint`` after every
        ``checkpoint_every`` units of progress (greedy selections, solved
        shards, session ticks): an integer of at least 1, and 1 when only
        the callback is given.
    resume_from:
        A :class:`~repro.core.checkpoint.SolveCheckpoint` from an earlier run
        of the same instance and candidate pool; the solve replays it and
        selects what an uninterrupted run selects.
    trace:
        A :class:`~repro.obs.trace.Trace` recording nested spans of the
        solve's phases; ``result.metadata["timings"]`` then carries the
        per-phase breakdown.
    """

    deadline: Union[None, float, Deadline] = None
    checkpoint_every: Optional[int] = None
    on_checkpoint: Optional[Callable[[SolveCheckpoint], None]] = None
    resume_from: Optional[SolveCheckpoint] = None
    trace: Optional[Trace] = None
    # Digest of the candidate pool checkpoints are bound to (see scoped()).
    _pool: Optional[str] = dataclasses.field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "deadline", Deadline.coerce(self.deadline))
        every = self.checkpoint_every
        if every is None and self.on_checkpoint is not None:
            object.__setattr__(self, "checkpoint_every", 1)
        elif every is not None and (
            not isinstance(every, numbers.Integral)
            or isinstance(every, bool)
            or every < 1
        ):
            raise InvalidParameterError(
                f"checkpoint_every must be an integer of at least 1, got {every!r}"
            )
        resume = self.resume_from
        if resume is not None and not isinstance(resume, SolveCheckpoint):
            raise InvalidParameterError(
                f"resume_from must be a SolveCheckpoint, got {type(resume).__name__}"
            )

    @classmethod
    def coerce(cls, control: Optional["RunControl"]) -> "RunControl":
        """``None`` becomes the empty control; a :class:`RunControl` passes."""
        if control is None:
            return _EMPTY
        if not isinstance(control, cls):
            raise InvalidParameterError(
                f"control must be a RunControl or None, got {type(control).__name__}"
            )
        return control

    def check(self, path: str) -> "RunControl":
        """Raise if this control sets a field ``path`` rejects; return self."""
        for treatment, names in zip(PATHS[path], _COLUMNS):
            for name in names:
                if treatment == REJECTS and getattr(self, name) is not None:
                    raise InvalidParameterError(
                        f"the {path} path does not support {name} "
                        f"(see repro.core.control.PATHS)"
                    )
        return self

    def scoped(self, pool: np.ndarray) -> "RunControl":
        """Bind checkpoints to ``pool`` (local ``i`` is ``pool[i]``) by its digest."""
        if self.on_checkpoint is None and self.resume_from is None:
            return self
        digest = hashlib.sha1((self._pool or "").encode())
        digest.update(np.asarray(pool, dtype=np.int64).tobytes())
        scoped = dataclasses.replace(self)
        object.__setattr__(scoped, "_pool", digest.hexdigest())
        return scoped

    def fingerprint(self, kind: str, n: int, tradeoff: float) -> Optional[str]:
        """The fingerprint a ``kind`` checkpoint of this solve carries.

        ``None`` when this control neither checkpoints nor resumes: nothing
        would read it, so the sha1 is not paid.
        """
        if self.on_checkpoint is None and self.resume_from is None:
            return None
        if self._pool is None:
            return universe_fingerprint("solve", kind, n, tradeoff)
        return universe_fingerprint("solve", kind, n, tradeoff, self._pool)

    def resume(
        self, kind: str, n: int, fingerprint: Optional[str]
    ) -> Optional[SolveCheckpoint]:
        """``resume_from`` checked against the resuming solve, or ``None``."""
        checkpoint = self.resume_from
        if checkpoint is None:
            return None
        check_snapshot_version(checkpoint, source="checkpoint")
        if checkpoint.kind != kind:
            raise InvalidParameterError(
                f"checkpoint kind {checkpoint.kind!r} cannot resume a {kind!r} solve"
            )
        if checkpoint.n != n:
            raise InvalidParameterError(
                f"checkpoint covers a universe of {checkpoint.n} elements but "
                f"the instance has {n}"
            )
        if checkpoint.fingerprint not in (None, fingerprint):
            raise SnapshotVersionError(
                f"checkpoint fingerprint {checkpoint.fingerprint} does not match "
                f"the resuming instance ({fingerprint}); it belongs to a "
                f"different universe or candidate pool"
            )
        return checkpoint


_EMPTY = RunControl()
