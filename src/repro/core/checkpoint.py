"""Pickle-safe solve checkpoints for interrupted / resumable runs.

A :class:`SolveCheckpoint` is a plain-data snapshot of a solve in progress:

* for **greedy** (``kind="greedy"``) it records the selection order built so
  far — the whole algorithm state, since Greedy B is deterministic given its
  prefix;
* for the **sharded core-set pipeline** (``kind="sharded"``) it records the
  shard layout plus the global-index winners of every shard solved so far,
  so a resumed run skips straight to the unsolved shards.

Checkpoints hold only primitive Python/tuple data (like
:class:`~repro.obs.trace.Stopwatch`, nothing in them depends on live
locks, clocks or array views), so they pickle across process boundaries and
can be written to disk between sessions (:func:`save_checkpoint`, the one
snapshot-file writer).  Emission is pull-free: callers pass a
:class:`~repro.core.control.RunControl` with ``checkpoint_every`` and an
``on_checkpoint`` callback to :func:`~repro.core.solver.solve`, and resume by
passing the snapshot back as its ``resume_from``.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro._types import Element
from repro.exceptions import InvalidParameterError, SnapshotVersionError

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SolveCheckpoint",
    "check_snapshot_version",
    "load_checkpoint",
    "save_checkpoint",
    "universe_fingerprint",
]

#: Current on-disk format version stamped on every snapshot/checkpoint type
#: (:class:`SolveCheckpoint`, :class:`~repro.dynamic.engine.EngineSnapshot`,
#: :class:`~repro.dynamic.session.SessionSnapshot`,
#: :class:`~repro.serve.corpus.CorpusSnapshot`).  Bump on any incompatible
#: field-semantics change; loaders reject anything newer than they know.
SNAPSHOT_FORMAT_VERSION = 1


def universe_fingerprint(*parts: Any) -> str:
    """A short stable digest identifying the universe a checkpoint belongs to.

    :meth:`~repro.core.control.RunControl.fingerprint` stamps solve
    checkpoints from the solve kind, ``n``, λ and the candidate pool, and
    :meth:`~repro.core.control.RunControl.resume` compares it with the
    resuming solve's, raising :class:`~repro.exceptions.SnapshotVersionError`
    on mismatch — turning "resumed against the wrong universe" from silent
    corruption into a first-class error.
    """
    digest = hashlib.sha1("|".join(repr(part) for part in parts).encode())
    return digest.hexdigest()[:16]


def check_snapshot_version(snapshot: Any, *, source: str = "snapshot") -> Any:
    """Reject unversioned, newer or mangled snapshots; return ``snapshot``.

    Every snapshot type in this library stamps ``format_version``, so an
    object without one is not a snapshot this build wrote.
    """
    version = getattr(snapshot, "format_version", None)
    if not isinstance(version, int) or version < 1:
        raise SnapshotVersionError(
            f"{source} carries an invalid format_version {version!r}"
        )
    if version > SNAPSHOT_FORMAT_VERSION:
        raise SnapshotVersionError(
            f"{source} has format_version {version}; this build reads versions "
            f"up to {SNAPSHOT_FORMAT_VERSION} — upgrade the library to load it"
        )
    return snapshot


def save_checkpoint(checkpoint: Any, path: str) -> None:
    """Pickle any checkpoint/snapshot object to ``path``.

    Shared by every persistence point in the stack — solve checkpoints,
    dynamic engine/session snapshots and the serving tier's corpus snapshots
    all hold plain-data state, so one writer covers them: the atomic,
    checksummed frame of :func:`~repro.durability.snapshot.write_framed`.
    """
    # A module-level import cycles through repro.durability.recovery.
    from repro.durability.snapshot import write_framed

    write_framed(path, pickle.dumps(checkpoint, protocol=pickle.HIGHEST_PROTOCOL))


def load_checkpoint(path: str, expected_type: type) -> Any:
    """Load a checkpoint written by :func:`save_checkpoint`, type-checked.

    A damaged or unframed file raises
    :class:`~repro.exceptions.DurabilityError`, and one holding anything but
    an ``expected_type`` instance raises
    :class:`~repro.exceptions.InvalidParameterError`, so a solve checkpoint
    cannot be silently fed where a corpus snapshot was expected.
    """
    from repro.durability.snapshot import read_framed

    checkpoint = pickle.loads(read_framed(path))
    if not isinstance(checkpoint, expected_type):
        raise InvalidParameterError(
            f"{path!r} does not contain a {expected_type.__name__}"
        )
    return check_snapshot_version(checkpoint, source=repr(path))


@dataclass(frozen=True)
class SolveCheckpoint:
    """A resumable snapshot of one solve.

    Attributes
    ----------
    kind:
        ``"greedy"`` or ``"sharded"`` — which solve path emitted it (and
        which path can resume it).
    n:
        Universe size of the instance the checkpoint belongs to.  Resuming
        against a different universe raises.
    p:
        The cardinality target of the interrupted solve.
    order:
        Greedy checkpoints: the selection order built so far.
    shard_winners:
        Sharded checkpoints: ``{shard index: global winners}`` for every
        shard already solved (or small enough to skip solving).
    shard_sizes:
        Sharded checkpoints: the shard layout, used to verify that a resume
        runs against the same partition.
    elapsed_seconds:
        Wall-clock seconds spent before the checkpoint was cut.
    metadata:
        Free-form extras (phase, algorithm name, ...).
    format_version:
        On-disk format version (see :data:`SNAPSHOT_FORMAT_VERSION`).
    fingerprint:
        Optional :func:`universe_fingerprint` of the emitting instance;
        ``None`` on checkpoints from producers that do not stamp one.
    """

    kind: str
    n: int
    p: int
    order: Tuple[Element, ...] = ()
    shard_winners: Mapping[int, Tuple[Element, ...]] = field(default_factory=dict)
    shard_sizes: Tuple[int, ...] = ()
    elapsed_seconds: float = 0.0
    metadata: Dict[str, Any] = field(default_factory=dict)
    format_version: int = SNAPSHOT_FORMAT_VERSION
    fingerprint: Optional[str] = None

    # ------------------------------------------------------------------
    # Persistence helpers
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Pickle the checkpoint to ``path``."""
        save_checkpoint(self, path)

    @staticmethod
    def load(path: str) -> "SolveCheckpoint":
        """Load a checkpoint previously written by :meth:`save`."""
        return load_checkpoint(path, SolveCheckpoint)
