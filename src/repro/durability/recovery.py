"""Journal ownership and crash recovery for durable dynamic sessions.

:class:`DurableStore` is the object a durable
:class:`~repro.dynamic.session.DynamicSession` owns: one write-ahead log
(:mod:`repro.durability.wal`) plus one snapshot directory
(:mod:`repro.durability.snapshot`) under a single ``durable_dir``::

    durable_dir/
        wal.log                       # init record + journaled ticks
        snapshots/snapshot-XXXX.snap  # compaction generations

The journal's first record captures the session's *initial* state and
configuration; every applied tick is journaled **before** it mutates the
engine (journal-before-apply).  Compaction — every ``snapshot_every`` ticks —
writes an atomic :class:`DurableCheckpoint` generation carrying the current
state and the journal sequence number it covers, then truncates the log;
a crash between those two steps is safe because replay skips records at or
below the checkpoint's watermark.

:func:`recover_session` rebuilds a session from such a directory: newest
valid snapshot (else the init record), torn-tail repair, tick replay through
the normal apply path, then re-attachment of the journal.  Because every
engine code path is deterministic, the recovered state is bit-identical to
the crashed process's state at its last journaled tick boundary.  Sessions
journal only ticks that planned cleanly, so a journaled tick that replay
rejects raises :class:`~repro.exceptions.RecoveryError`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.checkpoint import SNAPSHOT_FORMAT_VERSION, check_snapshot_version
from repro.core.control import RunControl
from repro.durability.snapshot import SnapshotStore
from repro.durability.wal import (
    RECORD_INIT,
    RECORD_TICK,
    WAL_MAGIC,
    WalRecord,
    WriteAheadLog,
    read_wal,
)
from repro.dynamic.events import (
    EventBatch,
    decode_event_batch,
    encode_event_batch,
)
from repro.exceptions import (
    InvalidParameterError,
    PerturbationError,
    RecoveryError,
    SnapshotVersionError,
)

__all__ = ["DurableCheckpoint", "DurableStore", "recover_session"]

WAL_FILENAME = "wal.log"
SNAPSHOT_DIRNAME = "snapshots"

_TICK_PREFIX = struct.Struct("<Qq")  # encoded batch length, updates (-1: None)

#: Sentinel distinguishing "caller did not say" from an explicit ``None``
#: when recovery merges overrides with the journaled configuration.
_JOURNALED = object()


@dataclass(frozen=True)
class DurableCheckpoint:
    """One compaction generation: engine state plus its journal watermark.

    ``wal_seq`` is the sequence number of the last tick the snapshot
    covers — replay skips journal records at or below it, which is what
    makes crash-between-snapshot-and-truncate harmless.  ``fingerprint``
    is the journal's lineage id (a digest of its init record), so a
    snapshot can never be silently combined with a different journal.
    """

    snapshot: Any
    wal_seq: int
    ticks: int
    fingerprint: Optional[str]
    config: Dict[str, Any] = field(default_factory=dict)
    format_version: int = SNAPSHOT_FORMAT_VERSION


def _lineage_of(init_body: bytes) -> str:
    return hashlib.sha1(init_body).hexdigest()


class DurableStore:
    """The write-ahead log + snapshot rotation behind one durable session."""

    def __init__(
        self,
        directory: str,
        *,
        fsync: str = "interval",
        fsync_interval_s: float = 0.1,
        snapshot_every: Optional[int] = None,
        keep_snapshots: int = 2,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise InvalidParameterError("snapshot_every must be at least 1")
        if keep_snapshots < 1:
            raise InvalidParameterError("keep_snapshots must be at least 1")
        self._directory = os.fspath(directory)
        os.makedirs(self._directory, exist_ok=True)
        self._fsync = fsync
        self._fsync_interval_s = float(fsync_interval_s)
        self._snapshot_every = snapshot_every
        self._keep_snapshots = int(keep_snapshots)
        self._snapshots = SnapshotStore(
            os.path.join(self._directory, SNAPSHOT_DIRNAME)
        )
        self._wal: Optional[WriteAheadLog] = None
        self._seq = 0
        self._lineage: Optional[str] = None
        self._ticks_at_compact = 0
        #: Test seam: called after a compaction snapshot lands but before the
        #: journal truncates — the crash window recovery must survive.
        self.post_snapshot_hook: Optional[Callable[[], None]] = None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def directory(self) -> str:
        return self._directory

    @property
    def wal_path(self) -> str:
        return os.path.join(self._directory, WAL_FILENAME)

    @property
    def snapshots(self) -> SnapshotStore:
        return self._snapshots

    @property
    def seq(self) -> int:
        """Sequence number of the last journaled tick."""
        return self._seq

    @property
    def lineage(self) -> Optional[str]:
        """Digest of the journal's init record — its identity."""
        return self._lineage

    @property
    def snapshot_every(self) -> Optional[int]:
        return self._snapshot_every

    def has_journal(self) -> bool:
        """Whether the directory already holds recoverable state."""
        if self._snapshots.generations():
            return True
        try:
            return os.path.getsize(self.wal_path) > len(WAL_MAGIC)
        except OSError:
            return False

    def config(self) -> Dict[str, Any]:
        return {
            "fsync": self._fsync,
            "snapshot_every": self._snapshot_every,
            "keep_snapshots": self._keep_snapshots,
        }

    # ------------------------------------------------------------------
    # Journaling
    # ------------------------------------------------------------------
    def start_fresh(self, session) -> None:
        """Initialize an empty directory with the session's init record."""
        if self.has_journal():
            raise RecoveryError(
                f"{self._directory} already holds a journal; recover it with "
                f"DynamicSession.recover(...) instead of overwriting it"
            )
        config = self.config()
        config["resolve_every"] = session._resolve_every
        config["resolve_kwargs"] = dict(session._resolve_kwargs)
        body = pickle.dumps(
            {"snapshot": session.snapshot(), "config": config},
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._wal = WriteAheadLog(
            self.wal_path,
            fsync=self._fsync,
            fsync_interval_s=self._fsync_interval_s,
        )
        self._wal.append(RECORD_INIT, 0, body)
        self._wal.sync()
        self._lineage = _lineage_of(body)
        self._seq = 0
        self._ticks_at_compact = session.ticks

    def _attach(
        self,
        *,
        seq: int,
        lineage: Optional[str],
        ticks_at_compact: int,
        append_at: int,
    ) -> None:
        """Re-open the journal of a recovered session for appending."""
        self._wal = WriteAheadLog(
            self.wal_path,
            fsync=self._fsync,
            fsync_interval_s=self._fsync_interval_s,
            append_at=append_at,
        )
        self._seq = seq
        self._lineage = lineage
        self._ticks_at_compact = ticks_at_compact

    def journal(self, batch: EventBatch, updates: Optional[int] = None) -> None:
        """Append one tick record (call *before* applying the batch)."""
        if self._wal is None:
            raise RecoveryError("the durable store is closed")
        encoded = encode_event_batch(batch)
        prefix = _TICK_PREFIX.pack(len(encoded), -1 if updates is None else updates)
        self._seq += 1
        self._wal.append(RECORD_TICK, self._seq, prefix + encoded)

    @staticmethod
    def decode_tick(body: bytes) -> Tuple[EventBatch, Optional[int]]:
        """Inverse of :meth:`journal`'s record body: ``(batch, updates)``."""
        size = _TICK_PREFIX.size
        # A body shorter than the prefix pads to an impossible batch length.
        length, updates = _TICK_PREFIX.unpack_from(body.ljust(size, b"\xff"))
        if len(body) != size + length or updates < -1:
            raise RecoveryError(
                f"a tick record of {len(body)} bytes disagrees with its prefix"
            )
        try:
            batch = decode_event_batch(body[size:])
        except ValueError as error:  # not an event-batch record
            raise RecoveryError(
                f"a tick record's batch bytes do not decode: {error}"
            ) from error
        return batch, None if updates == -1 else updates

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def maybe_compact(self, session) -> bool:
        """Compact when ``snapshot_every`` ticks have passed; return whether."""
        if self._snapshot_every is None or self._wal is None:
            return False
        if session.ticks - self._ticks_at_compact < self._snapshot_every:
            return False
        self.compact(session)
        return True

    def compact(self, session) -> None:
        """Snapshot the current state, then truncate the journal.

        The snapshot lands atomically (temp + fsync + rename) carrying the
        journal watermark it covers; only then is the log truncated.  A
        crash in between leaves both — recovery prefers the snapshot and
        skips the already-covered records by sequence number.
        """
        if self._wal is None:
            raise RecoveryError("the durable store is closed")
        config = self.config()
        config["resolve_every"] = session._resolve_every
        config["resolve_kwargs"] = dict(session._resolve_kwargs)
        self._snapshots.write(
            DurableCheckpoint(
                snapshot=session.snapshot(),
                wal_seq=self._seq,
                ticks=session.ticks,
                fingerprint=self._lineage,
                config=config,
            )
        )
        if self.post_snapshot_hook is not None:
            self.post_snapshot_hook()
        self._wal.reset()
        self._snapshots.prune(self._keep_snapshots)
        self._ticks_at_compact = session.ticks

    def sync(self) -> None:
        """Force the journal to disk regardless of fsync policy."""
        if self._wal is not None:
            self._wal.sync()

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None


# ----------------------------------------------------------------------
# Recovery
# ----------------------------------------------------------------------
def _load_checkpoint(
    snapshots: SnapshotStore,
) -> Optional[DurableCheckpoint]:
    latest = snapshots.load_latest()
    if latest is None:
        return None
    _, checkpoint = latest
    if not isinstance(checkpoint, DurableCheckpoint):
        raise RecoveryError(
            f"snapshot directory {snapshots.directory} holds a "
            f"{type(checkpoint).__name__}, not a DurableCheckpoint"
        )
    check_snapshot_version(checkpoint, source="durable checkpoint")
    check_snapshot_version(checkpoint.snapshot, source="durable checkpoint state")
    return checkpoint


def recover_session(
    session_cls,
    directory: str,
    *,
    metric_factory=None,
    fsync: Any = _JOURNALED,
    snapshot_every: Any = _JOURNALED,
    keep_snapshots: Any = _JOURNALED,
    **session_kwargs,
):
    """Rebuild a durable session from its directory (see module docstring).

    ``session_cls`` is :class:`~repro.dynamic.session.DynamicSession`
    (passed in to keep the import direction session → durability).
    Configuration defaults to the journaled values; explicit keyword
    arguments override them.  The replay runs under ``control`` with its
    checkpoint fields cleared, since the dead session already emitted those
    checkpoints; the recovered session then runs under ``control`` itself.
    """
    directory = os.fspath(directory)
    wal_path = os.path.join(directory, WAL_FILENAME)
    snapshots = SnapshotStore(os.path.join(directory, SNAPSHOT_DIRNAME))

    records: List[WalRecord] = []
    valid_length = 0
    if os.path.exists(wal_path):
        records, valid_length = read_wal(wal_path, repair=True)

    checkpoint = _load_checkpoint(snapshots)

    init_record = (
        records[0] if records and records[0].kind == RECORD_INIT else None
    )
    lineage: Optional[str] = None
    init_payload: Optional[dict] = None
    if init_record is not None:
        lineage = _lineage_of(init_record.body)
        init_payload = pickle.loads(init_record.body)
        check_snapshot_version(init_payload["snapshot"], source="journal init record")

    if (
        checkpoint is not None
        and lineage is not None
        and checkpoint.fingerprint is not None
        and checkpoint.fingerprint != lineage
    ):
        raise SnapshotVersionError(
            f"snapshot fingerprint {checkpoint.fingerprint} does not match the "
            f"journal lineage {lineage}: {directory} mixes state from two "
            f"different durable sessions"
        )

    if checkpoint is not None:
        base_snapshot = checkpoint.snapshot
        base_seq = int(checkpoint.wal_seq)
        base_ticks = int(checkpoint.ticks)
        config = dict(checkpoint.config)
        lineage = checkpoint.fingerprint if lineage is None else lineage
    elif init_payload is not None:
        base_snapshot = init_payload["snapshot"]
        base_seq = 0
        base_ticks = 0
        config = dict(init_payload.get("config", {}))
    elif records:
        raise RecoveryError(
            f"{directory} has journaled ticks but no initial state and no "
            f"valid snapshot; the base state is unrecoverable"
        )
    else:
        raise RecoveryError(f"nothing to recover in {directory}")

    restore_kwargs = dict(session_kwargs)
    control = RunControl.coerce(restore_kwargs.pop("control", None)).check("session")
    restore_kwargs.setdefault("resolve_every", config.get("resolve_every"))
    restore_kwargs.setdefault("resolve_kwargs", config.get("resolve_kwargs"))
    session = session_cls.restore(
        base_snapshot,
        metric_factory=metric_factory,
        control=dataclasses.replace(control, checkpoint_every=None, on_checkpoint=None),
        **restore_kwargs,
    )
    session._ticks = base_ticks

    last_seq = base_seq
    for record in records:
        if record.kind != RECORD_TICK or record.seq <= base_seq:
            continue
        batch, updates = DurableStore.decode_tick(record.body)
        try:
            session.apply_events(batch, updates=updates)
        except (PerturbationError, InvalidParameterError) as error:
            # A live session journals only ticks its engine accepted, and
            # replay reaches the same state, so no live session wrote this.
            raise RecoveryError(
                f"journal record {record.seq} in {directory} holds a tick the "
                f"engine rejects: {error}"
            ) from error
        last_seq = max(last_seq, record.seq)
    session._control = control

    store = DurableStore(
        directory,
        fsync=config.get("fsync", "interval") if fsync is _JOURNALED else fsync,
        snapshot_every=(
            config.get("snapshot_every")
            if snapshot_every is _JOURNALED
            else snapshot_every
        ),
        keep_snapshots=(
            config.get("keep_snapshots", 2)
            if keep_snapshots is _JOURNALED
            else keep_snapshots
        ),
    )
    store._attach(
        seq=last_seq,
        lineage=lineage,
        ticks_at_compact=base_ticks,
        append_at=valid_length,
    )
    session._durable = store
    return session
