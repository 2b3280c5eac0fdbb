"""Crash durability: the WAL, snapshot rotation, and session recovery.

The contract under test is bit-identical crash replay: a durable session
journals every tick *before* applying it, so recovering its directory — at
any crash point, including mid-append torn tails and the window between a
compaction snapshot and the log truncation — rebuilds exactly the state the
live process had at its last journaled tick boundary.  Mid-log corruption,
by contrast, must refuse loudly (``WalCorruptionError``), never silently
drop acknowledged writes.
"""

from __future__ import annotations

import os
import pickle
import shutil
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import (
    SNAPSHOT_FORMAT_VERSION,
    SolveCheckpoint,
    check_snapshot_version,
    universe_fingerprint,
)
from repro.durability.recovery import DurableCheckpoint
from repro.durability.snapshot import SnapshotStore, read_framed, write_framed
from repro.durability.wal import (
    RECORD_INIT,
    RECORD_TICK,
    WAL_MAGIC,
    WriteAheadLog,
    read_wal,
)
from repro.dynamic.events import (
    EventBatchBuilder,
    decode_event_batch,
    encode_event_batch,
)
from repro.dynamic.session import DynamicSession
from repro.exceptions import (
    DurabilityError,
    DurabilityWarning,
    InvalidParameterError,
    RecoveryError,
    SnapshotVersionError,
    WalCorruptionError,
)
from repro.testing.faults import (
    SimulatedCrash,
    crash_after_snapshot,
    flip_byte,
    tear_wal_tail,
)


def _dense_instance(n=12, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0, 5, n)
    distances = rng.uniform(1, 2, (n, n))
    distances = (distances + distances.T) / 2
    np.fill_diagonal(distances, 0.0)
    return weights, distances


def _sharded_instance(n=48, d=3, seed=1):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.uniform(0.5, 2.0, n)


def _tick(rng, n):
    """One deterministic weight-delta batch over a live universe of n."""
    builder = EventBatchBuilder()
    for element in rng.choice(n, size=3, replace=False):
        # increases only: random decreases can dip below zero mid-run, and
        # deterministic rejection replay has its own dedicated test
        builder.change_weight(int(element), float(rng.uniform(0.05, 0.45)))
    return builder.build()


def _assert_same_state(a: DynamicSession, b: DynamicSession) -> None:
    assert a.solution == b.solution
    assert a.solution_value == b.solution_value  # bit-identical, no approx
    assert a.ticks == b.ticks
    for element in range(min(a.n, 6)):
        assert a.weight(element) == b.weight(element)


# ----------------------------------------------------------------------
# Write-ahead log
# ----------------------------------------------------------------------
class TestWriteAheadLog:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append(RECORD_INIT, 0, b"init-body")
            wal.append(RECORD_TICK, 1, b"")
            wal.append(RECORD_TICK, 2, b"\x00" * 100)
        records, valid = read_wal(path)
        assert [(r.kind, r.seq, r.body) for r in records] == [
            (RECORD_INIT, 0, b"init-body"),
            (RECORD_TICK, 1, b""),
            (RECORD_TICK, 2, b"\x00" * 100),
        ]
        assert valid == os.path.getsize(path)

    def test_fsync_policy_validated(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            WriteAheadLog(str(tmp_path / "w.log"), fsync="sometimes")
        with pytest.raises(InvalidParameterError):
            WriteAheadLog(str(tmp_path / "w.log"), fsync_interval_s=0.0)

    @pytest.mark.parametrize("fsync", ["always", "interval", "off"])
    def test_all_policies_write_identically(self, tmp_path, fsync):
        path = str(tmp_path / f"{fsync}.log")
        with WriteAheadLog(path, fsync=fsync) as wal:
            wal.append(RECORD_TICK, 1, b"abc")
        records, _ = read_wal(path)
        assert records[0].body == b"abc"

    def test_empty_file_reads_as_empty_log(self, tmp_path):
        path = tmp_path / "empty.log"
        path.touch()
        assert read_wal(str(path)) == ([], 0)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.log"
        path.write_bytes(b"NOTMAGIC" + b"x" * 32)
        with pytest.raises(WalCorruptionError):
            read_wal(str(path))

    def test_torn_tail_repaired_with_warning(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append(RECORD_TICK, 1, b"first")
            wal.append(RECORD_TICK, 2, b"second")
        tear_wal_tail(path, 3)
        with pytest.warns(DurabilityWarning):
            records, valid = read_wal(path, repair=True)
        assert [r.seq for r in records] == [1]
        # repair truncated the file to the valid prefix: a re-read is clean
        assert os.path.getsize(path) == valid
        assert read_wal(path) == (records, valid)

    def test_partial_header_is_torn_not_corrupt(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append(RECORD_TICK, 1, b"first")
        with open(path, "ab") as handle:
            handle.write(b"\x07\x00")  # 2 of 12 header bytes made it to disk
        with pytest.warns(DurabilityWarning):
            records, _ = read_wal(path)
        assert [r.seq for r in records] == [1]

    def test_corrupt_final_record_is_torn(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append(RECORD_TICK, 1, b"first")
            wal.append(RECORD_TICK, 2, b"second")
        flip_byte(path, -2)  # inside the final record's payload
        with pytest.warns(DurabilityWarning):
            records, _ = read_wal(path)
        assert [r.seq for r in records] == [1]

    def test_mid_log_corruption_raises(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append(RECORD_TICK, 1, b"first-payload")
            wal.append(RECORD_TICK, 2, b"second")
        flip_byte(path, len(WAL_MAGIC) + 12 + 9 + 2)  # first record's body
        with pytest.raises(WalCorruptionError):
            read_wal(path, repair=True)

    def test_append_at_overwrites_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append(RECORD_TICK, 1, b"keep")
            wal.append(RECORD_TICK, 2, b"torn")
        tear_wal_tail(path, 1)
        with pytest.warns(DurabilityWarning):
            _, valid = read_wal(path)
        with WriteAheadLog(path, fsync="off", append_at=valid) as wal:
            wal.append(RECORD_TICK, 2, b"rewritten")
        records, _ = read_wal(path)
        assert [(r.seq, r.body) for r in records] == [(1, b"keep"), (2, b"rewritten")]

    def test_reset_truncates_to_magic(self, tmp_path):
        path = str(tmp_path / "wal.log")
        with WriteAheadLog(path, fsync="off") as wal:
            wal.append(RECORD_TICK, 1, b"gone after reset")
            wal.reset()
            wal.append(RECORD_TICK, 2, b"survivor")
        records, _ = read_wal(path)
        assert [r.seq for r in records] == [2]


# ----------------------------------------------------------------------
# Snapshot store
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def test_generations_are_monotonic(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.generations() == []
        assert store.write({"tick": 1})[0] == 1
        assert store.write({"tick": 2})[0] == 2
        assert store.load(1) == {"tick": 1}
        assert store.load_latest() == (2, {"tick": 2})

    def test_corrupt_newest_falls_back(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.write({"tick": 1})
        _, path = store.write({"tick": 2})
        flip_byte(path, -1)
        with pytest.warns(DurabilityWarning):
            assert store.load_latest() == (1, {"tick": 1})

    def test_all_corrupt_means_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        _, path = store.write({"tick": 1})
        flip_byte(path, -1)
        with pytest.warns(DurabilityWarning):
            assert store.load_latest() is None

    def test_prune_keeps_newest(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        for tick in range(5):
            store.write({"tick": tick})
        store.prune(keep=2)
        assert store.generations() == [4, 5]

    def test_framed_write_leaves_no_temp_files(self, tmp_path):
        path = str(tmp_path / "one.snap")
        write_framed(path, b"payload")
        assert read_framed(path) == b"payload"
        assert os.listdir(tmp_path) == ["one.snap"]

    def test_framed_read_detects_damage(self, tmp_path):
        path = str(tmp_path / "one.snap")
        write_framed(path, b"payload-bytes")
        flip_byte(path, -4)
        with pytest.raises(DurabilityError):
            read_framed(path)


# ----------------------------------------------------------------------
# Event-batch wire format
# ----------------------------------------------------------------------
class TestEventBatchCodec:
    def test_delta_batch_round_trip(self):
        batch = (
            EventBatchBuilder()
            .change_weight(3, 0.5)
            .change_weight(1, -0.25)
            .change_distance(0, 4, 0.125)
            .build()
        )
        decoded = decode_event_batch(encode_event_batch(batch))
        assert np.array_equal(decoded.weight_delta_elements, [3, 1])
        assert np.array_equal(decoded.weight_deltas, [0.5, -0.25])
        assert np.array_equal(decoded.distance_delta_pairs, [[0, 4]])
        assert np.array_equal(decoded.distance_deltas, [0.125])
        assert not decoded.weight_deltas.flags.writeable

    def test_insert_rows_and_deletes_round_trip(self):
        batch = (
            EventBatchBuilder()
            .insert(1.5, distances=np.linspace(1.0, 2.0, 8))
            .insert(0.5, distances=np.linspace(2.0, 1.0, 9))
            .delete(6)
            .build()
        )
        decoded = decode_event_batch(encode_event_batch(batch))
        assert decoded.num_inserts == 2
        assert np.array_equal(decoded.insert_distances[1], np.linspace(2.0, 1.0, 9))
        assert np.array_equal(decoded.delete_elements, [6])

    def test_insert_points_round_trip(self):
        batch = (
            EventBatchBuilder()
            .insert(2.0, point=np.array([0.1, 0.2, 0.3]))
            .build()
        )
        decoded = decode_event_batch(encode_event_batch(batch))
        assert decoded.insert_points.shape == (1, 3)
        assert np.array_equal(decoded.insert_points, batch.insert_points)

    def test_newer_encoding_version_rejected(self, monkeypatch):
        import repro.dynamic.events as events

        monkeypatch.setattr(events, "_ENCODING_VERSION", 999)
        data = encode_event_batch(EventBatchBuilder().change_weight(0, 1.0).build())
        monkeypatch.undo()
        with pytest.raises(SnapshotVersionError):
            decode_event_batch(data)


# ----------------------------------------------------------------------
# Durable sessions: journal-before-apply and crash replay
# ----------------------------------------------------------------------
class TestDurableSession:
    def test_dense_recover_matches_uncrashed_twin(self, tmp_path):
        weights, distances = _dense_instance()
        durable = DynamicSession(
            weights, 4, distances=distances, durable_dir=str(tmp_path / "d")
        )
        twin = DynamicSession(weights, 4, distances=distances)
        rng = np.random.default_rng(7)
        for _ in range(6):
            batch = _tick(rng, durable.n)
            durable.apply_events(batch)
            twin.apply_events(batch)
        _assert_same_state(durable, twin)
        durable.close()

        recovered = DynamicSession.recover(str(tmp_path / "d"))
        _assert_same_state(recovered, twin)
        # and the recovered session keeps journaling: more ticks stay in sync
        batch = _tick(rng, recovered.n)
        recovered.apply_events(batch)
        twin.apply_events(batch)
        _assert_same_state(recovered, twin)
        recovered.close()

    def test_sharded_recover_matches_uncrashed_twin(self, tmp_path):
        points, weights = _sharded_instance()
        durable = DynamicSession(
            weights,
            5,
            points=points,
            shard_size=16,
            durable_dir=str(tmp_path / "s"),
            snapshot_every=3,
        )
        twin = DynamicSession(weights, 5, points=points, shard_size=16)
        rng = np.random.default_rng(11)
        for _ in range(7):
            batch = _tick(rng, durable.n)
            durable.apply_events(batch)
            twin.apply_events(batch)
        durable.close()
        recovered = DynamicSession.recover(str(tmp_path / "s"))
        _assert_same_state(recovered, twin)
        recovered.close()

    def test_torn_final_record_recovers_previous_tick(self, tmp_path):
        weights, distances = _dense_instance()
        directory = str(tmp_path / "d")
        session = DynamicSession(
            weights, 4, distances=distances, durable_dir=directory, fsync="off"
        )
        reference = DynamicSession(weights, 4, distances=distances)
        rng = np.random.default_rng(3)
        for index in range(5):
            batch = _tick(rng, session.n)
            session.apply_events(batch)
            if index < 4:
                reference.apply_events(batch)  # reference stops one tick short
        session.close()
        tear_wal_tail(os.path.join(directory, "wal.log"), 5)
        with pytest.warns(DurabilityWarning):
            recovered = DynamicSession.recover(directory)
        _assert_same_state(recovered, reference)
        recovered.close()

    def test_mid_log_corruption_refuses_recovery(self, tmp_path):
        weights, distances = _dense_instance()
        directory = str(tmp_path / "d")
        session = DynamicSession(
            weights, 4, distances=distances, durable_dir=directory, fsync="off"
        )
        rng = np.random.default_rng(4)
        for _ in range(4):
            session.apply_events(_tick(rng, session.n))
        session.close()
        wal_path = os.path.join(directory, "wal.log")
        # damage the init record's payload: mid-log, records follow it
        flip_byte(wal_path, len(WAL_MAGIC) + 12 + 9 + 50)
        with pytest.raises(WalCorruptionError):
            DynamicSession.recover(directory)

    def test_journal_before_apply_covers_rejected_ticks(self, tmp_path):
        weights, distances = _dense_instance()
        directory = str(tmp_path / "d")
        session = DynamicSession(
            weights, 4, distances=distances, durable_dir=directory, fsync="off"
        )
        good = EventBatchBuilder().change_weight(0, 0.5).build()
        session.apply_events(good)
        # a tick the engine rejects is journaled first (journal-before-apply);
        # replay must reproduce the rejection, not choke on the record
        bad = EventBatchBuilder().change_weight(1, -100.0).build()
        with pytest.raises(Exception):
            session.apply_events(bad)
        session.apply_events(EventBatchBuilder().change_weight(2, 0.25).build())
        reference_solution = session.solution
        reference_value = session.solution_value
        session.close()
        recovered = DynamicSession.recover(directory)
        assert recovered.solution == reference_solution
        assert recovered.solution_value == reference_value
        recovered.close()

    def test_compaction_truncates_and_rotates(self, tmp_path):
        weights, distances = _dense_instance()
        directory = str(tmp_path / "d")
        session = DynamicSession(
            weights,
            4,
            distances=distances,
            durable_dir=directory,
            fsync="off",
            snapshot_every=2,
            keep_snapshots=2,
        )
        rng = np.random.default_rng(5)
        for _ in range(6):
            session.apply_events(_tick(rng, session.n))
        store = session.durable
        assert store.snapshots.generations() == [2, 3]  # pruned to keep=2
        # the journal was truncated at the last compaction: only magic remains
        assert os.path.getsize(store.wal_path) == len(WAL_MAGIC)
        session.close()


# ----------------------------------------------------------------------
# Recovery edge cases
# ----------------------------------------------------------------------
class TestRecoveryEdgeCases:
    def _durable_session(self, directory, **kwargs):
        weights, distances = _dense_instance()
        kwargs.setdefault("fsync", "off")
        session = DynamicSession(
            weights, 4, distances=distances, durable_dir=directory, **kwargs
        )
        return session

    def test_nothing_to_recover(self, tmp_path):
        directory = tmp_path / "fresh"
        directory.mkdir()
        (directory / "wal.log").touch()  # crash beat even the magic write
        with pytest.raises(RecoveryError, match="nothing to recover"):
            DynamicSession.recover(str(directory))

    def test_snapshot_only_recovery(self, tmp_path):
        directory = str(tmp_path / "d")
        session = self._durable_session(directory, snapshot_every=2)
        rng = np.random.default_rng(6)
        for _ in range(4):
            session.apply_events(_tick(rng, session.n))
        reference_solution = session.solution
        reference_value = session.solution_value
        session.close()
        os.remove(os.path.join(directory, "wal.log"))  # journal lost entirely
        recovered = DynamicSession.recover(directory)
        assert recovered.solution == reference_solution
        assert recovered.solution_value == reference_value
        assert recovered.ticks == 4
        recovered.close()

    def test_log_only_recovery(self, tmp_path):
        directory = str(tmp_path / "d")
        session = self._durable_session(directory)  # snapshot_every=None
        rng = np.random.default_rng(8)
        for _ in range(3):
            session.apply_events(_tick(rng, session.n))
        reference_value = session.solution_value
        session.close()
        assert session.durable is None
        recovered = DynamicSession.recover(directory)
        assert recovered.durable.snapshots.generations() == []
        assert recovered.solution_value == reference_value
        recovered.close()

    def test_crash_between_snapshot_and_truncate(self, tmp_path):
        directory = str(tmp_path / "d")
        session = self._durable_session(directory, snapshot_every=3)
        twin_weights, twin_distances = _dense_instance()
        twin = DynamicSession(twin_weights, 4, distances=twin_distances)
        rng = np.random.default_rng(9)
        for _ in range(2):
            batch = _tick(rng, session.n)
            session.apply_events(batch)
            twin.apply_events(batch)
        crash_after_snapshot(session.durable)
        fatal = _tick(rng, session.n)
        with pytest.raises(SimulatedCrash):
            session.apply_events(fatal)  # tick 3 applies, compaction dies
        twin.apply_events(fatal)
        session.close()
        # both the new snapshot and the full journal exist: the double state
        snapshots = SnapshotStore(os.path.join(directory, "snapshots"))
        assert snapshots.generations() == [1]
        _, untruncated = read_wal(os.path.join(directory, "wal.log"))
        assert untruncated > len(WAL_MAGIC)
        # recovery must not replay the already-covered records on top of the
        # snapshot (that would double-apply ticks 1-3)
        recovered = DynamicSession.recover(directory)
        _assert_same_state(recovered, twin)
        recovered.close()

    def test_double_recovery_is_idempotent(self, tmp_path):
        directory = str(tmp_path / "d")
        session = self._durable_session(directory, snapshot_every=2)
        rng = np.random.default_rng(10)
        for _ in range(5):
            session.apply_events(_tick(rng, session.n))
        session.close()
        first = DynamicSession.recover(directory)
        first.close()
        second = DynamicSession.recover(directory)
        _assert_same_state(first, second)
        second.close()

    def test_start_fresh_refuses_existing_journal(self, tmp_path):
        directory = str(tmp_path / "d")
        session = self._durable_session(directory)
        session.apply_events(EventBatchBuilder().change_weight(0, 0.5).build())
        session.close()
        with pytest.raises(RecoveryError, match="recover"):
            self._durable_session(directory)

    def test_mismatched_lineage_rejected(self, tmp_path):
        dir_a = str(tmp_path / "a")
        dir_b = str(tmp_path / "b")
        session_a = self._durable_session(dir_a, snapshot_every=1)
        session_a.apply_events(EventBatchBuilder().change_weight(0, 0.5).build())
        session_a.close()
        weights, distances = _dense_instance(seed=99)
        session_b = DynamicSession(
            weights, 4, distances=distances, durable_dir=dir_b, fsync="off"
        )
        session_b.apply_events(EventBatchBuilder().change_weight(1, 0.5).build())
        session_b.close()
        # graft A's compaction snapshot onto B's journal
        shutil.rmtree(os.path.join(dir_b, "snapshots"), ignore_errors=True)
        shutil.copytree(
            os.path.join(dir_a, "snapshots"), os.path.join(dir_b, "snapshots")
        )
        with pytest.raises(SnapshotVersionError, match="different durable"):
            DynamicSession.recover(dir_b)

    def test_newer_checkpoint_version_rejected(self, tmp_path):
        directory = str(tmp_path / "d")
        session = self._durable_session(directory, snapshot_every=1)
        session.apply_events(EventBatchBuilder().change_weight(0, 0.5).build())
        session.close()
        snapshots = SnapshotStore(os.path.join(directory, "snapshots"))
        generation, checkpoint = snapshots.load_latest()
        assert isinstance(checkpoint, DurableCheckpoint)
        bumped = dataclasses.replace(
            checkpoint, format_version=SNAPSHOT_FORMAT_VERSION + 1
        )
        write_framed(
            snapshots.path_for(generation),
            pickle.dumps(bumped, protocol=pickle.HIGHEST_PROTOCOL),
        )
        with pytest.raises(SnapshotVersionError, match="format_version"):
            DynamicSession.recover(directory)

    def test_recover_overrides_journaled_config(self, tmp_path):
        directory = str(tmp_path / "d")
        session = self._durable_session(directory, snapshot_every=2)
        session.apply_events(EventBatchBuilder().change_weight(0, 0.5).build())
        session.close()
        recovered = DynamicSession.recover(directory, snapshot_every=7)
        assert recovered.durable.snapshot_every == 7
        recovered.close()
        again = DynamicSession.recover(directory)
        assert again.durable.snapshot_every == 2  # journaled value, untouched
        again.close()


# ----------------------------------------------------------------------
# Crash at every record boundary (property)
# ----------------------------------------------------------------------
TICKS = 5


def _crash_states(tmp_path_factory_dir, seed):
    """Durable run journaling TICKS ticks; returns per-boundary WAL images
    plus the reference state after each tick."""
    weights, distances = _dense_instance(seed=seed)
    directory = os.path.join(tmp_path_factory_dir, f"run-{seed}")
    session = DynamicSession(
        weights, 4, distances=distances, durable_dir=directory, fsync="off"
    )
    reference = DynamicSession(weights, 4, distances=distances)
    wal_path = os.path.join(directory, "wal.log")
    wal_images = [open(wal_path, "rb").read()]
    states = [(reference.solution, reference.solution_value)]
    rng = np.random.default_rng(seed)
    for _ in range(TICKS):
        batch = _tick(rng, session.n)
        session.apply_events(batch)
        reference.apply_events(batch)
        wal_images.append(open(wal_path, "rb").read())
        states.append((reference.solution, reference.solution_value))
    session.close()
    return directory, wal_images, states


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2),
    crash_tick=st.integers(min_value=0, max_value=TICKS),
    torn_bytes=st.integers(min_value=0, max_value=40),
)
def test_crash_anywhere_recovers_uncrashed_state(
    tmp_path_factory, seed, crash_tick, torn_bytes
):
    """Crash after any journaled tick — clean at the record boundary or with
    a torn partial append on top — and recovery equals the uncrashed state at
    the last intact boundary, bit for bit."""
    base = str(tmp_path_factory.mktemp("crash"))
    directory, wal_images, states = _crash_states(base, seed)
    image = wal_images[crash_tick]
    frame_size = len(image) - len(wal_images[crash_tick - 1]) if crash_tick else 0
    torn = min(torn_bytes, max(0, frame_size - 1))  # never tear past one record
    crash_dir = os.path.join(base, f"crash-{crash_tick}-{torn}")
    os.makedirs(crash_dir)
    with open(os.path.join(crash_dir, "wal.log"), "wb") as handle:
        handle.write(image[: len(image) - torn])

    expected_tick = crash_tick - 1 if torn else crash_tick
    if torn:
        with pytest.warns(DurabilityWarning):
            recovered = DynamicSession.recover(crash_dir)
    else:
        recovered = DynamicSession.recover(crash_dir)
    solution, value = states[expected_tick]
    assert recovered.solution == solution
    assert recovered.solution_value == value
    assert recovered.ticks == expected_tick
    recovered.close()


# ----------------------------------------------------------------------
# Snapshot versioning and fingerprints (all four snapshot types)
# ----------------------------------------------------------------------
class TestSnapshotVersioning:
    def test_unversioned_objects_rejected(self):
        class Legacy:
            pass

        with pytest.raises(SnapshotVersionError, match="format_version None"):
            check_snapshot_version(Legacy())

    def test_invalid_version_rejected(self):
        checkpoint = SolveCheckpoint(kind="greedy", n=4, p=2, format_version=0)
        with pytest.raises(SnapshotVersionError):
            check_snapshot_version(checkpoint)

    def test_solve_checkpoint_fingerprint_guard(self):
        checkpoint = SolveCheckpoint(
            kind="greedy",
            n=10,
            p=3,
            fingerprint=universe_fingerprint("solve", "greedy", 10, 0.5),
        )
        checkpoint.require("greedy", 10, fingerprint=checkpoint.fingerprint)
        with pytest.raises(SnapshotVersionError, match="different universe"):
            checkpoint.require(
                "greedy",
                10,
                fingerprint=universe_fingerprint("solve", "greedy", 10, 0.75),
            )

    def test_engine_snapshot_version_guard(self):
        weights, distances = _dense_instance()
        session = DynamicSession(weights, 4, distances=distances)
        snapshot = session.snapshot()
        assert snapshot.format_version == SNAPSHOT_FORMAT_VERSION
        assert snapshot.fingerprint is not None
        bumped = dataclasses.replace(
            snapshot, format_version=SNAPSHOT_FORMAT_VERSION + 1
        )
        with pytest.raises(SnapshotVersionError):
            DynamicSession.restore(bumped)

    def test_session_snapshot_version_guard(self):
        points, weights = _sharded_instance()
        session = DynamicSession(weights, 5, points=points, shard_size=16)
        snapshot = session.snapshot()
        assert snapshot.format_version == SNAPSHOT_FORMAT_VERSION
        assert snapshot.fingerprint is not None
        bumped = dataclasses.replace(
            snapshot, format_version=SNAPSHOT_FORMAT_VERSION + 1
        )
        with pytest.raises(SnapshotVersionError):
            DynamicSession.restore(bumped)

    def test_corpus_snapshot_version_guard(self, tmp_path):
        from repro.functions.modular import ModularFunction
        from repro.metrics.euclidean import EuclideanMetric
        from repro.serve.corpus import PreparedCorpus

        rng = np.random.default_rng(0)
        corpus = PreparedCorpus(
            ModularFunction(rng.random(20)),
            EuclideanMetric(rng.random((20, 3))),
            tradeoff=0.5,
        )
        snapshot = corpus.snapshot()
        assert snapshot.format_version == SNAPSHOT_FORMAT_VERSION
        assert snapshot.fingerprint is not None
        bumped = dataclasses.replace(
            snapshot, format_version=SNAPSHOT_FORMAT_VERSION + 1
        )
        with pytest.raises(SnapshotVersionError):
            PreparedCorpus.restore(bumped)
        path = str(tmp_path / "c.snap")
        bumped.save(path, durable=True)
        with pytest.raises(SnapshotVersionError):
            PreparedCorpus.load(path)
