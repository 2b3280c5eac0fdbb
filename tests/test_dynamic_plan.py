"""Transactional ticks: one planner checks every tick before anything is written.

Both dynamic engines plan a tick (:func:`repro.dynamic.plan.plan_tick`)
against read-only state before they write, and a durable session journals a
tick only after its plan succeeded.  The properties under test:

* a tick holding one invalid event anywhere raises and leaves the snapshot,
  the write-ahead log and the tick counter exactly as they were, on both
  engines, durable or not;
* malformed batches, as a decoder could hand them over, raise only
  ``PerturbationError`` and write nothing;
* a committed plan equals applying its batch, and a plan that outlived a
  commit is refused;
* replaying a journal record the engine rejects raises ``RecoveryError``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic.engine import DynamicDiversifier
from repro.dynamic.events import EventBatch, EventBatchBuilder
from repro.dynamic.session import DynamicSession
from repro.exceptions import InvalidParameterError, PerturbationError, RecoveryError

P = 4
DIM = 3
SIZES = {"dense": 12, "sharded": 40}
RETIRED = 9  # deleted before each test tick, so a retired id exists


def _session(backend, directory=None):
    """A session with slot ``RETIRED`` deleted.  Dense distances lie in
    [1.3, 1.7], and the dense engine checks triangles (``validate_metric``)."""
    n = SIZES[backend]
    rng = np.random.default_rng(7)
    weights = np.round(rng.uniform(0.5, 5.0, n), 2)
    durable = {"durable_dir": directory, "fsync": "off"} if directory else {}
    if backend == "dense":
        distances = rng.uniform(1.3, 1.7, (n, n))
        distances = (distances + distances.T) / 2
        np.fill_diagonal(distances, 0.0)
        session = DynamicSession(
            weights, P, distances=distances, validate_metric=True, **durable
        )
    else:
        points = rng.normal(size=(n, DIM))
        session = DynamicSession(weights, P, points=points, shard_size=8, **durable)
    session.apply_events(EventBatchBuilder().delete(RETIRED).build())
    return session


def _assert_same_snapshot(actual, expected):
    assert type(actual) is type(expected)
    for field in dataclasses.fields(expected):
        got, want = getattr(actual, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert np.array_equal(got, want), field.name
        else:
            assert got == want, field.name


def _wal_bytes(session):
    if session.durable is None:
        return None
    with open(session.durable.wal_path, "rb") as handle:
        return handle.read()


# ----------------------------------------------------------------------
# One bad event anywhere in a valid tick
# ----------------------------------------------------------------------
BAD_KINDS = (
    "unknown weight",
    "retired weight",
    "unknown distance",
    "retired delete",
    "weight over-decrease",
    "distance over-decrease",
    "delete below p",
    "insert form",
    "triangle",
)


def _valid_ops(backend, rng, *, keep_deletes_at=None):
    """Events that are valid together against the session of ``_session``.

    Each pair gets at most one distance event and deltas only grow values,
    so dense distances stay in [1.05, 1.95] and no triangle can break.
    ``keep_deletes_at`` fixes how many live elements the deletes leave.
    """
    n = SIZES[backend]
    live = [e for e in range(n) if e != RETIRED]
    ops = []
    for _ in range(int(rng.integers(0, 4))):
        ops.append(("set_weight", int(rng.choice(live)), float(rng.uniform(0, 5))))
    for _ in range(int(rng.integers(0, 4))):
        ops.append(
            ("change_weight", int(rng.choice(live)), float(rng.uniform(0.05, 0.5)))
        )
    pairs = set()
    for _ in range(int(rng.integers(0, 5))):
        u, v = sorted(int(x) for x in rng.choice(live, size=2, replace=False))
        if (u, v) in pairs:
            continue
        pairs.add((u, v))
        if rng.uniform() < 0.5:
            ops.append(("set_distance", u, v, float(rng.uniform(1.2, 1.8))))
        else:
            ops.append(("change_distance", u, v, float(rng.uniform(0.05, 0.25))))
    inserts = int(rng.integers(0, 3))
    ops.extend(("insert", float(rng.uniform(0, 5))) for _ in range(inserts))
    count = len(live) + inserts
    deletes = (
        count - keep_deletes_at
        if keep_deletes_at is not None
        else int(rng.integers(0, 3))
    )
    for element in rng.choice(live, size=deletes, replace=False):
        ops.append(("delete", int(element)))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order], pairs


def _bad_op(kind, backend, rng, ops, pairs):
    n = SIZES[backend]
    deleted = {op[1] for op in ops if op[0] == "delete"}
    live = [e for e in range(n) if e != RETIRED]
    untouched = [
        (u, v)
        for u in live
        for v in live
        if u < v and (u, v) not in pairs
    ]
    u, v = untouched[int(rng.integers(len(untouched)))]
    if kind == "unknown weight":
        return ("change_weight", n + 3, 0.5)
    if kind == "retired weight":
        return ("set_weight", RETIRED, 1.0)
    if kind == "unknown distance":
        return ("set_distance", u, n + 1, 1.5)
    if kind == "retired delete":
        return ("delete", RETIRED)
    if kind == "weight over-decrease":
        return ("change_weight", int(rng.choice(live)), -1e6)
    if kind == "distance over-decrease":
        return ("change_distance", u, v, -1e6)
    if kind == "delete below p":
        return ("delete", int(rng.choice([e for e in live if e not in deleted])))
    if kind == "insert form":
        return ("bad insert", 1.0)
    assert kind == "triangle"
    return ("set_distance", u, v, 10.0)


def _build(backend, ops, rng):
    """Record ``ops`` in order; insert rows and points are made here, so
    each dense row has the length its position in the batch needs."""
    n = SIZES[backend]
    builder = EventBatchBuilder()
    inserts = 0
    for op in ops:
        name = op[0]
        if name in ("insert", "bad insert"):
            if backend == "dense":
                length = n + inserts + (name == "bad insert")
                builder.insert(op[1], distances=rng.uniform(1.3, 1.7, length))
            else:
                dim = DIM + (name == "bad insert")
                builder.insert(op[1], point=rng.normal(size=dim))
            inserts += 1
        else:
            getattr(builder, name)(*op[1:])
    return builder.build()


@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
@pytest.mark.parametrize("backend", ["dense", "sharded"])
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    kind=st.sampled_from(BAD_KINDS),
    position=st.floats(min_value=0.0, max_value=1.0),
)
def test_one_bad_event_changes_nothing(
    tmp_path_factory, backend, durable, seed, kind, position
):
    if backend == "sharded" and kind == "triangle":
        kind = "distance over-decrease"  # no triangle check on the lazy tier
    rng = np.random.default_rng(seed)
    ops, pairs = _valid_ops(
        backend, rng, keep_deletes_at=P if kind == "delete below p" else None
    )
    if backend == "sharded" and kind == "insert form":
        ops = [op for op in ops if op[0] != "insert"]  # one point dimension
    bad = _bad_op(kind, backend, rng, ops, pairs)
    at = int(round(position * len(ops)))
    tainted = _build(backend, ops[:at] + [bad] + ops[at:], np.random.default_rng(seed))

    directory = str(tmp_path_factory.mktemp("bad")) if durable else None
    session = _session(backend, directory)
    before, wal, ticks = session.snapshot(), _wal_bytes(session), session.ticks
    with pytest.raises(PerturbationError):
        session.apply_events(tainted)
    _assert_same_snapshot(session.snapshot(), before)
    assert _wal_bytes(session) == wal
    assert session.ticks == ticks
    # The rest of the tick was valid: without the bad event it applies.
    session.apply_events(_build(backend, ops, np.random.default_rng(seed)))
    assert session.ticks == ticks + 1
    session.close()


# ----------------------------------------------------------------------
# Malformed batches
# ----------------------------------------------------------------------
def _raw_batch(**fields):
    """An ``EventBatch`` built directly, the way a decoder builds one."""
    ids, values = np.zeros(0, dtype=int), np.zeros(0)
    pairs = np.zeros((0, 2), dtype=int)
    arrays = {
        "weight_set_elements": np.array([7]),
        "weight_set_values": np.array([50.0]),
        "weight_delta_elements": ids,
        "weight_deltas": values,
        "distance_set_pairs": pairs,
        "distance_set_values": values,
        "distance_delta_pairs": pairs,
        "distance_deltas": values,
        "insert_weights": values,
    }
    arrays.update(fields)
    return EventBatch(**arrays)


def _nan_insert(backend):
    if backend == "dense":
        row = np.full(SIZES["dense"], 1.5)
        return {"insert_weights": np.array([np.nan]), "insert_distances": (row,)}
    return {"insert_weights": np.array([np.nan]), "insert_points": np.zeros((1, DIM))}


MALFORMED = {
    "weight lengths differ": lambda backend: {
        "weight_set_elements": np.array([7, 8]),
        "weight_set_values": np.array([50.0]),
    },
    "distance lengths differ": lambda backend: {
        "distance_set_pairs": np.array([[1, 2], [3, 4]]),
        "distance_set_values": np.array([1.5]),
    },
    "pair with u > v": lambda backend: {
        "distance_set_pairs": np.array([[5, 2]]),
        "distance_set_values": np.array([1.5]),
    },
    "self pair": lambda backend: {
        "distance_set_pairs": np.array([[3, 3]]),
        "distance_set_values": np.array([1.5]),
    },
    "nan insert weight": _nan_insert,
    "nan weight set": lambda backend: {"weight_set_values": np.array([np.nan])},
    "negative distance set": lambda backend: {
        "distance_set_pairs": np.array([[1, 2]]),
        "distance_set_values": np.array([-1.0]),
    },
    "float element ids": lambda backend: {
        "weight_set_elements": np.array([7.0]),
    },
    "pairs not (m, 2)": lambda backend: {
        "distance_delta_pairs": np.array([1, 2]),
        "distance_deltas": np.array([0.5]),
    },
}


@pytest.mark.parametrize("backend", ["dense", "sharded"])
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_batch_raises_perturbation_error_only(backend, case):
    session = _session(backend)
    before = session.snapshot()
    batch = _raw_batch(**MALFORMED[case](backend))
    with pytest.raises(PerturbationError):
        session.apply_events(batch)
    _assert_same_snapshot(session.snapshot(), before)


# ----------------------------------------------------------------------
# Partial writes that planning removes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_sharded_distance_rejection_keeps_weight_sets(tmp_path, durable):
    directory = str(tmp_path / "s") if durable else None
    session = _session("sharded", directory)
    weight = session.weight(5)
    batch = EventBatchBuilder().set_weight(5, 100.0).change_distance(1, 2, -1e6)
    with pytest.raises(PerturbationError):
        session.apply_events(batch.build())
    assert session.weight(5) == weight
    if durable:
        session.close()
        recovered = DynamicSession.recover(directory)
        assert recovered.weight(5) == weight
        recovered.close()


def test_sharded_updates_rejected_before_journal(tmp_path):
    directory = str(tmp_path / "s")
    session = _session("sharded", directory)
    wal = _wal_bytes(session)
    batch = EventBatchBuilder().change_weight(3, 0.5).build()
    with pytest.raises(InvalidParameterError):
        session.apply_events(batch, updates=2)
    assert _wal_bytes(session) == wal
    session.apply_events(batch)
    solution, value = session.solution, session.solution_value
    session.close()
    recovered = DynamicSession.recover(directory)
    assert recovered.solution == solution
    assert recovered.solution_value == value
    recovered.close()


@pytest.mark.parametrize("updates", [-1, 1.5, True])
def test_bad_updates_rejected_before_journal(tmp_path, updates):
    session = _session("dense", str(tmp_path / "d"))
    wal, ticks = _wal_bytes(session), session.ticks
    batch = EventBatchBuilder().change_weight(3, 0.5).build()
    with pytest.raises(InvalidParameterError):
        session.apply_events(batch, updates=updates)
    assert _wal_bytes(session) == wal
    assert session.ticks == ticks
    session.close()


# ----------------------------------------------------------------------
# Plans as a public value
# ----------------------------------------------------------------------
def _dense_engine():
    rng = np.random.default_rng(3)
    weights = np.round(rng.uniform(0, 10, 10), 2)
    distances = np.round(rng.uniform(1, 2, (10, 10)), 2)
    distances = (distances + distances.T) / 2
    np.fill_diagonal(distances, 0.0)
    return DynamicDiversifier(weights, distances, 3)


def test_committed_plan_equals_applied_batch():
    batch = (
        EventBatchBuilder()
        .set_weight(2, 9.5)
        .change_weight(2, 0.25)
        .set_distance(1, 4, 1.9)
        .change_distance(4, 1, 0.05)
        .build()
    )
    planned, direct = _dense_engine(), _dense_engine()
    weight = planned.weight(2)
    plan = planned.plan(batch, updates=2)
    assert plan.updates == 2
    assert np.array_equal(plan.weight_ids, [2])
    assert plan.weight_values.tolist() == [9.5 + 0.25]
    assert (plan.pair_rows.tolist(), plan.pair_cols.tolist()) == ([1], [4])
    assert plan.pair_values.tolist() == [1.9 + 0.05]
    assert planned.weight(2) == weight  # planning wrote nothing
    via_plan = planned.apply_events(plan)
    via_batch = direct.apply_events(batch, updates=2)
    assert via_plan.solution == via_batch.solution
    assert via_plan.swaps == via_batch.swaps
    assert via_plan.objective_value == via_batch.objective_value
    _assert_same_snapshot(planned.snapshot(), direct.snapshot())


def test_stale_or_foreign_plan_refused():
    engine, other = _dense_engine(), _dense_engine()
    plan = engine.plan(EventBatchBuilder().change_weight(0, 1.0).build())
    with pytest.raises(InvalidParameterError):
        other.apply_events(plan)
    with pytest.raises(InvalidParameterError):
        engine.apply_events(plan, updates=1)
    engine.apply_events(EventBatchBuilder().change_weight(1, 1.0).build())
    with pytest.raises(InvalidParameterError):
        engine.apply_events(plan)


# ----------------------------------------------------------------------
# Replay of a record the engine rejects
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "backend, batch, updates",
    [
        ("dense", EventBatchBuilder().change_weight(0, -1e6).build(), None),
        ("dense", EventBatchBuilder().delete(RETIRED).build(), None),
        ("sharded", EventBatchBuilder().change_distance(1, 2, -1e6).build(), None),
        ("sharded", EventBatchBuilder().change_weight(0, 0.5).build(), 2),
    ],
    ids=["over-decrease", "retired delete", "negative distance", "sharded updates"],
)
def test_recover_refuses_a_journaled_invalid_tick(tmp_path, backend, batch, updates):
    directory = str(tmp_path / "s")
    session = _session(backend, directory)
    session.durable.journal(batch, updates)  # a checksummed, well-formed record
    session.close()
    with pytest.raises(RecoveryError, match="rejects"):
        DynamicSession.recover(directory)
