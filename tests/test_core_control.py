"""The run-control value: validation, the path table, pool-bound checkpoints.

:class:`~repro.core.control.RunControl` replaces the five keywords
(``deadline``, ``checkpoint_every``, ``on_checkpoint``, ``resume_from``,
``trace``) every solve layer used to take.  These tests pin its validation,
the table of which path honours which field, and that checkpoints resume only
the candidate pool they were written for.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.core.batch import solve_many
from repro.core.checkpoint import SolveCheckpoint
from repro.core.control import PATHS, RunControl
from repro.core.greedy import greedy_diversify
from repro.core.local_search import local_search_diversify, refine_with_local_search
from repro.core.objective import Objective
from repro.core.sharding import solve_sharded
from repro.core.solver import ALGORITHMS, _dispatch, solve
from repro.core.streaming import StreamingDiversifier, streaming_diversify
from repro.data.synthetic import make_feature_instance
from repro.dynamic.session import DynamicSession
from repro.dynamic.simulation import run_dynamic_simulation
from repro.exceptions import InvalidParameterError, SnapshotVersionError
from repro.matroids.uniform import UniformMatroid
from repro.obs.trace import Trace
from repro.utils.deadline import Deadline

OLD_KEYWORDS = {
    "deadline",
    "deadline_s",
    "checkpoint_every",
    "on_checkpoint",
    "resume_from",
    "trace",
}

ENTRY_POINTS = [
    solve,
    _dispatch,
    greedy_diversify,
    solve_sharded,
    local_search_diversify,
    refine_with_local_search,
    streaming_diversify,
    StreamingDiversifier.process_stream,
    solve_many,
    run_dynamic_simulation,
    DynamicSession.__init__,
    DynamicSession.restore,
    DynamicSession.recover,
]

#: The algorithms that run on the greedy path.
GREEDY = {"auto", "greedy", "greedy_best_pair"}

POOL_A, POOL_B = list(range(20)), list(range(20, 40))


@pytest.fixture
def instance():
    return make_feature_instance(40, dimension=4, seed=5)


def _solve(instance, **kwargs):
    return solve(
        instance.quality, instance.metric, tradeoff=instance.tradeoff, **kwargs
    )


def _sharded(instance, **kwargs):
    return solve_sharded(
        instance.quality, instance.metric, tradeoff=instance.tradeoff, **kwargs
    )


def _dense_session_inputs(n=10, seed=0):
    rng = np.random.default_rng(seed)
    distances = rng.uniform(1.0, 2.0, (n, n))
    distances = (distances + distances.T) / 2
    np.fill_diagonal(distances, 0.0)
    return rng.uniform(0.0, 5.0, n), distances


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------
class TestValidation:
    @pytest.mark.parametrize("every", [0, -2, 2.0, "3", True])
    def test_cadence_must_be_an_int_of_at_least_one(self, every):
        with pytest.raises(InvalidParameterError):
            RunControl(checkpoint_every=every)

    def test_integer_cadence_is_kept(self):
        assert RunControl(checkpoint_every=np.int64(3)).checkpoint_every == 3

    def test_callback_alone_means_every_one(self):
        assert RunControl().checkpoint_every is None
        control = RunControl(on_checkpoint=lambda checkpoint: None)
        assert control.checkpoint_every == 1
        explicit = RunControl(checkpoint_every=4, on_checkpoint=print)
        assert explicit.checkpoint_every == 4

    def test_float_deadline_becomes_a_deadline(self):
        control = RunControl(deadline=2.5)
        assert isinstance(control.deadline, Deadline)
        assert control.deadline.seconds == 2.5
        shared = Deadline(60.0)
        assert RunControl(deadline=shared).deadline is shared
        with pytest.raises(InvalidParameterError):
            RunControl(deadline=-1.0)

    def test_resume_from_must_be_a_checkpoint(self):
        with pytest.raises(InvalidParameterError):
            RunControl(resume_from={"kind": "greedy"})

    def test_coerce(self):
        empty = RunControl.coerce(None)
        assert empty == RunControl()
        control = RunControl(deadline=1.0)
        assert RunControl.coerce(control) is control
        with pytest.raises(InvalidParameterError):
            RunControl.coerce(1.0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            RunControl().deadline = 1.0


# ----------------------------------------------------------------------
# One control value replaces the keywords
# ----------------------------------------------------------------------
@pytest.mark.parametrize("entry", ENTRY_POINTS, ids=lambda f: f.__qualname__)
def test_entry_points_take_control_not_the_old_keywords(entry):
    parameters = inspect.signature(entry).parameters
    assert "control" in parameters
    assert OLD_KEYWORDS.isdisjoint(parameters)


def test_table_covers_every_dispatched_algorithm():
    assert set(ALGORITHMS) - GREEDY <= set(PATHS)


# ----------------------------------------------------------------------
# Which path honours which field
# ----------------------------------------------------------------------
#: Algorithms that honour an expired deadline; the rest run to completion.
INTERRUPTIBLE = GREEDY | {"local_search"}


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_expired_deadline_interrupts_only_the_honouring_algorithms(algorithm):
    instance = make_feature_instance(9, dimension=3, seed=2)
    result = _solve(
        instance, p=3, algorithm=algorithm, control=RunControl(deadline=0.0)
    )
    if algorithm in INTERRUPTIBLE:
        assert result.metadata["interrupted"] is True
        assert result.metadata["deadline_s"] == 0.0
    else:
        assert "interrupted" not in result.metadata
        assert len(result.selected) == 3


@pytest.mark.parametrize("algorithm", sorted(set(ALGORITHMS) - GREEDY))
@pytest.mark.parametrize("field", ["checkpoint_every", "on_checkpoint", "resume_from"])
def test_checkpoint_fields_rejected_off_the_greedy_path(algorithm, field):
    value = {
        "checkpoint_every": 1,
        "on_checkpoint": lambda checkpoint: None,
        "resume_from": SolveCheckpoint(kind="greedy", n=9, p=3),
    }[field]
    small = make_feature_instance(9, dimension=3, seed=2)
    with pytest.raises(InvalidParameterError):
        _solve(small, p=3, algorithm=algorithm, control=RunControl(**{field: value}))


def test_matroid_path_rejects_checkpoints(instance):
    matroid = UniformMatroid(instance.metric.n, 4)
    with pytest.raises(InvalidParameterError):
        _solve(instance, matroid=matroid, control=RunControl(checkpoint_every=1))


def test_local_search_streaming_and_batch_reject_checkpoints(instance):
    objective = Objective(instance.quality, instance.metric, instance.tradeoff)
    checkpoints = RunControl(on_checkpoint=lambda checkpoint: None)
    with pytest.raises(InvalidParameterError):
        local_search_diversify(
            objective, UniformMatroid(objective.n, 4), control=checkpoints
        )
    with pytest.raises(InvalidParameterError):
        streaming_diversify(objective, 4, control=checkpoints)
    with pytest.raises(InvalidParameterError):
        solve_many(
            instance.quality,
            instance.metric,
            [POOL_A],
            tradeoff=instance.tradeoff,
            p=4,
            control=checkpoints,
        )


def test_untraced_paths_ignore_a_trace(instance):
    objective = Objective(instance.quality, instance.metric, instance.tradeoff)
    trace = Trace()
    local_search_diversify(
        objective, UniformMatroid(objective.n, 4), control=RunControl(trace=trace)
    )
    streaming_diversify(objective, 4, control=RunControl(trace=trace))
    solve_many(
        instance.quality,
        instance.metric,
        [POOL_A, POOL_B],
        tradeoff=instance.tradeoff,
        p=4,
        control=RunControl(trace=trace),
    )
    assert not trace.spans()


def test_session_rejects_deadline_and_resume_from():
    weights, distances = _dense_session_inputs()
    for control in (
        RunControl(deadline=10.0),
        RunControl(resume_from=SolveCheckpoint(kind="greedy", n=10, p=3)),
    ):
        with pytest.raises(InvalidParameterError):
            DynamicSession(weights, 3, distances=distances, control=control)
    session = DynamicSession(weights, 3, distances=distances)
    with pytest.raises(InvalidParameterError):
        DynamicSession.restore(session.snapshot(), control=RunControl(deadline=1.0))


# ----------------------------------------------------------------------
# Checkpoint fields reach only the layer that emits them
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algorithm", ["greedy", "local_search"])
def test_sharded_callback_sees_only_sharded_checkpoints(instance, algorithm):
    seen = []
    result = _sharded(
        instance,
        p=4,
        shards=4,
        algorithm=algorithm,
        control=RunControl(on_checkpoint=seen.append),
    )
    assert [checkpoint.kind for checkpoint in seen] == ["sharded"] * 4
    assert "resumed_at" not in result.metadata


def test_process_pool_keeps_callback_and_trace_in_the_parent():
    instance = make_feature_instance(400, dimension=4, seed=3)
    trace = Trace()
    seen = []
    result = _sharded(
        instance,
        p=5,
        shards=4,
        executor="process",
        max_workers=2,
        # A lambda cannot be pickled, so the callback must stay in the parent.
        control=RunControl(on_checkpoint=lambda c: seen.append(c), trace=trace),
    )
    assert "degraded" not in result.metadata
    assert result.metadata["sharding"]["executor"] == "process"
    assert [len(checkpoint.shard_winners) for checkpoint in seen] == [1, 2, 3, 4]
    plain = _sharded(instance, p=5, shards=4)
    assert result.selected == plain.selected
    spans = trace.spans()
    shard_ids = {span.span_id for span in spans if span.name == "shard"}
    assert len(shard_ids) == 4
    assert any(span.parent_id in shard_ids for span in spans), (
        "worker spans were not adopted under their shard spans"
    )


# ----------------------------------------------------------------------
# Checkpoints bind to their candidate pool
# ----------------------------------------------------------------------
class TestPoolBoundCheckpoints:
    def test_sharded_checkpoint_does_not_resume_another_pool(self, instance):
        checkpoints = []
        _sharded(
            instance,
            p=4,
            shards=4,
            candidates=POOL_A,
            control=RunControl(on_checkpoint=checkpoints.append),
        )
        with pytest.raises(SnapshotVersionError):
            _sharded(
                instance,
                p=4,
                shards=4,
                candidates=POOL_B,
                control=RunControl(resume_from=checkpoints[1]),
            )

    def test_greedy_checkpoint_does_not_resume_another_pool(self, instance):
        checkpoints = []
        _solve(
            instance,
            p=6,
            candidates=POOL_A,
            control=RunControl(checkpoint_every=3, on_checkpoint=checkpoints.append),
        )
        with pytest.raises(SnapshotVersionError):
            _solve(
                instance,
                p=6,
                candidates=POOL_B,
                control=RunControl(resume_from=checkpoints[0]),
            )

    def test_full_universe_checkpoint_does_not_resume_a_pool_of_size_n(
        self, instance
    ):
        n = instance.metric.n
        checkpoints = []
        _solve(
            instance,
            p=6,
            control=RunControl(checkpoint_every=3, on_checkpoint=checkpoints.append),
        )
        with pytest.raises(SnapshotVersionError):
            _solve(
                instance,
                p=6,
                candidates=list(range(n - 1, -1, -1)),
                control=RunControl(resume_from=checkpoints[0]),
            )
        sharded = []
        _sharded(
            instance, p=4, shards=4, control=RunControl(on_checkpoint=sharded.append)
        )
        with pytest.raises(SnapshotVersionError):
            _sharded(
                instance,
                p=4,
                shards=4,
                candidates=range(n),
                control=RunControl(resume_from=sharded[1]),
            )

    @pytest.mark.parametrize("pool", [None, POOL_B, POOL_B[::-1]])
    def test_same_pool_resumes_bit_identically(self, instance, pool):
        checkpoints = []
        full = _solve(
            instance,
            p=6,
            candidates=pool,
            control=RunControl(checkpoint_every=2, on_checkpoint=checkpoints.append),
        )
        for checkpoint in checkpoints:
            resumed = _solve(
                instance,
                p=6,
                candidates=pool,
                control=RunControl(resume_from=checkpoint),
            )
            assert list(resumed.order) == list(full.order)
            assert resumed.objective_value == full.objective_value
            assert resumed.metadata["resumed_at"] == len(checkpoint.order)

        sharded = []
        whole = _sharded(
            instance,
            p=4,
            shards=4,
            candidates=pool,
            control=RunControl(on_checkpoint=sharded.append),
        )
        for checkpoint in sharded:
            resumed = _sharded(
                instance,
                p=4,
                shards=4,
                candidates=pool,
                control=RunControl(resume_from=checkpoint),
            )
            assert list(resumed.order) == list(whole.order)
            assert resumed.objective_value == whole.objective_value
