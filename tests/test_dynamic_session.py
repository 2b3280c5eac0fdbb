"""DynamicSession facade and the sharded dynamic engine.

The facade contract: dense and sharded backends expose the same surface
(apply / apply_events / snapshot / restore), checkpoints fire on the session
cadence, the sharded tier only re-solves shards an event actually dirtied,
and shard failures degrade — never raise — with healing on the next clean
tick.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.dynamic.engine import DynamicDiversifier, EngineSnapshot
from repro.dynamic.events import EventBatchBuilder
from repro.dynamic.perturbation import WeightIncrease
from repro.dynamic.session import (
    DynamicSession,
    SessionSnapshot,
    ShardedDynamicEngine,
)
from repro.exceptions import InvalidParameterError, PerturbationError
from repro.metrics.euclidean import EuclideanMetric
from repro.testing.faults import CrashingMetric


def _dense_instance(n=14, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0, 5, n)
    distances = rng.uniform(1, 2, (n, n))
    distances = (distances + distances.T) / 2
    np.fill_diagonal(distances, 0.0)
    return weights, distances


def _sharded_instance(n=60, d=3, seed=1):
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, d))
    weights = rng.uniform(0.5, 2.0, n)
    return points, weights


class TestDenseFacade:
    def test_mode_and_passthrough(self):
        weights, distances = _dense_instance()
        session = DynamicSession(weights, 4, distances=distances)
        twin = DynamicDiversifier(weights, distances, 4)
        assert session.mode == "dense"
        assert session.n == 14
        assert session.solution == twin.solution
        outcome = session.apply(WeightIncrease(0, 1.0))
        expected = twin.apply(WeightIncrease(0, 1.0))
        assert outcome.solution == expected.solution
        assert session.ticks == 1
        assert session.approximation_ratio() >= 1.0

    def test_apply_events_counts_ticks(self):
        weights, distances = _dense_instance()
        session = DynamicSession(weights, 3, distances=distances)
        batch = EventBatchBuilder().change_weight(1, 0.5).change_weight(2, 0.5).build()
        session.apply_events(batch)
        session.apply_events(batch)
        assert session.ticks == 2

    def test_requires_exactly_one_backend(self):
        weights, distances = _dense_instance(8)
        points = np.ones((8, 2))
        with pytest.raises(InvalidParameterError):
            DynamicSession(weights, 3)
        with pytest.raises(InvalidParameterError):
            DynamicSession(weights, 3, distances=distances, points=points)

    def test_resolve_every_rejected_in_dense_mode(self):
        weights, distances = _dense_instance(8)
        with pytest.raises(InvalidParameterError):
            DynamicSession(weights, 3, distances=distances, resolve_every=5)
        session = DynamicSession(weights, 3, distances=distances)
        with pytest.raises(InvalidParameterError):
            session.resolve_full()

    def test_checkpoint_cadence(self):
        weights, distances = _dense_instance()
        snapshots = []
        session = DynamicSession(
            weights, 3, distances=distances,
            checkpoint_every=3, on_checkpoint=snapshots.append,
        )
        for step in range(7):
            session.apply(WeightIncrease(step % session.n, 0.1))
        assert len(snapshots) == 2  # after ticks 3 and 6
        assert all(isinstance(s, EngineSnapshot) for s in snapshots)

    def test_on_checkpoint_alone_means_every_tick(self):
        weights, distances = _dense_instance()
        snapshots = []
        session = DynamicSession(
            weights, 3, distances=distances, on_checkpoint=snapshots.append
        )
        session.apply(WeightIncrease(0, 0.1))
        session.apply(WeightIncrease(1, 0.1))
        assert len(snapshots) == 2

    def test_snapshot_restore_round_trip(self):
        weights, distances = _dense_instance()
        session = DynamicSession(weights, 4, distances=distances)
        session.apply(WeightIncrease(2, 3.0))
        snapshot = pickle.loads(pickle.dumps(session.snapshot()))
        restored = DynamicSession.restore(snapshot)
        assert restored.mode == "dense"
        assert restored.solution == session.solution
        assert restored.solution_value == pytest.approx(session.solution_value)

    def test_restore_rejects_unknown_kwargs(self):
        weights, distances = _dense_instance(8)
        session = DynamicSession(weights, 3, distances=distances)
        with pytest.raises(InvalidParameterError):
            DynamicSession.restore(session.snapshot(), shard_size=4)
        with pytest.raises(InvalidParameterError):
            DynamicSession.restore("not a snapshot")


class TestShardedEngine:
    def test_initial_solve_and_dirty_shards(self):
        points, weights = _sharded_instance()
        engine = ShardedDynamicEngine(points, weights, 5, shard_size=16)
        assert engine.num_shards == 4
        assert len(engine.solution) == 5
        assert not engine.degraded
        batch = EventBatchBuilder().change_weight(3, 0.5).build()
        outcome = engine.apply_events(batch)
        assert outcome.metadata["dirty_shards"] == (0,)

    def test_weight_event_on_clean_shard_keeps_solution_feasible(self):
        points, weights = _sharded_instance()
        engine = ShardedDynamicEngine(points, weights, 5, shard_size=16)
        value_before = engine.solution_value
        target = next(
            e for e in range(engine.n) if e not in engine.solution
        )
        engine.apply_events(
            EventBatchBuilder().change_weight(target, 50.0).build()
        )
        assert len(engine.solution) == 5
        assert target in engine.solution
        assert engine.solution_value > value_before

    def test_distance_override_changes_metric_view(self):
        points, weights = _sharded_instance()
        engine = ShardedDynamicEngine(points, weights, 5, shard_size=16)
        u, v = 0, 1
        engine.apply_events(EventBatchBuilder().set_distance(u, v, 9.5).build())
        assert engine.distance(u, v) == pytest.approx(9.5)
        assert engine.num_overrides == 1
        with pytest.raises(PerturbationError):
            engine.apply_events(
                EventBatchBuilder().change_distance(u, v, -20.0).build()
            )

    def test_point_insert_and_delete_round_trip(self):
        points, weights = _sharded_instance()
        engine = ShardedDynamicEngine(points, weights, 5, shard_size=16)
        n0 = engine.active_count
        batch = (
            EventBatchBuilder()
            .insert(100.0, point=np.zeros(points.shape[1]))
            .build()
        )
        outcome = engine.apply_events(batch)
        new_id = outcome.metadata["inserted"][0]
        assert engine.active_count == n0 + 1
        assert new_id in engine.solution  # overwhelming weight must win
        outcome = engine.apply_events(EventBatchBuilder().delete(new_id).build())
        assert engine.active_count == n0
        assert new_id not in engine.solution
        assert len(engine.solution) == 5
        assert outcome.metadata["deleted_members"] == (new_id,)
        # The freed slot is reused by the next insert.
        revived = engine.apply_events(
            EventBatchBuilder().insert(1.0, point=np.ones(points.shape[1])).build()
        ).metadata["inserted"][0]
        assert revived == new_id

    def test_dense_insert_rows_rejected(self):
        points, weights = _sharded_instance()
        engine = ShardedDynamicEngine(points, weights, 5, shard_size=16)
        batch = EventBatchBuilder().insert(1.0, distances=np.ones(60)).build()
        with pytest.raises(PerturbationError):
            engine.apply_events(batch)

    def test_delete_below_p_rejected(self):
        points, weights = _sharded_instance(n=6)
        engine = ShardedDynamicEngine(points, weights, 5, shard_size=4)
        builder = EventBatchBuilder()
        builder.delete(0)
        builder.delete(1)
        with pytest.raises(PerturbationError):
            engine.apply_events(builder.build())

    def test_incremental_tracks_full_resolve(self):
        points, weights = _sharded_instance(n=120, seed=5)
        engine = ShardedDynamicEngine(points, weights, 6, shard_size=24)
        rng = np.random.default_rng(6)
        for _ in range(8):
            builder = EventBatchBuilder()
            for _ in range(5):
                builder.change_weight(
                    int(rng.integers(engine.n)), float(rng.uniform(0.05, 0.5))
                )
            engine.apply_events(builder.build())
        incremental = engine.solution_value
        full = engine.resolve_full(adopt=False).objective_value
        assert incremental >= 0.95 * full

    def test_resolve_full_adopts_when_better(self):
        points, weights = _sharded_instance(n=80, seed=7)
        engine = ShardedDynamicEngine(points, weights, 6, shard_size=16)
        result = engine.resolve_full(adopt=True)
        assert engine.solution_value >= result.objective_value - 1e-9

    def test_snapshot_pickles_and_restores(self):
        points, weights = _sharded_instance()
        engine = ShardedDynamicEngine(points, weights, 5, shard_size=16)
        engine.apply_events(EventBatchBuilder().set_distance(0, 1, 5.0).build())
        snapshot = pickle.loads(pickle.dumps(engine.snapshot(ticks=3)))
        assert isinstance(snapshot, SessionSnapshot)
        restored = ShardedDynamicEngine.restore(snapshot)
        assert restored.distance(0, 1) == pytest.approx(5.0)
        assert len(restored.solution) == 5
        assert restored.solution_value == pytest.approx(
            restored.objective_value(restored.solution)
        )


class TestOverrideTable:
    """The sharded engine keeps one override table and updates it in place."""

    def _engine_with_overrides(self, ticks=10, per_tick=5):
        points, weights = _sharded_instance(n=64)
        engine = ShardedDynamicEngine(points, weights, 4, shard_size=16)
        rng = np.random.default_rng(7)
        for _ in range(ticks):
            builder = EventBatchBuilder()
            for _ in range(per_tick):
                # Pairs straddle shards 0 and 1, so no shard pool holds both
                # endpoints of any override.
                builder.set_distance(
                    int(rng.integers(0, 16)),
                    int(rng.integers(16, 32)),
                    float(rng.uniform(0.5, 3.0)),
                )
            engine.apply_events(builder.build())
        return engine

    def test_weight_tick_builds_no_overlay(self, monkeypatch):
        from repro.metrics.overlay import PatchedMetric

        engine = self._engine_with_overrides()
        assert engine.num_overrides > 30
        winners = dict(engine.snapshot().winners)
        target = next(
            e
            for e in range(48, 64)
            if e not in winners[3] and e not in engine.solution
        )
        built, overridden = [], []
        init, set_override = PatchedMetric.__init__, PatchedMetric.set_override

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        def counting_set(self, *args, **kwargs):
            overridden.append(1)
            set_override(self, *args, **kwargs)

        monkeypatch.setattr(PatchedMetric, "__init__", counting_init)
        monkeypatch.setattr(PatchedMetric, "set_override", counting_set)
        outcome = engine.apply_events(
            EventBatchBuilder().set_weight(target, 0.0).build()
        )
        assert outcome.metadata["dirty_shards"] == (3,)
        assert outcome.metadata["core_resolved"] is False
        assert built == [] and overridden == []

    def test_delta_applies_to_the_override(self):
        points, weights = _sharded_instance()
        engine = ShardedDynamicEngine(points, weights, 5, shard_size=16)
        engine.apply_events(EventBatchBuilder().set_distance(3, 5, 2.0).build())
        engine.apply_events(EventBatchBuilder().set_distance(5, 3, 6.0).build())
        engine.apply_events(EventBatchBuilder().change_distance(5, 3, 1.0).build())
        assert engine.num_overrides == 1
        assert engine.distance(5, 3) == engine.distance(3, 5) == 7.0
        assert engine.snapshot().overrides == ((3, 5, 7.0),)

    def test_insert_rebases_and_delete_drops(self):
        engine = self._engine_with_overrides(ticks=2)
        overrides = engine.snapshot().overrides
        u, v, value = overrides[0]
        point = np.full(engine.snapshot().points.shape[1], 0.25)
        outcome = engine.apply_events(
            EventBatchBuilder().insert(1.0, point=point).build()
        )
        [new_id] = outcome.metadata["inserted"]
        assert engine.num_overrides == len(overrides)
        assert engine.distance(u, v) == value
        expected = EuclideanMetric(engine.snapshot().points).distance(u, new_id)
        assert engine.distance(u, new_id) == expected
        engine.apply_events(EventBatchBuilder().delete(u).build())
        kept = [(a, b) for a, b, _ in overrides if u not in (a, b)]
        assert engine.num_overrides == len(kept)
        assert all(u not in (a, b) for a, b, _ in engine.snapshot().overrides)


class TestShardedFaults:
    def test_crashing_shard_degrades_then_heals(self):
        points, weights = _sharded_instance()
        factory = lambda pts: CrashingMetric(  # noqa: E731
            EuclideanMetric(pts), only_in_workers=False, fail_times=1
        )
        engine = ShardedDynamicEngine(
            points, weights, 5, shard_size=16, metric_factory=factory
        )
        # The initial solve burned the single fault: one shard failed,
        # containment kept the engine feasible and degraded.
        assert len(engine.solution) == 5
        assert engine.degraded
        assert engine.failures
        # A clean tick over every shard heals the stale winners.
        builder = EventBatchBuilder()
        for shard in range(engine.num_shards):
            builder.change_weight(shard * engine.shard_size, 0.01)
        outcome = engine.apply_events(builder.build())
        assert not engine.degraded
        assert not outcome.metadata["degraded"]
        assert len(engine.solution) == 5

    def test_session_surfaces_degraded_flag(self):
        points, weights = _sharded_instance()
        factory = lambda pts: CrashingMetric(  # noqa: E731
            EuclideanMetric(pts), only_in_workers=False, fail_times=1
        )
        session = DynamicSession(
            weights, 5, points=points, shard_size=16, metric_factory=factory
        )
        assert session.mode == "sharded"
        assert session.degraded
        assert len(session.solution) == 5


class TestShardedFacade:
    def test_apply_routes_through_batches(self):
        points, weights = _sharded_instance()
        session = DynamicSession(weights, 5, points=points, shard_size=16)
        outcome = session.apply(WeightIncrease(2, 1.0))
        assert outcome.metadata["num_events"] == 1
        assert session.ticks == 1

    def test_periodic_resolve_and_checkpoints(self):
        points, weights = _sharded_instance(n=80, seed=9)
        snapshots = []
        session = DynamicSession(
            weights, 5, points=points, shard_size=16,
            resolve_every=2, checkpoint_every=2, on_checkpoint=snapshots.append,
        )
        rng = np.random.default_rng(10)
        for _ in range(4):
            builder = EventBatchBuilder()
            builder.change_weight(int(rng.integers(session.n)), 0.2)
            session.apply_events(builder.build())
        assert len(snapshots) == 2
        assert all(isinstance(s, SessionSnapshot) for s in snapshots)
        restored = DynamicSession.restore(pickle.loads(pickle.dumps(snapshots[-1])))
        assert restored.mode == "sharded"
        assert restored.ticks == 4
        assert len(restored.solution) == 5

    def test_approximation_ratio_dense_only(self):
        points, weights = _sharded_instance()
        session = DynamicSession(weights, 5, points=points, shard_size=16)
        with pytest.raises(InvalidParameterError):
            session.approximation_ratio()


class TestBatchedSimulationEquivalence:
    def test_batched_flag_matches_stepwise(self):
        from repro.dynamic.simulation import Environment, run_dynamic_simulation

        weights, distances = _dense_instance(n=12, seed=11)
        stepwise = run_dynamic_simulation(
            weights, distances, 4, 0.5, Environment.MPERTURBATION,
            steps=12, seed=13,
        )
        batched = run_dynamic_simulation(
            weights, distances, 4, 0.5, Environment.MPERTURBATION,
            steps=12, seed=13, batched=True,
        )
        assert batched.ratios == stepwise.ratios
        assert batched.worst_ratio == stepwise.worst_ratio
