"""Fault-tolerance suite: deadlines, checkpoint/resume, shard-worker
recovery, numerical degradation and the fault-injection harness itself.

Every scenario in here asserts the same contract: an injected fault (or an
expired budget) never raises out of a solve and never hangs it — the solver
returns a *feasible* solution with honest ``interrupted`` / ``degraded``
metadata instead.
"""

from __future__ import annotations

import asyncio
import pickle
import threading
import time
import warnings

import numpy as np
import pytest

from repro.core.batch import solve_many
from repro.core.checkpoint import SolveCheckpoint
from repro.core.control import RunControl
from repro.core.greedy import greedy_diversify
from repro.core.kernels import best_swap_scan_from_gains
from repro.core.local_search import (
    LocalSearchConfig,
    local_search_diversify,
    refine_with_local_search,
)
from repro.core.objective import Objective
from repro.core.sharding import solve_sharded
from repro.core.solver import solve
from repro.core.streaming import streaming_diversify
from repro.dynamic.engine import DynamicDiversifier, EngineSnapshot
from repro.dynamic.perturbation import WeightIncrease
from repro.exceptions import (
    InvalidParameterError,
    NonFiniteDataError,
    NumericalDegradationWarning,
)
from repro.functions.log_det import LogDeterminantFunction
from repro.functions.modular import ModularFunction
from repro.matroids.uniform import UniformMatroid
from repro.metrics.euclidean import EuclideanMetric
from repro.obs.trace import Trace
from repro.testing.faults import (
    CrashingMetric,
    CrashingSetFunction,
    NaNMetric,
    NaNSetFunction,
    SlowMetric,
    WorkerKillingMetric,
)
from repro.utils.deadline import Deadline


@pytest.fixture
def instance():
    rng = np.random.default_rng(7)
    features = rng.normal(size=(160, 5))
    weights = rng.uniform(1.0, 2.0, size=160)
    return ModularFunction(weights), EuclideanMetric(features)


@pytest.fixture
def objective(instance):
    quality, metric = instance
    return Objective(quality, metric, 0.8)


# ----------------------------------------------------------------------
# Deadline primitive
# ----------------------------------------------------------------------
class TestDeadline:
    def test_zero_budget_is_expired(self):
        deadline = Deadline(0.0)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_rejects_negative_nan_inf(self):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidParameterError):
                Deadline(bad)

    def test_coerce_passthrough_shares_clock(self):
        deadline = Deadline(60.0)
        assert Deadline.coerce(deadline) is deadline
        assert Deadline.coerce(None) is None
        assert isinstance(Deadline.coerce(5), Deadline)

    def test_pickle_ships_remaining_budget(self):
        deadline = Deadline(60.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert not clone.expired()
        assert clone.seconds <= 60.0
        expired = pickle.loads(pickle.dumps(Deadline(0.0)))
        assert expired.expired()


# ----------------------------------------------------------------------
# Anytime solving: deadlines across the algorithm stack
# ----------------------------------------------------------------------
class TestAnytimeDeadlines:
    def test_greedy_expired_deadline_returns_empty_interrupted(self, objective):
        result = greedy_diversify(objective, 10, control=RunControl(deadline=0.0))
        assert result.selected == frozenset()
        assert result.metadata["interrupted"] is True
        assert result.metadata["phase"] == "greedy_selection"
        assert result.metadata["deadline_s"] == 0.0

    def test_greedy_generous_deadline_matches_unconstrained(self, objective):
        plain = greedy_diversify(objective, 8)
        timed = greedy_diversify(objective, 8, control=RunControl(deadline=60.0))
        assert timed.selected == plain.selected
        assert "interrupted" not in timed.metadata

    def test_local_search_expired_deadline_keeps_feasible_basis(self, objective):
        matroid = UniformMatroid(objective.n, 6)
        result = local_search_diversify(
            objective, matroid, control=RunControl(deadline=0.0)
        )
        assert len(result.selected) == 6
        assert result.metadata["interrupted"] is True
        assert result.metadata["converged"] is False

    def test_refine_expired_deadline_returns_seed(self, objective):
        seed = greedy_diversify(objective, 6)
        refined = refine_with_local_search(
            objective, seed, control=RunControl(deadline=0.0)
        )
        assert refined.selected == seed.selected
        assert refined.metadata["interrupted"] is True

    def test_streaming_expired_deadline_drops_arrivals(self, objective):
        result = streaming_diversify(objective, 5, control=RunControl(deadline=0.0))
        assert result.selected == frozenset()
        assert result.metadata["interrupted"] is True
        assert result.metadata["phase"] == "streaming_arrivals"

    def test_solve_forwards_deadline(self, instance):
        quality, metric = instance
        result = solve(
            quality, metric, tradeoff=0.8, p=10, control=RunControl(deadline=0.0)
        )
        assert result.metadata["interrupted"] is True

    def test_solve_many_shared_budget_marks_queued_queries(self, instance):
        quality, metric = instance
        queries = [range(0, 60), range(40, 120), range(80, 160)]
        results = solve_many(
            quality,
            metric,
            queries,
            tradeoff=0.8,
            p=5,
            control=RunControl(deadline=0.0),
        )
        assert len(results) == len(queries)
        for result in results:
            assert result.selected == frozenset()
            assert result.metadata["interrupted"] is True
            assert result.metadata["phase"] == "window_queue"

    def test_sharded_deadline_returns_within_budget(self, instance):
        quality, metric = instance
        result = solve_sharded(
            quality,
            metric,
            tradeoff=0.8,
            p=6,
            shards=4,
            control=RunControl(deadline=0.0),
        )
        assert result.metadata["interrupted"] is True
        assert result.metadata["phase"] == "shard_map"

    def test_sharded_100k_returns_within_twice_deadline(self):
        from repro.data.synthetic import make_feature_instance

        instance = make_feature_instance(100_000, dimension=6, tradeoff=0.5, seed=9)
        budget = 0.25
        started = time.perf_counter()
        result = solve(
            instance.quality,
            instance.metric,
            tradeoff=0.5,
            p=50,
            shards=50,
            control=RunControl(deadline=budget),
        )
        wall = time.perf_counter() - started
        # The cooperative checks only fire at iteration boundaries, so the
        # contract is "within 2× the budget", not "exactly the budget".
        assert wall <= 2 * budget
        assert result.metadata["interrupted"] is True
        assert result.metadata["phase"] == "shard_map"
        assert len(result.selected) <= 50

    def test_interrupted_solution_is_prefix_of_full_run(self, objective):
        # An interrupted greedy must be a prefix of the uninterrupted order
        # (best-so-far, not an arbitrary subset).  Interrupt via a deadline
        # that expires after a controlled number of checks.
        full = greedy_diversify(objective, 8)
        deadline = Deadline(0.0)
        partial = greedy_diversify(objective, 8, control=RunControl(deadline=deadline))
        assert list(partial.order) == list(full.order)[: len(partial.order)]


# ----------------------------------------------------------------------
# Checkpoint / resume
# ----------------------------------------------------------------------
class TestCheckpointResume:
    def test_greedy_checkpoints_and_resume_reproduce_run(self, objective):
        checkpoints = []
        full = greedy_diversify(
            objective,
            8,
            control=RunControl(checkpoint_every=2, on_checkpoint=checkpoints.append),
        )
        assert [len(c.order) for c in checkpoints] == [2, 4, 6, 8]
        middle = checkpoints[1]
        assert middle.kind == "greedy"
        resumed = greedy_diversify(objective, 8, control=RunControl(resume_from=middle))
        assert resumed.selected == full.selected
        assert list(resumed.order) == list(full.order)
        assert resumed.metadata["resumed_at"] == 4

    def test_checkpoint_pickles_and_saves(self, objective, tmp_path):
        checkpoints = []
        greedy_diversify(
            objective, 4, control=RunControl(on_checkpoint=checkpoints.append)
        )
        path = str(tmp_path / "ckpt.pkl")
        checkpoints[-1].save(path)
        loaded = SolveCheckpoint.load(path)
        assert loaded == checkpoints[-1]

    def test_checkpoint_kind_and_universe_guard(self, objective):
        bad_kind = SolveCheckpoint(kind="sharded", n=objective.n, p=4)
        with pytest.raises(InvalidParameterError):
            greedy_diversify(objective, 4, control=RunControl(resume_from=bad_kind))
        bad_n = SolveCheckpoint(kind="greedy", n=objective.n + 1, p=4)
        with pytest.raises(InvalidParameterError):
            greedy_diversify(objective, 4, control=RunControl(resume_from=bad_n))

    def test_sharded_checkpoint_resume_skips_solved_shards(self, instance):
        quality, metric = instance
        checkpoints = []
        full = solve_sharded(
            quality,
            metric,
            tradeoff=0.8,
            p=6,
            shards=5,
            control=RunControl(checkpoint_every=2, on_checkpoint=checkpoints.append),
        )
        middle = checkpoints[0]
        assert middle.kind == "sharded"
        resumed = solve_sharded(
            quality,
            metric,
            tradeoff=0.8,
            p=6,
            shards=5,
            control=RunControl(resume_from=middle),
        )
        assert resumed.selected == full.selected
        assert resumed.metadata["sharding"]["resumed_shards"] == sorted(
            middle.shard_winners
        )

    def test_sharded_resume_rejects_layout_mismatch(self, instance):
        quality, metric = instance
        checkpoints = []
        solve_sharded(
            quality,
            metric,
            tradeoff=0.8,
            p=6,
            shards=5,
            control=RunControl(on_checkpoint=checkpoints.append),
        )
        with pytest.raises(InvalidParameterError):
            solve_sharded(
                quality,
                metric,
                tradeoff=0.8,
                p=6,
                shards=4,
                control=RunControl(resume_from=checkpoints[0]),
            )

    def test_solve_rejects_checkpointing_for_non_greedy(self, instance):
        quality, metric = instance
        with pytest.raises(InvalidParameterError):
            solve(
                quality,
                metric,
                tradeoff=0.8,
                p=4,
                algorithm="mmr",
                control=RunControl(checkpoint_every=1, on_checkpoint=lambda c: None),
            )


# ----------------------------------------------------------------------
# Shard-worker recovery
# ----------------------------------------------------------------------
class TestShardRecovery:
    def test_killed_worker_degrades_to_serial(self, instance):
        quality, metric = instance
        faulty = WorkerKillingMetric(metric)
        result = solve_sharded(
            quality,
            faulty,
            tradeoff=0.8,
            p=5,
            shards=4,
            max_workers=2,
            executor="process",
        )
        assert len(result.selected) == 5
        assert result.metadata["degraded"] is True
        stages = {f["stage"] for f in result.metadata["sharding"]["failures"]}
        assert "worker_crash" in stages or "worker" in stages
        assert result.metadata["sharding"]["failed_shards"] == []

    def test_killed_worker_records_crash_span(self, instance):
        """A SIGKILLed worker's spans die with it — the trace must not lose
        the shard silently: the parent records a synthetic ``shard`` span
        whose status names the failure stage (``worker_crash``)."""
        quality, metric = instance
        faulty = WorkerKillingMetric(metric)
        trace = Trace()
        result = solve_sharded(
            quality,
            faulty,
            tradeoff=0.8,
            p=5,
            shards=4,
            max_workers=2,
            executor="process",
            control=RunControl(trace=trace),
        )
        assert result.metadata["degraded"] is True
        root = next(s for s in trace.spans() if s.name == "solve_sharded")
        shard_spans = [s for s in trace.spans() if s.name == "shard"]
        # Every failure in the metadata has a matching synthetic span,
        # parented to the solve root and carrying the stage as its status.
        failures = result.metadata["sharding"]["failures"]
        crash_spans = [s for s in shard_spans if s.status != "ok"]
        assert len(crash_spans) >= len(failures) > 0
        statuses = {s.status for s in crash_spans}
        assert statuses & {"worker_crash", "worker"}
        for span in crash_spans:
            assert span.parent_id == root.span_id
            assert "error" in span.attrs and "shard" in span.attrs
        # The serial fallback re-solved every shard in-process, so the trace
        # also holds the successful shard spans shipped back via bundles.
        ok_spans = [s for s in shard_spans if s.status == "ok"]
        assert len(ok_spans) == 4

    def test_shard_timeout_degrades_to_serial(self, instance):
        quality, metric = instance
        faulty = SlowMetric(metric, 5.0)
        result = solve_sharded(
            quality,
            faulty,
            tradeoff=0.8,
            p=5,
            shards=4,
            max_workers=2,
            executor="process",
            shard_timeout_s=0.3,
        )
        assert len(result.selected) == 5
        assert result.metadata["degraded"] is True
        stages = {f["stage"] for f in result.metadata["sharding"]["failures"]}
        assert "worker_timeout" in stages
        assert result.metadata["sharding"]["failed_shards"] == []

    def test_crashing_shard_recovered_by_retry(self, instance):
        quality, metric = instance
        faulty = CrashingMetric(metric, fail_times=1)
        result = solve_sharded(
            quality, faulty, tradeoff=0.8, p=5, shards=4, shard_retries=2
        )
        assert len(result.selected) == 5
        # The single injected crash was absorbed by a retry: nothing lost.
        assert "degraded" not in result.metadata

    def test_all_shards_lost_returns_empty_degraded(self, instance):
        quality, metric = instance
        faulty = CrashingMetric(metric)
        result = solve_sharded(
            quality, faulty, tradeoff=0.8, p=5, shards=4, retry_backoff_s=0.0
        )
        assert result.selected == frozenset()
        assert result.metadata["degraded"] is True
        assert result.metadata["sharding"]["failed_shards"] == [0, 1, 2, 3]
        assert result.metadata["sharding"]["core_size"] == 0

    def test_partial_loss_still_solves_from_surviving_core(self, instance):
        quality, metric = instance
        # Only worker processes crash; the serial fallback (parent process)
        # succeeds, so a thread-free run with the same wrapper is clean.
        faulty = CrashingSetFunction(quality, only_in_workers=True)
        result = solve_sharded(
            faulty, metric, tradeoff=0.8, p=5, shards=4, shard_retries=0
        )
        assert len(result.selected) == 5
        assert "degraded" not in result.metadata


# ----------------------------------------------------------------------
# Numerical degradation
# ----------------------------------------------------------------------
class TestNumericalDegradation:
    def test_jitter_escalation_recovers_near_singular_pivot(self):
        kernel = np.diag(np.full(6, -1.0 - 1e-9))
        func = LogDeterminantFunction(kernel, jitter=0.0, validate=False)
        state = func.gain_state()
        with pytest.warns(NumericalDegradationWarning):
            func.push(state, 0)
        assert not state.degraded
        assert state.rebuilds >= 1
        assert state.jitter > 0.0

    def test_unrecoverable_pivot_degrades_to_oracle_gains(self):
        kernel = np.diag(np.full(6, -2.0))
        func = LogDeterminantFunction(kernel, jitter=0.0, validate=False)
        state = func.gain_state()
        with pytest.warns(NumericalDegradationWarning):
            func.push(state, 0)
        assert state.degraded
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalDegradationWarning)
            gains = func.gains(np.arange(6), state)
        assert np.all(np.isfinite(gains))
        assert gains[0] == 0.0  # member masked

    def test_degraded_state_surfaces_in_greedy_metadata(self):
        kernel = np.diag(np.full(10, -2.0))
        func = LogDeterminantFunction(kernel, jitter=0.0, validate=False)
        rng = np.random.default_rng(0)
        metric = EuclideanMetric(rng.normal(size=(10, 3)))
        objective = Objective(func, metric, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalDegradationWarning)
            result = greedy_diversify(objective, 4)
        assert len(result.selected) == 4
        assert result.metadata["degraded"] is True
        assert result.metadata["degradation"] == "quality_gain_state"

    def test_swap_scan_sanitizes_nan_gains(self):
        gains = np.array([[np.nan, 0.5], [0.2, np.nan]])
        incoming = np.array([5, 6])
        outgoing = np.array([1, 2])
        with pytest.warns(NumericalDegradationWarning):
            move = best_swap_scan_from_gains(gains, incoming, outgoing)
        assert move == (5, 2, 0.5)

    def test_swap_scan_all_nan_returns_none(self):
        gains = np.full((2, 2), np.nan)
        with pytest.warns(NumericalDegradationWarning):
            move = best_swap_scan_from_gains(
                gains, np.array([5, 6]), np.array([1, 2])
            )
        assert move is None

    def test_nan_metric_local_search_terminates(self, instance):
        quality, metric = instance
        poisoned = NaNMetric(metric, fail_times=3)
        objective = Objective(quality, poisoned, 0.8)
        config = LocalSearchConfig(max_swaps=5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalDegradationWarning)
            result = local_search_diversify(
                objective, UniformMatroid(objective.n, 4), config=config
            )
        assert len(result.selected) == 4

    def test_nan_set_function_gains_are_injected(self, instance):
        quality, _ = instance
        poisoned = NaNSetFunction(quality, fail_times=1)
        state = poisoned.gain_state()
        first = poisoned.gains(np.arange(4), state)
        assert np.all(np.isnan(first))
        second = poisoned.gains(np.arange(4), state)
        assert np.all(np.isfinite(second))


# ----------------------------------------------------------------------
# Non-finite construction gates
# ----------------------------------------------------------------------
class TestNonFiniteGates:
    def test_modular_weights_reject_nan_and_inf(self):
        with pytest.raises(NonFiniteDataError):
            ModularFunction([1.0, float("nan"), 2.0])
        with pytest.raises(NonFiniteDataError):
            ModularFunction([1.0, float("inf"), 2.0])

    def test_euclidean_points_reject_nan(self):
        points = np.ones((4, 2))
        points[2, 1] = np.nan
        with pytest.raises(NonFiniteDataError):
            EuclideanMetric(points)

    def test_objective_guards_weight_views(self, instance):
        _, metric = instance

        class SneakyWeights(ModularFunction):
            def __init__(self, n):
                super().__init__(np.ones(n))
                self._weights[3] = np.nan  # mutate after validation

        with pytest.raises(NonFiniteDataError):
            Objective(SneakyWeights(metric.n), metric, 1.0)


# ----------------------------------------------------------------------
# Dynamic engine snapshot / restore
# ----------------------------------------------------------------------
class TestEngineSnapshot:
    def test_snapshot_roundtrip_and_divergence_free_restore(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(15, 3))
        distances = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        weights = rng.uniform(1.0, 2.0, size=15)
        engine = DynamicDiversifier(weights, distances, 4, tradeoff=0.6)
        engine.apply(WeightIncrease(2, 1.0))
        snapshot = engine.snapshot()
        restored = DynamicDiversifier.restore(
            pickle.loads(pickle.dumps(snapshot))
        )
        assert restored.solution == engine.solution
        for target in (engine, restored):
            target.apply(WeightIncrease(5, 2.0))
        assert restored.solution == engine.solution
        assert restored.solution_value == pytest.approx(engine.solution_value)

    def test_snapshot_is_isolated_from_later_perturbations(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(10, 2))
        distances = np.sqrt(((points[:, None] - points[None]) ** 2).sum(-1))
        engine = DynamicDiversifier(np.ones(10), distances, 3)
        snapshot = engine.snapshot()
        engine.apply(WeightIncrease(0, 5.0))
        assert snapshot.weights[0] == 1.0
        assert snapshot.applied_perturbations == 0

    def test_restore_rejects_foreign_objects(self):
        with pytest.raises(InvalidParameterError):
            DynamicDiversifier.restore("not a snapshot")

    def test_snapshot_dataclass_is_plain_data(self):
        snapshot = EngineSnapshot(
            weights=np.ones(3),
            distances=np.zeros((3, 3)),
            p=2,
            tradeoff=1.0,
            solution=(0, 1),
        )
        clone = pickle.loads(pickle.dumps(snapshot))
        assert clone.solution == (0, 1)


# ----------------------------------------------------------------------
# Dynamic session under shard faults
# ----------------------------------------------------------------------
class TestDynamicSessionFaults:
    """The streaming analogue of the solve_sharded containment contract:
    faults during a tick (or during the periodic full re-solve's worker
    pool) degrade the session, never raise out of it, and heal on the next
    clean tick."""

    def _stream_instance(self, n=80, d=4, seed=21):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, d)), rng.uniform(1.0, 2.0, size=n)

    def test_killed_worker_mid_tick_recovers(self):
        # resolve_every=1 makes every tick end in a full sharded re-solve on
        # a process pool; WorkerKillingMetric SIGKILLs the workers, so the
        # pool breaks mid-tick and solve_sharded must fall back to a serial
        # pass in the (unharmed) parent.
        from repro.dynamic.events import EventBatchBuilder
        from repro.dynamic.session import DynamicSession

        points, weights = self._stream_instance()
        session = DynamicSession(
            weights,
            5,
            points=points,
            shard_size=16,
            metric_factory=lambda pts: WorkerKillingMetric(
                EuclideanMetric(pts), only_in_workers=True
            ),
            resolve_every=1,
            resolve_kwargs={"executor": "process", "max_workers": 2},
        )
        assert len(session.solution) == 5
        batch = EventBatchBuilder().change_weight(3, 0.5).build()
        outcome = session.apply_events(batch)  # must not raise
        assert len(session.solution) == 5
        assert outcome.metadata["num_events"] == 1
        # The stream keeps flowing after the mid-tick pool loss.
        session.apply_events(EventBatchBuilder().change_weight(40, 0.5).build())
        assert len(session.solution) == 5

    def test_crashing_shard_degrades_and_heals(self):
        from repro.dynamic.events import EventBatchBuilder
        from repro.dynamic.session import ShardedDynamicEngine

        points, weights = self._stream_instance(seed=22)
        engine = ShardedDynamicEngine(
            points,
            weights,
            5,
            shard_size=16,
            metric_factory=lambda pts: CrashingMetric(
                EuclideanMetric(pts), only_in_workers=False, fail_times=1
            ),
        )
        assert engine.degraded  # the single fault hit the initial solve
        assert len(engine.solution) == 5
        builder = EventBatchBuilder()
        for shard in range(engine.num_shards):
            builder.change_weight(shard * engine.shard_size, 0.01)
        engine.apply_events(builder.build())
        assert not engine.degraded
        assert len(engine.solution) == 5


# ----------------------------------------------------------------------
# Serving-tier fault modes
# ----------------------------------------------------------------------
class TestServeFaults:
    """The serving failure contract: every fault stays per-request."""

    def test_disconnect_mid_window_cancels_only_that_request(self, instance):
        from repro.serve import PreparedCorpus, Server

        quality, metric = instance

        class BlockingCorpus(PreparedCorpus):
            """Corpus whose window executor waits for the test's go signal."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.entered = threading.Event()
                self.release = threading.Event()

            def solve_window(self, requests, **kwargs):
                self.entered.set()
                assert self.release.wait(timeout=30.0)
                return super().solve_window(requests, **kwargs)

        corpus = BlockingCorpus(quality, metric, tradeoff=0.8)
        pools = [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11]]

        async def scenario():
            loop = asyncio.get_running_loop()
            async with Server(corpus, max_batch_size=3, max_wait_s=0.5) as server:
                tasks = [
                    asyncio.ensure_future(server.submit(pool, p=2))
                    for pool in pools
                ]
                # Wait until the whole window is executing off-loop, then
                # disconnect the middle client mid-window.
                await loop.run_in_executor(None, corpus.entered.wait)
                tasks[1].cancel()
                corpus.release.set()
                results = await asyncio.gather(*tasks, return_exceptions=True)
                stats = server.stats.snapshot()
            return results, stats

        results, stats = asyncio.run(scenario())
        assert isinstance(results[1], asyncio.CancelledError)
        # The disconnected request's skip hook fired; its neighbours solved.
        for survivor in (results[0], results[2]):
            assert len(survivor.selected) == 2
        assert stats["completed"] == 2
        assert stats["cancelled"] == 1
        assert stats["failed"] == 0

    def test_deadline_expiry_returns_best_so_far_per_request(self, instance):
        from repro.serve import PreparedCorpus, Server

        quality, metric = instance
        # Slow oracle + lazy tier: every greedy iteration pays oracle calls,
        # so a short per-request budget interrupts mid-run.
        slow = SlowMetric(metric, 0.1, only_in_workers=False, fail_times=None)
        corpus = PreparedCorpus(quality, slow, tradeoff=0.8, materialize=False)

        async def scenario():
            async with Server(corpus, max_batch_size=2, max_wait_s=0.2) as server:
                return await asyncio.gather(
                    server.submit(None, p=6, deadline_s=0.02),
                    server.submit(list(range(12)), p=3),
                )

        expired, unhurried = asyncio.run(scenario())
        # The deadlined request interrupted but stayed feasible (best-so-far
        # is a valid partial selection, possibly empty); its co-batched
        # neighbour ran to completion untouched.
        assert expired.metadata["interrupted"] is True
        assert len(expired.selected) <= 6
        assert "interrupted" not in unhurried.metadata
        assert len(unhurried.selected) == 3

    def test_crashed_shard_worker_degrades_without_failing_window(self, instance):
        from repro.serve import PreparedCorpus, Server

        quality, metric = instance
        faulty = WorkerKillingMetric(metric)  # kills only pool workers
        corpus = PreparedCorpus(
            quality,
            faulty,
            tradeoff=0.8,
            shards=4,
            shard_workers=2,
            shard_executor="process",
        )
        assert corpus.sharded and not corpus.materialized

        async def scenario():
            async with Server(corpus, max_batch_size=2, max_wait_s=0.5) as server:
                sharded, pooled = await asyncio.gather(
                    server.submit(None, p=5),
                    server.submit(list(range(20)), p=4),
                )
                stats = server.stats.snapshot()
            return sharded, pooled, stats

        sharded, pooled, stats = asyncio.run(scenario())
        # The killed worker degraded the sharded request to the serial
        # fallback — a full answer with degradation metadata, not an error.
        assert len(sharded.selected) == 5
        assert sharded.metadata["degraded"] is True
        stages = {f["stage"] for f in sharded.metadata["sharding"]["failures"]}
        assert "worker_crash" in stages or "worker" in stages
        # The co-batched pool request (parent process, kill never fires
        # there) was untouched by its neighbour's crashing workers.
        assert len(pooled.selected) == 4
        assert "degraded" not in pooled.metadata
        assert stats["completed"] == 2
        assert stats["failed"] == 0
