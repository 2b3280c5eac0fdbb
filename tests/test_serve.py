"""Tests for the serving tier (repro.serve): prepared corpora and the server."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core.solver import solve
from repro.data.synthetic import make_feature_instance, make_synthetic_instance
from repro.exceptions import InvalidParameterError, ServerClosedError
from repro.functions.modular import ModularFunction
from repro.matroids.partition import PartitionMatroid
from repro.metrics.base import Metric
from repro.serve import CorpusSnapshot, PreparedCorpus, ServeQuery, Server
from repro.utils.deadline import Deadline


class OracleMetric(Metric):
    """Matrix distances served only through the oracle interface."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._backing = np.asarray(matrix, dtype=float)
        self.calls = 0

    @property
    def n(self) -> int:
        return self._backing.shape[0]

    def distance(self, u, v) -> float:
        self.calls += 1
        return float(self._backing[u, v])


@pytest.fixture
def instance():
    return make_synthetic_instance(40, seed=11)


@pytest.fixture
def corpus(instance):
    return PreparedCorpus(
        instance.quality, instance.metric, tradeoff=instance.tradeoff
    )


@pytest.fixture
def lazy_instance():
    return make_feature_instance(120, dimension=4, tradeoff=0.4, seed=3)


@pytest.fixture
def pools():
    rng = np.random.default_rng(4)
    return [sorted(rng.choice(40, size=10, replace=False).tolist()) for _ in range(6)]


# ----------------------------------------------------------------------
# PreparedCorpus: preparation policy
# ----------------------------------------------------------------------
class TestCorpusPreparation:
    def test_matrix_backed_corpus_stays_materialized(self, corpus):
        assert corpus.materialized and not corpus.sharded

    def test_small_oracle_corpus_materialized_once(self, instance):
        oracle = OracleMetric(instance.metric.to_matrix())
        corpus = PreparedCorpus(instance.quality, oracle, tradeoff=0.5)
        assert corpus.materialized
        prepared_calls = oracle.calls
        corpus.solve([0, 1, 2, 3, 4], p=2)
        corpus.solve([5, 6, 7, 8, 9], p=2)
        # Solves run on the materialized matrix, never back through the oracle.
        assert oracle.calls == prepared_calls

    def test_large_corpus_stays_lazy(self, lazy_instance, monkeypatch):
        import repro.serve.corpus as corpus_module

        monkeypatch.setattr(corpus_module, "AUTO_MATERIALIZE_CAP", 100)
        corpus = PreparedCorpus(
            lazy_instance.quality, lazy_instance.metric, tradeoff=0.4
        )
        assert not corpus.materialized

    def test_sharded_corpus_never_auto_materializes(self, lazy_instance):
        corpus = PreparedCorpus(
            lazy_instance.quality,
            lazy_instance.metric,
            tradeoff=0.4,
            shard_size=32,
        )
        assert corpus.sharded and not corpus.materialized

    def test_explicit_materialize_overrides_auto(self, lazy_instance, monkeypatch):
        import repro.serve.corpus as corpus_module

        monkeypatch.setattr(corpus_module, "AUTO_MATERIALIZE_CAP", 100)
        corpus = PreparedCorpus(
            lazy_instance.quality,
            lazy_instance.metric,
            tradeoff=0.4,
            materialize=True,
        )
        assert corpus.materialized

    def test_view_less_modular_quality_hoisted(self, instance):
        class OpaqueModular(ModularFunction):
            def weights_view(self):
                return None

        corpus = PreparedCorpus(
            OpaqueModular(instance.weights), instance.metric, tradeoff=0.5
        )
        assert isinstance(corpus.quality, ModularFunction)
        assert corpus.quality.weights_view() is not None

    def test_cache_size_validated(self, instance):
        with pytest.raises(InvalidParameterError):
            PreparedCorpus(
                instance.quality, instance.metric, tradeoff=0.5, cache_size=-1
            )


# ----------------------------------------------------------------------
# PreparedCorpus: restriction cache
# ----------------------------------------------------------------------
class TestRestrictionCache:
    def test_repeated_pool_hits_cache(self, corpus, pools):
        first = corpus.restriction_for(pools[0])
        second = corpus.restriction_for(pools[0])
        assert first is second
        info = corpus.cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_pool_deduplicated_before_keying(self, corpus):
        plain = corpus.restriction_for([3, 1, 2])
        duplicated = corpus.restriction_for([3, 1, 2, 3, 1])
        assert plain is duplicated

    def test_lru_eviction_order(self, instance):
        corpus = PreparedCorpus(
            instance.quality, instance.metric, tradeoff=0.5, cache_size=2
        )
        a = corpus.restriction_for([0, 1, 2])
        corpus.restriction_for([3, 4, 5])
        corpus.restriction_for(
            [0, 1, 2]
        )  # refresh a; [3,4,5] is now least recent
        corpus.restriction_for([6, 7, 8])  # evicts [3,4,5]
        assert corpus.restriction_for([0, 1, 2]) is a
        info = corpus.cache_info()
        assert info["size"] == 2 and info["capacity"] == 2

    def test_cache_disabled_with_zero_capacity(self, corpus, instance):
        uncached = PreparedCorpus(
            instance.quality, instance.metric, tradeoff=0.5, cache_size=0
        )
        first = uncached.restriction_for([0, 1, 2])
        second = uncached.restriction_for([0, 1, 2])
        assert first is not second

    def test_invalid_pool_rejected(self, corpus):
        with pytest.raises(InvalidParameterError):
            corpus.restriction_for([0, 99])


# ----------------------------------------------------------------------
# PreparedCorpus: solving
# ----------------------------------------------------------------------
class TestCorpusSolve:
    def test_pool_query_matches_direct_solve(self, instance, corpus, pools):
        for pool in pools:
            served = corpus.solve(pool, p=4)
            direct = solve(
                instance.quality,
                instance.metric,
                tradeoff=instance.tradeoff,
                p=4,
                candidates=pool,
            )
            assert served.selected == direct.selected
            assert served.objective_value == pytest.approx(direct.objective_value)

    def test_full_universe_query_unsharded(self, instance, corpus):
        served = corpus.solve(None, p=5)
        direct = solve(
            instance.quality, instance.metric, tradeoff=instance.tradeoff, p=5
        )
        assert served.selected == direct.selected

    def test_full_universe_query_sharded(self, lazy_instance):
        corpus = PreparedCorpus(
            lazy_instance.quality,
            lazy_instance.metric,
            tradeoff=0.4,
            shard_size=32,
        )
        result = corpus.solve(None, p=5)
        assert len(result.selected) == 5
        assert "sharding" in result.metadata

    def test_per_query_weights_override(self, corpus):
        pool = list(range(10))
        boosted = np.zeros(10)
        boosted[[7, 8, 9]] = 100.0
        result = corpus.solve(pool, p=3, weights=boosted)
        assert result.selected == {7, 8, 9}

    def test_sharded_full_universe_weights_override(self, lazy_instance):
        corpus = PreparedCorpus(
            lazy_instance.quality,
            lazy_instance.metric,
            tradeoff=0.4,
            shard_size=32,
        )
        boosted = np.zeros(corpus.n)
        boosted[:3] = 1000.0
        result = corpus.solve(None, p=3, weights=boosted)
        assert result.selected == {0, 1, 2}

    def test_corpus_level_matroid_restricted_to_pool(self, instance):
        matroid = PartitionMatroid([i % 4 for i in range(40)], {b: 1 for b in range(4)})
        corpus = PreparedCorpus(
            instance.quality, instance.metric, tradeoff=instance.tradeoff
        )
        result = corpus.solve(list(range(12)), matroid=matroid)
        per_block = {}
        for element in result.selected:
            per_block[element % 4] = per_block.get(element % 4, 0) + 1
        assert all(count <= 1 for count in per_block.values())

    def test_matroid_universe_mismatch_rejected(self, corpus):
        small = PartitionMatroid([0, 0], {0: 1})
        with pytest.raises(InvalidParameterError):
            corpus.solve([0, 1], matroid=small)

    def test_window_isolates_bad_query(self, corpus, pools):
        window = [
            ServeQuery(pool=pools[0], p=3),
            ServeQuery(pool=pools[1], p=3, algorithm="no_such_algorithm"),
            ServeQuery(pool=pools[2], p=3),
        ]
        good_a, bad, good_b = corpus.solve_window(window)
        assert isinstance(bad, InvalidParameterError)
        assert len(good_a.selected) == 3 and len(good_b.selected) == 3

    def test_window_skip_hook_drops_only_marked(self, corpus, pools):
        window = [ServeQuery(pool=pool, p=3) for pool in pools[:3]]
        outcomes = corpus.solve_window(window, skip=lambda i: i == 1)
        assert outcomes[1] is None
        assert len(outcomes[0].selected) == 3 and len(outcomes[2].selected) == 3

    def test_window_expired_deadline_returns_empty_interrupted(self, corpus, pools):
        window = [
            ServeQuery(pool=pools[0], p=3, deadline=Deadline(0.0)),
            ServeQuery(pool=pools[1], p=3),
        ]
        expired, live = corpus.solve_window(window)
        assert expired.selected == frozenset()
        assert expired.metadata["interrupted"] is True
        assert expired.metadata["phase"] == "window_queue"
        assert len(live.selected) == 3

    def test_solve_reraises_isolated_exception(self, corpus):
        with pytest.raises(InvalidParameterError):
            corpus.solve([0, 1, 2], p=2, algorithm="no_such_algorithm")

    def test_p_clamped_to_pool(self, corpus):
        result = corpus.solve([0, 1, 2], p=10)
        assert result.selected == {0, 1, 2}


class TestSolveWindow:
    """The one window loop, driven directly with a window of requests."""

    @pytest.mark.parametrize("materialize", [True, False])
    def test_matches_solve_with_candidates(self, lazy_instance, materialize):
        # Per-request weights are checked against solve() on a full weight
        # vector that is zero outside the pool.
        quality, metric = lazy_instance.quality, lazy_instance.metric
        corpus = PreparedCorpus(
            quality, metric, tradeoff=0.4, materialize=materialize
        )
        assert corpus.materialized == materialize
        rng = np.random.default_rng(8)
        for _ in range(20):
            pool = rng.choice(lazy_instance.n, size=12, replace=False).tolist()
            weights = rng.uniform(0.0, 2.0, size=len(pool))
            full = np.zeros(lazy_instance.n)
            full[pool] = weights
            plain = ServeQuery(pool=pool, p=4)
            weighted = ServeQuery(pool=pool, p=4, weights=weights)
            outcomes = corpus.solve_window([plain, weighted])
            for outcome, reference_quality in zip(
                outcomes, (quality, ModularFunction(full))
            ):
                reference = solve(
                    reference_quality, metric, tradeoff=0.4, p=4, candidates=pool
                )
                assert outcome.order == reference.order
                assert outcome.objective_value == pytest.approx(
                    reference.objective_value, rel=0.0, abs=1e-9
                )

    def test_per_query_weights_in_local_order(self, corpus):
        request = ServeQuery(pool=[5, 6, 7, 8], p=2, weights=[0.0, 100.0, 100.0, 0.0])
        [outcome] = corpus.solve_window([request])
        # Local weights boost pool positions 1 and 2 → global elements 6, 7.
        assert outcome.selected == {6, 7}

    def test_wrong_weight_length_isolated(self, corpus, pools):
        window = [
            ServeQuery(pool=pools[0], p=2, weights=np.ones(3)),  # pool has 10
            ServeQuery(pool=pools[1], p=2),
        ]
        bad, good = corpus.solve_window(window)
        assert isinstance(bad, InvalidParameterError)
        assert len(good.selected) == 2

    def test_invalid_query_isolated(self, corpus, pools):
        window = [
            ServeQuery(pool=pools[0], p=2),
            ServeQuery(pool=pools[1], p=2, algorithm="magic"),
        ]
        good, bad = corpus.solve_window(window)
        assert len(good.selected) == 2
        assert isinstance(bad, InvalidParameterError)

    def test_both_constraints_rejected(self, corpus, pools):
        matroid = PartitionMatroid([0] * 40, {0: 2})
        window = [
            ServeQuery(pool=pools[0], p=2, matroid=matroid),
            ServeQuery(pool=pools[1]),
        ]
        both, neither = corpus.solve_window(window)
        assert isinstance(both, InvalidParameterError)
        assert isinstance(neither, InvalidParameterError)

    def test_skip_slots_are_none(self, corpus, pools):
        window = [ServeQuery(pool=pool, p=2) for pool in pools[:3]]
        outcomes = corpus.solve_window(window, skip=lambda i: i != 1)
        assert outcomes[0] is None and outcomes[2] is None
        assert len(outcomes[1].selected) == 2

    def test_skip_called_once_per_request_before_it_runs(self, corpus, pools):
        calls = []
        window = [ServeQuery(pool=pool, p=2) for pool in pools[:3]]
        corpus.solve_window(window, skip=lambda i: calls.append(i) or False)
        assert calls == [0, 1, 2]

    def test_shared_deadline_beats_longer_per_query(self, corpus, pools):
        window = [
            ServeQuery(pool=pools[0], p=2, deadline=Deadline(60.0)),
            ServeQuery(pool=pools[1], p=2),
        ]
        for outcome in corpus.solve_window(window, deadline=Deadline(0.0)):
            assert outcome.selected == frozenset()
            assert outcome.metadata["interrupted"] is True
            assert outcome.metadata["phase"] == "window_queue"

    def test_p_clamped_to_pool_size(self, corpus):
        [outcome] = corpus.solve_window([ServeQuery(pool=[0, 1, 2], p=9)])
        assert outcome.selected == {0, 1, 2}

    def test_one_restriction_lookup_per_pool_request(self, corpus, pools):
        window = [ServeQuery(pool=pool, p=2) for pool in pools[:3]]
        window.append(ServeQuery(pool=pools[0], p=2, algorithm="magic"))
        corpus.solve_window(window, skip=lambda i: i == 1)
        info = corpus.cache_info()
        # Request 1 was skipped before it ran, so its pool was never resolved.
        assert info["misses"] == 2 and info["hits"] == 1


# ----------------------------------------------------------------------
# PreparedCorpus: persistence and warm start
# ----------------------------------------------------------------------
class TestCorpusPersistence:
    def test_snapshot_round_trip(self, corpus, tmp_path, pools):
        path = str(tmp_path / "corpus.pkl")
        corpus.save(path)
        recovered = PreparedCorpus.load(path)
        assert recovered.n == corpus.n
        assert recovered.materialized == corpus.materialized
        before = corpus.solve(pools[0], p=4)
        after = recovered.solve(pools[0], p=4)
        assert before.selected == after.selected

    def test_snapshot_keeps_materialized_metric(self, instance, tmp_path):
        oracle = OracleMetric(instance.metric.to_matrix())
        corpus = PreparedCorpus(instance.quality, oracle, tradeoff=0.5)
        path = str(tmp_path / "corpus.pkl")
        corpus.save(path)
        recovered = PreparedCorpus.load(path)
        # Recovery must not re-materialize: the snapshot already holds the
        # matrix, not the (unpicklable state aside) oracle.
        assert recovered.materialized
        assert recovered.metric.matrix_view() is not None

    def test_load_rejects_wrong_payload(self, tmp_path, corpus):
        import pickle

        from repro.durability.snapshot import write_framed

        path = str(tmp_path / "not_a_corpus.pkl")
        write_framed(path, pickle.dumps({"not": "a snapshot"}))
        with pytest.raises(InvalidParameterError):
            PreparedCorpus.load(path)

    def test_snapshot_config_preserved(self, lazy_instance, tmp_path):
        corpus = PreparedCorpus(
            lazy_instance.quality,
            lazy_instance.metric,
            tradeoff=0.4,
            shard_size=32,
            cache_size=7,
        )
        snapshot = corpus.snapshot()
        assert isinstance(snapshot, CorpusSnapshot)
        recovered = PreparedCorpus.restore(snapshot)
        assert recovered.sharded
        assert recovered.cache_info()["capacity"] == 7


class TestFromSession:
    def test_from_dynamic_session(self):
        from repro.dynamic.session import DynamicSession

        rng = np.random.default_rng(9)
        session = DynamicSession(
            points=rng.normal(size=(60, 4)),
            weights=rng.uniform(0.5, 2.0, size=60),
            p=4,
            shard_size=16,
        )
        corpus = session.serve_corpus()
        assert corpus.n == 60
        assert corpus.sharded  # shard_size carried over
        result = corpus.solve(None, p=4)
        assert len(result.selected) == 4

    def test_from_engine_snapshot_compacts_retired_slots(self):
        from repro.dynamic.engine import DynamicDiversifier

        rng = np.random.default_rng(10)
        n = 20
        weights = rng.uniform(0.5, 2.0, size=n)
        matrix = rng.uniform(1.0, 2.0, size=(n, n))
        matrix = np.triu(matrix, 1)
        matrix = matrix + matrix.T
        engine = DynamicDiversifier(weights, matrix, 3)
        corpus = PreparedCorpus.from_session(engine)
        assert corpus.n == n
        assert corpus.materialized
        assert len(corpus.solve(None, p=3).selected) == 3

    def test_from_unknown_object_rejected(self):
        with pytest.raises(InvalidParameterError):
            PreparedCorpus.from_session(object())


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class TestServer:
    def test_submit_requires_running_server(self, corpus):
        async def scenario():
            server = Server(corpus)
            with pytest.raises(ServerClosedError):
                await server.submit([0, 1, 2], p=2)

        asyncio.run(scenario())

    def test_concurrent_submits_batched_and_correct(self, corpus, pools):
        async def scenario():
            async with Server(corpus, max_batch_size=8, max_wait_s=0.05) as server:
                results = await asyncio.gather(
                    *(server.submit(pool, p=4) for pool in pools)
                )
                stats = server.stats.snapshot()
            return results, stats

        results, stats = asyncio.run(scenario())
        for pool, result in zip(pools, results):
            assert result.selected == corpus.solve(pool, p=4).selected
        assert stats["completed"] == len(pools)
        # Co-arriving requests coalesced: strictly fewer windows than requests.
        assert stats["windows"] < len(pools)
        assert stats["mean_window_size"] > 1.0

    def test_invalid_request_fails_only_itself(self, corpus, pools):
        async def scenario():
            async with Server(corpus, max_batch_size=4, max_wait_s=0.05) as server:
                good, bad = await asyncio.gather(
                    server.submit(pools[0], p=3),
                    server.submit(pools[1], p=3, algorithm="no_such_algorithm"),
                    return_exceptions=True,
                )
            return good, bad

        good, bad = asyncio.run(scenario())
        assert len(good.selected) == 3
        assert isinstance(bad, InvalidParameterError)

    def test_stop_fails_queued_requests_closed(self, corpus):
        async def scenario():
            server = Server(corpus, max_batch_size=4, max_wait_s=10.0)
            await server.start()
            submission = asyncio.ensure_future(server.submit([0, 1, 2], p=2))
            await asyncio.sleep(0.05)  # let it enter the lingering window
            await server.stop()
            with pytest.raises(ServerClosedError):
                await submission

        asyncio.run(scenario())

    def test_default_deadline_applied(self, instance):
        corpus = PreparedCorpus(
            instance.quality, instance.metric, tradeoff=instance.tradeoff
        )

        async def scenario():
            async with Server(corpus, default_deadline_s=0.0) as server:
                return await server.submit([0, 1, 2, 3], p=2)

        result = asyncio.run(scenario())
        assert result.metadata["interrupted"] is True
        assert result.selected == frozenset()

    def test_restart_after_stop(self, corpus):
        async def scenario():
            server = Server(corpus)
            await server.start()
            first = await server.submit([0, 1, 2], p=2)
            await server.stop()
            await server.start()
            second = await server.submit([0, 1, 2], p=2)
            await server.stop()
            return first, second

        first, second = asyncio.run(scenario())
        assert first.selected == second.selected

    def test_stats_latency_window_bounded(self, corpus):
        from repro.serve.server import _LATENCY_WINDOW, ServerStats

        stats = ServerStats()
        for _ in range(_LATENCY_WINDOW + 100):
            stats.record_latency(0.001)
        assert len(stats.latencies) == _LATENCY_WINDOW

    def test_server_parameter_validation(self, corpus):
        with pytest.raises(InvalidParameterError):
            Server(corpus, max_batch_size=0)
        with pytest.raises(InvalidParameterError):
            Server(corpus, max_wait_s=-1.0)

    def test_tagged_queries_round_trip(self, corpus, pools):
        async def scenario():
            async with Server(corpus) as server:
                return await server.submit(pools[0], p=3, tag="request-17")

        result = asyncio.run(scenario())
        assert len(result.selected) == 3


class TestOverloadProtection:
    def test_max_pending_validated(self, corpus):
        with pytest.raises(InvalidParameterError):
            Server(corpus, max_pending=0)

    def test_overload_sheds_fast_and_counts(self, corpus, pools):
        from repro.exceptions import ServerOverloadedError

        async def scenario():
            async with Server(
                corpus, max_pending=2, max_wait_s=0.05, max_batch_size=4
            ) as server:
                # enqueue without yielding: the batcher cannot drain between
                # these submits, so the bound must shed the excess
                tasks = [
                    asyncio.ensure_future(server.submit(pools[0], p=3))
                    for _ in range(6)
                ]
                outcomes = await asyncio.gather(*tasks, return_exceptions=True)
                return outcomes, server.stats.snapshot()

        outcomes, stats = asyncio.run(scenario())
        shed = [o for o in outcomes if isinstance(o, ServerOverloadedError)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert shed and served  # some rejected, some served
        assert stats["shed"] == len(shed)
        assert stats["completed"] == len(served)
        assert stats["submitted"] == 6

    def test_unbounded_by_default(self, corpus, pools):
        async def scenario():
            async with Server(corpus, max_batch_size=4) as server:
                tasks = [
                    asyncio.ensure_future(server.submit(pools[0], p=3))
                    for _ in range(20)
                ]
                return await asyncio.gather(*tasks)

        results = asyncio.run(scenario())
        assert len(results) == 20


class TestGracefulDrain:
    def test_drain_finishes_queued_requests(self, corpus, pools):
        async def scenario():
            server = Server(corpus, max_wait_s=0.2, max_batch_size=8)
            await server.start()
            tasks = [
                asyncio.ensure_future(server.submit(pools[i % len(pools)], p=3))
                for i in range(5)
            ]
            await asyncio.sleep(0)  # let submits reach the queue
            await server.stop(drain=True)
            outcomes = await asyncio.gather(*tasks, return_exceptions=True)
            return outcomes, server.stats.snapshot(), server.running

        outcomes, stats, running = asyncio.run(scenario())
        assert not running
        assert all(not isinstance(o, Exception) for o in outcomes)
        assert stats["completed"] == 5

    def test_drain_rejects_new_submits(self, corpus, pools):
        async def scenario():
            server = Server(corpus, max_wait_s=0.2)
            await server.start()
            task = asyncio.ensure_future(server.submit(pools[0], p=3))
            await asyncio.sleep(0)
            stop = asyncio.ensure_future(server.stop(drain=True))
            await asyncio.sleep(0)
            with pytest.raises(ServerClosedError):
                await server.submit(pools[1], p=3)
            await stop
            return await task

        result = asyncio.run(scenario())
        assert len(result.selected) == 3

    def test_default_stop_still_fails_closed(self, corpus, pools):
        async def scenario():
            server = Server(corpus, max_wait_s=5.0, max_batch_size=64)
            await server.start()
            # a lingering window: one request sits waiting for co-batchers
            task = asyncio.ensure_future(server.submit(pools[0], p=3))
            await asyncio.sleep(0.02)
            await server.stop()
            with pytest.raises(ServerClosedError):
                await task

        asyncio.run(scenario())
