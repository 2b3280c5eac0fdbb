"""Tests for the sharded core-set solver (repro.core.sharding)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.control import RunControl
from repro.core.local_search import LocalSearchConfig
from repro.core.sharding import shard_pool, solve_sharded
from repro.core.solver import solve
from repro.data.synthetic import make_feature_instance, make_synthetic_instance
from repro.exceptions import InvalidParameterError
from repro.functions.modular import ModularFunction
from repro.matroids.uniform import UniformMatroid
from repro.metrics.base import Metric
from repro.metrics.euclidean import EuclideanMetric


class OracleMetric(Metric):
    """Matrix distances served only through the pairwise oracle interface."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._backing = np.asarray(matrix, dtype=float)

    @property
    def n(self) -> int:
        return self._backing.shape[0]

    def distance(self, u, v) -> float:
        return float(self._backing[u, v])


@pytest.fixture
def feature_instance():
    return make_feature_instance(120, dimension=3, tradeoff=0.5, seed=3)


@pytest.fixture
def matrix_instance():
    return make_synthetic_instance(90, seed=21)


# ----------------------------------------------------------------------
# Pool partitioning
# ----------------------------------------------------------------------
class TestShardPool:
    def test_partitions_whole_pool(self):
        parts = shard_pool(np.arange(10), shards=3)
        assert [part.tolist() for part in parts] == [
            [0, 1, 2, 3],
            [4, 5, 6],
            [7, 8, 9],
        ]

    def test_shard_size_drives_count(self):
        parts = shard_pool(np.arange(10), shard_size=4)
        assert len(parts) == 3
        assert np.concatenate(parts).tolist() == list(range(10))

    def test_more_shards_than_elements(self):
        parts = shard_pool(np.arange(4), shards=9)
        assert len(parts) == 4
        assert all(part.size == 1 for part in parts)

    def test_empty_pool(self):
        assert shard_pool(np.zeros(0, dtype=int), shards=5) == []
        assert shard_pool(np.zeros(0, dtype=int), shard_size=5) == []

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            shard_pool(np.arange(5))
        with pytest.raises(InvalidParameterError):
            shard_pool(np.arange(5), shards=0)
        with pytest.raises(InvalidParameterError):
            shard_pool(np.arange(5), shard_size=0)


# ----------------------------------------------------------------------
# Shard-count edge cases
# ----------------------------------------------------------------------
class TestShardCountEdges:
    def test_one_shard_is_plain_solve(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        plain = solve(quality, metric, tradeoff=0.5, p=6)
        sharded = solve(quality, metric, tradeoff=0.5, p=6, shards=1)
        assert sharded.selected == plain.selected
        assert sharded.order == plain.order
        assert sharded.objective_value == plain.objective_value
        assert sharded.metadata["sharding"]["degenerate"] is True

    def test_one_shard_matrix_backed(self, matrix_instance):
        quality, metric = matrix_instance.quality, matrix_instance.metric
        plain = solve(quality, metric, tradeoff=0.2, p=5)
        sharded = solve(quality, metric, tradeoff=0.2, p=5, shards=1)
        assert sharded.selected == plain.selected
        assert sharded.objective_value == plain.objective_value

    def test_shards_exceeding_n(self, feature_instance):
        # Every shard collapses to a singleton, the core-set is the whole
        # universe, and the final stage becomes the plain solve.
        quality, metric = feature_instance.quality, feature_instance.metric
        plain = solve(quality, metric, tradeoff=0.5, p=4)
        sharded = solve_sharded(
            quality, metric, tradeoff=0.5, p=4, shards=feature_instance.n * 3
        )
        info = sharded.metadata["sharding"]
        assert info["shards"] == feature_instance.n
        assert info["core_size"] == feature_instance.n
        assert sharded.selected == plain.selected
        assert sharded.objective_value == pytest.approx(plain.objective_value)

    def test_empty_shards_after_restriction(self, feature_instance):
        # A candidate pool smaller than the requested shard count: the empty
        # splits are dropped and the partition covers exactly the pool.
        quality, metric = feature_instance.quality, feature_instance.metric
        pool = [5, 17, 3]
        sharded = solve_sharded(
            quality, metric, tradeoff=0.5, p=2, shards=8, candidates=pool
        )
        info = sharded.metadata["sharding"]
        assert info["shards"] == 3
        # The recorded pool keeps the user's first-seen order, matching the
        # unsharded restriction convention (sorting is internal to sharding).
        assert sharded.metadata["candidates"] == (5, 17, 3)
        assert sharded.selected <= {3, 5, 17}
        assert len(sharded.selected) == 2

    def test_empty_candidate_pool(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        sharded = solve_sharded(
            quality, metric, tradeoff=0.5, p=3, shards=4, candidates=[]
        )
        assert sharded.selected == frozenset()

    def test_oracle_metric_fallback(self, matrix_instance):
        # A pure oracle metric has no lazy tier and no matrix view: shards
        # fall back to the O(k²) pairwise restriction and still agree with
        # the plain solve on the materialized matrix.
        oracle = OracleMetric(matrix_instance.metric.to_matrix())
        quality = matrix_instance.quality
        plain = solve(quality, matrix_instance.metric, tradeoff=0.2, p=5)
        sharded = solve_sharded(quality, oracle, tradeoff=0.2, p=5, shards=4)
        assert sharded.objective_value >= 0.95 * plain.objective_value
        assert sharded.metadata["sharding"]["shards"] == 4


# ----------------------------------------------------------------------
# Pipeline behavior
# ----------------------------------------------------------------------
class TestSolveSharded:
    def test_parity_with_global_greedy(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        plain = solve(quality, metric, tradeoff=0.5, p=8)
        for shards in (2, 5, 10):
            sharded = solve_sharded(
                quality, metric, tradeoff=0.5, p=8, shards=shards
            )
            assert sharded.objective_value >= 0.95 * plain.objective_value
            assert len(sharded.selected) == 8

    def test_metadata_records_layout(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        sharded = solve_sharded(quality, metric, tradeoff=0.5, p=4, shards=6)
        info = sharded.metadata["sharding"]
        assert info["shards"] == 6
        assert sum(info["shard_sizes"]) == feature_instance.n
        assert info["core_size"] == 6 * 4
        assert info["per_shard_p"] == 4
        assert info["shard_algorithm"] == "greedy"
        assert info["shard_seconds"] >= 0.0
        assert "candidates" not in sharded.metadata

    def test_per_shard_p_grows_core(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        small = solve_sharded(quality, metric, tradeoff=0.5, p=3, shards=4)
        big = solve_sharded(
            quality, metric, tradeoff=0.5, p=3, shards=4, per_shard_p=9
        )
        assert small.metadata["sharding"]["core_size"] == 12
        assert big.metadata["sharding"]["core_size"] == 36
        assert big.objective_value >= small.objective_value - 1e-9

    def test_local_search_final_stage(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        greedy = solve_sharded(quality, metric, tradeoff=0.5, p=6, shards=4)
        refined = solve_sharded(
            quality,
            metric,
            tradeoff=0.5,
            p=6,
            shards=4,
            algorithm="local_search",
            local_search_config=LocalSearchConfig(max_swaps=4),
        )
        assert refined.algorithm == "local_search"
        # The final search is seeded with the core-set greedy solution, so it
        # can only improve on it.
        assert refined.objective_value >= greedy.objective_value - 1e-9

    def test_materialized_shards_match_lazy(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        lazy = solve_sharded(
            quality, metric, tradeoff=0.5, p=5, shards=4, materialize_shards=False
        )
        materialized = solve_sharded(
            quality, metric, tradeoff=0.5, p=5, shards=4, materialize_shards=True
        )
        assert materialized.selected == lazy.selected
        assert materialized.objective_value == pytest.approx(lazy.objective_value)

    def test_materialized_cosine_shards_high_dimension(self):
        # GEMM-based cosine blocks carry ulp-level asymmetry at high
        # dimension; the materializing path must symmetrize before the
        # DistanceMatrix axiom check instead of raising MetricError.
        from repro.metrics.cosine import CosineMetric

        rng = np.random.default_rng(19)
        features = np.abs(rng.normal(size=(120, 1024))) + 0.01
        metric = CosineMetric(features, shift=0.05)
        quality = ModularFunction(rng.uniform(0, 1, size=120))
        result = solve_sharded(
            quality,
            metric,
            tradeoff=1.0,
            p=4,
            shards=4,
            materialize_shards=True,
        )
        assert len(result.selected) == 4

    def test_thread_pool_matches_sequential(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        sequential = solve_sharded(quality, metric, tradeoff=0.5, p=5, shards=5)
        threaded = solve_sharded(
            quality, metric, tradeoff=0.5, p=5, shards=5, max_workers=3
        )
        assert threaded.selected == sequential.selected
        assert threaded.metadata["sharding"]["executor"] == "thread"
        assert threaded.metadata["sharding"]["shard_seconds"] > 0.0

    def test_process_pool_matches_sequential(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        sequential = solve_sharded(quality, metric, tradeoff=0.5, p=5, shards=5)
        multiproc = solve_sharded(
            quality,
            metric,
            tradeoff=0.5,
            p=5,
            shards=5,
            max_workers=2,
            executor="process",
        )
        assert multiproc.selected == sequential.selected
        assert multiproc.metadata["sharding"]["executor"] == "process"
        assert multiproc.metadata["sharding"]["shard_seconds"] > 0.0

    def test_oracle_quality_disables_thread_pool(self, feature_instance):
        metric = feature_instance.metric

        class OracleQuality(ModularFunction):
            """A user-oracle stand-in: no array view, no thread-safety promise."""

            def weights_view(self):  # pretend there is no array view
                return None

            @property
            def parallel_safe(self):  # and no parallel-safety declaration
                return False

        quality = OracleQuality(feature_instance.weights)
        result = solve_sharded(
            quality, metric, tradeoff=0.5, p=4, shards=4, max_workers=4
        )
        assert result.metadata["sharding"]["executor"] is None

    def test_submodular_parallel_safe_quality_enables_thread_pool(
        self, feature_instance
    ):
        from repro.functions import FacilityLocationFunction

        metric = feature_instance.metric
        rng = np.random.default_rng(9)
        n = metric.n
        similarity = rng.uniform(0.0, 1.0, size=(n, n))
        quality = FacilityLocationFunction((similarity + similarity.T) / 2.0)
        sequential = solve_sharded(quality, metric, tradeoff=0.5, p=4, shards=4)
        threaded = solve_sharded(
            quality, metric, tradeoff=0.5, p=4, shards=4, max_workers=4
        )
        assert threaded.metadata["sharding"]["executor"] == "thread"
        assert threaded.selected == sequential.selected

    def test_candidates_restrict_selection(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        pool = list(range(10, 80))
        sharded = solve_sharded(
            quality, metric, tradeoff=0.5, p=5, shards=4, candidates=pool
        )
        assert sharded.selected <= set(pool)
        assert sharded.metadata["candidates"] == tuple(pool)

    def test_invalid_parameters(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        with pytest.raises(InvalidParameterError):
            solve_sharded(quality, metric, tradeoff=0.5, p=3)
        with pytest.raises(InvalidParameterError):
            solve_sharded(
                quality, metric, tradeoff=0.5, p=3, shards=2, executor="fleet"
            )
        with pytest.raises(InvalidParameterError):
            solve_sharded(
                quality, metric, tradeoff=0.5, p=3, shards=2, max_workers=0
            )
        with pytest.raises(InvalidParameterError):
            solve_sharded(
                quality, metric, tradeoff=0.5, p=3, shards=2, per_shard_p=0
            )
        with pytest.raises(InvalidParameterError):
            solve_sharded(quality, metric, tradeoff=0.5, p=-1, shards=2)
        with pytest.raises(InvalidParameterError):
            solve_sharded(
                quality, metric, tradeoff=0.5, p=3, shards=2, algorithm="nope"
            )
        with pytest.raises(InvalidParameterError):
            solve_sharded(
                quality,
                metric,
                tradeoff=0.5,
                p=3,
                shards=2,
                shard_algorithm="nope",
            )


    @pytest.mark.parametrize("bad", ["outside", "negative", "float", "other_shard"])
    def test_resume_checks_checkpoint_winners(self, feature_instance, bad):
        """Resumed winners enter from outside and are checked where they do."""
        quality, metric = feature_instance.quality, feature_instance.metric
        checkpoints = []
        run = dict(tradeoff=0.5, p=4, shards=4)
        solve_sharded(
            quality, metric, **run, control=RunControl(on_checkpoint=checkpoints.append)
        )
        index = next(iter(checkpoints[0].shard_winners))
        parts = shard_pool(np.arange(metric.n), shards=4)
        winners = {
            "outside": (metric.n,),
            "negative": (-1,),
            "float": (float(parts[index][0]),),
            "other_shard": (int(parts[(index + 1) % 4][0]),),
        }[bad]
        tampered = dataclasses.replace(checkpoints[0], shard_winners={index: winners})
        with pytest.raises(InvalidParameterError):
            solve_sharded(
                quality, metric, **run, control=RunControl(resume_from=tampered)
            )


# ----------------------------------------------------------------------
# solve() wiring
# ----------------------------------------------------------------------
class TestSolverWiring:
    def test_solve_rejects_matroid_with_shards(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        with pytest.raises(InvalidParameterError):
            solve(
                quality,
                metric,
                tradeoff=0.5,
                matroid=UniformMatroid(feature_instance.n, 4),
                shards=4,
            )

    def test_solve_shard_size(self, feature_instance):
        quality, metric = feature_instance.quality, feature_instance.metric
        result = solve(quality, metric, tradeoff=0.5, p=4, shard_size=30)
        assert result.metadata["sharding"]["shards"] == 4


class TestShardFailureFeasibility:
    """Shard loss shrinks the core; the final solve must stay feasible."""

    def test_partial_shard_loss_clips_p_to_surviving_core(self):
        from repro.testing.faults import FaultyMetric

        class ShardSizeCrash(FaultyMetric):
            """Crash every oracle query made on a 4-element restriction.

            ``n=14, shards=4`` partitions into sizes ``(4, 4, 3, 3)`` and
            ``per_shard_p=3`` makes the two 3-element shards trivial winners
            (no oracle calls) while the two 4-element shards must actually
            solve — and die, on the pool attempt and the serial retry alike.
            The surviving 6-element core (and the 14-element corpus metric)
            never match the trigger, so only the shard map is faulty.
            """

            def _fault(self):
                if self.n == 4:
                    raise RuntimeError("injected shard fault")

        rng = np.random.default_rng(5)
        quality = ModularFunction(rng.uniform(1.0, 2.0, size=14))
        metric = EuclideanMetric(rng.normal(size=(14, 2)))
        result = solve_sharded(
            quality,
            ShardSizeCrash(metric),
            tradeoff=0.5,
            p=10,
            shards=4,
            per_shard_p=3,
            shard_retries=1,
            retry_backoff_s=0.0,
        )
        sharding = result.metadata["sharding"]
        assert len(sharding["failed_shards"]) == 2
        assert sharding["core_size"] == 6
        # p=10 exceeds the surviving core: the final solve clips rather
        # than raising an infeasibility error.
        assert len(result.selected) == 6
        assert result.metadata["degraded"] is True
        assert result.selected <= set(range(14))

    def test_full_shard_loss_reports_every_shard(self, feature_instance):
        from repro.testing.faults import CrashingMetric

        faulty = CrashingMetric(feature_instance.metric)
        result = solve_sharded(
            feature_instance.quality,
            faulty,
            tradeoff=0.5,
            p=4,
            shards=3,
            shard_retries=0,
            retry_backoff_s=0.0,
        )
        assert result.selected == frozenset()
        assert result.metadata["sharding"]["failed_shards"] == [0, 1, 2]
        assert result.metadata["degraded"] is True
