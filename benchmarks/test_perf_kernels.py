"""Performance benchmarks for the vectorized kernel layer.

Unlike the table/figure benchmarks, these cases guard the perf contract of
the kernel layer itself:

* the array best-swap scan must beat the loop scan of
  :mod:`repro.testing.reference` by at least 10× at n=2000, p=50 with
  modular quality on a matrix-backed metric (while choosing the same swap),
* Greedy B at n=2000, p=50 and a full local-search convergence are timed so
  regressions in the hot paths show up in the benchmark history,
* the batched multi-query front end (``solve_many``, 64 queries with pools
  of 200 over a shared n=2000 corpus) must beat a naive per-query loop that
  re-materializes each submatrix by at least 3× while returning identical
  selections,
* the sharded core-set pipeline at n=20000 must keep its objective within
  5% of the global greedy (the composable core-set parity contract) and
  beat the unsharded loop-scan local search of :mod:`repro.testing.reference`
  — same seed, same swap budget — by at least 3× (the unsharded array-scan
  local search is timed and reported alongside),
* the submodular fast path (stateful batched marginal gains + CELF lazy
  greedy) must beat the per-candidate oracle loop by at least 10× on greedy
  with facility-location quality at n=2000, p=50 (selecting identically) with
  CELF re-evaluating at most 25% of candidates after the first iteration, by
  at least 10× on batched log-det marginal evaluation, and by at least 5× on
  batched coverage marginal evaluation.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core import kernels
from repro.core.batch import solve_many
from repro.core.greedy import greedy_diversify
from repro.core.local_search import (
    LocalSearchConfig,
    _scan_swaps,
    local_search_diversify,
)
from repro.core.objective import Objective
from repro.core.sharding import solve_sharded
from repro.core.solver import solve
from repro.data.synthetic import make_feature_instance
from repro.functions.modular import ModularFunction
from repro.matroids.uniform import UniformMatroid
from repro.metrics.discrete import UniformRandomMetric
from repro.metrics.matrix import DistanceMatrix
from repro.testing.reference import local_search_reference, scan_swaps_reference

from .conftest import grouped_ratio, interleaved_seconds, run_once

N, P = 2000, 50
MIN_SPEEDUP = 10.0

# solve_many guard: 64 queries with pools of 200 over a shared n=2000 corpus.
# The observed speedup sits around 7× on an idle machine, but both sides move
# with memory pressure: the naive loop re-materializes 64 submatrices (slower
# when caches are cold, faster when the full suite has warmed them), and
# in-suite min-to-min ratios have been measured anywhere from 4.0× down to
# 3.97×.  3.0 keeps a real regression (losing the restriction layer ≈ 1×)
# unmistakable while leaving headroom for that swing.
BATCH_QUERIES, BATCH_POOL, BATCH_P = 64, 200, 10
MIN_BATCH_SPEEDUP = 3.0

# Sharding guard: n=20000 feature-vector instance, 40 shards.
SHARD_N, SHARD_P, SHARD_COUNT = 20_000, 20, 40
MIN_SHARD_SPEEDUP = 3.0
MIN_SHARD_PARITY = 0.95

# Submodular fast-path guards: batched marginal gains + CELF lazy greedy.
SUB_N, SUB_P = 2000, 50
MIN_SUBMODULAR_SPEEDUP = 10.0
MIN_COVERAGE_SPEEDUP = 5.0
COVERAGE_ROUNDS, COVERAGE_BLOCK_S = 7, 0.1
MAX_CELF_FRACTION = 0.25


def _instance(n: int = N, seed: int = 7) -> Objective:
    rng = np.random.default_rng(seed)
    metric = UniformRandomMetric(n, seed=seed)
    quality = ModularFunction(rng.uniform(0.0, 5.0, size=n))
    return Objective(quality, metric, 1.0)


def test_swap_scan_speedup(benchmark):
    objective = _instance()
    matroid = UniformMatroid(N, P)
    rng = np.random.default_rng(11)
    selected = set(rng.choice(N, size=P, replace=False).tolist())
    tracker = objective.make_tracker(selected)
    weights = kernels.modular_weights(objective.quality)

    def vectorized_scan():
        return _scan_swaps(objective, matroid, selected, tracker, 0.0, weights)

    # Min over several rounds on both sides: background load on a shared CI
    # runner can only inflate a single sample, never deflate it, so the
    # min-to-min ratio is a stable lower bound on the true speedup.
    move_vec = benchmark.pedantic(vectorized_scan, rounds=20, iterations=1)
    vectorized_seconds = benchmark.stats.stats.min

    reference_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        move_ref = scan_swaps_reference(objective, matroid, selected, tracker, 0.0)
        reference_seconds = min(reference_seconds, time.perf_counter() - started)

    assert move_vec is not None and move_ref is not None
    assert move_vec[:2] == move_ref[:2]
    assert move_vec[2] == pytest.approx(move_ref[2], abs=1e-9)

    speedup = reference_seconds / max(vectorized_seconds, 1e-12)
    benchmark.extra_info["n"] = N
    benchmark.extra_info["p"] = P
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    print(
        f"\nbest-swap scan n={N}, p={P}: reference {reference_seconds * 1e3:.1f} ms, "
        f"vectorized {vectorized_seconds * 1e3:.3f} ms ({speedup:.0f}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized swap scan only {speedup:.1f}x faster than the reference loop"
    )


def test_greedy_n2000_p50(benchmark):
    objective = _instance()
    result = run_once(benchmark, greedy_diversify, objective, P)
    assert result.size == P
    benchmark.extra_info["n"] = N
    benchmark.extra_info["p"] = P
    benchmark.extra_info["objective_value"] = round(result.objective_value, 4)


def test_solve_many_speedup(benchmark):
    """Batched multi-query solving ≥3× a naive per-query submatrix loop."""
    objective = _instance()
    quality, metric = objective.quality, objective.metric
    rng = np.random.default_rng(23)
    pools = [
        rng.choice(N, size=BATCH_POOL, replace=False).tolist()
        for _ in range(BATCH_QUERIES)
    ]

    def batched():
        return solve_many(quality, metric, pools, tradeoff=1.0, p=BATCH_P)

    batched_results = benchmark.pedantic(batched, rounds=3, iterations=1)
    batched_seconds = benchmark.stats.stats.min

    def naive():
        # What a caller without the restriction layer writes: per query,
        # re-materialize the submatrix through the public validating
        # constructor and re-derive the weight slice from the oracle.
        results = []
        for pool in pools:
            idx = np.asarray(pool, dtype=int)
            sub_metric = DistanceMatrix(metric.to_matrix()[np.ix_(idx, idx)])
            sub_quality = ModularFunction(
                [quality.marginal(u, frozenset()) for u in pool]
            )
            local = solve(sub_quality, sub_metric, tradeoff=1.0, p=BATCH_P)
            results.append(frozenset(pool[e] for e in local.selected))
        return results

    # Best-of-3 on the naive side too (the batched side already takes the
    # min over 3 pedantic rounds): noise can only inflate a sample, so the
    # min-to-min ratio is the stable estimate of the true speedup.
    naive_seconds = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        naive_results = naive()
        naive_seconds = min(naive_seconds, time.perf_counter() - started)

    assert [r.selected for r in batched_results] == naive_results

    speedup = naive_seconds / max(batched_seconds, 1e-12)
    benchmark.extra_info["queries"] = BATCH_QUERIES
    benchmark.extra_info["pool_size"] = BATCH_POOL
    benchmark.extra_info["naive_seconds"] = round(naive_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    print(
        f"\nsolve_many {BATCH_QUERIES} queries (n={N}, pool={BATCH_POOL}, p={BATCH_P}): "
        f"naive {naive_seconds * 1e3:.1f} ms, batched {batched_seconds * 1e3:.1f} ms "
        f"({speedup:.0f}x)"
    )
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"solve_many only {speedup:.1f}x faster than the naive per-query loop"
    )


def test_sharded_coreset_parity_and_speedup(benchmark):
    """Sharded core-set solving: ≥0.95 greedy parity and ≥3× over unsharded.

    The instance is a lazy feature-vector metric at n=20000 — beyond the
    scale this repo materialized matrices at before the sharding layer.  Two
    contracts are guarded:

    * **Parity** — the sharded greedy pipeline's objective must stay within
      5% of the global (unsharded) greedy's.
    * **Speedup** — with the same greedy seed and the same bounded swap
      budget, the sharded local-search pipeline (per-shard blocks) must beat
      the unsharded local search with the loop scan of
      :mod:`repro.testing.reference` by ≥3×.  The unsharded array-scan local
      search (block scans over the lazy metric) is timed too and its ratio
      reported, unguarded: at this budget it is within a small factor of the
      sharded pipeline.
    """
    instance = make_feature_instance(SHARD_N, dimension=8, tradeoff=0.5, seed=17)
    quality, metric = instance.quality, instance.metric
    objective = instance.objective
    config = LocalSearchConfig(max_swaps=2)

    baseline = greedy_diversify(objective, SHARD_P)
    sharded_greedy = solve(
        quality, metric, tradeoff=0.5, p=SHARD_P, shards=SHARD_COUNT
    )
    parity = sharded_greedy.objective_value / baseline.objective_value
    assert parity >= MIN_SHARD_PARITY, (
        f"sharded greedy parity {parity:.4f} below {MIN_SHARD_PARITY}"
    )

    def sharded_local_search():
        return solve_sharded(
            quality,
            metric,
            tradeoff=0.5,
            p=SHARD_P,
            shards=SHARD_COUNT,
            algorithm="local_search",
            local_search_config=config,
        )

    sharded_result = benchmark.pedantic(sharded_local_search, rounds=3, iterations=1)
    sharded_seconds = benchmark.stats.stats.min

    matroid = UniformMatroid(SHARD_N, SHARD_P)
    unsharded_seconds = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        loop_selection, _, _ = local_search_reference(
            objective, matroid, baseline.selected, max_swaps=config.max_swaps
        )
        unsharded_seconds = min(unsharded_seconds, time.perf_counter() - started)

    block_seconds = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        unsharded_result = local_search_diversify(
            objective, matroid, config=config, initial=baseline.selected
        )
        block_seconds = min(block_seconds, time.perf_counter() - started)

    # Both unsharded searches make the same swaps from the same basis.
    assert unsharded_result.selected == loop_selection
    # Equal budgets must land on comparable solutions (the sharded search is
    # confined to the core-set, so exact equality is not guaranteed).
    assert (
        sharded_result.objective_value
        >= MIN_SHARD_PARITY * unsharded_result.objective_value
    )

    speedup = unsharded_seconds / max(sharded_seconds, 1e-12)
    block_speedup = block_seconds / max(sharded_seconds, 1e-12)
    benchmark.extra_info["n"] = SHARD_N
    benchmark.extra_info["p"] = SHARD_P
    benchmark.extra_info["shards"] = SHARD_COUNT
    benchmark.extra_info["core_size"] = sharded_result.metadata["sharding"]["core_size"]
    benchmark.extra_info["parity"] = round(parity, 4)
    benchmark.extra_info["unsharded_seconds"] = round(unsharded_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["unsharded_block_seconds"] = round(block_seconds, 6)
    benchmark.extra_info["block_speedup"] = round(block_speedup, 2)
    print(
        f"\nsharded core-set n={SHARD_N}, p={SHARD_P}, shards={SHARD_COUNT}: "
        f"unsharded loop scan {unsharded_seconds * 1e3:.0f} ms, sharded "
        f"{sharded_seconds * 1e3:.0f} ms ({speedup:.0f}x), unsharded block "
        f"scan {block_seconds * 1e3:.0f} ms ({block_speedup:.1f}x), "
        f"parity {parity:.4f}"
    )
    assert speedup >= MIN_SHARD_SPEEDUP, (
        f"sharded pipeline only {speedup:.1f}x faster than the unsharded solve"
    )


def _facility_objective() -> Objective:
    """Clustered facility instance: RBF similarities over feature vectors."""
    rng = np.random.default_rng(47)
    features = rng.normal(size=(SUB_N, 8))
    squared = (features**2).sum(axis=1)
    distances_sq = squared[:, None] + squared[None, :] - 2.0 * features @ features.T
    similarity = np.exp(-np.maximum(distances_sq, 0.0) / (2.0 * 4.0))
    from repro.functions.facility_location import FacilityLocationFunction

    quality = FacilityLocationFunction(similarity)
    return Objective(quality, UniformRandomMetric(SUB_N, seed=47), 0.5)


def _greedy_oracle_reference(objective: Objective, p: int):
    """The seed greedy loop: one potential-marginal oracle call per candidate."""
    selected, order = set(), []
    tracker = objective.make_tracker()
    remaining = set(range(objective.n))
    while len(selected) < p and remaining:
        members = frozenset(selected)
        best, best_gain = None, -float("inf")
        for u in remaining:
            gain = objective.potential_marginal(u, members, tracker=tracker)
            if gain > best_gain or (gain == best_gain and (best is None or u < best)):
                best_gain, best = gain, u
        selected.add(best)
        order.append(best)
        tracker.add(best)
        remaining.discard(best)
    return order


def test_greedy_facility_celf_speedup(benchmark):
    """CELF greedy with facility-location quality ≥10× the seed oracle loop."""
    objective = _facility_objective()

    def celf_greedy():
        return greedy_diversify(objective, SUB_P)

    result = benchmark.pedantic(celf_greedy, rounds=3, iterations=1)
    fast_seconds = benchmark.stats.stats.min

    started = time.perf_counter()
    reference_order = _greedy_oracle_reference(objective, SUB_P)
    reference_seconds = time.perf_counter() - started

    assert list(result.order) == reference_order
    celf = result.metadata["celf"]
    assert celf["lazy"] is True

    speedup = reference_seconds / max(fast_seconds, 1e-12)
    benchmark.extra_info["n"] = SUB_N
    benchmark.extra_info["p"] = SUB_P
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    benchmark.extra_info["celf_fraction"] = round(celf["celf_fraction"], 4)
    benchmark.extra_info["quality_evaluations"] = celf["quality_evaluations"]
    print(
        f"\nCELF greedy facility n={SUB_N}, p={SUB_P}: oracle loop "
        f"{reference_seconds:.2f} s, batched+lazy {fast_seconds * 1e3:.0f} ms "
        f"({speedup:.0f}x), {celf['celf_fraction']:.1%} of candidates "
        f"re-evaluated after iteration 1"
    )
    assert speedup >= MIN_SUBMODULAR_SPEEDUP, (
        f"CELF facility greedy only {speedup:.1f}x faster than the oracle loop"
    )
    assert celf["celf_fraction"] <= MAX_CELF_FRACTION, (
        f"CELF re-evaluated {celf['celf_fraction']:.1%} of candidates "
        f"(cap {MAX_CELF_FRACTION:.0%})"
    )


def test_logdet_gains_speedup(benchmark):
    """Batched log-det marginals ≥10× the per-candidate slogdet oracle loop."""
    from repro.functions.log_det import LogDeterminantFunction

    rng = np.random.default_rng(53)
    features = rng.normal(size=(SUB_N, 6))
    squared = (features**2).sum(axis=1)
    distances_sq = squared[:, None] + squared[None, :] - 2.0 * features @ features.T
    kernel = np.exp(-np.maximum(distances_sq, 0.0) / (2.0 * 9.0))
    kernel = (kernel + kernel.T) / 2.0
    function = LogDeterminantFunction(kernel, validate=False)
    subset = sorted(map(int, rng.choice(SUB_N, size=20, replace=False)))
    candidates = np.arange(SUB_N)

    def batched():
        state = function.gain_state(subset)
        return function.gains(candidates, state)

    batched_gains = benchmark.pedantic(batched, rounds=5, iterations=1)
    batched_seconds = benchmark.stats.stats.min

    members = frozenset(subset)
    reference_seconds = float("inf")
    for _ in range(2):
        started = time.perf_counter()
        reference = np.array([function.marginal(int(u), members) for u in candidates])
        reference_seconds = min(reference_seconds, time.perf_counter() - started)

    np.testing.assert_allclose(batched_gains, reference, atol=1e-6, rtol=0)

    speedup = reference_seconds / max(batched_seconds, 1e-12)
    benchmark.extra_info["n"] = SUB_N
    benchmark.extra_info["subset_size"] = len(subset)
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    print(
        f"\nlog-det marginals n={SUB_N}, |S|={len(subset)}: slogdet loop "
        f"{reference_seconds * 1e3:.0f} ms, Cholesky batch "
        f"{batched_seconds * 1e3:.1f} ms ({speedup:.0f}x)"
    )
    assert speedup >= MIN_SUBMODULAR_SPEEDUP, (
        f"batched log-det gains only {speedup:.1f}x faster than the slogdet loop"
    )


def test_coverage_gains_speedup(benchmark):
    """Batched coverage marginals ≥5× the covered-set-rebuilding oracle loop."""
    from repro.functions.coverage import CoverageFunction

    function = CoverageFunction.random(SUB_N, 500, topics_per_element=4, seed=59)
    rng = np.random.default_rng(59)
    subset = frozenset(map(int, rng.choice(SUB_N, size=SUB_P, replace=False)))
    candidates = np.arange(SUB_N)

    def batched():
        state = function.gain_state(subset)
        return function.gains(candidates, state)

    def oracle_loop():
        return np.array([function.marginal(int(u), subset) for u in candidates])

    batched_gains = benchmark.pedantic(batched, rounds=5, iterations=1)
    np.testing.assert_allclose(batched_gains, oracle_loop(), atol=1e-9, rtol=0)

    # A ~1 ms call timed a handful of times reads timer and scheduler noise,
    # so each arm runs in blocks of at least COVERAGE_BLOCK_S, alternating.
    # The batched matvec runs on the BLAS thread pool, which a busy host slows
    # far more than the single-threaded loop (per-round ratios then swing from
    # 2× to 15×), so each arm is priced by its fastest block.
    seconds = interleaved_seconds(
        [oracle_loop, batched], rounds=COVERAGE_ROUNDS, min_block_s=COVERAGE_BLOCK_S
    )
    reference_seconds, batched_seconds = seconds.min(axis=0)
    speedup = reference_seconds / max(batched_seconds, 1e-12)
    benchmark.extra_info["n"] = SUB_N
    benchmark.extra_info["subset_size"] = SUB_P
    benchmark.extra_info["reference_seconds"] = round(reference_seconds, 6)
    benchmark.extra_info["speedup"] = round(speedup, 1)
    print(
        f"\ncoverage marginals n={SUB_N}, |S|={SUB_P}: oracle loop "
        f"{reference_seconds * 1e3:.1f} ms, incidence batch "
        f"{batched_seconds * 1e3:.2f} ms ({speedup:.0f}x)"
    )
    assert speedup >= MIN_COVERAGE_SPEEDUP, (
        f"batched coverage gains only {speedup:.1f}x faster than the oracle loop"
    )


def test_local_search_convergence(benchmark):
    objective = _instance(n=600, seed=3)
    matroid = UniformMatroid(600, 30)
    result = run_once(benchmark, local_search_diversify, objective, matroid)
    assert result.size == 30
    assert result.metadata["converged"]
    benchmark.extra_info["n"] = 600
    benchmark.extra_info["p"] = 30
    benchmark.extra_info["swaps"] = result.iterations
    benchmark.extra_info["objective_value"] = round(result.objective_value, 4)


# Deadline guard: the cooperative expiry checks a generous deadline adds to
# the greedy loop must stay under 10% of the unconstrained runtime.  The
# instance is deliberately large (each iteration does O(n·d) tracker work):
# on toy instances the fixed per-iteration clock read dominates and the
# ratio measures Python overhead, not the solver.  The guarded ratio is the
# median over 5 groups of 6 interleaved rounds (plain/deadline alternating)
# of the deadline/plain ratio of summed solve times; a pathological
# regression — a clock read per candidate instead of per iteration — still
# shows up as 2× or worse.
DEADLINE_N, DEADLINE_P, DEADLINE_DIM = 8000, 100, 8
DEADLINE_GROUPS, DEADLINE_ROUNDS_PER_GROUP = 5, 6
MAX_DEADLINE_OVERHEAD = 0.10


def test_deadline_overhead(benchmark):
    """A never-expiring deadline must not slow greedy solves measurably."""
    rng = np.random.default_rng(13)
    from repro.metrics.euclidean import EuclideanMetric

    metric = EuclideanMetric(rng.normal(size=(DEADLINE_N, DEADLINE_DIM)))
    quality = ModularFunction(rng.uniform(0.0, 5.0, size=DEADLINE_N))
    objective = Objective(quality, metric, 1.0)

    def with_deadline():
        return greedy_diversify(objective, DEADLINE_P, deadline=3600.0)

    def plain():
        return greedy_diversify(objective, DEADLINE_P)

    # The benchmark artifact records the deadline side; the guarded ratio is
    # re-measured below with the two sides interleaved, so that both sums
    # come from the same load windows (back-to-back windows let machine drift
    # masquerade as overhead).
    timed = benchmark.pedantic(with_deadline, rounds=3, iterations=1)
    assert timed.selected == plain().selected
    assert "interrupted" not in timed.metadata

    seconds = interleaved_seconds(
        [plain, with_deadline], rounds=DEADLINE_GROUPS * DEADLINE_ROUNDS_PER_GROUP
    )
    plain_seconds, deadline_seconds = seconds.mean(axis=0)
    overhead = grouped_ratio(seconds, DEADLINE_GROUPS) - 1.0
    benchmark.extra_info["n"] = DEADLINE_N
    benchmark.extra_info["p"] = DEADLINE_P
    benchmark.extra_info["interrupted_solve_overhead"] = round(max(overhead, 0.0), 4)
    print(
        f"\ndeadline overhead n={DEADLINE_N}, p={DEADLINE_P}: "
        f"plain {plain_seconds * 1e3:.2f} ms, "
        f"with deadline {deadline_seconds * 1e3:.2f} ms mean per solve, median of "
        f"{DEADLINE_GROUPS} groups ({overhead * 100:+.1f}%)"
    )
    assert overhead <= MAX_DEADLINE_OVERHEAD, (
        f"deadline bookkeeping adds {overhead * 100:.1f}% to the greedy loop"
    )
