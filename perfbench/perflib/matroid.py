"""``matroid``: the paper's local search to a local optimum under a partition
matroid, as a closed loop over three seeded instances per family.

* ``submodular``: 400 sites in the unit square, facility-location quality
  from their distance matrix, a ``DistanceMatrix`` metric, and 8 districts
  (a 4 x 2 grid) of capacity 3.
* ``modular``: 400 points in 8 dimensions on the lazy ``EuclideanMetric``
  (the oracle tier, as the serving corpus stores features), uniform weights,
  and 10 random blocks of capacity 5.

Both use λ = 0.2.  The loop solves the six instances in turn until the run's
time is spent (at least once each), so the medians rest on repeated solves.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.local_search import LocalSearchConfig, local_search_diversify
from repro.core.objective import Objective
from repro.core.result import build_result
from repro.functions.facility_location import FacilityLocationFunction
from repro.functions.modular import ModularFunction
from repro.matroids.partition import PartitionMatroid
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.matrix import DistanceMatrix

from perflib.common import RunContext, median_of, ms, peak_rss_mb, perf
from perflib.inputs import modular_instance, submodular_instance
from perflib.report import Outcome
from perflib.spans import SpanLog
from perflib.stats import failed_frac, percentile, summarize

LAMBDA = 0.2
INSTANCES = 3
N = 400
GRID = (4, 2)
SUBMODULAR_CAPACITY = 3
DIM = 8
BLOCKS = 10
MODULAR_CAPACITY = 5
SETUP_REPS = 9
REL_TOL = 1e-9
CALIBRATION_PASSES = 2  # around the set-ups and every solve

FAMILIES = ("submodular", "modular")
OWNED = (
    [
        f"local_search.{family}.{q}"
        for family in FAMILIES
        for q in ("init_ms", "swaps", "scan_ms")
    ]
    + ["functions.gain_state_ms", "result.assemble_ms"]
    + ["trace.p50_ms", "trace.unattributed_ms"]
)


def make_inputs(seed: int) -> List[tuple]:
    """``(family, instance arrays)`` in solve order, families interleaved."""
    out = []
    for k in range(INSTANCES):
        out.append(
            (
                "submodular",
                submodular_instance(
                    seed, k, n=N, grid=GRID, capacity=SUBMODULAR_CAPACITY
                ),
            )
        )
        out.append(
            (
                "modular",
                modular_instance(
                    seed, k, n=N, dim=DIM, blocks=BLOCKS, capacity=MODULAR_CAPACITY
                ),
            )
        )
    return out


def _partition(labels: np.ndarray, capacity: int) -> PartitionMatroid:
    block_of = labels.tolist()
    return PartitionMatroid(block_of, {label: capacity for label in set(block_of)})


def build(family: str, data) -> tuple:
    """Metric, function, matroid and ``Objective`` for one instance."""
    if family == "submodular":
        metric = DistanceMatrix(data.distances)
        quality = FacilityLocationFunction.from_distances(data.distances)
        matroid = _partition(data.districts, data.capacity)
    else:
        metric = EuclideanMetric(data.points)
        quality = ModularFunction(data.weights)
        matroid = _partition(data.blocks, data.capacity)
    return Objective(quality, metric, LAMBDA), matroid


def check_local_optimum(objective: Objective, matroid, selected) -> List[str]:
    """Basis check plus Theorem 2's local optimality, via ``Objective.value``.

    An oracle metric is materialized into a ``DistanceMatrix`` first, so the
    thousands of set values this takes are array sums rather than pairwise
    oracle loops; the values are the same φ, up to rounding far below the
    tolerance.
    """
    problems = []
    members = set(selected)
    if objective.metric.matrix_view() is None:
        everyone = np.arange(objective.n)
        matrix = DistanceMatrix(objective.metric.block(everyone, everyone))
        objective = Objective(objective.quality, matrix, objective.tradeoff)
    if len(members) != matroid.rank() or not matroid.is_independent(members):
        return [f"result of size {len(members)} is not a basis (rank {matroid.rank()})"]
    value = objective.value(members)
    slack = REL_TOL * max(1.0, abs(value))
    outside = [u for u in range(objective.n) if u not in members]
    for v in sorted(members):
        rest = members - {v}
        for u in outside:
            candidate = rest | {u}
            if (
                matroid.is_independent(candidate)
                and objective.value(candidate) > value + slack
            ):
                problems.append(f"swap out {v}, in {u} improves φ={value:.9f}")
                return problems
    return problems


def run(ctx: RunContext) -> Outcome:
    inputs = make_inputs(ctx.seed)
    ctx.speed.sample(CALIBRATION_PASSES)
    setups = []
    for _ in range(SETUP_REPS):
        start = perf()
        instances = [(family, *build(family, data)) for family, data in inputs]
        setups.append((start, perf()))
    setup_s = median_of([end - start for start, end in setups])

    times: Dict[int, List[float]] = {index: [] for index in range(len(instances))}
    results: Dict[int, object] = {}
    mismatch = set()
    log = SpanLog()
    bounds = {}
    failed = attempted = 0
    rounds: List[List[tuple]] = []  # (start, end) of each solve, per round
    budget_end = perf() + ctx.seconds
    while not rounds or perf() < budget_end:
        this_round = []
        for index, (family, objective, matroid) in enumerate(instances):
            ctx.speed.sample(CALIBRATION_PASSES)
            outer = perf()
            start = perf()
            try:
                result = local_search_diversify(objective, matroid)
            except Exception:  # a solve that raises is a failed unit of work
                result = None
            end = perf()
            attempted += 1
            if result is None:
                failed += 1
                continue
            times[index].append(end - start)
            this_round.append((start, end))
            if index not in results:
                results[index] = result
            elif result.selected != results[index].selected:
                mismatch.add(index)
            if ctx.trace:
                bounds[attempted] = (outer, perf())
                log.add("local_search.solve", start, end, units=[attempted])
        rounds.append(this_round)
    ctx.speed.sample(CALIBRATION_PASSES)
    rss = peak_rss_mb()

    problems = [
        f"instance {i} gave different selections across solves"
        for i in sorted(mismatch)
    ]
    for index, result in sorted(results.items()):
        family, objective, matroid = instances[index]
        problems += [
            f"{family} instance {index // 2}: {problem}"
            for problem in check_local_optimum(objective, matroid, result.selected)
        ]

    by_family = {
        family: [t for i, ts in times.items() if instances[i][0] == family for t in ts]
        for family in FAMILIES
    }
    # One round solves every instance once; its mean weighs both families
    # equally, where a pooled median would sit on the boundary between them.
    pooled = summarize(
        [np.mean([end - start for start, end in r]) for r in rounds if r]
    )
    family_ms = {family: ms(percentile(by_family[family], 50)) for family in FAMILIES}
    report = [
        f"matroid: solves={attempted} failed={failed} "
        f"submodular_solve_ms={family_ms['submodular']:.3f} "
        f"(n={len(by_family['submodular'])}) "
        f"modular_solve_ms={family_ms['modular']:.3f} (n={len(by_family['modular'])}) "
        f"round-mean solve p50={ms(pooled['p50']):.3f}ms over {len(rounds)} rounds "
        f"setup_s={setup_s:.6f} failed_frac={failed_frac(failed, attempted):.4f} "
        f"peak_rss_mb={rss:.1f}"
    ]
    scaled = [[ctx.speed.scaled(*solve) for solve in r] for r in rounds]
    scaled_pooled = summarize([np.mean(r) for r in scaled if r])
    if not ctx.trace:
        metrics = {
            "p50_ms": (ms(scaled_pooled["p50"]), "ms"),
            "tail_ms": (ms(scaled_pooled["tail"]), "ms"),
            "throughput_per_s": ((attempted - failed) / sum(map(sum, scaled)), "1/s"),
            "setup_s": (median_of([ctx.speed.scaled(*s) for s in setups]), "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        return Outcome(attempted, failed, metrics, problems, report)

    metrics = _layers(instances, results)
    remainders = [rem for _, rem in log.unattributed(bounds).values()]
    metrics["trace.p50_ms"] = (ms(scaled_pooled["p50"]), "ms")
    metrics["trace.unattributed_ms"] = (ms(percentile(remainders, 50)), "ms")
    return Outcome(attempted, failed, metrics, problems, report, log)


def _layers(instances, results) -> dict:
    """Replays on each instance: initial basis, gain state, result assembly.

    The initial basis and a full solve are timed back to back, because the
    host's speed drifts over a run: the loop's solve times, taken earlier,
    can be shorter than a later replay of the initial basis alone.
    """
    init = {family: [] for family in FAMILIES}
    swaps = {family: [] for family in FAMILIES}
    scan = {family: [] for family in FAMILIES}
    gain_state, assemble = [], []
    for index, result in sorted(results.items()):
        family, objective, matroid = instances[index]
        start = perf()
        local_search_diversify(
            objective, matroid, config=LocalSearchConfig(max_swaps=0)
        )
        init_s = perf() - start
        start = perf()
        local_search_diversify(objective, matroid)
        solve_s = perf() - start
        init[family].append(init_s)
        swaps[family].append(result.iterations)
        scan[family].append((solve_s - init_s) / (result.iterations + 1))
        if family == "submodular":
            start = perf()
            objective.make_quality_state(result.selected)
            gain_state.append(perf() - start)
        start = perf()
        build_result(
            objective,
            result.selected,
            sorted(result.selected),
            algorithm="local_search",
        )
        assemble.append(perf() - start)
    metrics = {}
    for family in FAMILIES:
        prefix = f"local_search.{family}"
        metrics[f"{prefix}.init_ms"] = (ms(percentile(init[family], 50)), "ms")
        metrics[f"{prefix}.swaps"] = (float(np.mean(swaps[family])), "count")
        metrics[f"{prefix}.scan_ms"] = (ms(percentile(scan[family], 50)), "ms")
    metrics["functions.gain_state_ms"] = (ms(percentile(gain_state, 50)), "ms")
    metrics["result.assemble_ms"] = (ms(percentile(assemble, 50)), "ms")
    return metrics
