"""``serve``: Greedy B pool queries through the async micro-batching server.

One asyncio thread carries both the load generator and the ``Server``; the
server runs each window on its single executor thread.  Phases:

* warm-up (untimed) at the ``low`` rate, so the restriction cache is in its
  steady state before anything is measured;
* ``low``: open-loop Poisson arrivals at 300 q/s, where windows hold one or
  two requests, so batching is mostly bypassed;
* ``high``: open-loop Poisson arrivals at 600 q/s, where windows fill;
* ``sat``: a closed loop of 64 callers, each awaiting its reply, over a fixed
  request count; its completion rate bounds any sustainable open-loop rate.

After the warm-up the three phases run in ``ROUNDS`` interleaved rounds
(low, high, sat, low, high, sat, ...).  A small shared machine changes speed
over seconds; interleaving spreads every phase over the whole run, so such
drifts fall on all phases alike instead of on whichever phase ran then.

Open-loop latency runs from a request's due time, so a late generator or a
stalled loop shows up in the latency rather than hiding in a later send.
The gated latency is the ``low`` phase's: at 600 q/s the server runs at
about 60% of a capacity that moves with the machine's speed, which makes
``high`` latency too unsteady to gate (see README.md); its figures are still
reported.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List

import numpy as np

import repro
from repro.core.greedy import greedy_diversify
from repro.core.objective import Objective
from repro.core.result import SolverResult, build_result
from repro.functions.modular import ModularFunction
from repro.metrics.euclidean import EuclideanMetric
from repro.serve import PreparedCorpus, Server
from repro.utils.validation import check_candidate_pool

from perflib.common import RunContext, median_of, ms, peak_rss_mb, perf
from perflib.inputs import ServeQueries, serve_inputs
from perflib.report import Outcome
from perflib.spans import SpanLog, check_additive
from perflib.stats import failed_frac, percentile, summarize

N = 100_000
DIM = 8
POOL = 256
P = 10
LAMBDA = 0.2
SHARD_SIZE = 4096
CATALOG = 1024  # 4x the server's 256-entry restriction cache
HOT_SHARE = 0.7
WEIGHTED_SHARE = 0.5
MAX_BATCH = 32
MAX_WAIT_S = 0.002
DEADLINE_S = 1.0
LOW_RATE = 300.0
HIGH_RATE = 600.0
SAT_CALLERS = 64
SAT_PER_S = 450  # closed-loop requests per second of run length
ROUNDS = 10
SETUP_REPS = 51
GATE_SAMPLE = 48  # independent repro.solve checks, half with per-query weights
REPLAY_SAMPLE = 256
LEAD_S = 0.005
CALIBRATION_PASSES = 3  # before the set-ups and around every segment

OPEN_PHASES = ("low", "high")
PHASES = OPEN_PHASES + ("sat",)

OWNED = (
    [f"gen.{ph}.{q}" for ph in OPEN_PHASES for q in ("lag_tail_ms", "backlog")]
    + [
        f"server.{ph}.{q}"
        for ph in PHASES
        for q in ("queue_wait_ms", "window_size", "overhead_ms")
    ]
    + [
        "corpus.execute_ms",
        "corpus.restrict_hit_ms",
        "corpus.restrict_miss_ms",
        "corpus.hit_ratio",
        "batch.query_ms",
        "validation.pool_ms",
        "greedy.rounds_ms",
        "result.assemble_ms",
        "restriction.lift_ms",
        "trace.p50_ms",
        "trace.unattributed_ms",
    ]
)


def segments(seconds: float) -> List[tuple]:
    """Warm-up plus ``ROUNDS`` rounds of the three phases, about ``seconds``
    long in total; ``(phase, rate, duration)`` or ``(phase, None, count)``.

    The closed loop gets the largest share: its completion rate is the
    figure most exposed to the machine's changes of speed.
    """
    part = 0.2 * seconds / ROUNDS
    sat = max(SAT_CALLERS, int(round(SAT_PER_S * seconds / ROUNDS)))
    plan = [("warmup", LOW_RATE, max(1.0, 0.1 * seconds))]
    for _ in range(ROUNDS):
        plan += [("low", LOW_RATE, part), ("high", HIGH_RATE, part)]
        plan.append(("sat", None, sat))
    return plan


def make_inputs(seed: int, seconds: float):
    return serve_inputs(
        seed,
        n=N,
        dim=DIM,
        pool_size=POOL,
        catalog_size=CATALOG,
        hot_share=HOT_SHARE,
        weighted_share=WEIGHTED_SHARE,
        segments=segments(seconds),
    )


class _TracedCorpus(PreparedCorpus):
    """Records the calls the server makes into the corpus layer.

    ``solve_window`` is what the server's executor calls once per window;
    ``restriction_for`` is what the window makes per pool.  Both run on the
    single executor thread, one window at a time.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.windows: List[tuple] = []
        self._calls = None

    def solve_window(self, requests, *, deadline=None, skip=None):
        calls: List[tuple] = []
        self._calls = calls
        start = perf()
        try:
            return super().solve_window(requests, deadline=deadline, skip=skip)
        finally:
            end = perf()
            self._calls = None
            self.windows.append((start, end, tuple(r.tag for r in requests), calls))

    def restriction_for(self, pool):
        hits = self.cache_info()["hits"]
        start = perf()
        restriction = super().restriction_for(pool)
        end = perf()
        if self._calls is not None:
            self._calls.append((start, end, self.cache_info()["hits"] > hits))
        return restriction


def _failed(outcome) -> bool:
    """Whether a reply counts as failed: an exception (shed, closed, raised)
    or a result cut short by its deadline or by a degraded shard map."""
    if not isinstance(outcome, SolverResult):
        return True
    meta = outcome.metadata
    return bool(meta.get("interrupted") or meta.get("degraded"))


class _Record:
    """Per-request timestamps (``perf_counter`` seconds) and compact outcomes.

    Results are reduced to arrays as they arrive instead of being kept as
    objects, so the run's heap, and the garbage collector's work over it,
    does not grow with the number of requests sent.
    """

    def __init__(self, total: int) -> None:
        self.due = np.full(total, np.nan)
        self.sent = np.full(total, np.nan)
        self.started = np.full(total, np.nan)
        self.done = np.full(total, np.nan)
        self.failed = np.zeros(total, dtype=bool)
        self.size = np.zeros(total, dtype=np.int64)
        self.selected = np.full((total, P), -1, dtype=np.int64)
        self.value = np.full(total, np.nan)

    def store(self, rid: int, outcome) -> None:
        if _failed(outcome):
            self.failed[rid] = True
            return
        members = sorted(outcome.selected)
        self.size[rid] = len(members)
        self.selected[rid, : min(P, len(members))] = members[:P]
        self.value[rid] = outcome.objective_value


async def _request(server, rid, pool, weights, rec: _Record) -> None:
    rec.started[rid] = perf()
    try:
        outcome = await server.submit(
            pool, p=P, weights=weights, deadline_s=DEADLINE_S, tag=rid
        )
    except Exception as error:  # shed, closed or failed: counted as failed
        outcome = error
    rec.done[rid] = perf()
    rec.store(rid, outcome)


def _weights(segment: ServeQueries, j: int):
    return segment.weights[j] if segment.weighted[j] else None


async def _open_loop(server, segment: ServeQueries, first: int, rec: _Record) -> int:
    """Send ``segment`` on its Poisson schedule; return the requests still
    pending when the schedule ends."""
    loop = asyncio.get_running_loop()
    origin = perf() + LEAD_S
    tasks = []
    for j, offset in enumerate(segment.due.tolist()):
        due = origin + offset
        delay = due - perf()
        if delay > 0:
            await asyncio.sleep(delay)
        rid = first + j
        rec.due[rid] = due
        rec.sent[rid] = perf()
        request = _request(server, rid, segment.pools[j], _weights(segment, j), rec)
        tasks.append(loop.create_task(request))
    delay = origin + segment.duration - perf()
    if delay > 0:
        await asyncio.sleep(delay)
    backlog = sum(1 for task in tasks if not task.done())
    await asyncio.gather(*tasks)
    return backlog


async def _closed_loop(
    server, segment: ServeQueries, first: int, rec: _Record
) -> tuple:
    """Run ``segment`` through ``SAT_CALLERS`` callers; return its start and end."""
    jobs = iter(range(segment.count))

    async def caller() -> None:
        for j in jobs:  # shared iterator: each caller takes the next request
            rid = first + j
            now = perf()
            rec.due[rid] = now
            rec.sent[rid] = now
            await _request(server, rid, segment.pools[j], _weights(segment, j), rec)

    start = perf()
    await asyncio.gather(*(caller() for _ in range(SAT_CALLERS)))
    return start, perf()


async def _drive(ctx: RunContext, inputs) -> dict:
    corpus_cls = _TracedCorpus if ctx.trace else PreparedCorpus
    ctx.speed.sample(CALIBRATION_PASSES)
    setups = []
    server = None
    for _ in range(SETUP_REPS):
        if server is not None:
            await server.stop()
        start = perf()
        corpus = corpus_cls(
            ModularFunction(inputs.weights),
            EuclideanMetric(inputs.points),
            tradeoff=LAMBDA,
            shard_size=SHARD_SIZE,
        )
        server = Server(corpus, max_batch_size=MAX_BATCH, max_wait_s=MAX_WAIT_S)
        await server.start()
        setups.append((start, perf()))

    firsts = np.cumsum([0] + [segment.count for segment in inputs.phases]).tolist()
    rec = _Record(firsts[-1])
    backlog: Dict[str, List[int]] = {ph: [] for ph in OPEN_PHASES}
    sat_spans: List[tuple] = []
    try:
        for segment, first in zip(inputs.phases, firsts):
            # Every reply of the previous segment is in, so the server is idle.
            ctx.speed.sample(CALIBRATION_PASSES)
            if segment.due is None:
                sat_spans.append(await _closed_loop(server, segment, first, rec))
                continue
            pending = await _open_loop(server, segment, first, rec)
            if segment.name in backlog:
                backlog[segment.name].append(pending)
        ctx.speed.sample(CALIBRATION_PASSES)
    finally:
        await server.stop()
    return {
        "corpus": corpus,
        "setups": setups,
        "rec": rec,
        "firsts": firsts,
        "backlog": backlog,
        "sat_spans": sat_spans,
        "rss": peak_rss_mb(),
    }


def _gate(inputs, rec: _Record, ids: List[int], queries: Dict[int, tuple]) -> List[str]:
    """Feasibility of every result plus independent solves of a fixed sample."""
    problems = []
    for rid in ids:
        if rec.failed[rid]:
            continue
        if rec.size[rid] != P or not np.isin(rec.selected[rid], queries[rid][0]).all():
            problems.append(f"request {rid}: |S|={rec.size[rid]} or S outside its pool")
    open_ids = [rid for rid in ids if queries[rid][2] in OPEN_PHASES]
    sample = []
    for flag in (True, False):
        group = [rid for rid in open_ids if (queries[rid][1] is not None) == flag]
        picks = np.linspace(0, len(group) - 1, num=min(GATE_SAMPLE // 2, len(group)))
        sample.extend(group[int(round(i))] for i in picks)
    metric = EuclideanMetric(inputs.points)
    base = ModularFunction(inputs.weights)
    mismatches = 0
    for rid in sample:
        if rec.failed[rid]:
            continue
        pool, weights, _ = queries[rid]
        quality = base
        if weights is not None:
            full = np.zeros(N)
            full[pool] = weights
            quality = ModularFunction(full)
        ref = repro.solve(quality, metric, tradeoff=LAMBDA, p=P, candidates=pool)
        scale = max(1.0, abs(ref.objective_value))
        if (
            rec.selected[rid].tolist() != sorted(ref.selected)
            or abs(rec.value[rid] - ref.objective_value) > 1e-9 * scale
        ):
            mismatches += 1
    if mismatches:
        problems.append(
            f"{mismatches} of {len(sample)} sampled requests differ from repro.solve"
        )
    return problems


def run(ctx: RunContext) -> Outcome:
    inputs = make_inputs(ctx.seed, ctx.seconds)
    state = asyncio.run(_drive(ctx, inputs))
    rec: _Record = state["rec"]
    firsts = state["firsts"]

    # Request id -> (pool, weights or None, phase), measured phases only.
    queries: Dict[int, tuple] = {}
    by_phase: Dict[str, List[int]] = {ph: [] for ph in PHASES}
    for index, segment in enumerate(inputs.phases):
        if segment.name not in by_phase:
            continue  # the warm-up
        ids = list(range(firsts[index], firsts[index + 1]))
        by_phase[segment.name].extend(ids)
        for j, rid in enumerate(ids):
            queries[rid] = (segment.pools[j], _weights(segment, j), segment.name)
    measured = [rid for ids in by_phase.values() for rid in ids]
    failed_ids = {rid for rid in measured if rec.failed[rid]}
    problems = _gate(inputs, rec, measured, queries)

    latency = {
        ph: [rec.done[r] - rec.due[r] for r in by_phase[ph] if r not in failed_ids]
        for ph in PHASES
    }
    stats = {ph: summarize(latency[ph]) for ph in PHASES}
    sat_counts = [seg.count for seg in inputs.phases if seg.name == "sat"]
    sat_times = [end - start for start, end in state["sat_spans"]]
    sat_failed = len(failed_ids & set(by_phase["sat"]))
    sat_qps = (sum(sat_counts) - sat_failed) / sum(sat_times)
    setup_s = median_of([end - start for start, end in state["setups"]])

    report = []
    for ph in PHASES:
        ids = by_phase[ph]
        failed = len(failed_ids & set(ids))
        line = (
            f"serve.{ph}: sent={len(ids)} succeeded={len(ids) - failed} "
            f"failed={failed} p50={ms(stats[ph]['p50']):.3f}ms "
            f"tail=p{stats[ph]['tail_pct']:g} of {stats[ph]['count']}="
            f"{ms(stats[ph]['tail']):.3f}ms "
            + " ".join(
                f"p{q:g}={ms(percentile(latency[ph], q)):.3f}ms" for q in (90, 99, 99.9)
            )
        )
        if ph == "sat":
            rates = [round(c / t) for c, t in zip(sat_counts, sat_times)]
            line += f" qps_per_round={rates}"
        else:
            lag = summarize([rec.sent[r] - rec.due[r] for r in ids])
            line += (
                f" lag_p{lag['tail_pct']:g}={ms(lag['tail']):.3f}ms "
                f"backlog_per_round={state['backlog'][ph]}"
            )
        report.append(line)
    report.append(
        "serve: "
        f"low_p50_ms={ms(stats['low']['p50']):.3f} "
        f"low_tail_ms={ms(stats['low']['tail']):.3f} "
        f"high_p50_ms={ms(stats['high']['p50']):.3f} "
        f"high_tail_ms={ms(stats['high']['tail']):.3f} "
        f"sat_qps={sat_qps:.1f}/s sat_tail_ms={ms(stats['sat']['tail']):.3f} "
        f"setup_s={setup_s:.6f} "
        f"failed_frac={failed_frac(len(failed_ids), len(measured)):.4f} "
        f"peak_rss_mb={state['rss']:.1f}"
    )

    low = summarize(
        [
            ctx.speed.scaled(rec.due[r], rec.done[r])
            for r in by_phase["low"]
            if r not in failed_ids
        ]
    )
    if not ctx.trace:
        sat_scaled_s = sum(ctx.speed.scaled(*span) for span in state["sat_spans"])
        metrics = {
            "p50_ms": (ms(low["p50"]), "ms"),
            "tail_ms": (ms(low["tail"]), "ms"),
            "throughput_per_s": ((sum(sat_counts) - sat_failed) / sat_scaled_s, "1/s"),
            "setup_s": (
                median_of([ctx.speed.scaled(*s) for s in state["setups"]]),
                "s",
            ),
            "peak_rss_mb": (state["rss"], "MB"),
        }
        return Outcome(len(measured), len(failed_ids), metrics, problems, report)

    metrics, spans, trace_problems = _layers(state, rec, by_phase, queries)
    metrics["trace.p50_ms"] = (ms(low["p50"]), "ms")
    return Outcome(
        len(measured),
        len(failed_ids),
        metrics,
        problems + trace_problems,
        report,
        spans,
    )


def _layers(state, rec: _Record, by_phase, queries):
    """Per-layer metrics of a traced run, from the corpus spans and replays."""
    corpus: _TracedCorpus = state["corpus"]
    phase_of = {rid: queries[rid][2] for rid in queries}
    log = SpanLog()
    window_of: Dict[int, tuple] = {}
    windows_by_phase: Dict[str, List[tuple]] = {ph: [] for ph in PHASES}
    measured_windows = []
    for window in corpus.windows:
        start, end, tags, calls = window
        units = [tag for tag in tags if tag in phase_of]
        if not units:
            continue  # a warm-up window
        measured_windows.append(window)
        windows_by_phase[phase_of[units[0]]].append(window)
        index = log.add("corpus.solve_window", start, end, units=units)
        for call_start, call_end, _ in calls:
            log.add(
                "corpus.restriction_for",
                call_start,
                call_end,
                parent=index,
                units=units,
            )
        for tag in units:
            window_of[tag] = window

    # The Server.submit call of each request, split at the window holding
    # it: queue wait before the window, delivery after it.
    bounds = {}
    for rid in queries:
        if rid not in window_of:
            continue  # failed before reaching a window
        start, end, _, _ = window_of[rid]
        bounds[rid] = (rec.due[rid], rec.done[rid])
        log.add("gen.send_lag", rec.due[rid], rec.sent[rid], units=[rid])
        log.add("server.queue_wait", rec.started[rid], start, units=[rid])
        log.add("server.deliver", end, rec.done[rid], units=[rid])
    problems = []
    bad = check_additive(log, bounds)
    if bad:
        problems.append(f"{len(bad)} requests whose spans do not partition latency")
    remainders = [rem for _, rem in log.unattributed(bounds).values()]

    metrics = {}
    for ph in OPEN_PHASES:
        lag = summarize([rec.sent[r] - rec.due[r] for r in by_phase[ph]])
        metrics[f"gen.{ph}.lag_tail_ms"] = (ms(lag["tail"]), "ms")
        metrics[f"gen.{ph}.backlog"] = (float(max(state["backlog"][ph])), "count")
    for ph in PHASES:
        ids = [r for r in by_phase[ph] if r in window_of]
        waits = [window_of[r][0] - rec.due[r] for r in ids]
        overhead = [rec.done[r] - window_of[r][1] for r in ids]
        sizes = [len(w[2]) for w in windows_by_phase[ph]]
        metrics[f"server.{ph}.queue_wait_ms"] = (ms(percentile(waits, 50)), "ms")
        metrics[f"server.{ph}.window_size"] = (float(np.mean(sizes)), "count")
        metrics[f"server.{ph}.overhead_ms"] = (ms(percentile(overhead, 50)), "ms")

    executes = [end - start for start, end, _, _ in measured_windows]
    hits = [e - s for w in measured_windows for s, e, hit in w[3] if hit]
    misses = [e - s for w in measured_windows for s, e, hit in w[3] if not hit]
    per_query = [
        ((end - start) - sum(e - s for s, e, _ in calls)) / len(tags)
        for start, end, tags, calls in measured_windows
    ]
    metrics["corpus.execute_ms"] = (ms(percentile(executes, 50)), "ms")
    metrics["corpus.restrict_hit_ms"] = (ms(percentile(hits, 50)), "ms")
    metrics["corpus.restrict_miss_ms"] = (ms(percentile(misses, 50)), "ms")
    metrics["corpus.hit_ratio"] = (len(hits) / max(1, len(hits) + len(misses)), "ratio")
    metrics["batch.query_ms"] = (ms(percentile(per_query, 50)), "ms")
    metrics.update(_replay(corpus, by_phase["high"], queries))
    metrics["trace.unattributed_ms"] = (ms(percentile(remainders, 50)), "ms")
    return metrics, log, problems


def _replay(corpus: PreparedCorpus, ids: List[int], queries) -> dict:
    """Synchronous timed replays of the layers a window runs per query."""
    picks = np.linspace(0, len(ids) - 1, num=min(REPLAY_SAMPLE, len(ids)))
    samples = {"validation": [], "greedy": [], "assemble": [], "lift": []}
    for i in picks:
        pool, weights, _ = queries[ids[int(round(i))]]
        start = perf()
        check_candidate_pool(pool, corpus.n)
        samples["validation"].append(perf() - start)
        restriction = corpus.restriction_for(pool)
        objective = restriction.objective
        if weights is not None:
            objective = Objective(ModularFunction(weights), objective.metric, LAMBDA)
        start = perf()
        result = greedy_diversify(objective, P)
        greedy = perf() - start
        start = perf()
        build_result(
            objective,
            result.selected,
            result.order,
            algorithm=result.algorithm,
            iterations=result.iterations,
            elapsed_seconds=result.elapsed_seconds,
            metadata=result.metadata,
        )
        assemble = perf() - start
        samples["assemble"].append(assemble)
        samples["greedy"].append(greedy - assemble)
        start = perf()
        restriction.lift(result)
        samples["lift"].append(perf() - start)
    return {
        "validation.pool_ms": (ms(percentile(samples["validation"], 50)), "ms"),
        "greedy.rounds_ms": (ms(percentile(samples["greedy"], 50)), "ms"),
        "result.assemble_ms": (ms(percentile(samples["assemble"], 50)), "ms"),
        "restriction.lift_ms": (ms(percentile(samples["lift"], 50)), "ms"),
    }
