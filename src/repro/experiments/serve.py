"""Serving load experiment: concurrent clients over one prepared corpus.

The end-to-end scenario the serving tier exists for: a fixed corpus is
prepared once (:class:`~repro.serve.corpus.PreparedCorpus`), an async
:class:`~repro.serve.server.Server` fronts it, and many concurrent clients
submit pool-restricted queries that the server coalesces into micro-batch
windows.  The report records sustained QPS, p50/p99 latency, mean window
size, and the restriction-cache hit rate — the same numbers the load
benchmark in ``benchmarks/test_perf_serve.py`` guards.

Run it via ``python -m repro.experiments serve [--quick]``.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from typing import Optional

from repro.data.synthetic import make_feature_instance
from repro.exceptions import InvalidParameterError, ServerOverloadedError
from repro.experiments.tables import TableResult
from repro.serve.corpus import PreparedCorpus
from repro.serve.server import Server
from repro.utils.rng import SeedLike, make_rng


async def _drive_load(
    server: Server,
    pools,
    *,
    queries_per_client: int,
    p: int,
    deadline_s: Optional[float],
) -> int:
    """Run one coroutine per client; return the number of completed queries."""

    async def client(client_pools) -> int:
        done = 0
        for pool in client_pools:
            while True:
                try:
                    await server.submit(pool, p=p, deadline_s=deadline_s)
                except ServerOverloadedError:
                    # Shed by the admission bound: back off and retry, the
                    # way a production client would.
                    await asyncio.sleep(0.002)
                    continue
                break
            done += 1
        return done

    totals = await asyncio.gather(
        *(client(pools[i]) for i in range(len(pools)))
    )
    return sum(totals)


def serve(
    n: int = 50_000,
    clients: int = 32,
    queries_per_client: int = 8,
    pool_size: int = 256,
    p: int = 10,
    dimension: int = 8,
    hot_pools: int = 8,
    max_batch_size: int = 32,
    max_wait_s: float = 0.002,
    deadline_s: Optional[float] = None,
    shard_size: Optional[int] = None,
    max_pending: Optional[int] = None,
    durable_snapshot: bool = False,
    trace_path: Optional[str] = None,
    seed: SeedLike = 0,
) -> TableResult:
    """Benchmark the serving tier under concurrent client load.

    Parameters
    ----------
    n, dimension:
        Corpus size and feature dimension (lazy Euclidean metric — O(n·d)
        memory, so ``n`` can be large).
    clients, queries_per_client, pool_size, p:
        Load shape: concurrent client coroutines, sequential queries each,
        per-query candidate-pool size, and the cardinality constraint.
    hot_pools:
        Size of a shared pool set clients draw from (with replacement) for
        half their queries — exercising the restriction-view LRU cache the
        way repeated production queries do.  The other half are unique pools.
    max_batch_size, max_wait_s:
        Server micro-batching knobs.
    deadline_s:
        Optional per-request deadline, anchored at submission.
    shard_size:
        When given, the corpus shards full-universe queries; pool queries are
        unaffected.
    max_pending:
        Optional admission bound: requests beyond this many pending are shed
        with :class:`~repro.exceptions.ServerOverloadedError` instead of
        queueing without bound (the experiment retries sheds after a short
        backoff, so the table also shows how much load the bound rejected).
    durable_snapshot:
        Serve from a recovered corpus instead of the freshly prepared one:
        round-trip the corpus through a checksummed snapshot file
        (``PreparedCorpus.save`` → ``PreparedCorpus.load``) before the
        server starts — the handoff a serving process restarting after a
        crash performs.
    trace_path:
        When given, the run records per-window spans
        (:class:`~repro.obs.trace.Trace`) and writes Chrome-trace JSON there
        — open it in ``chrome://tracing`` or Perfetto.  This is what
        ``python -m repro.experiments serve --trace out.json`` passes.
    seed:
        Load-generator seed.
    """
    if pool_size > n:
        raise InvalidParameterError("pool_size cannot exceed the corpus size")
    if clients < 1 or queries_per_client < 1:
        raise InvalidParameterError("need at least one client and one query")
    instance = make_feature_instance(n, dimension=dimension, seed=seed)
    corpus = PreparedCorpus(
        instance.quality,
        instance.metric,
        tradeoff=instance.tradeoff,
        shard_size=shard_size,
    )
    if durable_snapshot:
        # Crash-restart handoff: persist a checksummed framed snapshot and
        # serve from the recovered corpus, not the in-memory original.
        handle, path = tempfile.mkstemp(suffix=".snap", prefix="repro-corpus-")
        os.close(handle)
        try:
            corpus.save(path)
            corpus = PreparedCorpus.load(path)
        finally:
            os.unlink(path)
    rng = make_rng(seed)
    shared = [
        rng.choice(n, size=pool_size, replace=False).tolist()
        for _ in range(max(1, hot_pools))
    ]
    pools = []
    for _ in range(clients):
        client_pools = []
        for q in range(queries_per_client):
            if q % 2 == 0:
                client_pools.append(shared[int(rng.integers(len(shared)))])
            else:
                client_pools.append(
                    rng.choice(n, size=pool_size, replace=False).tolist()
                )
        pools.append(client_pools)

    trace = None
    if trace_path is not None:
        from repro.obs.trace import Trace

        trace = Trace()

    async def run() -> dict:
        async with Server(
            corpus,
            max_batch_size=max_batch_size,
            max_wait_s=max_wait_s,
            max_pending=max_pending,
            trace=trace,
        ) as server:
            completed = await _drive_load(
                server,
                pools,
                queries_per_client=queries_per_client,
                p=p,
                deadline_s=deadline_s,
            )
            stats = server.stats.snapshot()
        stats["driven"] = completed
        return stats

    stats = asyncio.run(run())
    if trace is not None:
        trace.export(trace_path)
    cache = corpus.cache_info()
    lookups = cache["hits"] + cache["misses"]

    result = TableResult(
        name=(
            f"Serving load: {clients} clients x {queries_per_client} queries, "
            f"corpus n={n} ({'sharded' if corpus.sharded else 'unsharded'}, "
            f"{'matrix' if corpus.materialized else 'lazy'} tier), "
            f"pools of {pool_size}, p={p}"
        ),
        headers=[
            "Queries",
            "Shed",
            "Windows",
            "Mean window",
            "QPS",
            "p50 (ms)",
            "p99 (ms)",
            "Cache hit rate",
        ],
    )
    result.records.append(
        {
            "Queries": int(stats["completed"]),
            "Shed": int(stats["shed"]),
            "Windows": int(stats["windows"]),
            "Mean window": round(stats["mean_window_size"], 2),
            "QPS": round(stats["qps"], 1),
            "p50 (ms)": round(stats["p50_ms"], 2),
            "p99 (ms)": round(stats["p99_ms"], 2),
            "Cache hit rate": round(cache["hits"] / lookups, 3) if lookups else 0.0,
        }
    )
    return result
