#!/usr/bin/env python3
"""Query serving: a prepared corpus behind an async micro-batching server.

A production deployment answers a stream of queries against one fixed
corpus.  The serving tier splits that into two pieces:

* :class:`repro.PreparedCorpus` — pay the per-corpus work once (materialize
  or deliberately stay lazy, hoist modular weights, cache restriction views
  per candidate pool), then solve against it many times;
* :class:`repro.Server` — an asyncio front end that coalesces concurrent
  ``submit`` calls into micro-batch windows executed off the event loop,
  with per-request deadlines and disconnect cancellation.

This example prepares a corpus, serves a burst of concurrent clients
(some sharing hot candidate pools, so the restriction cache earns its keep),
shows a per-request deadline expiring into a best-so-far result, and
round-trips the corpus through a snapshot — the warm-restart path a
recovered serving process takes.

Run:  python examples/serving_demo.py [--quick]
"""

from __future__ import annotations

import argparse
import asyncio
import os
import tempfile

import numpy as np

from repro import PreparedCorpus, Server, make_feature_instance


async def serve_burst(corpus: PreparedCorpus, *, clients: int, p: int) -> None:
    rng = np.random.default_rng(7)
    n = corpus.n
    hot_pool = rng.choice(n, size=min(128, n), replace=False).tolist()

    async with Server(corpus, max_batch_size=16, max_wait_s=0.005) as server:

        async def client(index: int):
            # Even clients share one hot pool; odd clients bring their own.
            if index % 2 == 0:
                pool = hot_pool
            else:
                pool = rng.choice(n, size=min(128, n), replace=False).tolist()
            return await server.submit(pool, p=p)

        results = await asyncio.gather(*(client(i) for i in range(clients)))
        stats = server.stats.snapshot()

    print(f"served {len(results)} concurrent clients:")
    print(
        f"  {int(stats['windows'])} windows, mean "
        f"{stats['mean_window_size']:.1f} requests/window, "
        f"{stats['qps']:.0f} QPS, p50 {stats['p50_ms']:.1f} ms, "
        f"p99 {stats['p99_ms']:.1f} ms"
    )
    cache = corpus.cache_info()
    print(f"  restriction cache: {cache['hits']} hits, {cache['misses']} misses")
    sample = results[0]
    print(f"  sample result: {sorted(sample.selected)[:5]}... "
          f"objective={sample.objective_value:.3f}")


async def serve_deadline(corpus: PreparedCorpus, *, p: int) -> None:
    async with Server(corpus) as server:
        result = await server.submit(None, p=p, deadline_s=1e-4)
    interrupted = result.metadata.get("interrupted", False)
    print("a 0.1 ms deadline on a full-universe query:")
    print(
        f"  interrupted={interrupted}, returned {len(result.selected)} of {p} "
        "elements (best-so-far, always feasible)"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="use a smaller corpus")
    parser.add_argument("--n", type=int, default=None, help="universe size")
    parser.add_argument("--p", type=int, default=8, help="result-set size")
    parser.add_argument("--clients", type=int, default=None, help="burst size")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    n = args.n or (2_000 if args.quick else 50_000)
    clients = args.clients or (8 if args.quick else 32)
    instance = make_feature_instance(n, dimension=8, tradeoff=0.3, seed=args.seed)
    corpus = PreparedCorpus(
        instance.quality,
        instance.metric,
        tradeoff=instance.tradeoff,
        shard_size=None if args.quick else 4096,
    )
    tier = "matrix" if corpus.materialized else "lazy"
    print(f"prepared corpus: n={n}, {tier} tier, sharded={corpus.sharded}")
    print()

    asyncio.run(serve_burst(corpus, clients=clients, p=args.p))
    print()
    asyncio.run(serve_deadline(corpus, p=args.p))
    print()

    # Warm restart: snapshot the prepared corpus, reload it as a recovered
    # process would, and answer the same query on both.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.pkl")
        corpus.save(path)
        recovered = PreparedCorpus.load(path)
    pool = list(range(min(64, n)))
    before = corpus.solve(pool, p=args.p)
    after = recovered.solve(pool, p=args.p)
    print("snapshot round trip (the serving-process recovery path):")
    print(f"  same selection after reload: {before.selected == after.selected}")


if __name__ == "__main__":
    main()
