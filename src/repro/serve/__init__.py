"""Serving tier: persistent prepared corpora + async micro-batched queries.

The long-lived, high-QPS entry point over the solver stack:

* :class:`~repro.serve.corpus.PreparedCorpus` — a fixed universe prepared
  once (materialized-or-lazy metric, hoisted modular weights, an LRU cache
  of pool restriction views) and solved against many times; its
  ``solve_window`` is the one window loop, each request isolated in its own
  slot, and it also serves :func:`~repro.core.batch.solve_many`;
* :class:`~repro.serve.server.Server` — the asyncio front end whose
  ``submit`` coroutines are coalesced into micro-batch windows executed
  off-loop, with per-request deadlines and disconnect cancellation;
* :class:`~repro.serve.corpus.ServeQuery` / :class:`~repro.serve.corpus.CorpusSnapshot`
  — the request and warm-restart payloads.

See the README's "Serving" section for the batching knobs and the measured
load numbers, and ``examples/serving_demo.py`` for an end-to-end tour.
"""

from repro.serve.corpus import CorpusSnapshot, PreparedCorpus, ServeQuery
from repro.serve.server import Server, ServerStats

__all__ = [
    "CorpusSnapshot",
    "PreparedCorpus",
    "ServeQuery",
    "Server",
    "ServerStats",
]
