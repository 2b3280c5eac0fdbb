"""Async micro-batched query serving over a :class:`~repro.serve.corpus.PreparedCorpus`.

The long-lived entry point the stack has been building toward: concurrent
clients ``await Server.submit(...)`` and the server coalesces their requests
into micro-batch windows — up to ``max_batch_size`` requests or ``max_wait_s``
of linger, whichever fills first — executed **off the event loop** on a
worker thread through :meth:`~repro.serve.corpus.PreparedCorpus.solve_window`.
Batching is what amortizes the shared-corpus work (restriction-cache hits,
one executor hop per window instead of per request) while
the lazy metric tier keeps each query O(k·d).

Failure contract (per request, never per window):

* a client that disconnects (its ``submit`` task is cancelled) marks its
  request cancelled; the window executor's ``skip`` hook then never solves
  it, and co-batched requests are untouched;
* a per-request ``deadline_s`` is anchored at submission, so queue wait
  spends budget; on expiry the request returns its best-so-far (possibly
  empty) feasible result with ``metadata["interrupted"] = True``;
* a request whose solve raises fails only its own future;
* shard-map degradation inside a request (a crashed shard worker during the
  window) surfaces as ``metadata["degraded"]`` on that request's result —
  the sharded pipeline never lets a lost worker kill a solve.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from repro._types import Element
from repro.core.local_search import LocalSearchConfig
from repro.core.result import SolverResult
from repro.exceptions import (
    InvalidParameterError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.matroids.base import Matroid
from repro.obs.instrument import (
    SERVE_PENDING,
    SERVE_REQUESTS,
    maybe_span,
    maybe_start_span,
)
from repro.obs.metrics import Histogram
from repro.obs.trace import Trace
from repro.serve.corpus import PreparedCorpus, ServeQuery
from repro.utils.deadline import Deadline

__all__ = ["Server", "ServerStats"]

#: Latency samples kept for the rolling diagnostic sample (the percentiles
#: themselves come from the histograms, never from sorting this list).
_LATENCY_WINDOW = 8192


def _latency_histogram(name: str) -> Histogram:
    # Standalone (registry=None ⇒ always on): the histograms live and die
    # with their ServerStats, so there is no process-wide opt-in to gate on.
    return Histogram(name)


@dataclass
class ServerStats:
    """Rolling serving statistics, updated by the server.

    Latency percentiles are histogram-backed: ``record_latency`` is an O(1)
    bucket increment and ``snapshot()`` reads cumulative bucket counts —
    the previous implementation sorted the full 8192-sample ring on every
    snapshot.  The ring itself (``latencies``) is retained as a bounded raw
    sample for diagnostics and tests.

    ``snapshot()`` distills everything into the dict the CLI target and the
    load benchmark report: completed/cancelled/failed/shed counts, windows
    executed, mean window size, sustained QPS since start, and
    histogram-estimated p50/p99 for request latency, queue wait and
    off-loop execute time.
    """

    submitted: int = 0
    completed: int = 0
    cancelled: int = 0
    failed: int = 0
    shed: int = 0
    windows: int = 0
    batched_requests: int = 0
    started_at: Optional[float] = None
    latencies: List[float] = field(default_factory=list)
    latency: Histogram = field(
        default_factory=lambda: _latency_histogram("serve_request_seconds")
    )
    queue_wait: Histogram = field(
        default_factory=lambda: _latency_histogram("serve_queue_wait_seconds")
    )
    execute: Histogram = field(
        default_factory=lambda: _latency_histogram("serve_execute_seconds")
    )
    deadline_slack: Histogram = field(
        default_factory=lambda: _latency_histogram("serve_deadline_slack_seconds")
    )

    def record_latency(self, seconds: float) -> None:
        self.latency.observe(seconds)
        self.latencies.append(seconds)
        if len(self.latencies) > _LATENCY_WINDOW:
            del self.latencies[: -_LATENCY_WINDOW]

    def snapshot(self) -> Dict[str, float]:
        elapsed = (
            time.monotonic() - self.started_at if self.started_at is not None else 0.0
        )
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "cancelled": self.cancelled,
            "failed": self.failed,
            "shed": self.shed,
            "windows": self.windows,
            "mean_window_size": (
                self.batched_requests / self.windows if self.windows else 0.0
            ),
            "elapsed_s": elapsed,
            "qps": self.completed / elapsed if elapsed > 0 else 0.0,
            "p50_ms": self.latency.quantile(0.5) * 1000.0,
            "p99_ms": self.latency.quantile(0.99) * 1000.0,
            "queue_wait_p50_ms": self.queue_wait.quantile(0.5) * 1000.0,
            "queue_wait_p99_ms": self.queue_wait.quantile(0.99) * 1000.0,
            "execute_p50_ms": self.execute.quantile(0.5) * 1000.0,
            "execute_p99_ms": self.execute.quantile(0.99) * 1000.0,
        }


class _Request:
    """One in-flight submission: the query, its future, and a cancel flag.

    The ``cancelled`` event is a *threading* primitive on purpose: it is set
    on the event-loop thread (client disconnect) and read from the executor
    thread (the window's ``skip`` hook), which an :class:`asyncio.Event`
    must not be.
    """

    __slots__ = ("query", "future", "submitted_at", "cancelled")

    def __init__(self, query: ServeQuery, future: "asyncio.Future") -> None:
        self.query = query
        self.future = future
        self.submitted_at = time.monotonic()
        self.cancelled = threading.Event()

    def abandoned(self) -> bool:
        return self.cancelled.is_set() or self.future.cancelled()


class Server:
    """Asyncio front end micro-batching queries onto a prepared corpus.

    Parameters
    ----------
    corpus:
        The :class:`~repro.serve.corpus.PreparedCorpus` every request solves
        against.
    max_batch_size:
        Most requests coalesced into one window.
    max_wait_s:
        Longest a window lingers for co-batchable requests after its first
        request arrives.  The latency/throughput knob: 0 degenerates to
        one-request windows.
    default_deadline_s:
        Per-request budget applied when ``submit`` is not given one.
    window_deadline_s:
        Optional budget shared by each whole window, combined per query with
        the per-request deadline (the earlier clock wins).
    max_pending:
        Optional bound on queued (not yet windowed) requests.  When the
        queue is full, ``submit`` fails fast with
        :class:`~repro.exceptions.ServerOverloadedError` instead of
        queueing unboundedly — load shedding at admission keeps queue wait
        (which spends each request's deadline budget) bounded under
        overload.  Sheds are counted in ``ServerStats.shed``.  Default:
        unbounded, the historical behavior.
    executor:
        Optional :class:`~concurrent.futures.ThreadPoolExecutor` to run
        windows on.  Default: one owned single-thread executor — windows
        then execute strictly in order, which keeps even oracle-backed
        corpora safe without thread-safety promises.
    trace:
        Optional :class:`~repro.obs.trace.Trace`.  Each executed window
        records a root ``window`` span with a synthetic ``queue_wait`` child
        (mean/max seat wait of the window's requests) and an ``execute``
        child recorded *on the worker thread* (re-parented explicitly, since
        contextvars do not cross ``run_in_executor``).  Default ``None``:
        no-op cost.

    Use as an async context manager (``async with Server(corpus) as server``)
    or call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        corpus: PreparedCorpus,
        *,
        max_batch_size: int = 32,
        max_wait_s: float = 0.002,
        default_deadline_s: Optional[float] = None,
        window_deadline_s: Optional[float] = None,
        max_pending: Optional[int] = None,
        executor: Optional[ThreadPoolExecutor] = None,
        trace: Optional[Trace] = None,
    ) -> None:
        if max_batch_size < 1:
            raise InvalidParameterError("max_batch_size must be at least 1")
        if max_wait_s < 0:
            raise InvalidParameterError("max_wait_s must be non-negative")
        if max_pending is not None and max_pending < 1:
            raise InvalidParameterError("max_pending must be at least 1 (or None)")
        self._corpus = corpus
        self._max_batch_size = int(max_batch_size)
        self._max_wait_s = float(max_wait_s)
        self._default_deadline_s = default_deadline_s
        self._window_deadline_s = window_deadline_s
        self._max_pending = None if max_pending is None else int(max_pending)
        self._trace = trace
        self._executor = executor
        self._own_executor = executor is None
        self._queue: Optional["asyncio.Queue[_Request]"] = None
        self._batcher: Optional["asyncio.Task"] = None
        self._inflight: List[_Request] = []
        self._running = False
        self.stats = ServerStats()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def corpus(self) -> PreparedCorpus:
        """The prepared corpus this server solves on."""
        return self._corpus

    @property
    def running(self) -> bool:
        """Whether the batcher is accepting requests."""
        return self._running

    async def start(self) -> "Server":
        """Start the batcher task on the running event loop."""
        if self._running:
            return self
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-serve"
            )
            self._own_executor = True
        self._queue = asyncio.Queue(maxsize=self._max_pending or 0)
        self._running = True
        self.stats.started_at = time.monotonic()
        self._batcher = asyncio.create_task(self._run(), name="repro-serve-batcher")
        return self

    async def stop(self, *, drain: bool = False) -> None:
        """Stop the batcher; queued and in-flight requests fail closed.

        Every request whose future is still pending gets
        :class:`~repro.exceptions.ServerClosedError` — a stranded client
        sees a clean failure, never a hang.

        With ``drain=True`` the server first stops admitting new requests,
        then lets the batcher finish every queued and in-flight request
        before tearing down — a graceful shutdown for rolling restarts.
        Only requests submitted *after* ``stop`` was called fail closed.
        """
        if not self._running:
            return
        self._running = False
        assert self._batcher is not None and self._queue is not None
        if drain:
            # Admission is already closed (_running is False).  The batcher
            # pops a request and exposes it via _inflight in the same event
            # loop step, so "queue empty and nothing in flight" really means
            # every accepted request has been delivered.
            while not self._queue.empty() or self._inflight:
                await asyncio.sleep(0.001)
        self._batcher.cancel()
        try:
            await self._batcher
        except asyncio.CancelledError:
            pass
        self._batcher = None
        stranded = list(self._inflight)
        while not self._queue.empty():
            stranded.append(self._queue.get_nowait())
        self._inflight = []
        for request in stranded:
            if not request.future.done():
                request.future.set_exception(
                    ServerClosedError("server stopped before the request ran")
                )
        if self._own_executor and self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    async def submit(
        self,
        pool: Optional[Sequence[Element]] = None,
        *,
        p: Optional[int] = None,
        matroid: Optional[Matroid] = None,
        weights: Optional[Sequence[float]] = None,
        algorithm: str = "auto",
        local_search_config: Optional[LocalSearchConfig] = None,
        deadline_s: Optional[float] = None,
        tag: Any = None,
    ) -> SolverResult:
        """Submit one query and await its result.

        Parameters mirror :meth:`PreparedCorpus.solve`; ``deadline_s``
        (default: the server's ``default_deadline_s``) is anchored *now*, so
        time spent waiting for a window seat counts against it.  Cancelling
        the awaiting task withdraws the request: if its window has not solved
        it yet it never runs, and its result is discarded otherwise — either
        way co-batched requests are unaffected.

        Raises :class:`~repro.exceptions.ServerOverloadedError` without
        queueing when the server was built with ``max_pending`` and that many
        requests are already waiting for a window seat.
        """
        if not self._running or self._queue is None:
            raise ServerClosedError("server is not running; call start() first")
        if deadline_s is None:
            deadline_s = self._default_deadline_s
        request = _Request(
            ServeQuery(
                pool=pool,
                p=p,
                matroid=matroid,
                weights=weights,
                algorithm=algorithm,
                local_search_config=local_search_config,
                deadline=Deadline.coerce(deadline_s),
                tag=tag,
            ),
            asyncio.get_running_loop().create_future(),
        )
        self.stats.submitted += 1
        try:
            # put_nowait keeps admission atomic on the event loop: a bounded
            # queue either seats the request immediately or sheds it — a
            # blocked put() would let overload stack up as suspended submits,
            # defeating the bound.
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self.stats.shed += 1
            if SERVE_REQUESTS.enabled():
                SERVE_REQUESTS.inc(outcome="shed")
            raise ServerOverloadedError(
                f"server is overloaded: {self._max_pending} requests already "
                "pending (max_pending); retry later or raise the bound"
            ) from None
        if SERVE_PENDING.enabled():
            SERVE_PENDING.inc()
        try:
            result = await request.future
        except asyncio.CancelledError:
            request.cancelled.set()
            self.stats.cancelled += 1
            if SERVE_REQUESTS.enabled():
                SERVE_REQUESTS.inc(outcome="cancelled")
            raise
        finally:
            if SERVE_PENDING.enabled():
                SERVE_PENDING.dec()
        self.stats.record_latency(time.monotonic() - request.submitted_at)
        if request.query.deadline is not None:
            self.stats.deadline_slack.observe(
                max(0.0, request.query.deadline.remaining())
            )
        return result

    # ------------------------------------------------------------------
    # Batcher
    # ------------------------------------------------------------------
    async def _gather_window(self) -> List[_Request]:
        """Block for the first request, then linger for co-batchable ones."""
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        window = [await self._queue.get()]
        # Expose the gathering window to stop() immediately: a request popped
        # off the queue but still lingering here must fail closed too, not
        # hang its client.  (window is the same list object, so appends below
        # stay visible.)
        self._inflight = window
        opened = loop.time()
        while len(window) < self._max_batch_size:
            remaining = self._max_wait_s - (loop.time() - opened)
            if remaining <= 0:
                break
            try:
                window.append(
                    await asyncio.wait_for(self._queue.get(), timeout=remaining)
                )
            except asyncio.TimeoutError:
                break
        return window

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        trace = self._trace
        while True:
            window = await self._gather_window()
            live = [request for request in window if not request.abandoned()]
            self._inflight = live
            if not live:
                continue
            queries = [request.query for request in live]

            def skip(index: int, requests: List[_Request] = live) -> bool:
                return requests[index].cancelled.is_set()

            window_span = maybe_start_span(
                trace, "window", parent_id=None, size=len(live)
            )
            if trace is not None:
                now = time.monotonic()
                waits = [now - request.submitted_at for request in live]
                trace.record_span(
                    "queue_wait",
                    parent_id=window_span.id,
                    duration_s=sum(waits) / len(waits),
                    max_s=round(max(waits), 6),
                )
            for request in live:
                self.stats.queue_wait.observe(
                    time.monotonic() - request.submitted_at
                )

            window_deadline = self._window_deadline()
            window_parent = window_span.id
            execute_started = time.monotonic()

            def run_window():
                # On the executor thread: contextvars from the loop do not
                # follow, so the execute span re-parents explicitly.
                with maybe_span(trace, "execute", parent_id=window_parent):
                    return self._corpus.solve_window(
                        queries, deadline=window_deadline, skip=skip
                    )

            try:
                outcomes = await loop.run_in_executor(self._executor, run_window)
            except asyncio.CancelledError:
                # stop() cancelled us mid-window; the in-flight requests are
                # failed closed by stop() itself.
                window_span.finish(status="cancelled")
                raise
            except Exception as error:  # pragma: no cover - defensive
                # A window-level failure (not a per-query one, those are
                # isolated inside solve_window) fails this window's requests
                # but keeps the server serving.
                for request in live:
                    if not request.future.done():
                        request.future.set_exception(error)
                        self.stats.failed += 1
                        if SERVE_REQUESTS.enabled():
                            SERVE_REQUESTS.inc(outcome="failed")
                self._inflight = []
                window_span.set(error=repr(error))
                window_span.finish(status="error")
                continue
            self.stats.execute.observe(time.monotonic() - execute_started)
            self.stats.windows += 1
            self.stats.batched_requests += len(live)
            delivered = failed = 0
            for request, outcome in zip(live, outcomes):
                if request.future.done() or request.future.cancelled():
                    continue
                if outcome is None:
                    # Skipped: the client disconnected between enqueue and
                    # execution.  Its future is (being) cancelled; nothing
                    # to deliver.
                    continue
                if isinstance(outcome, Exception):
                    request.future.set_exception(outcome)
                    self.stats.failed += 1
                    failed += 1
                    if SERVE_REQUESTS.enabled():
                        SERVE_REQUESTS.inc(outcome="failed")
                else:
                    request.future.set_result(outcome)
                    self.stats.completed += 1
                    delivered += 1
                    if SERVE_REQUESTS.enabled():
                        SERVE_REQUESTS.inc(outcome="completed")
            self._inflight = []
            window_span.set(completed=delivered, failed=failed)
            window_span.finish()

    # ------------------------------------------------------------------
    # Deadlines shared by a window
    # ------------------------------------------------------------------
    def _window_deadline(self) -> Optional[Deadline]:
        if self._window_deadline_s is None:
            return None
        return Deadline(self._window_deadline_s)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Server(corpus={self._corpus!r}, max_batch={self._max_batch_size}, "
            f"max_wait_s={self._max_wait_s}, running={self._running})"
        )
