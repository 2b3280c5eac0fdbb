"""Persistent prepared corpora for the serving tier.

A serving process answers a long stream of queries against one fixed
universe.  Everything per-corpus — materializing (or deliberately *not*
materializing) the metric, hoisting modular weights into one array, warming
the submodular gain-state caches, building restriction views for hot pools —
should be paid once, not per request.  :class:`PreparedCorpus` owns exactly
that state:

* the **metric tier decision**: matrix-backed corpora (and small oracle
  corpora, materialized once) restrict to copy-free submatrix views; huge
  feature-backed corpora stay on the lazy tier
  (:meth:`~repro.metrics.base.Metric.restrict_lazy`), so a pool of ``k``
  candidates costs O(k·d) — never O(n²);
* the **modular weight vector**, derived once even for view-less modular
  families (:func:`~repro.core.kernels.hoist_modular_weights`);
* an **LRU cache of restriction views** keyed by the (deduplicated) pool, so
  hot pools reuse their sub-instance across batch windows.

Non-modular quality needs no preparation: each family builds its arrays
(coverage's CSR incidence, facility location's similarity matrix, log-det's
kernel) in its constructor, and each query builds its own gain state on its
restriction view.

:meth:`PreparedCorpus.solve_window` is the one window loop, driven off-loop
by the async :class:`~repro.serve.server.Server` and by
:func:`~repro.core.batch.solve_many`: each request runs
:func:`~repro.core.solver.solve_restricted` on its cached restriction view,
or :func:`~repro.core.sharding.solve_sharded` when it spans a sharded
corpus's full universe.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from repro._types import Element
from repro.core import kernels
from repro.core.checkpoint import (
    SNAPSHOT_FORMAT_VERSION,
    check_snapshot_version,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.control import RunControl
from repro.core.local_search import LocalSearchConfig
from repro.core.objective import Objective
from repro.core.restriction import Restriction
from repro.core.result import SolverResult, build_result
from repro.core.sharding import sub_metric
from repro.core.solver import check_query, solve_restricted
from repro.exceptions import InvalidParameterError
from repro.functions.base import SetFunction
from repro.functions.modular import ModularFunction
from repro.matroids.base import Matroid
from repro.metrics.base import Metric
from repro.metrics.matrix import as_distance_matrix
from repro.utils.deadline import Deadline, mark_interrupted
from repro.utils.validation import check_candidate_pool

__all__ = ["CorpusSnapshot", "PreparedCorpus", "ServeQuery"]

#: Largest universe the corpus will materialize O(n²) distances for when the
#: caller does not decide (8192² float64 ≈ 0.5 GB).  Beyond this the corpus
#: stays on the lazy tier and per-pool work is O(k·d).
AUTO_MATERIALIZE_CAP = 8192

#: Default capacity of the restriction-view LRU cache.
DEFAULT_CACHE_SIZE = 256


@dataclass
class ServeQuery:
    """One serving request: a query-scoped instance on the shared corpus.

    ``pool`` holds corpus element indices (``None`` for the full universe);
    exactly one of ``p`` (clamped to the pool) and ``matroid`` is set.
    ``weights``, when given, holds one modular weight per distinct pool
    element in pool order — per-request relevance scores over a shared
    metric.  ``matroid`` is a *corpus-level* constraint restricted to the
    pool (unsupported for full-universe queries on sharded corpora, where
    the core-set argument is cardinality-specific).  ``tag`` is an opaque
    caller payload.
    """

    pool: Optional[Sequence[Element]] = None
    p: Optional[int] = None
    matroid: Optional[Matroid] = None
    weights: Optional[Sequence[float]] = None
    algorithm: str = "auto"
    local_search_config: Optional[LocalSearchConfig] = None
    deadline: Optional[Deadline] = None
    tag: Any = field(default=None)


@dataclass(frozen=True)
class CorpusSnapshot:
    """Pickle-safe snapshot of a :class:`PreparedCorpus`.

    Captures the *prepared* quality and metric (hoisted weights, materialized
    matrix when the corpus materialized one) plus the configuration, so a
    restarted serving process rebuilds its corpus warm — no re-derivation, no
    re-materialization — via :meth:`PreparedCorpus.restore`.

    ``format_version`` guards restores the same way the solver and dynamic
    snapshots are guarded: a snapshot from a newer format raises
    :class:`~repro.exceptions.SnapshotVersionError` instead of rebuilding
    silently-wrong state.
    """

    quality: SetFunction
    metric: Metric
    tradeoff: float
    config: Dict[str, Any] = field(default_factory=dict)
    format_version: int = SNAPSHOT_FORMAT_VERSION

    def save(self, path: str) -> None:
        """Pickle the snapshot to ``path``, atomically inside a checksummed
        frame (:func:`~repro.core.checkpoint.save_checkpoint`)."""
        save_checkpoint(self, path)

    @staticmethod
    def load(path: str) -> "CorpusSnapshot":
        """Load a snapshot previously written by :meth:`save`."""
        return load_checkpoint(path, CorpusSnapshot)


class PreparedCorpus:
    """A fixed universe prepared for high-QPS query serving.

    Parameters
    ----------
    quality, metric, tradeoff:
        The corpus instance ``(f, d, λ)`` every query solves against.
    materialize:
        Whether to materialize an oracle metric into one shared
        :class:`~repro.metrics.matrix.DistanceMatrix` at prepare time.
        Default ``None`` decides automatically: metrics that already expose a
        matrix view stay as they are, sharded corpora never materialize, and
        otherwise universes up to :data:`AUTO_MATERIALIZE_CAP` elements are
        materialized (amortized over the corpus lifetime) while larger ones
        stay lazy.
    shards, shard_size, shard_workers, shard_executor:
        Sharded core-set configuration for **full-universe** queries
        (``pool=None``): they run through
        :func:`~repro.core.sharding.solve_sharded` with these knobs.
        Pool-scoped queries never shard — restriction is already O(k).
    cache_size:
        Capacity of the pool-keyed restriction LRU cache (0 disables it).
    """

    def __init__(
        self,
        quality: SetFunction,
        metric: Metric,
        *,
        tradeoff: float,
        materialize: Optional[bool] = None,
        shards: Optional[int] = None,
        shard_size: Optional[int] = None,
        shard_workers: Optional[int] = None,
        shard_executor: str = "thread",
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        if cache_size < 0:
            raise InvalidParameterError("cache_size must be non-negative")
        self._sharded = shards is not None or shard_size is not None
        if materialize is None:
            if metric.matrix_view() is not None:
                materialize = True
            else:
                materialize = not self._sharded and metric.n <= AUTO_MATERIALIZE_CAP
        if materialize and metric.matrix_view() is None:
            metric = as_distance_matrix(metric)
        self._materialized = metric.matrix_view() is not None
        self._metric = metric
        self._shards = shards
        self._shard_size = shard_size
        self._shard_workers = shard_workers
        self._shard_executor = shard_executor

        self._quality = kernels.hoist_modular_weights(quality)
        self._objective = Objective(self._quality, metric, tradeoff)

        self._cache: "OrderedDict[tuple, Restriction]" = OrderedDict()
        self._cache_size = int(cache_size)
        self._cache_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._identity: Optional[Restriction] = None

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Universe size."""
        return self._objective.n

    @property
    def objective(self) -> Objective:
        """The shared corpus objective ``φ = f + λ·d``."""
        return self._objective

    @property
    def quality(self) -> SetFunction:
        """The prepared (weight-hoisted) quality function."""
        return self._quality

    @property
    def metric(self) -> Metric:
        """The prepared metric (materialized or lazy)."""
        return self._metric

    @property
    def tradeoff(self) -> float:
        """The corpus trade-off λ."""
        return self._objective.tradeoff

    @property
    def materialized(self) -> bool:
        """Whether the corpus metric is matrix-backed."""
        return self._materialized

    @property
    def sharded(self) -> bool:
        """Whether full-universe queries run the sharded core-set pipeline."""
        return self._sharded

    def cache_info(self) -> Dict[str, int]:
        """Restriction-cache statistics: hits, misses, size, capacity."""
        with self._cache_lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
                "capacity": self._cache_size,
            }

    # ------------------------------------------------------------------
    # Restriction views
    # ------------------------------------------------------------------
    def restriction_for(self, pool: Iterable[Element]) -> Restriction:
        """The (cached) sub-universe view for one candidate pool.

        Pools are checked, deduplicated in first-seen order and keyed exactly,
        so two requests naming the same pool share one view.  On a
        materialized corpus the view is a submatrix (copy-free for
        uniform-stride pools); on a lazy corpus it is an O(k·d) lazy slice.
        """
        pool_arr = check_candidate_pool(pool, self.n)
        key = tuple(pool_arr.tolist())
        with self._cache_lock:
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                self._hits += 1
                return cached
            self._misses += 1
        restriction = Restriction._from_trusted(
            self._objective,
            pool_arr,
            sub_metric(self._metric, pool_arr, materialize=self._materialized),
        )
        if self._cache_size > 0:
            with self._cache_lock:
                self._cache[key] = restriction
                while len(self._cache) > self._cache_size:
                    self._cache.popitem(last=False)
        return restriction

    def _identity_restriction(self) -> Restriction:
        """The full-universe view (unsharded corpora), built once."""
        if self._identity is None:
            self._identity = Restriction._from_trusted(
                self._objective, np.arange(self.n), self._metric
            )
        return self._identity

    # ------------------------------------------------------------------
    # Window execution
    # ------------------------------------------------------------------
    def _solve_pool(self, request: ServeQuery, control: RunControl) -> SolverResult:
        """A pool-scoped query (or a full-universe one on an unsharded corpus)
        on its cached restriction view, lifted back to corpus indices."""
        restriction = (
            self._identity_restriction()
            if request.pool is None
            else self.restriction_for(request.pool)
        )
        p = check_query(self.n, request.algorithm, request.p, request.matroid)
        deadline = control.deadline
        if deadline is not None and deadline.expired():
            # The budget ran out while the request sat in the window queue:
            # report an empty (trivially feasible) selection immediately.
            empty = build_result(
                restriction.objective,
                set(),
                [],
                algorithm=request.algorithm,
                metadata=mark_interrupted({}, deadline, "window_queue"),
            )
            return restriction.lift(empty)
        return solve_restricted(
            restriction,
            request.algorithm,
            p=p,
            matroid=request.matroid,
            weights=request.weights,
            local_search_config=request.local_search_config,
            control=control,
        )

    def _solve_full_sharded(
        self, request: ServeQuery, control: RunControl
    ) -> SolverResult:
        """A full-universe query on a sharded corpus (core-set pipeline)."""
        if request.matroid is not None:
            raise InvalidParameterError(
                "sharded full-universe serving supports cardinality "
                "constraints only"
            )
        quality = self._quality
        if request.weights is not None:
            quality = ModularFunction(np.asarray(request.weights, dtype=float))
            if quality.n != self.n:
                raise InvalidParameterError(
                    f"per-query weights cover {quality.n} elements but the "
                    f"corpus covers {self.n}"
                )
        from repro.core.sharding import solve_sharded

        return solve_sharded(
            quality,
            self._metric,
            tradeoff=self.tradeoff,
            p=request.p,
            shards=self._shards,
            shard_size=self._shard_size,
            algorithm=request.algorithm,
            max_workers=self._shard_workers,
            executor=self._shard_executor,
            local_search_config=request.local_search_config,
            control=control,
        )

    def solve_window(
        self,
        requests: Sequence[ServeQuery],
        *,
        deadline: Union[None, float, Deadline] = None,
        skip: Optional[Callable[[int], bool]] = None,
    ) -> List[Union[SolverResult, Exception, None]]:
        """Execute one micro-batch window of requests, in request order.

        ``skip`` (the cancellation hook) is called with each request's index
        just before it would run; returning ``True`` leaves its slot
        ``None``.  Every other request runs under the earlier of its own
        deadline and the window's ``deadline``: pool-scoped requests on
        their cached restriction views, full-universe requests on a sharded
        corpus through the core-set pipeline.  A pool-scoped request whose
        budget ran out in the queue returns an empty interrupted result with
        ``metadata["phase"] = "window_queue"``.  The failure contract is per
        request: a request whose preparation *or* solve raises occupies its
        slot with the exception object, and co-batched neighbours still run.
        Shard-map degradation inside a sharded query never raises at all —
        it surfaces as ``metadata["degraded"]`` on that request's own result.
        """
        shared = Deadline.coerce(deadline)
        results: List[Union[SolverResult, Exception, None]] = [None] * len(requests)
        for index, request in enumerate(requests):
            if skip is not None and skip(index):
                continue
            control = RunControl(deadline=Deadline.earliest(request.deadline, shared))
            try:
                if request.pool is None and self._sharded:
                    results[index] = self._solve_full_sharded(request, control)
                else:
                    results[index] = self._solve_pool(request, control)
            except Exception as error:
                results[index] = error
        return results

    def solve(
        self,
        pool: Optional[Sequence[Element]] = None,
        *,
        p: Optional[int] = None,
        matroid: Optional[Matroid] = None,
        weights: Optional[Sequence[float]] = None,
        algorithm: str = "auto",
        local_search_config: Optional[LocalSearchConfig] = None,
        deadline_s: Union[None, float, Deadline] = None,
    ) -> SolverResult:
        """Solve one query synchronously on the prepared corpus.

        The single-request convenience over :meth:`solve_window`; exceptions
        that the window contract would isolate are re-raised here.
        """
        [outcome] = self.solve_window(
            [
                ServeQuery(
                    pool=pool,
                    p=p,
                    matroid=matroid,
                    weights=weights,
                    algorithm=algorithm,
                    local_search_config=local_search_config,
                    deadline=Deadline.coerce(deadline_s),
                )
            ]
        )
        if isinstance(outcome, Exception):
            raise outcome
        assert outcome is not None
        return outcome

    # ------------------------------------------------------------------
    # Persistence / warm start
    # ------------------------------------------------------------------
    def _config(self) -> Dict[str, Any]:
        return {
            "materialize": self._materialized,
            "shards": self._shards,
            "shard_size": self._shard_size,
            "shard_workers": self._shard_workers,
            "shard_executor": self._shard_executor,
            "cache_size": self._cache_size,
        }

    def snapshot(self) -> CorpusSnapshot:
        """A pickle-safe snapshot of the prepared state
        (see :class:`CorpusSnapshot`)."""
        return CorpusSnapshot(
            quality=self._quality,
            metric=self._metric,
            tradeoff=self.tradeoff,
            config=self._config(),
        )

    def save(self, path: str) -> None:
        """Snapshot the corpus and save it to ``path`` (see
        :meth:`CorpusSnapshot.save`)."""
        self.snapshot().save(path)

    @classmethod
    def restore(cls, snapshot: CorpusSnapshot) -> "PreparedCorpus":
        """Rebuild a corpus from a :class:`CorpusSnapshot`, warm.

        The snapshot's metric is already materialized when the original
        corpus materialized one, so recovery skips the O(n²) preparation the
        first boot paid.
        """
        check_snapshot_version(snapshot, source="CorpusSnapshot")
        return cls(
            snapshot.quality,
            snapshot.metric,
            tradeoff=snapshot.tradeoff,
            **snapshot.config,
        )

    @classmethod
    def load(cls, path: str) -> "PreparedCorpus":
        """Restore a corpus from a snapshot written by :meth:`save`."""
        return cls.restore(CorpusSnapshot.load(path))

    @classmethod
    def from_session(cls, session: Any, **kwargs: Any) -> "PreparedCorpus":
        """Warm-start a serving corpus from a dynamic-maintenance session.

        Accepts a live :class:`~repro.dynamic.session.DynamicSession` /
        :class:`~repro.dynamic.session.ShardedDynamicEngine` /
        :class:`~repro.dynamic.engine.DynamicDiversifier`, or one of their
        pickle-safe snapshots
        (:class:`~repro.dynamic.session.SessionSnapshot` /
        :class:`~repro.dynamic.engine.EngineSnapshot`) — the recovery path: a
        serving process that died restarts from the snapshot its maintenance
        tier checkpointed, without replaying the event stream.

        Retired slots are compacted away, so the corpus universe is the
        session's *live* elements re-indexed densely; sharded sessions carry
        their ``shard_size`` over to the corpus (full-universe queries keep
        sharding), and sparse distance overrides survive via the same
        :class:`~repro.metrics.overlay.PatchedMetric` overlay the session
        used.  Extra ``kwargs`` are forwarded to :class:`PreparedCorpus`.
        """
        from repro.dynamic.engine import DynamicDiversifier, EngineSnapshot
        from repro.dynamic.session import (
            DynamicSession,
            SessionSnapshot,
            ShardedDynamicEngine,
        )

        if isinstance(session, DynamicSession):
            session = session.engine
        if isinstance(session, (DynamicDiversifier, ShardedDynamicEngine)):
            session = session.snapshot()

        if isinstance(session, SessionSnapshot):
            active = np.asarray(session.active, dtype=int)
            points = np.asarray(session.points, dtype=float)[active]
            weights = np.asarray(session.weights, dtype=float)[active]
            from repro.metrics.euclidean import EuclideanMetric

            metric: Metric = EuclideanMetric(points)
            overrides = {}
            if session.overrides:
                # Overrides are keyed by session slot ids; remap the pairs
                # whose endpoints both survived onto the compacted indices.
                local = {int(slot): i for i, slot in enumerate(active)}
                for u, v, value in session.overrides:
                    if int(u) in local and int(v) in local:
                        overrides[(local[int(u)], local[int(v)])] = float(value)
            if overrides:
                from repro.metrics.overlay import PatchedMetric

                metric = PatchedMetric(metric, overrides)
            kwargs.setdefault("shard_size", session.shard_size)
            return cls(
                ModularFunction(weights),
                metric,
                tradeoff=session.tradeoff,
                **kwargs,
            )
        if isinstance(session, EngineSnapshot):
            weights = np.asarray(session.weights, dtype=float)
            distances = np.asarray(session.distances, dtype=float)
            if session.active is not None:
                active = np.asarray(session.active, dtype=int)
                weights = weights[active]
                distances = distances[np.ix_(active, active)]
            from repro.metrics.matrix import DistanceMatrix

            return cls(
                ModularFunction(weights),
                DistanceMatrix(distances),
                tradeoff=session.tradeoff,
                **kwargs,
            )
        raise InvalidParameterError(
            f"cannot warm-start a corpus from {type(session).__name__}"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tier = "matrix" if self._materialized else "lazy"
        return (
            f"PreparedCorpus(n={self.n}, tier={tier}, "
            f"sharded={self._sharded}, cache={self._cache_size})"
        )
