"""One façade for dynamic maintenance: dense engine, sharded tier, checkpoints.

:class:`DynamicSession` is the single entry point the simulation, the
experiments and the fault harness drive.  It hosts one of two backends behind
the same :meth:`~DynamicSession.apply_events` interface:

* **dense** (``distances=...``) — the Section 6
  :class:`~repro.dynamic.engine.DynamicDiversifier` over an explicit
  (growable) distance matrix, with the no-swap certificate and Theorem 4
  scheduling.  Exact update-rule semantics, O(n²) memory.
* **sharded** (``points=...``) — :class:`ShardedDynamicEngine`, for universes
  far beyond the dense matrix cap.  Elements live in feature space; the
  metric is the lazy tier (:class:`~repro.metrics.euclidean.EuclideanMetric`
  by default) with explicit distance events layered on top as a sparse
  :class:`~repro.metrics.overlay.PatchedMetric`.  Events dirty only the
  shards of the elements they touch; dirty shards re-run their local greedy
  on the lazy slice (through the same
  :func:`~repro.core.sharding.sub_metric` restriction the sharded solver
  uses), and the small core-set solve re-runs only when shard winners or
  solution-relevant state actually changed.

The session also owns the operational conveniences that previously lived in
ad-hoc driver scripts: periodic snapshots (every ``checkpoint_every`` ticks,
handed to ``on_checkpoint``) and, for the sharded tier, a periodic full
re-solve (``resolve_every``) whose result is adopted when it beats the
incrementally maintained solution — the drift guard the benchmarks assert
parity against.

Failure containment mirrors :func:`~repro.core.sharding.solve_sharded`: a
shard whose local solve raises keeps its previous winners (stale but
feasible), the failure is recorded, and the session reports itself degraded
until a later tick repairs the shard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro._types import Element
from repro.core.checkpoint import (
    SNAPSHOT_FORMAT_VERSION,
    check_snapshot_version,
    universe_fingerprint,
)
from repro.core.greedy import greedy_diversify
from repro.core.objective import Objective
from repro.core.sharding import solve_sharded, sub_metric
from repro.dynamic.engine import (
    DEFAULT_HISTORY_LIMIT,
    DynamicDiversifier,
    EngineSnapshot,
)
from repro.dynamic.events import EventBatch
from repro.dynamic.perturbation import Perturbation
from repro.dynamic.update_rules import UpdateOutcome
from repro.exceptions import InvalidParameterError, PerturbationError
from repro.functions.modular import ModularFunction
from repro.metrics.base import Metric
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.overlay import PatchedMetric
from repro.obs.instrument import (
    TICK_SECONDS,
    TICKS,
    maybe_span,
    maybe_start_span,
    phase_timings,
)
from repro.obs.trace import Trace

__all__ = ["DynamicSession", "SessionSnapshot", "ShardedDynamicEngine"]

#: Default elements per shard for the sharded backend.
DEFAULT_SHARD_SIZE = 2048


def _annotate_tick(tick_span, outcome: UpdateOutcome) -> None:
    """Copy a tick outcome's headline metadata onto its (open) span."""
    if tick_span.id is None:
        return
    meta = outcome.metadata
    if "certified_stable" in meta:
        tick_span.set(certificate="hit" if meta["certified_stable"] else "miss")
    if "dirty_shards" in meta:
        tick_span.set(
            dirty_shards=len(meta["dirty_shards"]),
            core_resolved=bool(meta.get("core_resolved", False)),
        )
    if meta.get("degraded"):
        tick_span.set(degraded=True)


@dataclass(frozen=True)
class SessionSnapshot:
    """Pickle-safe snapshot of a sharded :class:`DynamicSession`.

    Plain arrays and tuples only (the metric factory is *not* captured —
    restore takes it again), so snapshots can be written to disk or shipped
    across processes like the dense tier's
    :class:`~repro.dynamic.engine.EngineSnapshot`.

    ``winners``/``degraded``/``core_stale`` capture the repair state, which
    makes :meth:`ShardedDynamicEngine.restore` *faithful*: the restored
    engine carries exactly the shard winners (stale or not) the live engine
    carried, so replaying the same event stream from the snapshot yields
    bit-identical solutions — the contract durable crash recovery depends
    on.
    """

    points: np.ndarray
    weights: np.ndarray
    active: Tuple[Element, ...]
    solution: Tuple[Element, ...]
    p: int
    tradeoff: float
    shard_size: int
    per_shard_p: int
    winners: Tuple[Tuple[int, Tuple[Element, ...]], ...]
    overrides: Tuple[Tuple[int, int, float], ...] = ()
    ticks: int = 0
    degraded: bool = False
    core_stale: bool = False
    format_version: int = SNAPSHOT_FORMAT_VERSION
    fingerprint: Optional[str] = None

    def save(self, path: str) -> None:
        """Pickle the snapshot to ``path``."""
        from repro.core.checkpoint import save_checkpoint

        save_checkpoint(self, path)

    @staticmethod
    def load(path: str) -> "SessionSnapshot":
        """Load a snapshot previously written by :meth:`save`."""
        from repro.core.checkpoint import load_checkpoint

        return load_checkpoint(path, SessionSnapshot)


class ShardedDynamicEngine:
    """Maintain a diversification solution over a huge, point-backed universe.

    The universe never materializes an ``n × n`` matrix: elements are rows of
    a growable point matrix, distances come from the lazy metric tier, and
    explicit distance events live in a sparse override overlay
    (:class:`~repro.metrics.overlay.PatchedMetric`).  The element ids are
    *slots*: contiguous ranges of ``shard_size`` slots form shards, deleted
    slots are retired into a free list and revived by later inserts, so an
    event stream only ever dirties the shards it touches.

    Repair per tick:

    1. re-solve every dirty shard's local greedy (over its live slots, on
       the lazily restricted metric) for ``per_shard_p`` winners;
    2. when winners changed, a member was touched/deleted, or a previous
       failure left the core stale, re-run the core-set greedy over the
       union of all winners and the current solution.

    A failing shard solve keeps that shard's previous winners and marks the
    engine degraded — the same containment contract as
    :func:`~repro.core.sharding.solve_sharded`.
    """

    #: Optional :class:`~repro.obs.trace.Trace` receiving repair spans.  A
    #: class attribute so ``__new__``-based restore paths inherit ``None``.
    trace = None

    def __init__(
        self,
        points: np.ndarray,
        weights: Iterable[float] | np.ndarray,
        p: int,
        *,
        tradeoff: float = 1.0,
        shard_size: int = DEFAULT_SHARD_SIZE,
        per_shard_p: Optional[int] = None,
        metric_factory: Optional[Callable[[np.ndarray], Metric]] = None,
    ) -> None:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2:
            raise InvalidParameterError("points must be a 1-D or 2-D array")
        validated = ModularFunction(np.asarray(weights, dtype=float))
        if validated.n != pts.shape[0]:
            raise InvalidParameterError("weights and points cover different universes")
        if p < 1 or p > validated.n:
            raise InvalidParameterError(
                f"p must lie in [1, n]; got p={p} for n={validated.n}"
            )
        if shard_size < 1:
            raise InvalidParameterError("shard_size must be at least 1")
        if per_shard_p is not None and per_shard_p < 1:
            raise InvalidParameterError("per_shard_p must be at least 1")
        self._slots = pts.shape[0]
        capacity = max(self._slots, 4)
        self._points = np.zeros((capacity, pts.shape[1]))
        self._points[: self._slots] = pts
        self._weights = np.zeros(capacity)
        self._weights[: self._slots] = validated.weights_view()
        self._active = np.zeros(capacity, dtype=bool)
        self._active[: self._slots] = True
        self._free: List[int] = []
        self._p = int(p)
        self._tradeoff = float(tradeoff)
        self._shard_size = int(shard_size)
        self._per_shard_p = int(per_shard_p) if per_shard_p is not None else int(p)
        self._metric_factory = metric_factory or EuclideanMetric
        self._base_metric = self._metric_factory(self._points[: self._slots])
        # The one override table, updated in place by distance/delete events.
        self._overlay = PatchedMetric(self._base_metric)
        self._winners: Dict[int, np.ndarray] = {}
        self._solution: Set[int] = set()
        self._failures: List[dict] = []
        self._degraded = False
        self._core_stale = True
        self._ticks = 0
        # Initial solve: every shard is dirty, then one core solve.
        self._repair(set(range(self.num_shards)), touched_members=False)

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Slot count (live plus retired)."""
        return self._slots

    @property
    def p(self) -> int:
        return self._p

    @property
    def tradeoff(self) -> float:
        return self._tradeoff

    @property
    def active_count(self) -> int:
        return int(self._active[: self._slots].sum())

    def active_elements(self) -> np.ndarray:
        return np.flatnonzero(self._active[: self._slots])

    @property
    def num_shards(self) -> int:
        return max(1, -(-self._slots // self._shard_size))

    @property
    def shard_size(self) -> int:
        return self._shard_size

    @property
    def per_shard_p(self) -> int:
        return self._per_shard_p

    @property
    def solution(self) -> FrozenSet[Element]:
        return frozenset(self._solution)

    @property
    def degraded(self) -> bool:
        """Whether any shard is currently carrying stale winners."""
        return self._degraded

    @property
    def failures(self) -> Tuple[dict, ...]:
        """Structured records of shard/core solve failures, oldest first."""
        return tuple(self._failures)

    @property
    def num_overrides(self) -> int:
        return self._overlay.num_overrides

    def weight(self, element: Element) -> float:
        return float(self._weights[element])

    def distance(self, u: Element, v: Element) -> float:
        return self.metric().distance(int(u), int(v))

    def metric(self) -> Metric:
        """The current metric: lazy base plus the sparse override overlay."""
        return self._overlay if self._overlay.num_overrides else self._base_metric

    @property
    def solution_value(self) -> float:
        return self.objective_value(self._solution)

    def objective_value(self, solution: Iterable[Element]) -> float:
        """``φ(S) = Σ w + λ · Σ_{u<v} d(u, v)`` under the current instance."""
        members = sorted(int(e) for e in set(solution))
        value = float(self._weights[members].sum()) if members else 0.0
        if len(members) > 1:
            metric = self.metric()
            block = metric.block(np.asarray(members), np.asarray(members))
            value += self._tradeoff * float(np.triu(block, 1).sum())
        return value

    # ------------------------------------------------------------------
    # Shard bookkeeping
    # ------------------------------------------------------------------
    def _shard_of(self, element: int) -> int:
        return element // self._shard_size

    def _shard_live(self, shard: int) -> np.ndarray:
        start = shard * self._shard_size
        stop = min(start + self._shard_size, self._slots)
        return start + np.flatnonzero(self._active[start:stop])

    def _ensure_capacity(self, slots: int) -> None:
        capacity = self._points.shape[0]
        if slots <= capacity:
            return
        new_capacity = max(capacity * 2, slots, 4)
        points = np.zeros((new_capacity, self._points.shape[1]))
        points[:capacity] = self._points
        self._points = points
        weights = np.zeros(new_capacity)
        weights[:capacity] = self._weights
        self._weights = weights
        active = np.zeros(new_capacity, dtype=bool)
        active[:capacity] = self._active
        self._active = active

    def _check_live(self, elements: np.ndarray, what: str) -> None:
        idx = np.asarray(elements, dtype=int)
        if idx.size == 0:
            return
        if np.any((idx < 0) | (idx >= self._slots)) or not np.all(
            self._active[: self._slots][idx]
        ):
            raise PerturbationError(f"{what} refers to an unknown or retired element")

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply_events(self, batch: EventBatch) -> UpdateOutcome:
        """Apply one tick of events, repair dirty shards, return the outcome."""
        self._validate_batch(batch)
        dirty: Set[int] = set()
        touched_members = False

        # Weights (sets, then accumulated deltas; validated, then clamped).
        w_idx = np.concatenate(
            [batch.weight_set_elements, batch.weight_delta_elements]
        )
        if w_idx.size:
            before = self._weights[w_idx].copy()
            self._weights[batch.weight_set_elements] = batch.weight_set_values
            np.add.at(self._weights, batch.weight_delta_elements, batch.weight_deltas)
            touched = np.unique(w_idx)
            finals = self._weights[touched]
            if np.any(finals < -1e-12) or not np.all(np.isfinite(finals)):
                self._weights[w_idx] = before
                raise PerturbationError(
                    "a weight decrease exceeds the current weight of its element"
                )
            self._weights[touched] = np.maximum(finals, 0.0)
            for element in touched.tolist():
                dirty.add(self._shard_of(element))
                if element in self._solution:
                    touched_members = True

        # Distances become sparse overrides on top of the point metric.
        pair_events: Dict[Tuple[int, int], float] = {}
        for (u, v), value in zip(
            batch.distance_set_pairs.tolist(), batch.distance_set_values.tolist()
        ):
            pair_events[(int(u), int(v))] = float(value)  # last set wins
        for (u, v), delta in zip(
            batch.distance_delta_pairs.tolist(), batch.distance_deltas.tolist()
        ):
            key = (int(u), int(v))
            current = pair_events.get(key)
            if current is None:
                current = self._overlay.distance(*key)
            pair_events[key] = current + float(delta)
        if pair_events:
            for key, value in pair_events.items():
                if value < -1e-12:
                    raise PerturbationError(
                        "a distance decrease would make the distance negative"
                    )
            for (u, v), value in pair_events.items():
                self._overlay.set_override(u, v, max(float(value), 0.0))
                dirty.add(self._shard_of(u))
                dirty.add(self._shard_of(v))
                if u in self._solution or v in self._solution:
                    touched_members = True

        # Inserts: new rows in point space, reviving retired slots first.
        inserted: List[int] = []
        for i in range(batch.num_inserts):
            point = batch.insert_points[i]
            if self._free:
                slot = self._free.pop(0)
            else:
                self._ensure_capacity(self._slots + 1)
                slot = self._slots
                self._slots += 1
            self._points[slot] = point
            self._weights[slot] = batch.insert_weights[i]
            self._active[slot] = True
            inserted.append(slot)
            dirty.add(self._shard_of(slot))
        if inserted:  # the point matrix changed under the overlay
            self._base_metric = self._metric_factory(self._points[: self._slots])
            self._overlay.rebase(self._base_metric)

        # Deletes: retire slots, drop their overrides, shrink the solution.
        deleted_members: List[int] = []
        if batch.delete_elements.size:
            for element in batch.delete_elements.tolist():
                self._active[element] = False
                self._weights[element] = 0.0
                dirty.add(self._shard_of(element))
                if element in self._solution:
                    self._solution.discard(element)
                    deleted_members.append(element)
                    touched_members = True
            gone = set(batch.delete_elements.tolist())
            self._free = sorted(set(self._free) | gone)
            self._overlay.drop_overrides(gone)
            self._winners = {
                shard: winners[~np.isin(winners, list(gone))]
                for shard, winners in self._winners.items()
            }

        with maybe_span(self.trace, "repair", dirty=len(dirty)) as repair_span:
            core_resolved = self._repair(dirty, touched_members=touched_members)
            repair_span.set(core_resolved=core_resolved, degraded=self._degraded)
        self._ticks += 1
        metadata = {
            "dirty_shards": tuple(sorted(dirty)),
            "core_resolved": core_resolved,
            "num_events": batch.num_events,
            "degraded": self._degraded,
        }
        if inserted:
            metadata["inserted"] = tuple(inserted)
        if deleted_members:
            metadata["deleted_members"] = tuple(deleted_members)
        return UpdateOutcome(
            solution=frozenset(self._solution),
            swaps=(),
            objective_value=self.solution_value,
            metadata=metadata,
        )

    def _validate_batch(self, batch: EventBatch) -> None:
        self._check_live(batch.weight_set_elements, "weight event")
        self._check_live(batch.weight_delta_elements, "weight event")
        self._check_live(batch.distance_set_pairs.ravel(), "distance event")
        self._check_live(batch.distance_delta_pairs.ravel(), "distance event")
        if batch.num_inserts:
            if batch.insert_points is None:
                raise PerturbationError(
                    "the sharded engine hosts point inserts; explicit distance "
                    "rows belong to the dense engine"
                )
            if batch.insert_points.shape[1] != self._points.shape[1]:
                raise PerturbationError(
                    f"insert points must have dimension {self._points.shape[1]}, "
                    f"got {batch.insert_points.shape[1]}"
                )
            if not np.all(np.isfinite(batch.insert_points)):
                raise PerturbationError("insert points must be finite")
        deletes = batch.delete_elements
        if deletes.size:
            if np.unique(deletes).size != deletes.size:
                raise PerturbationError("duplicate delete of the same element")
            self._check_live(deletes, "delete event")
            remaining = self.active_count + batch.num_inserts - deletes.size
            if remaining < self._p:
                raise PerturbationError(
                    f"deletions would leave {remaining} live elements, "
                    f"fewer than p={self._p}"
                )

    # ------------------------------------------------------------------
    # Repair
    # ------------------------------------------------------------------
    def _solve_shard(self, shard: int) -> np.ndarray:
        ids = self._shard_live(shard)
        if ids.size <= self._per_shard_p:
            return ids
        metric = sub_metric(self.metric(), ids, materialize=False)
        objective = Objective(
            ModularFunction(self._weights[ids]), metric, self._tradeoff
        )
        result = greedy_diversify(objective, self._per_shard_p)
        return ids[np.fromiter(sorted(result.selected), dtype=int)]

    def _solve_core(self) -> None:
        parts = [w for w in self._winners.values() if w.size]
        live_solution = [e for e in self._solution if self._active[e]]
        if live_solution:
            parts.append(np.asarray(live_solution, dtype=int))
        if not parts:
            self._solution = set()
            return
        core = np.unique(np.concatenate(parts))
        metric = sub_metric(self.metric(), core, materialize=False)
        objective = Objective(
            ModularFunction(self._weights[core]), metric, self._tradeoff
        )
        result = greedy_diversify(objective, min(self._p, int(core.size)))
        self._solution = {int(core[i]) for i in result.selected}

    def _repair(self, dirty: Set[int], *, touched_members: bool) -> bool:
        """Re-solve dirty shards, then the core when anything relevant moved."""
        winners_changed = False
        failed_shards: List[int] = []
        for shard in sorted(dirty):
            if shard >= self.num_shards:
                continue
            previous = self._winners.get(shard)
            try:
                with maybe_span(self.trace, "repair.shard", shard=shard):
                    winners = self._solve_shard(shard)
            except Exception as error:  # containment: keep stale winners
                failed_shards.append(shard)
                self._failures.append(
                    {"tick": self._ticks, "shard": shard, "error": repr(error)}
                )
                continue
            if previous is None or not np.array_equal(previous, winners):
                winners_changed = True
            self._winners[shard] = winners
        if failed_shards:
            self._degraded = True
            self._core_stale = True
        elif dirty:
            # Every dirty shard solved cleanly; if nothing else is stale the
            # engine has healed.
            self._degraded = False

        needs_core = (
            winners_changed
            or touched_members
            or self._core_stale
            or len(self._solution) < self._p
        )
        if not needs_core:
            return False
        try:
            with maybe_span(self.trace, "repair.core"):
                self._solve_core()
            self._core_stale = False
        except Exception as error:
            self._failures.append(
                {"tick": self._ticks, "shard": None, "error": repr(error)}
            )
            self._degraded = True
            self._core_stale = True
            # Keep the previous (live-filtered) solution; retry next tick.
            self._solution = {e for e in self._solution if self._active[e]}
        return True

    # ------------------------------------------------------------------
    # Full re-solve (drift guard)
    # ------------------------------------------------------------------
    def resolve_full(self, *, adopt: bool = True, **solve_kwargs):
        """Run a full sharded core-set solve of the current instance.

        This is the periodic "re-solve from scratch" the incremental path is
        measured against: every shard re-solves (optionally on a worker pool
        — ``executor``/``max_workers``/``shard_timeout_s``/... forward to
        :func:`~repro.core.sharding.solve_sharded`).  With ``adopt=True`` the
        result replaces the maintained solution when it scores at least as
        well, re-anchoring any incremental drift.
        """
        quality = ModularFunction(self._weights[: self._slots])
        result = solve_sharded(
            quality,
            self.metric(),
            tradeoff=self._tradeoff,
            p=self._p,
            shard_size=self._shard_size,
            per_shard_p=self._per_shard_p,
            candidates=self.active_elements(),
            **solve_kwargs,
        )
        if adopt and len(result.selected) >= min(
            self._p, self.active_count
        ) and result.objective_value >= self.solution_value - 1e-9:
            self._solution = {int(e) for e in result.selected}
            self._core_stale = False
        return result

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self, *, ticks: int = 0) -> SessionSnapshot:
        return SessionSnapshot(
            points=np.array(self._points[: self._slots], copy=True),
            weights=np.array(self._weights[: self._slots], copy=True),
            active=tuple(int(e) for e in self.active_elements()),
            solution=tuple(sorted(self._solution)),
            p=self._p,
            tradeoff=self._tradeoff,
            shard_size=self._shard_size,
            per_shard_p=self._per_shard_p,
            overrides=tuple(
                (u, v, value)
                for (u, v), value in sorted(self._overlay.overrides.items())
            ),
            ticks=ticks,
            winners=tuple(
                (int(shard), tuple(int(e) for e in winners))
                for shard, winners in sorted(self._winners.items())
            ),
            degraded=self._degraded,
            core_stale=self._core_stale,
            fingerprint=universe_fingerprint(
                "sharded",
                self._p,
                self._tradeoff,
                self._points.shape[1],
                self._shard_size,
                self._per_shard_p,
            ),
        )

    @classmethod
    def restore(
        cls,
        snapshot: SessionSnapshot,
        *,
        metric_factory: Optional[Callable[[np.ndarray], Metric]] = None,
    ) -> "ShardedDynamicEngine":
        check_snapshot_version(snapshot, source="SessionSnapshot")
        engine = cls.__new__(cls)
        slots = snapshot.points.shape[0]
        engine._slots = slots
        capacity = max(slots, 4)
        engine._points = np.zeros((capacity, snapshot.points.shape[1]))
        engine._points[:slots] = snapshot.points
        engine._weights = np.zeros(capacity)
        engine._weights[:slots] = snapshot.weights
        engine._active = np.zeros(capacity, dtype=bool)
        engine._active[list(snapshot.active)] = True
        engine._free = sorted(set(range(slots)) - set(snapshot.active))
        engine._p = int(snapshot.p)
        engine._tradeoff = float(snapshot.tradeoff)
        engine._shard_size = int(snapshot.shard_size)
        engine._per_shard_p = int(snapshot.per_shard_p)
        engine._metric_factory = metric_factory or EuclideanMetric
        engine._base_metric = engine._metric_factory(engine._points[:slots])
        engine._overlay = PatchedMetric(
            engine._base_metric,
            {(int(u), int(v)): float(value) for u, v, value in snapshot.overrides},
        )
        engine._solution = set(int(e) for e in snapshot.solution)
        engine._failures = []
        engine._ticks = int(snapshot.ticks)
        # Faithful restore: adopt the captured repair state verbatim —
        # including stale winners of degraded shards — so the restored engine
        # is indistinguishable from the one that was snapshotted.
        engine._winners = {
            int(shard): np.asarray(winners, dtype=int)
            for shard, winners in snapshot.winners
        }
        engine._degraded = bool(snapshot.degraded)
        engine._core_stale = bool(snapshot.core_stale)
        return engine


class DynamicSession:
    """The one façade every dynamic driver uses: engine + checkpoints.

    Exactly one of ``distances`` (dense backend) or ``points`` (sharded
    backend) selects the representation; everything downstream —
    :meth:`apply_events`, :meth:`apply`, :meth:`snapshot` — is uniform, so
    the Section 7.3 simulation, the Figure 1 experiment and the fault
    harness all drive the same code path.

    Parameters
    ----------
    weights, p, tradeoff:
        The instance, as for the backends.
    distances:
        Dense mode: an explicit distance matrix (kwargs ``validate_metric``,
        ``history_limit``, ``use_certificate`` forward to
        :class:`~repro.dynamic.engine.DynamicDiversifier`).
    points:
        Sharded mode: an ``(n, d)`` point matrix (kwargs ``shard_size``,
        ``per_shard_p``, ``metric_factory`` forward to
        :class:`ShardedDynamicEngine`).
    checkpoint_every, on_checkpoint:
        Emit a pickle-safe snapshot (:class:`~repro.dynamic.engine.EngineSnapshot`
        dense / :class:`SessionSnapshot` sharded) to ``on_checkpoint`` after
        every ``checkpoint_every`` ticks (default 1 when only the callback is
        given).
    resolve_every, resolve_kwargs:
        Sharded mode only: every ``resolve_every`` ticks run
        :meth:`ShardedDynamicEngine.resolve_full` (forwarding
        ``resolve_kwargs``, e.g. ``{"executor": "process", "max_workers": 2,
        "shard_timeout_s": 5.0}``) and adopt the result when it is at least
        as good — bounding incremental drift even under shard failures.
    durable_dir, fsync, snapshot_every, keep_snapshots:
        Crash durability (:mod:`repro.durability`).  With ``durable_dir``
        every tick is journaled to a checksummed write-ahead log *before*
        it mutates the engine, so a crash at any point replays to the exact
        pre-crash state via :meth:`recover`.  ``fsync`` picks the loss
        window (``"always"`` / ``"interval"`` / ``"off"``);
        ``snapshot_every`` compacts the log every N ticks into an atomic
        snapshot generation (``keep_snapshots`` retained).  The directory
        must be fresh — recovering an existing journal is :meth:`recover`'s
        job, not the constructor's.
    trace:
        Optional :class:`~repro.obs.trace.Trace`.  Every tick records a
        ``tick`` span with ``wal.journal`` / ``apply`` / ``repair`` children
        (plus ``resolve_full`` / ``checkpoint`` / ``wal.compact`` when those
        cadences fire), certificate and dirty-shard attributes, and a
        compact ``outcome.metadata["timings"]`` breakdown.  ``None`` (the
        default) keeps every tick at no-op instrumentation cost.
    """

    #: Class attribute so ``__new__``-based restore paths inherit ``None``.
    _trace = None

    def __init__(
        self,
        weights: Iterable[float] | np.ndarray,
        p: int,
        *,
        distances: Optional[np.ndarray] = None,
        points: Optional[np.ndarray] = None,
        tradeoff: float = 1.0,
        validate_metric: bool = False,
        history_limit: Optional[int] = DEFAULT_HISTORY_LIMIT,
        use_certificate: bool = True,
        shard_size: int = DEFAULT_SHARD_SIZE,
        per_shard_p: Optional[int] = None,
        metric_factory: Optional[Callable[[np.ndarray], Metric]] = None,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[
            Callable[[Union[EngineSnapshot, SessionSnapshot]], None]
        ] = None,
        resolve_every: Optional[int] = None,
        resolve_kwargs: Optional[dict] = None,
        durable_dir: Optional[str] = None,
        fsync: str = "interval",
        snapshot_every: Optional[int] = None,
        keep_snapshots: int = 2,
        trace: Optional[Trace] = None,
    ) -> None:
        if (distances is None) == (points is None):
            raise InvalidParameterError(
                "supply exactly one of distances (dense) or points (sharded)"
            )
        if checkpoint_every is not None and checkpoint_every < 1:
            raise InvalidParameterError("checkpoint_every must be at least 1")
        if on_checkpoint is not None and checkpoint_every is None:
            checkpoint_every = 1
        if resolve_every is not None and resolve_every < 1:
            raise InvalidParameterError("resolve_every must be at least 1")
        if snapshot_every is not None and durable_dir is None:
            raise InvalidParameterError(
                "snapshot_every is the durable compaction cadence; it needs "
                "durable_dir"
            )
        self._checkpoint_every = checkpoint_every
        self._on_checkpoint = on_checkpoint
        self._resolve_every = resolve_every
        self._resolve_kwargs = dict(resolve_kwargs or {})
        self._ticks = 0
        self._durable = None
        self._trace = trace
        self._dense: Optional[DynamicDiversifier] = None
        self._sharded: Optional[ShardedDynamicEngine] = None
        if distances is not None:
            if resolve_every is not None:
                raise InvalidParameterError(
                    "resolve_every applies to the sharded backend only"
                )
            self._dense = DynamicDiversifier(
                weights,
                distances,
                p,
                tradeoff=tradeoff,
                validate_metric=validate_metric,
                history_limit=history_limit,
                use_certificate=use_certificate,
            )
        else:
            self._sharded = ShardedDynamicEngine(
                points,
                weights,
                p,
                tradeoff=tradeoff,
                shard_size=shard_size,
                per_shard_p=per_shard_p,
                metric_factory=metric_factory,
            )
        self.engine.trace = trace
        if durable_dir is not None:
            from repro.durability.recovery import DurableStore

            store = DurableStore(
                durable_dir,
                fsync=fsync,
                snapshot_every=snapshot_every,
                keep_snapshots=keep_snapshots,
            )
            store.start_fresh(self)
            self._durable = store

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """``"dense"`` or ``"sharded"``."""
        return "dense" if self._dense is not None else "sharded"

    @property
    def engine(self) -> Union[DynamicDiversifier, ShardedDynamicEngine]:
        """The backing engine (for backend-specific diagnostics)."""
        return self._dense if self._dense is not None else self._sharded

    @property
    def ticks(self) -> int:
        """Number of event batches applied through this session."""
        return self._ticks

    @property
    def durable(self):
        """The attached :class:`~repro.durability.recovery.DurableStore`
        (``None`` when the session is not durable)."""
        return self._durable

    @property
    def n(self) -> int:
        return self.engine.n

    @property
    def p(self) -> int:
        return self.engine.p

    @property
    def tradeoff(self) -> float:
        return self.engine.tradeoff

    @property
    def active_count(self) -> int:
        return self.engine.active_count

    @property
    def solution(self) -> FrozenSet[Element]:
        return self.engine.solution

    @property
    def solution_value(self) -> float:
        return self.engine.solution_value

    @property
    def degraded(self) -> bool:
        """Sharded mode: whether any shard currently carries stale winners."""
        return self._sharded.degraded if self._sharded is not None else False

    def weight(self, element: Element) -> float:
        return self.engine.weight(element)

    def distance(self, u: Element, v: Element) -> float:
        return self.engine.distance(u, v)

    def approximation_ratio(self) -> float:
        """Dense mode only: ``OPT / φ(S)`` (exact optimum; small n)."""
        if self._dense is None:
            raise InvalidParameterError(
                "approximation_ratio needs the dense backend (exact optimum)"
            )
        return self._dense.approximation_ratio()

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def apply_events(self, batch: EventBatch, **kwargs) -> UpdateOutcome:
        """Apply one tick through the backend, then run the session cadence:
        periodic full re-solve (sharded) and periodic checkpoints.

        With durability enabled the tick is journaled *before* any mutation
        (journal-before-apply): a crash between journal and apply replays
        the tick on recovery, reaching the same state the surviving process
        would have reached — invalid ticks included, since the backends
        reject those deterministically both live and on replay.
        """
        trace = self._trace
        metered = TICKS.enabled()
        started = time.perf_counter()
        tick_span = maybe_start_span(
            trace,
            "tick",
            tick=self._ticks,
            backend=self.mode,
            num_events=batch.num_events,
        )
        try:
            if self._durable is not None:
                journal_started = time.perf_counter()
                with maybe_span(trace, "wal.journal"):
                    self._durable.journal(batch, kwargs)
                if metered:
                    TICK_SECONDS.observe(
                        time.perf_counter() - journal_started, phase="journal"
                    )
            apply_started = time.perf_counter()
            with maybe_span(trace, "apply"):
                if self._dense is not None:
                    outcome = self._dense.apply_events(batch, **kwargs)
                else:
                    outcome = self._sharded.apply_events(batch, **kwargs)
            if metered:
                TICK_SECONDS.observe(
                    time.perf_counter() - apply_started, phase="apply"
                )
            self._ticks += 1
            if (
                self._resolve_every is not None
                and self._sharded is not None
                and self._ticks % self._resolve_every == 0
            ):
                with maybe_span(trace, "resolve_full"):
                    self._sharded.resolve_full(adopt=True, **self._resolve_kwargs)
            if (
                self._on_checkpoint is not None
                and self._ticks % self._checkpoint_every == 0
            ):
                with maybe_span(trace, "checkpoint"):
                    self._on_checkpoint(self.snapshot())
            if self._durable is not None:
                with maybe_span(trace, "wal.compact"):
                    self._durable.maybe_compact(self)
            _annotate_tick(tick_span, outcome)
        finally:
            tick_span.finish()
        if metered:
            TICKS.inc(backend=self.mode)
        if trace is not None:
            outcome.metadata["timings"] = phase_timings(
                trace, tick_span.id, total=time.perf_counter() - started
            )
        return outcome

    def apply(self, perturbation: Perturbation, **kwargs) -> UpdateOutcome:
        """Apply a single Section 6 perturbation (dense semantics when dense;
        routed through a one-event batch on the sharded backend)."""
        if self._dense is not None:
            trace = self._trace
            metered = TICKS.enabled()
            started = time.perf_counter()
            tick_span = maybe_start_span(
                trace, "tick", tick=self._ticks, backend=self.mode, num_events=1
            )
            try:
                if self._durable is not None:
                    journal_started = time.perf_counter()
                    with maybe_span(trace, "wal.journal"):
                        self._durable.journal(
                            EventBatch.from_perturbations([perturbation]), kwargs
                        )
                    if metered:
                        TICK_SECONDS.observe(
                            time.perf_counter() - journal_started, phase="journal"
                        )
                apply_started = time.perf_counter()
                with maybe_span(trace, "apply"):
                    outcome = self._dense.apply(perturbation, **kwargs)
                if metered:
                    TICK_SECONDS.observe(
                        time.perf_counter() - apply_started, phase="apply"
                    )
                self._ticks += 1
                if (
                    self._on_checkpoint is not None
                    and self._ticks % self._checkpoint_every == 0
                ):
                    with maybe_span(trace, "checkpoint"):
                        self._on_checkpoint(self.snapshot())
                if self._durable is not None:
                    with maybe_span(trace, "wal.compact"):
                        self._durable.maybe_compact(self)
                _annotate_tick(tick_span, outcome)
            finally:
                tick_span.finish()
            if metered:
                TICKS.inc(backend=self.mode)
            if trace is not None:
                outcome.metadata["timings"] = phase_timings(
                    trace, tick_span.id, total=time.perf_counter() - started
                )
            return outcome
        return self.apply_events(
            EventBatch.from_perturbations([perturbation]), **kwargs
        )

    def resolve_full(self, **solve_kwargs):
        """Sharded mode: full re-solve (see
        :meth:`ShardedDynamicEngine.resolve_full`)."""
        if self._sharded is None:
            raise InvalidParameterError(
                "resolve_full applies to the sharded backend only"
            )
        return self._sharded.resolve_full(**{**self._resolve_kwargs, **solve_kwargs})

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Union[EngineSnapshot, SessionSnapshot]:
        """A pickle-safe snapshot of the backend state."""
        if self._dense is not None:
            return self._dense.snapshot()
        return self._sharded.snapshot(ticks=self._ticks)

    def serve_corpus(self, **corpus_kwargs):
        """A :class:`~repro.serve.PreparedCorpus` over the current instance.

        The maintenance→serving handoff: the session's live weights, points
        / distances and sparse overrides become a prepared corpus (retired
        slots compacted away), so a serving front end answers queries against
        exactly the universe the dynamic tier maintains.  The same
        construction works from a persisted snapshot via
        :meth:`repro.serve.PreparedCorpus.from_session` — that is the
        recovery path for a serving process that died.
        """
        from repro.serve.corpus import PreparedCorpus

        return PreparedCorpus.from_session(self, **corpus_kwargs)

    @classmethod
    def restore(
        cls,
        snapshot: Union[EngineSnapshot, SessionSnapshot],
        *,
        metric_factory: Optional[Callable[[np.ndarray], Metric]] = None,
        **session_kwargs,
    ) -> "DynamicSession":
        """Rebuild a session from a :meth:`snapshot` of either backend."""
        session = cls.__new__(cls)
        session._checkpoint_every = session_kwargs.pop("checkpoint_every", None)
        session._on_checkpoint = session_kwargs.pop("on_checkpoint", None)
        if session._on_checkpoint is not None and session._checkpoint_every is None:
            session._checkpoint_every = 1
        session._resolve_every = session_kwargs.pop("resolve_every", None)
        session._resolve_kwargs = dict(session_kwargs.pop("resolve_kwargs", None) or {})
        session._trace = session_kwargs.pop("trace", None)
        if session_kwargs:
            raise InvalidParameterError(
                f"unknown restore options: {sorted(session_kwargs)}"
            )
        session._durable = None
        session._dense = None
        session._sharded = None
        if isinstance(snapshot, EngineSnapshot):
            session._dense = DynamicDiversifier.restore(snapshot)
            session._ticks = 0
        elif isinstance(snapshot, SessionSnapshot):
            session._sharded = ShardedDynamicEngine.restore(
                snapshot, metric_factory=metric_factory
            )
            session._ticks = int(snapshot.ticks)
        else:
            raise InvalidParameterError(
                f"restore expects an EngineSnapshot or SessionSnapshot, "
                f"got {type(snapshot).__name__}"
            )
        session.engine.trace = session._trace
        return session

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    @classmethod
    def recover(
        cls,
        durable_dir: str,
        *,
        metric_factory: Optional[Callable[[np.ndarray], Metric]] = None,
        **options,
    ) -> "DynamicSession":
        """Recover a durable session from its directory after a crash.

        Loads the newest valid snapshot generation (or the journal's initial
        state), replays the write-ahead-log tail through the normal apply
        path, repairs any torn trailing record, and re-attaches the journal
        so the recovered session keeps journaling where the dead one
        stopped.  The result is bit-identical to the state the crashed
        process had reached at its last journaled tick boundary.

        Session configuration (``resolve_every``, ``fsync``,
        ``snapshot_every``, ...) defaults to what the dead session journaled;
        keyword ``options`` override it.
        """
        from repro.durability.recovery import recover_session

        return recover_session(
            cls, durable_dir, metric_factory=metric_factory, **options
        )

    def close(self) -> None:
        """Flush and detach the durable journal (no-op when not durable)."""
        if self._durable is not None:
            self._durable.close()
            self._durable = None

    def __enter__(self) -> "DynamicSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
