"""One tick planner for both dynamic engines.

:func:`plan_tick` checks an :class:`~repro.dynamic.events.EventBatch`
against a read-only :class:`TickView` of an engine and resolves the tick's
final values in the order :mod:`~repro.dynamic.events` documents, writing
nothing: a rejected tick (a :class:`~repro.exceptions.PerturbationError`)
leaves the engine and a durable session's journal as they were.  Engines
commit the :class:`TickPlan` with writes that cannot fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.dynamic.events import EventBatch
from repro.exceptions import InvalidParameterError, PerturbationError
from repro.metrics.base import Metric
from repro.metrics.overlay import PatchedMetric
from repro.metrics.validation import pair_triangle_violations

__all__ = ["TickPlan", "TickView", "committable", "plan_tick"]

#: Negative weights/distances within this tolerance are treated as rounding
#: noise and clamped to zero (matching the sequential engine).
_NEGATIVITY_TOLERANCE = 1e-12

_NO_KEYS = np.zeros(0, dtype=np.intp)
_NO_VALUES = np.zeros(0)


@dataclass(frozen=True)
class TickView:
    """What the planner reads of an engine: per-slot weights and liveness,
    the current metric, and the insert form it hosts (``point_dim`` is
    ``None`` for the dense engine's distance rows)."""

    weights: np.ndarray
    active: np.ndarray
    metric: Metric
    p: int
    point_dim: Optional[int] = None
    validate_metric: bool = False


@dataclass(frozen=True)
class TickPlan:
    """A validated tick: the final weight of every element a weight event
    touches, the final distance of every touched pair (``row < col``), the
    swap budget, and the batch, whose inserts and deletes are final as
    given."""

    batch: EventBatch
    updates: Optional[int]
    weight_ids: np.ndarray
    weight_values: np.ndarray
    pair_rows: np.ndarray
    pair_cols: np.ndarray
    pair_values: np.ndarray


def committable(
    engine, tick: Union[EventBatch, TickPlan], updates: Optional[int]
) -> TickPlan:
    """The plan ``engine`` commits now: ``tick`` planned by ``engine.plan``,
    or ``tick`` itself if it is the engine's latest plan.  Any other plan was
    read from a state the engine may no longer hold, so it is refused."""
    plan = tick if isinstance(tick, TickPlan) else engine.plan(tick, updates=updates)
    if plan is not engine._latest_plan or (plan is tick and updates is not None):
        raise InvalidParameterError(
            "commit the engine's latest plan as it is; plan the batch again"
        )
    engine._latest_plan = None
    return plan


def plan_tick(
    batch: EventBatch, view: TickView, *, updates: Optional[int] = None
) -> TickPlan:
    """Validate ``batch`` against ``view`` and resolve its final values."""
    if updates is not None:
        if isinstance(updates, bool) or not isinstance(updates, (int, np.integer)):
            raise InvalidParameterError("updates must be an integer or None")
        if updates < 0:
            raise InvalidParameterError("updates must be non-negative")
        updates = int(updates)
    weight_sets = _ids(batch.weight_set_elements, "weight event ids")
    weight_deltas = _ids(batch.weight_delta_elements, "weight event ids")
    pair_sets = _ids(batch.distance_set_pairs, "distance pairs", pairs=True)
    pair_deltas = _ids(batch.distance_delta_pairs, "distance pairs", pairs=True)
    deletes = _ids(batch.delete_elements, "delete ids")
    _values(batch.weight_set_values, weight_sets.size, "weights", absolute=True)
    _values(batch.weight_deltas, weight_deltas.size, "weight deltas")
    _values(batch.distance_set_values, len(pair_sets), "distances", absolute=True)
    _values(batch.distance_deltas, len(pair_deltas), "distance deltas")
    count = batch.insert_weights.size
    _values(batch.insert_weights, count, "insert weights", absolute=True)

    active, slots = view.active, view.active.size
    ids = np.concatenate(
        [weight_sets, weight_deltas, pair_sets.ravel(), pair_deltas.ravel(), deletes]
    )
    if ids.size and (((ids < 0) | (ids >= slots)).any() or not active[ids].all()):
        raise PerturbationError("an event refers to an unknown or retired element")
    rows, points = batch.insert_distances, batch.insert_points
    if view.point_dim is None:
        if points is not None or len(rows) != count:
            raise PerturbationError(
                "the dense engine takes one distance row per insert; point "
                "inserts belong to the sharded dynamic session"
            )
        for i, row in enumerate(rows):  # tick-start slots plus earlier inserts
            _values(row, slots + i, f"insert {i} distances", absolute=True)
    elif rows or (points is None and count):
        raise PerturbationError(
            "the sharded engine takes point inserts; explicit distance rows "
            "belong to the dense engine"
        )
    elif points is not None:
        if points.shape != (count, view.point_dim) or points.dtype.kind not in "fiu":
            raise PerturbationError(
                f"insert points must form a ({count}, {view.point_dim}) array, "
                f"got shape {points.shape}"
            )
        if not np.isfinite(points).all():
            raise PerturbationError("insert points must be finite")
    if deletes.size:
        if np.unique(deletes).size != deletes.size:
            raise PerturbationError("duplicate delete of the same element")
        remaining = int(np.count_nonzero(active)) + count - deletes.size
        if remaining < view.p:
            raise PerturbationError(
                f"deletions would leave {remaining} live elements, "
                f"fewer than p={view.p}"
            )

    weight_ids, weight_values = _resolve(
        weight_sets,
        weight_deltas,
        batch.weight_set_values,
        batch.weight_deltas,
        lambda ids: view.weights[ids],
        "a weight decrease exceeds the current weight of its element",
    )
    pair_rows, pair_cols, pair_values = _NO_KEYS, _NO_KEYS, _NO_VALUES
    if pair_sets.size or pair_deltas.size:
        pair_keys, pair_values = _resolve(
            pair_sets[:, 0] * slots + pair_sets[:, 1],
            pair_deltas[:, 0] * slots + pair_deltas[:, 1],
            batch.distance_set_values,
            batch.distance_deltas,
            lambda keys: _pair_distances(view.metric, *np.divmod(keys, slots)),
            "a distance decrease would make the distance negative",
        )
        pair_rows, pair_cols = np.divmod(pair_keys, slots)
        if view.validate_metric:
            _check_triangles(view, pair_rows, pair_cols, pair_values)
    return TickPlan(
        batch, updates, weight_ids, weight_values, pair_rows, pair_cols, pair_values
    )


def _ids(array: np.ndarray, what: str, *, pairs: bool = False) -> np.ndarray:
    shape_ok = array.ndim == 2 and array.shape[1] == 2 if pairs else array.ndim == 1
    if not shape_ok or array.dtype.kind not in "iu":
        form = "an (m, 2)" if pairs else "a 1-D"
        raise PerturbationError(f"{what} must form {form} integer array")
    ids = array.astype(np.intp, copy=False)
    if pairs and ids.size and not (ids[:, 0] < ids[:, 1]).all():
        raise PerturbationError("distance pairs need two elements, stored as u < v")
    return ids


def _values(array: np.ndarray, count: int, what: str, *, absolute=False) -> None:
    if array.shape != (count,) or array.dtype.kind not in "fiu":
        raise PerturbationError(f"{what} must form a 1-D array of {count} values")
    if count and not np.isfinite(array).all():
        raise PerturbationError(f"{what} must be finite")
    if absolute and count and (array < 0).any():
        raise PerturbationError(f"{what} must be non-negative")


def _resolve(
    set_keys, delta_keys, set_values, deltas, current, negative: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Unique keys and their final values: sets (the last one wins), then
    deltas, then clamping.  ``current(keys)`` reads the tick-start value of
    the keys that have deltas and no set."""
    if not (set_keys.size or delta_keys.size):
        return _NO_KEYS, _NO_VALUES
    keys = np.unique(np.concatenate([set_keys, delta_keys]))
    set_slots = np.searchsorted(keys, set_keys)
    values = np.empty(keys.size)
    values[set_slots] = set_values
    if delta_keys.size:
        unset = np.ones(keys.size, dtype=bool)
        unset[set_slots] = False
        values[unset] = current(keys[unset])
        np.add.at(values, np.searchsorted(keys, delta_keys), deltas)
    if (values < -_NEGATIVITY_TOLERANCE).any() or not np.isfinite(values).all():
        raise PerturbationError(negative)
    return keys, np.maximum(values, 0.0)


def _pair_distances(metric: Metric, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    matrix = metric.matrix_view()
    if matrix is not None:
        return matrix[rows, cols]
    pairs = zip(rows.tolist(), cols.tolist())
    return np.fromiter((metric.distance(u, v) for u, v in pairs), float, rows.size)


def _check_triangles(view: TickView, rows, cols, values) -> None:
    """Scan the ``{u, v, y}`` triples of each changed pair on the planned
    rows.  Given a valid pre-state every changed triple holds a changed
    pair, so this finds a violation iff the full O(n³) scan would."""
    planned = PatchedMetric(
        view.metric, dict(zip(zip(rows.tolist(), cols.tolist()), values.tolist()))
    )
    live = np.flatnonzero(view.active)
    for u, v in zip(rows.tolist(), cols.tolist()):
        if pair_triangle_violations(planned, u, v, elements=live, max_violations=1):
            raise PerturbationError(
                "distance perturbation violates the triangle inequality"
            )
