"""Batched event streams for the dynamic engine.

The perturbation model of Section 6 describes *single* changes; real update
streams arrive thousands at a time.  :class:`EventBatch` is the typed-array
form of one **tick** of such a stream: weight changes, distance changes,
insertions and deletions collected into flat NumPy arrays so the engine can
apply a whole tick in a handful of vectorized passes instead of one
Python-level dispatch per event.

Within-tick semantics are deliberately *simultaneous*, with a fixed
deterministic resolution order:

1. weight **sets** (absolute assignments; on a repeated element the last
   recorded set wins),
2. weight **deltas** (all accumulate, on top of the sets),
3. distance **sets** (last recorded set per unordered pair wins),
4. distance **deltas** (accumulate),
5. **insertions**, in recorded order,
6. **deletions**,
7. one repair phase (the engine's swap/refill schedule).

A batch built from legacy :mod:`~repro.dynamic.perturbation` objects uses
only deltas, so replaying a perturbation stream one event per tick through
the batched path reproduces the sequential engine exactly.

Builders validate what they can locally (finiteness, non-negative absolute
values, ``u ≠ v``).  Every check of a whole batch, the state-dependent ones
included (a delta driving a weight or distance negative, unknown element
ids), is made by :func:`~repro.dynamic.plan.plan_tick` before an engine
writes anything; it also rejects malformed batches built without a builder.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro._types import Element
from repro.dynamic.perturbation import (
    DistanceDecrease,
    DistanceIncrease,
    Perturbation,
    WeightDecrease,
    WeightIncrease,
)
from repro.exceptions import PerturbationError, SnapshotVersionError

__all__ = [
    "EventBatch",
    "EventBatchBuilder",
    "decode_event_batch",
    "encode_event_batch",
]


def _readonly(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class EventBatch:
    """One tick of dynamic events as typed, read-only arrays.

    Instances come from :class:`EventBatchBuilder` (or
    :meth:`from_perturbations`); the engine consumes the arrays directly.
    ``insert_distances`` rows are aligned to the engine's slot ids at the
    start of the tick plus any inserts earlier in the same batch, mirroring
    how the growable matrix receives them.  ``insert_points`` is the
    feature-space alternative used by the sharded tier; a batch carries one
    representation or the other, never both.
    """

    weight_set_elements: np.ndarray
    weight_set_values: np.ndarray
    weight_delta_elements: np.ndarray
    weight_deltas: np.ndarray
    distance_set_pairs: np.ndarray  # (m, 2) with u < v
    distance_set_values: np.ndarray
    distance_delta_pairs: np.ndarray
    distance_deltas: np.ndarray
    insert_weights: np.ndarray
    insert_distances: Tuple[np.ndarray, ...] = ()
    insert_points: Optional[np.ndarray] = None
    delete_elements: np.ndarray = field(
        default_factory=lambda: _readonly(np.zeros(0, dtype=int))
    )

    @property
    def num_events(self) -> int:
        """Total number of recorded events in the tick."""
        return int(
            self.weight_set_elements.size
            + self.weight_delta_elements.size
            + self.distance_set_pairs.shape[0]
            + self.distance_delta_pairs.shape[0]
            + self.insert_weights.size
            + self.delete_elements.size
        )

    @property
    def is_empty(self) -> bool:
        """Whether the tick carries no events at all."""
        return self.num_events == 0

    @property
    def num_inserts(self) -> int:
        """Number of insertions in the tick."""
        return int(self.insert_weights.size)

    def touched_elements(self) -> np.ndarray:
        """Sorted unique *existing* element ids any event refers to.

        Insertions are excluded (their ids do not exist yet); deletions and
        both endpoints of every distance event are included.  The engine
        seeds its dirty-element set from this.
        """
        parts = [
            self.weight_set_elements,
            self.weight_delta_elements,
            self.distance_set_pairs.ravel(),
            self.distance_delta_pairs.ravel(),
            self.delete_elements,
        ]
        return np.unique(np.concatenate([np.asarray(p, dtype=int) for p in parts]))

    @classmethod
    def from_perturbations(cls, perturbations: Iterable[Perturbation]) -> "EventBatch":
        """Convert legacy Type I–IV perturbations into one batch (all deltas)."""
        builder = EventBatchBuilder()
        for perturbation in perturbations:
            builder.add(perturbation)
        return builder.build()


class EventBatchBuilder:
    """Accumulate events one call at a time, then :meth:`build` the arrays."""

    def __init__(self) -> None:
        self._weight_sets: List[Tuple[int, float]] = []
        self._weight_deltas: List[Tuple[int, float]] = []
        self._distance_sets: List[Tuple[int, int, float]] = []
        self._distance_deltas: List[Tuple[int, int, float]] = []
        self._insert_weights: List[float] = []
        self._insert_distances: List[Optional[np.ndarray]] = []
        self._insert_points: List[Optional[np.ndarray]] = []
        self._deletes: List[int] = []

    def __len__(self) -> int:
        return (
            len(self._weight_sets)
            + len(self._weight_deltas)
            + len(self._distance_sets)
            + len(self._distance_deltas)
            + len(self._insert_weights)
            + len(self._deletes)
        )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def set_weight(self, element: Element, value: float) -> "EventBatchBuilder":
        """Record ``w(element) = value`` (absolute assignment)."""
        value = float(value)
        if not np.isfinite(value):
            raise PerturbationError("weight values must be finite")
        if value < 0:
            raise PerturbationError("weights must be non-negative")
        self._weight_sets.append((int(element), value))
        return self

    def change_weight(self, element: Element, delta: float) -> "EventBatchBuilder":
        """Record ``w(element) += delta`` (either sign; Type I/II for ±)."""
        delta = float(delta)
        if not np.isfinite(delta):
            raise PerturbationError("weight deltas must be finite")
        if delta == 0:
            raise PerturbationError("a weight change must have delta != 0")
        self._weight_deltas.append((int(element), delta))
        return self

    def set_distance(self, u: Element, v: Element, value: float) -> "EventBatchBuilder":
        """Record ``d(u, v) = value`` (absolute assignment)."""
        u, v = int(u), int(v)
        if u == v:
            raise PerturbationError("distance events need two distinct elements")
        value = float(value)
        if not np.isfinite(value):
            raise PerturbationError("distance values must be finite")
        if value < 0:
            raise PerturbationError("distances must be non-negative")
        self._distance_sets.append((min(u, v), max(u, v), value))
        return self

    def change_distance(
        self, u: Element, v: Element, delta: float
    ) -> "EventBatchBuilder":
        """Record ``d(u, v) += delta`` (either sign; Type III/IV for ±)."""
        u, v = int(u), int(v)
        if u == v:
            raise PerturbationError("distance events need two distinct elements")
        delta = float(delta)
        if not np.isfinite(delta):
            raise PerturbationError("distance deltas must be finite")
        if delta == 0:
            raise PerturbationError("a distance change must have delta != 0")
        self._distance_deltas.append((min(u, v), max(u, v), delta))
        return self

    def insert(
        self,
        weight: float,
        *,
        distances: Optional[np.ndarray] = None,
        point: Optional[np.ndarray] = None,
    ) -> "EventBatchBuilder":
        """Record the insertion of a new element.

        ``distances`` is the new element's distance row over the universe as
        it stands at tick start plus inserts recorded earlier in this batch
        (the dense engine's representation); ``point`` its feature vector
        (the sharded tier's).  Give at most one; the engine rejects the form
        it cannot host.
        """
        weight = float(weight)
        if not np.isfinite(weight):
            raise PerturbationError("weight values must be finite")
        if weight < 0:
            raise PerturbationError("weights must be non-negative")
        if distances is not None and point is not None:
            raise PerturbationError("an insert takes distances or a point, not both")
        if distances is not None:
            distances = np.array(distances, dtype=float)
            if distances.ndim != 1:
                raise PerturbationError("insert distances must be a 1-D row")
        if point is not None:
            point = np.array(point, dtype=float)
            if point.ndim != 1:
                raise PerturbationError("an insert point must be a 1-D vector")
        self._insert_weights.append(weight)
        self._insert_distances.append(distances)
        self._insert_points.append(point)
        return self

    def delete(self, element: Element) -> "EventBatchBuilder":
        """Record the deletion of an existing element."""
        self._deletes.append(int(element))
        return self

    def add(self, perturbation: Perturbation) -> "EventBatchBuilder":
        """Record a legacy Type I–IV perturbation as the equivalent delta."""
        if isinstance(perturbation, WeightIncrease):
            return self.change_weight(perturbation.element, perturbation.delta)
        if isinstance(perturbation, WeightDecrease):
            return self.change_weight(perturbation.element, -perturbation.delta)
        if isinstance(perturbation, DistanceIncrease):
            return self.change_distance(
                perturbation.u, perturbation.v, perturbation.delta
            )
        if isinstance(perturbation, DistanceDecrease):
            return self.change_distance(
                perturbation.u, perturbation.v, -perturbation.delta
            )
        raise PerturbationError(f"unknown perturbation {perturbation!r}")

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def build(self) -> EventBatch:
        """Freeze the recorded events into an :class:`EventBatch`."""
        rows = [d for d in self._insert_distances if d is not None]
        points = [pt for pt in self._insert_points if pt is not None]
        if rows and points:
            raise PerturbationError(
                "a batch must use one insert representation: distances or points"
            )
        insert_points: Optional[np.ndarray] = None
        if points:
            if len(points) != len(self._insert_weights):
                raise PerturbationError("every insert in a point batch needs a point")
            dims = {pt.shape[0] for pt in points}
            if len(dims) != 1:
                raise PerturbationError("insert points must share one dimensionality")
            insert_points = _readonly(np.vstack(points))
        insert_rows: Tuple[np.ndarray, ...] = ()
        if rows:
            if len(rows) != len(self._insert_weights):
                raise PerturbationError(
                    "every insert in a distance batch needs a distance row"
                )
            insert_rows = tuple(_readonly(row) for row in self._insert_distances)

        def ints(values: List[int]) -> np.ndarray:
            return _readonly(np.asarray(values, dtype=int))

        def floats(values: List[float]) -> np.ndarray:
            return _readonly(np.asarray(values, dtype=float))

        def pairs(
            events: List[Tuple[int, int, float]],
        ) -> Tuple[np.ndarray, np.ndarray]:
            if not events:
                return (
                    _readonly(np.zeros((0, 2), dtype=int)),
                    _readonly(np.zeros(0, dtype=float)),
                )
            array = np.asarray(events, dtype=float)
            return (
                _readonly(array[:, :2].astype(int)),
                _readonly(array[:, 2].copy()),
            )

        distance_set_pairs, distance_set_values = pairs(self._distance_sets)
        distance_delta_pairs, distance_deltas = pairs(self._distance_deltas)
        return EventBatch(
            weight_set_elements=ints([e for e, _ in self._weight_sets]),
            weight_set_values=floats([v for _, v in self._weight_sets]),
            weight_delta_elements=ints([e for e, _ in self._weight_deltas]),
            weight_deltas=floats([d for _, d in self._weight_deltas]),
            distance_set_pairs=distance_set_pairs,
            distance_set_values=distance_set_values,
            distance_delta_pairs=distance_delta_pairs,
            distance_deltas=distance_deltas,
            insert_weights=floats(self._insert_weights),
            insert_distances=insert_rows,
            insert_points=insert_points,
            delete_elements=ints(self._deletes),
        )


# ----------------------------------------------------------------------
# Wire format (write-ahead log records)
# ----------------------------------------------------------------------
# A batch is journaled as one raw record of typed arrays, never a pickle, so
# a corrupt or adversarial log record can at worst fail to parse; it cannot
# execute code on replay.  The record, all little-endian:
#
#   header       magic b"EVTB", u16 version, u16 flags (bit 0: insert
#                points present), u32 insert-row count, 4 pad bytes
#   descriptors  one per array: dtype kind (b"i", b"u" or b"f"), u8
#                itemsize, u8 ndim (1 or 2), 5 pad bytes, u64 rows, u64
#                columns (0 for a vector)
#   payloads     each array's C-order bytes, in descriptor order
#
# The arrays are the ``_ARRAY_FIELDS`` in order, then the insert rows, then
# the insert points.  Header and descriptors are multiples of 8 bytes, so
# 8-byte payloads decode aligned.
_ENCODING_VERSION = 2
_MAGIC = b"EVTB"
_HEADER = struct.Struct("<4sHHI4x")
_DESCRIPTOR = struct.Struct("<cBB5xQQ")
_HAS_POINTS = 1
_NUMERIC = {
    (kind.encode(), size): np.dtype(f"<{kind}{size}")
    for kind, sizes in (("i", (1, 2, 4, 8)), ("u", (1, 2, 4, 8)), ("f", (2, 4, 8)))
    for size in sizes
}

_ARRAY_FIELDS = (
    "weight_set_elements",
    "weight_set_values",
    "weight_delta_elements",
    "weight_deltas",
    "distance_set_pairs",
    "distance_set_values",
    "distance_delta_pairs",
    "distance_deltas",
    "insert_weights",
    "delete_elements",
)


def encode_event_batch(batch: EventBatch) -> bytes:
    """Serialize one :class:`EventBatch` into a self-describing byte string.

    The inverse of :func:`decode_event_batch`; round-tripping is exact
    (dtypes, values and the one-of insert representation all survive), which
    is what lets the write-ahead log replay a journaled tick bit-identically.
    Raises ``ValueError`` for an array that is not a vector or matrix of
    integers or floats, which no planned tick holds.
    """
    arrays = [getattr(batch, name) for name in _ARRAY_FIELDS]
    arrays.extend(batch.insert_distances)
    flags = 0
    if batch.insert_points is not None:
        arrays.append(batch.insert_points)
        flags = _HAS_POINTS
    parts = [
        _HEADER.pack(_MAGIC, _ENCODING_VERSION, flags, len(batch.insert_distances))
    ]
    payloads = []
    for array in arrays:
        array = np.asarray(array)
        kind = array.dtype.kind.encode()
        dtype = _NUMERIC.get((kind, array.dtype.itemsize))
        if dtype is None or array.ndim not in (1, 2):
            raise ValueError(
                f"cannot encode a {array.ndim}-D {array.dtype} array in an "
                f"event-batch record"
            )
        columns = array.shape[1] if array.ndim == 2 else 0
        parts.append(
            _DESCRIPTOR.pack(kind, dtype.itemsize, array.ndim, len(array), columns)
        )
        payloads.append(array.astype(dtype, copy=False).tobytes())
    return b"".join(parts + payloads)


def decode_event_batch(data: bytes) -> EventBatch:
    """Reconstruct the :class:`EventBatch` serialized by :func:`encode_event_batch`.

    The arrays are read-only views of ``data`` (of a copy, when ``data`` is
    a mutable buffer).  Bytes that are not such a record raise
    ``ValueError``; every count and shape is checked against the record's
    length before any array is read.  A record of another encoding version
    raises :class:`~repro.exceptions.SnapshotVersionError`.
    """
    data = bytes(data)  # no copy for bytes, whose views NumPy makes read-only
    if len(data) < _HEADER.size:
        raise ValueError(f"event-batch record of {len(data)} bytes has no header")
    magic, version, flags, num_rows = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ValueError("the bytes are not an event-batch record (bad magic)")
    if version != _ENCODING_VERSION:
        raise SnapshotVersionError(
            f"event-batch record has encoding version {version}; this build "
            f"reads version {_ENCODING_VERSION}"
        )
    if flags & ~_HAS_POINTS:
        raise ValueError(f"event-batch record has unknown flags {flags:#x}")
    has_points = bool(flags & _HAS_POINTS)
    count = len(_ARRAY_FIELDS) + num_rows + has_points
    offset = _HEADER.size + count * _DESCRIPTOR.size
    if offset > len(data):
        raise ValueError(
            f"event-batch record of {len(data)} bytes is too short for the "
            f"descriptors of its {count} arrays"
        )
    specs = []
    end = offset
    for kind, itemsize, ndim, rows, columns in _DESCRIPTOR.iter_unpack(
        memoryview(data)[_HEADER.size : offset]
    ):
        dtype = _NUMERIC.get((kind, itemsize))
        if dtype is None or ndim not in (1, 2):
            raise ValueError(
                f"event-batch record holds an unsupported array: dtype kind "
                f"{kind!r}, itemsize {itemsize}, {ndim} dimensions"
            )
        shape = (rows,) if ndim == 1 else (rows, columns)
        size = math.prod(shape)
        specs.append((dtype, shape, size))
        end += size * itemsize
    if end != len(data):
        raise ValueError(
            f"event-batch record of {len(data)} bytes disagrees with the shapes "
            f"of its arrays ({end} bytes)"
        )
    arrays = []
    for dtype, shape, size in specs:
        arrays.append(np.frombuffer(data, dtype, size, offset).reshape(shape))
        offset += size * dtype.itemsize
    insert_rows = arrays[len(_ARRAY_FIELDS) : len(_ARRAY_FIELDS) + num_rows]
    return EventBatch(
        insert_distances=tuple(insert_rows),
        insert_points=arrays[-1] if has_points else None,
        **dict(zip(_ARRAY_FIELDS, arrays)),
    )
