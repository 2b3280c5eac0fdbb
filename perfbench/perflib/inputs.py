"""Seeded workload inputs, generated with NumPy only.

Nothing here calls the library's own data generators, so a change to those
cannot change a workload.  Every stream is ``np.random.default_rng([seed,
stream, ...])``: the same seed always yields the same arrays, and each phase
or instance draws from its own stream, so changing one phase's length leaves
the others' inputs untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

# Stream ids (second entry of the seed sequence).
_CORPUS, _CATALOG, _PHASE, _SCHEDULE = 1, 2, 10, 11
_UNIVERSE, _TICKS = 20, 21
_SUBMODULAR, _MODULAR = 30, 40


def rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), *stream])


def zipf_probabilities(count: int, exponent: float) -> np.ndarray:
    """``P(rank k) ∝ 1 / k**exponent`` over ranks ``1..count``."""
    weights = 1.0 / np.arange(1, count + 1, dtype=float) ** exponent
    return weights / weights.sum()


def poisson_schedule(
    gen: np.random.Generator, rate: float, duration: float
) -> np.ndarray:
    """Due times (seconds from phase start) of a Poisson process."""
    expected = rate * duration
    size = int(expected + 8 * np.sqrt(expected) + 16)
    times = np.cumsum(gen.exponential(1.0 / rate, size=size))
    while times[-1] < duration:
        more = gen.exponential(1.0 / rate, size=times.size)
        times = np.concatenate([times, times[-1] + np.cumsum(more)])
    return times[times < duration]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
@dataclass
class ServeQueries:
    """One segment's requests: due times (``None`` for a closed loop), pools,
    per-query weights and which requests carry them."""

    name: str
    due: Optional[np.ndarray]
    pools: np.ndarray  # (m, pool) int64
    weights: np.ndarray  # (m, pool) float64
    weighted: np.ndarray  # (m,) bool
    duration: float = 0.0

    @property
    def count(self) -> int:
        return int(self.pools.shape[0])


@dataclass
class ServeInputs:
    points: np.ndarray
    weights: np.ndarray
    catalog: np.ndarray
    phases: List[ServeQueries]


def serve_queries(
    seed: int,
    segment: int,
    name: str,
    count: int,
    catalog: np.ndarray,
    n: int,
    *,
    hot_share: float,
    weighted_share: float,
    due: Optional[np.ndarray] = None,
    duration: float = 0.0,
) -> ServeQueries:
    """``count`` requests: a ``hot_share`` of them pick a catalog pool by
    Zipf(1) rank, the rest get a fresh pool; ``weighted_share`` carry
    per-query weights."""
    gen = rng(seed, _PHASE, segment)
    entries, pool_size = catalog.shape
    hot = gen.random(count) < hot_share
    ranks = gen.choice(entries, size=count, p=zipf_probabilities(entries, 1.0))
    pools = np.empty((count, pool_size), dtype=np.int64)
    pools[hot] = catalog[ranks[hot]]
    for row in np.flatnonzero(~hot):
        pools[row] = gen.choice(n, size=pool_size, replace=False)
    weighted = gen.random(count) < weighted_share
    weights = gen.uniform(0.0, 1.0, size=(count, pool_size))
    return ServeQueries(name, due, pools, weights, weighted, duration)


def serve_inputs(
    seed: int,
    *,
    n: int,
    dim: int,
    pool_size: int,
    catalog_size: int,
    hot_share: float,
    weighted_share: float,
    segments: List[tuple],
) -> ServeInputs:
    """Corpus, pool catalog and the requests of every segment.

    A segment is ``(phase, rate, duration)`` for an open-loop stretch of a
    phase or ``(phase, None, count)`` for a closed-loop one.
    """
    gen = rng(seed, _CORPUS)
    points = gen.standard_normal((n, dim))
    weights = gen.uniform(0.0, 1.0, size=n)
    cat_gen = rng(seed, _CATALOG)
    catalog = np.stack(
        [cat_gen.choice(n, size=pool_size, replace=False) for _ in range(catalog_size)]
    ).astype(np.int64)
    phases = []
    for index, (name, rate, size) in enumerate(segments):
        if rate is None:
            count, due, duration = int(size), None, 0.0
        else:
            due = poisson_schedule(rng(seed, _SCHEDULE, index), rate, size)
            count, duration = due.size, float(size)
        phases.append(
            serve_queries(
                seed,
                index,
                name,
                count,
                catalog,
                n,
                hot_share=hot_share,
                weighted_share=weighted_share,
                due=due,
                duration=duration,
            )
        )
    return ServeInputs(points, weights, catalog, phases)


# ----------------------------------------------------------------------
# ingest / recover
# ----------------------------------------------------------------------
@dataclass
class Tick:
    """One tick's event content; deletes are resolved while the stream runs
    (a burst deletes the slots the previous burst's inserts landed in)."""

    weight_elements: np.ndarray
    weight_values: np.ndarray
    distance_pairs: np.ndarray  # (m, 2), u != v
    distance_values: np.ndarray
    insert_points: np.ndarray  # (k, dim)
    insert_weights: np.ndarray
    burst: bool


def universe(seed: int, n: int, dim: int) -> tuple:
    gen = rng(seed, _UNIVERSE)
    points = gen.standard_normal((n, dim))
    weights = gen.uniform(0.5, 2.0, size=n)
    return points, weights


def _events(gen, lo: np.ndarray, hi: np.ndarray, count: int, distance_share: float):
    """``count`` events on elements drawn from the ranges ``[lo[i], hi[i])``:
    weight sets, and with probability ``distance_share`` distance sets to a
    partner in the same range."""
    spans = hi - lo
    which = gen.integers(0, spans.size, size=count)
    elements = lo[which] + (gen.random(count) * spans[which]).astype(np.int64)
    is_distance = gen.random(count) < distance_share
    w_elems = elements[~is_distance]
    w_vals = gen.uniform(0.5, 2.0, size=w_elems.size)
    d_u = elements[is_distance]
    d_lo, d_span = lo[which[is_distance]], spans[which[is_distance]]
    # Shift by 1..span-1 within the range, so the partner never equals u.
    shift = 1 + (gen.random(d_u.size) * (d_span - 1)).astype(np.int64)
    d_v = d_lo + (d_u - d_lo + shift) % d_span
    d_pairs = np.stack([d_u, d_v], axis=1)
    d_vals = gen.uniform(2.0, 6.0, size=d_u.size)
    return w_elems, w_vals, d_pairs, d_vals


def tick_stream(
    seed: int,
    ticks: int,
    *,
    n: int,
    dim: int,
    shard_size: int,
    burst_every: int,
    burst_events: int,
    burst_shards: int,
    burst_inserts: int,
    small_max: int,
    shard_exponent: float,
    distance_share: float,
) -> List[Tick]:
    """The fixed tick sequence: small one-shard ticks with Zipf-drawn shards,
    and every ``burst_every``-th tick a multi-shard burst with inserts."""
    gen = rng(seed, _TICKS)
    shards = -(-n // shard_size)
    lo = np.arange(shards) * shard_size
    hi = np.minimum(lo + shard_size, n)
    # Rank k is shard k - 1 on every seed, so the hottest shard (and how many
    # overrides pile up on it) does not change from one seed to the next.
    probs = zipf_probabilities(shards, shard_exponent)
    out = []
    for t in range(ticks):
        burst = (t + 1) % burst_every == 0
        if burst:
            chosen = gen.choice(shards, size=burst_shards, replace=False)
            events = _events(gen, lo[chosen], hi[chosen], burst_events, distance_share)
            points = gen.standard_normal((burst_inserts, dim))
            insert_weights = gen.uniform(0.5, 2.0, size=burst_inserts)
        else:
            shard = [int(gen.choice(shards, p=probs))]
            count = int(gen.integers(1, small_max + 1))
            events = _events(gen, lo[shard], hi[shard], count, distance_share)
            points = np.zeros((0, dim))
            insert_weights = np.zeros(0)
        out.append(Tick(*events, points, insert_weights, burst))
    return out


# ----------------------------------------------------------------------
# matroid
# ----------------------------------------------------------------------
@dataclass
class SubmodularInstance:
    distances: np.ndarray  # (n, n)
    districts: np.ndarray  # (n,) labels
    capacity: int


@dataclass
class ModularInstance:
    points: np.ndarray
    weights: np.ndarray
    blocks: np.ndarray
    capacity: int


def submodular_instance(
    seed: int, k: int, *, n: int, grid: tuple, capacity: int
) -> SubmodularInstance:
    """Sites in the unit square; districts are the cells of a ``grid``."""
    gen = rng(seed, _SUBMODULAR, k)
    sites = gen.random((n, 2))
    diff = sites[:, None, :] - sites[None, :, :]
    distances = np.sqrt((diff * diff).sum(axis=-1))
    cols, rows = grid
    col = np.minimum((sites[:, 0] * cols).astype(int), cols - 1)
    row = np.minimum((sites[:, 1] * rows).astype(int), rows - 1)
    return SubmodularInstance(distances, row * cols + col, capacity)


def modular_instance(
    seed: int, k: int, *, n: int, dim: int, blocks: int, capacity: int
) -> ModularInstance:
    """Gaussian points with uniform weights in equal-sized random blocks."""
    gen = rng(seed, _MODULAR, k)
    points = gen.standard_normal((n, dim))
    weights = gen.uniform(0.0, 1.0, size=n)
    labels = gen.permutation(np.repeat(np.arange(blocks), -(-n // blocks))[:n])
    return ModularInstance(points, weights, labels, capacity)
