"""Coarse-valued dynamic instances and random Section 6 perturbations.

Shared by the dynamic-engine and update-rule tests.  Weights lie in
{0.00 … 10.00} and distances in [1, 2], rounded to 2 decimals, so true swap
gains are either exactly zero or at least ~1e-3 — far beyond the 1e-9 gain
tolerance — and a zero-gain swap computes as rounding noise of either sign.
"""

from __future__ import annotations

import numpy as np

from repro.dynamic.engine import DynamicDiversifier
from repro.dynamic.events import EventBatchBuilder
from repro.dynamic.perturbation import (
    DistanceDecrease,
    DistanceIncrease,
    WeightDecrease,
    WeightIncrease,
)


def coarse_instance(n: int, seed: int):
    """``(weights, distances)`` of a coarse-valued random instance."""
    rng = np.random.default_rng(seed)
    weights = np.round(rng.uniform(0, 10, n), 2)
    distances = np.round(rng.uniform(1, 2, (n, n)), 2)
    distances = (distances + distances.T) / 2
    np.fill_diagonal(distances, 0.0)
    return weights, distances


def random_perturbation(engine, rng):
    """One random Type I–IV perturbation, valid against ``engine``'s state."""
    kind = rng.integers(0, 4)
    if kind == 0:
        return WeightIncrease(
            int(rng.integers(engine.n)), round(float(rng.uniform(0.1, 2)), 2)
        )
    if kind == 1:
        element = int(rng.integers(engine.n))
        current = engine.weight(element)
        if current < 0.05:
            return WeightIncrease(element, 0.5)
        return WeightDecrease(element, round(min(current * 0.5, 1.0), 3))
    u, v = map(int, rng.choice(engine.n, size=2, replace=False))
    if kind == 2:
        return DistanceIncrease(u, v, round(float(rng.uniform(0.01, 0.2)), 2))
    current = engine.distance(u, v)
    if current < 0.05:
        return DistanceIncrease(u, v, 0.1)
    return DistanceDecrease(u, v, round(min(current * 0.25, 0.2), 2))


def budget_tick(n: int, seed: int, p: int = 4):
    """One ten-event tick with a ``5·p`` swap budget; ``(engine, outcome)``.

    The events are generated against a sequentially-updated twin: repeated
    decreases on one element must see each other, or their batched sum can
    push a weight below zero and the tick correctly rejects it.
    """
    weights, distances = coarse_instance(n, seed)
    engine = DynamicDiversifier(weights, distances, p)
    shadow = DynamicDiversifier(weights, distances, p)
    rng = np.random.default_rng(seed + 4)
    builder = EventBatchBuilder()
    for _ in range(10):
        perturbation = random_perturbation(shadow, rng)
        builder.add(perturbation)
        shadow.apply(perturbation)
    return engine, engine.apply_events(builder.build(), updates=5 * p)
