"""Dynamic-update simulation environments (Section 7.3, Figure 1).

The paper starts from the greedy 2-approximation on the synthetic data of
Section 7.1, then runs 20 perturbation steps in three environments —

* ``VPERTURBATION``: reset a random element's weight uniformly in [0, 1],
* ``EPERTURBATION``: reset a random pair's distance uniformly in [1, 2],
* ``MPERTURBATION``: one of the above with equal probability,

each step followed by a single application of the oblivious update rule.
The experiment repeats 100 times per λ and records the worst approximation
ratio observed; Figure 1 plots that worst ratio against λ.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.control import RunControl
from repro.dynamic.session import DynamicSession
from repro.dynamic.perturbation import (
    DistanceDecrease,
    DistanceIncrease,
    Perturbation,
    WeightDecrease,
    WeightIncrease,
)
from repro.exceptions import InvalidParameterError
from repro.utils.rng import SeedLike, make_rng, spawn_rngs


class Environment(str, Enum):
    """The three dynamically changing environments of Section 7.3."""

    VPERTURBATION = "VPERTURBATION"
    EPERTURBATION = "EPERTURBATION"
    MPERTURBATION = "MPERTURBATION"


@dataclass(frozen=True)
class SimulationRecord:
    """Outcome of one simulated run (a sequence of perturbation + update steps).

    Attributes
    ----------
    environment:
        Which perturbation environment generated the run.
    tradeoff:
        The λ used.
    ratios:
        Approximation ratio after each step (``OPT / φ(S)``).
    worst_ratio:
        The maximum of ``ratios`` (what Figure 1 reports).
    """

    environment: Environment
    tradeoff: float
    ratios: Tuple[float, ...]
    worst_ratio: float


def _random_weight_perturbation(
    engine: DynamicSession, rng: np.random.Generator
) -> Optional[Perturbation]:
    """Reset a random element's weight to a fresh U[0, 1] draw (Type I or II)."""
    element = int(rng.integers(0, engine.n))
    new_weight = float(rng.uniform(0.0, 1.0))
    current = engine.weight(element)
    delta = new_weight - current
    if delta > 1e-12:
        return WeightIncrease(element, delta)
    if delta < -1e-12:
        return WeightDecrease(element, -delta)
    return None


def _random_distance_perturbation(
    engine: DynamicSession,
    rng: np.random.Generator,
    *,
    low: float = 1.0,
    high: float = 2.0,
) -> Optional[Perturbation]:
    """Reset a random pair's distance to a fresh U[low, high] draw (Type III or IV)."""
    u, v = map(int, rng.choice(engine.n, size=2, replace=False))
    new_distance = float(rng.uniform(low, high))
    current = engine.distance(u, v)
    delta = new_distance - current
    if delta > 1e-12:
        return DistanceIncrease(u, v, delta)
    if delta < -1e-12:
        return DistanceDecrease(u, v, -delta)
    return None


def _draw_perturbation(
    environment: Environment,
    engine: DynamicSession,
    rng: np.random.Generator,
    *,
    distance_low: float,
    distance_high: float,
) -> Optional[Perturbation]:
    if environment is Environment.VPERTURBATION:
        return _random_weight_perturbation(engine, rng)
    if environment is Environment.EPERTURBATION:
        return _random_distance_perturbation(
            engine, rng, low=distance_low, high=distance_high
        )
    if environment is Environment.MPERTURBATION:
        if rng.uniform() < 0.5:
            return _random_weight_perturbation(engine, rng)
        return _random_distance_perturbation(
            engine, rng, low=distance_low, high=distance_high
        )
    raise InvalidParameterError(f"unknown environment {environment!r}")


def run_dynamic_simulation(
    weights: np.ndarray,
    distances: np.ndarray,
    p: int,
    tradeoff: float,
    environment: Environment,
    *,
    steps: int = 20,
    seed: SeedLike = None,
    track_ratio: bool = True,
    distance_low: float = 1.0,
    distance_high: float = 2.0,
    control: Optional[RunControl] = None,
) -> SimulationRecord:
    """Run one perturbation/update trajectory and track approximation ratios.

    The trajectory drives a dense :class:`~repro.dynamic.session.DynamicSession`
    — the same facade the batched experiments and the fault harness use — so
    the simulated update rule is exactly the engine everything else runs.
    ``track_ratio=True`` computes the exact optimum after every step, which is
    exponential in ``p`` — keep ``n`` and ``p`` small (the paper uses the
    synthetic N=50-style instances).  ``control`` configures the session:
    pickle-safe engine snapshots every ``checkpoint_every`` steps.
    """
    if steps < 0:
        raise InvalidParameterError("steps must be non-negative")
    rng = make_rng(seed)
    engine = DynamicSession(
        np.asarray(weights, dtype=float),
        p,
        distances=np.asarray(distances, dtype=float),
        tradeoff=tradeoff,
        control=control,
    )
    ratios: List[float] = []
    for _ in range(steps):
        perturbation = _draw_perturbation(
            environment,
            engine,
            rng,
            distance_low=distance_low,
            distance_high=distance_high,
        )
        if perturbation is None:
            # The re-drawn value coincided with the current one; no change.
            if track_ratio:
                ratios.append(engine.approximation_ratio())
            continue
        engine.apply(perturbation, updates=1)
        if track_ratio:
            ratios.append(engine.approximation_ratio())
    worst = max(ratios) if ratios else 1.0
    return SimulationRecord(
        environment=environment,
        tradeoff=tradeoff,
        ratios=tuple(ratios),
        worst_ratio=worst,
    )


def worst_ratio_curve(
    weights: np.ndarray,
    distances: np.ndarray,
    p: int,
    tradeoffs: Sequence[float],
    environment: Environment,
    *,
    steps: int = 20,
    repeats: int = 100,
    seed: SeedLike = None,
) -> Dict[float, float]:
    """Reproduce one curve of Figure 1: worst ratio over repeats, per λ.

    Returns a mapping λ → worst approximation ratio observed across all
    ``repeats`` independent runs of ``steps`` perturbations each.
    """
    if repeats < 1:
        raise InvalidParameterError("repeats must be at least 1")
    curve: Dict[float, float] = {}
    for tradeoff in tradeoffs:
        rngs = spawn_rngs(seed, repeats)
        worst = 1.0
        for run_rng in rngs:
            record = run_dynamic_simulation(
                weights,
                distances,
                p,
                tradeoff,
                environment,
                steps=steps,
                seed=run_rng,
            )
            worst = max(worst, record.worst_ratio)
        curve[float(tradeoff)] = worst
    return curve
