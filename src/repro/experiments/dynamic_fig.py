"""Reproduction of Figure 1: approximation ratio under dynamic updates.

For each λ and each perturbation environment (V / E / M), start from the
greedy 2-approximation on a synthetic instance, run a fixed number of
perturbation + single-oblivious-update steps, repeat several times, and
record the worst approximation ratio observed.  The paper's observations to
reproduce:

1. the maintained ratio stays well below the provable bound of 3 (worst
   observed ≈ 1.11), and
2. the worst ratio decreases towards 1 as λ grows beyond ≈ 0.6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.data.synthetic import make_synthetic_instance
from repro.dynamic.simulation import Environment, worst_ratio_curve
from repro.experiments.reporting import format_table
from repro.utils.rng import SeedLike, derive_seed

#: λ grid used by the paper's Figure 1 (x axis).
DEFAULT_TRADEOFFS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass
class Figure1Result:
    """The three worst-ratio curves of Figure 1."""

    tradeoffs: Sequence[float]
    curves: Dict[str, Dict[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        """Aligned text rendering: one row per λ, one column per environment."""
        headers = ["lambda"] + list(self.curves)
        rows: List[List[object]] = []
        for tradeoff in self.tradeoffs:
            rows.append(
                [tradeoff] + [self.curves[name].get(tradeoff) for name in self.curves]
            )
        return format_table(
            headers, rows, title="Figure 1: worst ratio under dynamic updates"
        )

    def worst_overall(self) -> float:
        """The single worst ratio across all environments and λ values."""
        return max(
            (ratio for curve in self.curves.values() for ratio in curve.values()),
            default=1.0,
        )


def figure1(
    *,
    n: int = 20,
    p: int = 5,
    tradeoffs: Sequence[float] = DEFAULT_TRADEOFFS,
    steps: int = 20,
    repeats: int = 100,
    environments: Sequence[Environment] = (
        Environment.VPERTURBATION,
        Environment.EPERTURBATION,
        Environment.MPERTURBATION,
    ),
    seed: SeedLike = 2019,
) -> Figure1Result:
    """Reproduce Figure 1's worst-approximation-ratio curves.

    The ratio computation is exact (brute force / branch-and-bound), so the
    defaults use a smaller universe than Section 7.1's N = 50 to keep the
    per-step optimum affordable; the qualitative shape (ratio well below 3,
    decreasing in λ) is unchanged.  Pass ``n=50`` to match the paper exactly
    at a higher cost.
    """
    instance = make_synthetic_instance(n, seed=derive_seed(seed, 0))
    result = Figure1Result(tradeoffs=tuple(tradeoffs))
    for index, environment in enumerate(environments):
        curve = worst_ratio_curve(
            instance.weights,
            instance.distances,
            p,
            tradeoffs,
            environment,
            steps=steps,
            repeats=repeats,
            seed=derive_seed(seed, index + 1),
        )
        result.curves[environment.value] = curve
    return result
