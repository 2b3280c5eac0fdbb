"""Stock-portfolio scenario generator.

The paper motivates the matroid generalization with portfolio selection: pick
stocks with high (submodular) utility for profit, keep them spread out in a
risk/return embedding (the dispersion term), and use a partition matroid to
guarantee every economic sector is represented with bounded multiplicity.
This generator produces such instances for the example scripts and the
matroid benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.core.objective import Objective
from repro.exceptions import InvalidParameterError
from repro.functions.facility_location import FacilityLocationFunction
from repro.functions.mixtures import MixtureFunction, ScaledFunction
from repro.functions.modular import ModularFunction
from repro.matroids.partition import PartitionMatroid
from repro.metrics.euclidean import EuclideanMetric
from repro.utils.rng import SeedLike, make_rng

#: Default sector names used when none are supplied.
DEFAULT_SECTORS = (
    "technology",
    "financials",
    "healthcare",
    "energy",
    "consumer",
    "industrials",
)


@dataclass(frozen=True)
class PortfolioInstance:
    """A generated stock-selection instance.

    Attributes
    ----------
    expected_returns:
        Per-stock expected return (drives the modular part of the utility).
    risk_return:
        ``(n, 2)`` embedding (annualized volatility, expected return) used for
        the dispersion metric.
    sectors:
        Sector label of each stock.
    sector_capacity:
        Maximum number of stocks allowed per sector.
    tradeoff:
        λ for the combined objective.
    """

    expected_returns: np.ndarray
    risk_return: np.ndarray
    sectors: Tuple[str, ...]
    sector_capacity: int
    tradeoff: float

    @property
    def n(self) -> int:
        """Number of stocks."""
        return self.expected_returns.shape[0]

    @property
    def metric(self) -> EuclideanMetric:
        """Euclidean distance in the risk/return plane."""
        return EuclideanMetric(self.risk_return)

    @property
    def quality(self) -> MixtureFunction:
        """A monotone submodular utility: returns + diminishing sector coverage.

        The mixture combines the modular expected-return term with a
        facility-location term over return similarity, modeling a user whose
        marginal utility for yet another similar stock decreases.
        """
        modular = ModularFunction(np.maximum(self.expected_returns, 0.0))
        similarity = np.exp(
            -np.abs(self.expected_returns[:, None] - self.expected_returns[None, :])
        )
        facility = FacilityLocationFunction(similarity)
        return MixtureFunction(
            [modular, ScaledFunction(facility, 1.0 / max(self.n, 1))], [1.0, 1.0]
        )

    @property
    def matroid(self) -> PartitionMatroid:
        """Partition matroid: at most ``sector_capacity`` stocks per sector."""
        capacities = {sector: self.sector_capacity for sector in set(self.sectors)}
        return PartitionMatroid(list(self.sectors), capacities)

    @property
    def objective(self) -> Objective:
        """The assembled objective."""
        return Objective(self.quality, self.metric, self.tradeoff)


def make_portfolio_instance(
    n: int,
    *,
    sectors: Sequence[str] = DEFAULT_SECTORS,
    sector_capacity: int = 2,
    tradeoff: float = 0.5,
    seed: SeedLike = None,
) -> PortfolioInstance:
    """Generate a portfolio instance with ``n`` stocks.

    Stocks are assigned round-robin-ishly to sectors; each sector has its own
    characteristic risk/return regime so sector structure is visible in the
    embedding.
    """
    if n < 1:
        raise InvalidParameterError("n must be at least 1")
    if sector_capacity < 1:
        raise InvalidParameterError("sector_capacity must be at least 1")
    if not sectors:
        raise InvalidParameterError("need at least one sector")
    rng = make_rng(seed)
    sector_labels = tuple(str(sectors[i % len(sectors)]) for i in range(n))
    # Draw per-sector regimes in first-appearance order: iterating a set of
    # strings would follow the per-process hash seed, not ``seed``.
    present = tuple(dict.fromkeys(sector_labels))
    base_risk = {s: rng.uniform(0.1, 0.4) for s in present}
    base_return = {s: rng.uniform(0.02, 0.12) for s in present}
    risk = np.array(
        [max(rng.normal(base_risk[s], 0.05), 0.01) for s in sector_labels]
    )
    expected = np.array(
        [max(rng.normal(base_return[s], 0.03), 0.0) for s in sector_labels]
    )
    risk_return = np.column_stack([risk, expected])
    return PortfolioInstance(
        expected_returns=expected,
        risk_return=risk_return,
        sectors=sector_labels,
        sector_capacity=int(sector_capacity),
        tradeoff=float(tradeoff),
    )
