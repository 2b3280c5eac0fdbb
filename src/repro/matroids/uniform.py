"""Uniform matroids (cardinality constraints).

``S`` is independent iff ``|S| <= p``.  The cardinality-constrained problem of
Section 4 is exactly max-sum diversification over a uniform matroid.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.matroids.base import Matroid


class UniformMatroid(Matroid):
    """The uniform matroid ``U_{p,n}``: independent sets are those of size ≤ p."""

    def __init__(self, n: int, p: int) -> None:
        if n < 0:
            raise InvalidParameterError("n must be non-negative")
        if p < 0:
            raise InvalidParameterError("p must be non-negative")
        self._n = int(n)
        self._p = int(min(p, n))

    @property
    def n(self) -> int:
        return self._n

    @property
    def p(self) -> int:
        """The cardinality bound (clamped to ``n``)."""
        return self._p

    def is_independent(self, subset: Iterable[Element]) -> bool:
        members = set(subset)
        if any(e < 0 or e >= self._n for e in members):
            return False
        return len(members) <= self._p

    def rank(self, subset: Optional[Iterable[Element]] = None) -> int:
        if subset is None:
            return self._p
        return min(len(set(subset)), self._p)

    def swap_candidates(
        self, basis: Iterable[Element], incoming: Element
    ) -> Iterator[Element]:
        members = frozenset(basis)
        if incoming in members:
            return
        # Any member can leave: cardinality is preserved by a 1-for-1 swap.
        yield from members

    def swap_feasibility(
        self,
        basis: Iterable[Element],
        incoming: np.ndarray,
        outgoing: np.ndarray,
    ) -> np.ndarray:
        # Every 1-for-1 swap preserves cardinality, hence independence.
        return np.ones((len(incoming), len(outgoing)), dtype=bool)

    def pair_feasibility_mask(self) -> np.ndarray:
        feasible = self._p >= 2
        return np.full((self._n, self._n), feasible, dtype=bool)

    def _restrict(self, pool: np.ndarray) -> "UniformMatroid":
        """Restriction of ``U_{p,n}`` to a pool of size ``k`` is ``U_{min(p,k),k}``."""
        return UniformMatroid(pool.size, min(self._p, pool.size))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"UniformMatroid(n={self._n}, p={self._p})"
