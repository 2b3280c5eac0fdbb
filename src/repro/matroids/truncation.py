"""Truncated matroids (intersection with a uniform matroid).

The paper notes that intersecting any matroid with a uniform matroid is again
a matroid, so constraints like "a balanced selection of at most p items" stay
inside the framework of Theorem 2.  :class:`TruncatedMatroid` wraps an inner
matroid and additionally caps the cardinality.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.matroids.base import Matroid


class TruncatedMatroid(Matroid):
    """``S`` is independent iff it is independent in ``inner`` and ``|S| <= p``."""

    def __init__(self, inner: Matroid, p: int) -> None:
        if p < 0:
            raise InvalidParameterError("p must be non-negative")
        self._inner = inner
        self._p = int(p)

    @property
    def n(self) -> int:
        return self._inner.n

    @property
    def p(self) -> int:
        """The cardinality cap."""
        return self._p

    @property
    def inner(self) -> Matroid:
        """The wrapped matroid."""
        return self._inner

    def is_independent(self, subset: Iterable[Element]) -> bool:
        members = set(subset)
        if len(members) > self._p:
            return False
        return self._inner.is_independent(members)

    def rank(self, subset: Optional[Iterable[Element]] = None) -> int:
        return min(self._inner.rank(subset), self._p)

    def swap_candidates(
        self, basis: Iterable[Element], incoming: Element
    ) -> Iterator[Element]:
        members = frozenset(basis)
        if incoming in members:
            return
        # A 1-for-1 swap never changes cardinality, so only the inner matroid
        # constrains which element may leave.
        yield from self._inner.swap_candidates(members, incoming)

    def swap_feasibility(
        self,
        basis: Iterable[Element],
        incoming: np.ndarray,
        outgoing: np.ndarray,
    ) -> np.ndarray:
        return self._inner.swap_feasibility(basis, incoming, outgoing)

    def pair_feasibility_mask(self) -> np.ndarray:
        if self._p < 2:
            return np.zeros((self.n, self.n), dtype=bool)
        return self._inner.pair_feasibility_mask()

    def _restrict(self, pool: np.ndarray) -> "TruncatedMatroid":
        """Restriction commutes with truncation: restrict the inner matroid, keep the cap."""
        return TruncatedMatroid(self._inner._restrict(pool), self._p)
