"""Abstract matroid interface.

A matroid ``M = (U, F)`` is defined by its independence oracle.  The local
search algorithm of Section 5 only needs:

* :meth:`Matroid.is_independent` — the oracle itself,
* :meth:`Matroid.extend_to_basis` — grow a set into a basis (used to build the
  initial solution containing the best pair ``{x, y}``),
* :meth:`Matroid.swap_candidates` — which single swaps keep a basis feasible.

Default implementations derive everything from the oracle; concrete families
override them when a direct formula is faster.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations
from typing import FrozenSet, Iterable, Iterator, List, Optional, Set

import numpy as np

from repro._types import Element
from repro.exceptions import InfeasibleError, MatroidError, NotIndependentError
from repro.utils.validation import check_candidate_pool


class Matroid(ABC):
    """A matroid over the ground set ``{0, ..., n-1}``."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of ground-set elements."""

    @abstractmethod
    def is_independent(self, subset: Iterable[Element]) -> bool:
        """Return ``True`` when the subset is independent."""

    # ------------------------------------------------------------------
    # Derived operations
    # ------------------------------------------------------------------
    def rank(self, subset: Optional[Iterable[Element]] = None) -> int:
        """Return the rank of ``subset`` (or of the whole matroid).

        The generic implementation greedily grows an independent set inside
        ``subset`` using only the independence oracle, which is correct for
        every matroid by the augmentation property.
        """
        universe = (
            list(range(self.n)) if subset is None else list(dict.fromkeys(subset))
        )
        independent: Set[Element] = set()
        for element in universe:
            candidate = independent | {element}
            if self.is_independent(candidate):
                independent = candidate
        return len(independent)

    def extend_to_basis(
        self,
        subset: Iterable[Element],
        *,
        preference: Optional[Iterable[Element]] = None,
    ) -> FrozenSet[Element]:
        """Extend an independent set to a basis of the matroid.

        Parameters
        ----------
        subset:
            An independent set to extend.  Raises
            :class:`~repro.exceptions.NotIndependentError` otherwise.
        preference:
            Optional element ordering; earlier elements are tried first, so a
            caller can bias the completion (e.g. by quality).
        """
        current: Set[Element] = set(subset)
        if not self.is_independent(current):
            raise NotIndependentError(
                f"cannot extend a dependent set to a basis: {sorted(current)}"
            )
        order = list(preference) if preference is not None else list(range(self.n))
        for element in order:
            if element in current:
                continue
            candidate = current | {element}
            if self.is_independent(candidate):
                current = candidate
        return frozenset(current)

    def a_basis(self) -> FrozenSet[Element]:
        """Return an arbitrary basis."""
        return self.extend_to_basis(frozenset())

    def is_basis(self, subset: Iterable[Element]) -> bool:
        """Return ``True`` when ``subset`` is a maximal independent set."""
        members = set(subset)
        if not self.is_independent(members):
            return False
        for element in range(self.n):
            if element in members:
                continue
            if self.is_independent(members | {element}):
                return False
        return True

    def swap_candidates(
        self, basis: Iterable[Element], incoming: Element
    ) -> Iterator[Element]:
        """Yield the elements ``v`` in ``basis`` with ``basis - v + incoming`` independent.

        This is the feasibility hook the single-swap local search uses.  The
        generic implementation queries the oracle once per member.
        """
        members = frozenset(basis)
        if incoming in members:
            return
        for outgoing in members:
            if self.is_independent((members - {outgoing}) | {incoming}):
                yield outgoing

    # ------------------------------------------------------------------
    # Feasibility masks (read by the scans in repro.core.kernels)
    # ------------------------------------------------------------------
    def swap_feasibility(
        self,
        basis: Iterable[Element],
        incoming: np.ndarray,
        outgoing: np.ndarray,
    ) -> np.ndarray:
        """Array counterpart of :meth:`swap_candidates`.

        Returns a boolean array of shape ``(len(incoming), len(outgoing))``
        whose ``(i, j)`` entry says whether ``basis - outgoing[j] +
        incoming[i]`` is independent.  All ``incoming`` elements must lie
        outside ``basis`` and all ``outgoing`` elements inside it.  The
        default asks :meth:`swap_candidates` once per incoming element;
        families with a closed-form rule override it.
        """
        members = frozenset(basis)
        column = {int(v): j for j, v in enumerate(outgoing)}
        mask = np.zeros((len(incoming), len(outgoing)), dtype=bool)
        for i, u in enumerate(incoming):
            for v in self.swap_candidates(members, int(u)):
                j = column.get(v)
                if j is not None:
                    mask[i, j] = True
        return mask

    def pair_feasibility_mask(self) -> np.ndarray:
        """Boolean ``n x n`` mask of independent pairs.

        ``mask[x, y]`` says whether ``{x, y}`` (``x != y``) is independent.
        The default asks :meth:`is_independent` once per unordered pair;
        families with a closed-form rule override it.
        """
        mask = np.zeros((self.n, self.n), dtype=bool)
        for x in range(self.n):
            for y in range(x + 1, self.n):
                if self.is_independent((x, y)):
                    mask[x, y] = mask[y, x] = True
        return mask

    def restrict(self, elements: Iterable[Element]) -> "Matroid":
        """Return this matroid restricted to ``elements``, re-indexed from 0.

        Matroids are closed under restriction, so the result is again a
        matroid; local element ``i`` is the ``i``-th entry of ``elements``
        (deduplicated, first-seen order), checked here and handed to
        :meth:`_restrict`.  The default wraps the independence oracle with an
        index mapping; families whose restriction has a direct representation
        override it (uniform → uniform, partition → partition, truncation →
        truncation of the restricted inner matroid).
        """
        return self._restrict(check_candidate_pool(elements, self.n))

    def _restrict(self, pool: np.ndarray) -> "Matroid":
        """:meth:`restrict` on a checked pool (the hook families override)."""
        from repro.matroids.restriction import RestrictedMatroid

        return RestrictedMatroid(self, pool)

    def bases(self, *, limit: Optional[int] = None) -> Iterator[FrozenSet[Element]]:
        """Enumerate bases (exponential; intended for small test instances)."""
        r = self.rank()
        count = 0
        for combo in combinations(range(self.n), r):
            candidate = frozenset(combo)
            if self.is_independent(candidate):
                yield candidate
                count += 1
                if limit is not None and count >= limit:
                    return

    def independent_sets(
        self, *, max_size: Optional[int] = None, limit: Optional[int] = None
    ) -> Iterator[FrozenSet[Element]]:
        """Enumerate independent sets up to ``max_size`` (small instances only)."""
        top = self.rank() if max_size is None else min(max_size, self.n)
        count = 0
        for size in range(top + 1):
            for combo in combinations(range(self.n), size):
                candidate = frozenset(combo)
                if self.is_independent(candidate):
                    yield candidate
                    count += 1
                    if limit is not None and count >= limit:
                        return

    # ------------------------------------------------------------------
    # Axiom checks (used by property tests and by user-defined matroids)
    # ------------------------------------------------------------------
    def check_axioms(self, *, max_size: Optional[int] = None) -> None:
        """Exhaustively verify the hereditary and augmentation axioms.

        Exponential in ``n``; intended for ground sets of at most ~10 elements
        in tests.  Raises :class:`~repro.exceptions.MatroidError` on failure.
        """
        if not self.is_independent(frozenset()):
            raise MatroidError("the empty set must be independent")
        independents: List[FrozenSet[Element]] = list(
            self.independent_sets(max_size=max_size)
        )
        independent_set = set(independents)
        for subset in independents:
            for element in subset:
                if frozenset(subset - {element}) not in independent_set:
                    raise MatroidError(
                        f"hereditary axiom fails: {sorted(subset)} is independent but "
                        f"{sorted(subset - {element})} is not"
                    )
        for bigger in independents:
            for smaller in independents:
                if len(bigger) <= len(smaller):
                    continue
                if any(
                    frozenset(smaller | {element}) in independent_set
                    for element in bigger - smaller
                ):
                    continue
                raise MatroidError(
                    f"augmentation axiom fails for A={sorted(bigger)}, B={sorted(smaller)}"
                )

    def require_rank_at_least(self, minimum: int) -> None:
        """Raise :class:`InfeasibleError` unless the matroid rank is at least ``minimum``."""
        if self.rank() < minimum:
            raise InfeasibleError(
                f"matroid rank {self.rank()} is below the required minimum {minimum}"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(n={self.n})"

