"""Restriction of a matroid to a sub-universe.

Matroids are closed under restriction (deletion of the complement), so a
query-scoped candidate pool stays inside the framework of Theorem 2: local
search over the restricted matroid retains its guarantee on the sub-instance.
:class:`RestrictedMatroid` is the generic oracle-based fallback for
:meth:`~repro.matroids.base.Matroid.restrict`; families with a direct
restricted representation (uniform, partition, truncated) override the
``_restrict`` hook and never construct this wrapper.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro._types import Element
from repro.matroids.base import Matroid


class RestrictedMatroid(Matroid):
    """A matroid restricted to a candidate pool, re-indexed from 0.

    Local element ``i`` maps to ``pool[i]`` in the inner matroid's universe,
    where ``pool`` is a checked pool (see :meth:`Matroid.restrict`).
    Independence, swap candidacy and the swap-feasibility mask are delegated
    to the inner matroid after index translation, so a closed-form swap rule
    stays closed-form.  The pair mask uses the base default over the pool's
    own pairs (O(k²) oracle calls), never the inner matroid's O(n²) mask.
    """

    def __init__(self, inner: Matroid, pool: Sequence[Element]) -> None:
        self._inner = inner
        self._global_array = np.asarray(pool, dtype=int)
        self._globals: Tuple[Element, ...] = tuple(self._global_array.tolist())
        self._locals: Dict[Element, Element] = {
            g: i for i, g in enumerate(self._globals)
        }

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def inner(self) -> Matroid:
        """The unrestricted matroid this view delegates to."""
        return self._inner

    @property
    def global_elements(self) -> Tuple[Element, ...]:
        """Local index ``i`` corresponds to ``global_elements[i]``."""
        return self._globals

    # ------------------------------------------------------------------
    # Matroid interface
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._globals)

    def is_independent(self, subset: Iterable[Element]) -> bool:
        members = set(subset)
        if any(e < 0 or e >= self.n for e in members):
            return False
        return self._inner.is_independent(self._globals[e] for e in members)

    def rank(self, subset: Optional[Iterable[Element]] = None) -> int:
        if subset is None:
            return self._inner.rank(self._globals)
        return self._inner.rank(self._globals[e] for e in set(subset))

    def swap_candidates(
        self, basis: Iterable[Element], incoming: Element
    ) -> Iterator[Element]:
        members = frozenset(basis)
        if incoming in members:
            return
        mapped = [self._globals[e] for e in members]
        for outgoing in self._inner.swap_candidates(mapped, self._globals[incoming]):
            yield self._locals[outgoing]

    def swap_feasibility(
        self,
        basis: Iterable[Element],
        incoming: np.ndarray,
        outgoing: np.ndarray,
    ) -> np.ndarray:
        # Index translation preserves the (i, j) alignment, so the inner
        # family's rule (closed-form when it has one) applies verbatim.
        mapped_basis = [self._globals[e] for e in basis]
        return self._inner.swap_feasibility(
            mapped_basis,
            self._global_array[np.asarray(incoming, dtype=int)],
            self._global_array[np.asarray(outgoing, dtype=int)],
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RestrictedMatroid(n={self.n}, "
            f"inner={type(self._inner).__name__}(n={self._inner.n}))"
        )
