"""Partition matroids.

The universe is partitioned into blocks ``S_1, ..., S_m`` with per-block
capacities ``k_1, ..., k_m``; a set is independent iff it takes at most
``k_i`` elements from block ``i``.  The paper uses partition matroids to model
"balance" constraints orthogonal to the distance-based diversity: tuples from
different database fields, stocks from different economic sectors, and the
Appendix's bad instance for the greedy algorithm.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError, NotIndependentError
from repro.matroids.base import Matroid


class PartitionMatroid(Matroid):
    """A partition matroid given by a block label per element and block capacities.

    Parameters
    ----------
    block_of:
        ``block_of[u]`` is the (hashable) label of the block containing ``u``.
    capacities:
        Mapping from block label to its capacity ``k_i >= 0``.  Labels missing
        from the mapping default to capacity 1.
    """

    def __init__(
        self,
        block_of: Sequence,
        capacities: Optional[Mapping] = None,
    ) -> None:
        self._block_of = list(block_of)
        caps: Dict = dict(capacities or {})
        for label, cap in caps.items():
            if cap < 0:
                raise InvalidParameterError(
                    f"capacity of block {label!r} must be non-negative, got {cap}"
                )
        self._capacities = caps
        self._block_sizes = Counter(self._block_of)
        # Integer block codes + per-element capacities for the vectorized
        # feasibility hooks (labels may be arbitrary hashables).
        label_code = {
            label: code for code, label in enumerate(dict.fromkeys(self._block_of))
        }
        self._num_blocks = len(label_code)
        self._codes = np.array(
            [label_code[label] for label in self._block_of], dtype=int
        )
        self._element_capacity = np.array(
            [self.capacity(label) for label in self._block_of], dtype=int
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._block_of)

    def block(self, element: Element) -> object:
        """Return the block label of ``element``."""
        return self._block_of[element]

    def capacity(self, label) -> int:
        """Return the capacity of block ``label`` (default 1)."""
        return int(self._capacities.get(label, 1))

    @property
    def blocks(self) -> Sequence:
        """The distinct block labels in first-appearance order."""
        return tuple(dict.fromkeys(self._block_of))

    # ------------------------------------------------------------------
    # Matroid interface
    # ------------------------------------------------------------------
    def is_independent(self, subset: Iterable[Element]) -> bool:
        members = set(subset)
        if any(e < 0 or e >= self.n for e in members):
            return False
        usage = Counter(self._block_of[e] for e in members)
        return all(count <= self.capacity(label) for label, count in usage.items())

    def extend_to_basis(
        self,
        subset: Iterable[Element],
        *,
        preference: Optional[Iterable[Element]] = None,
    ) -> FrozenSet[Element]:
        """The base greedy extension in closed form: one walk of the preference.

        Each block's remaining room is counted once, and a preferred element
        joins while its block has room, which is what the base loop's
        ``is_independent`` calls decide.  Out-of-range and repeated entries
        are skipped, as there.
        """
        current = set(subset)
        if not self.is_independent(current):
            raise NotIndependentError(
                f"cannot extend a dependent set to a basis: {sorted(current)}"
            )
        codes = self._codes.tolist()
        room = dict(zip(codes, self._element_capacity.tolist()))
        for element in current:
            room[codes[element]] -= 1
        n = self.n
        for element in range(n) if preference is None else preference:
            if element in current or not 0 <= element < n:
                continue
            code = codes[element]
            if room[code] > 0:
                room[code] -= 1
                current.add(element)
        return frozenset(current)

    def rank(self, subset: Optional[Iterable[Element]] = None) -> int:
        if subset is None:
            sizes = self._block_sizes
        else:
            sizes = Counter(self._block_of[e] for e in set(subset))
        return sum(min(count, self.capacity(label)) for label, count in sizes.items())

    def swap_candidates(
        self, basis: Iterable[Element], incoming: Element
    ) -> Iterator[Element]:
        members = frozenset(basis)
        if incoming in members:
            return
        incoming_block = self._block_of[incoming]
        usage = Counter(self._block_of[e] for e in members)
        slack = self.capacity(incoming_block) - usage.get(incoming_block, 0)
        for outgoing in members:
            if slack > 0 or self._block_of[outgoing] == incoming_block:
                yield outgoing

    def swap_feasibility(
        self,
        basis: Iterable[Element],
        incoming: np.ndarray,
        outgoing: np.ndarray,
    ) -> np.ndarray:
        members = list(basis)
        if not members:
            return np.ones((len(incoming), len(outgoing)), dtype=bool)
        usage = np.bincount(self._codes[members], minlength=max(self._num_blocks, 1))
        in_codes = self._codes[incoming]
        slack = self._element_capacity[incoming] - usage[in_codes]
        return (slack[:, None] > 0) | (
            self._codes[outgoing][None, :] == in_codes[:, None]
        )

    def pair_feasibility_mask(self) -> np.ndarray:
        codes = self._codes
        caps = self._element_capacity
        same_block = codes[:, None] == codes[None, :]
        admissible = caps >= 1
        cross = admissible[:, None] & admissible[None, :] & ~same_block
        within = same_block & (caps >= 2)[:, None]
        return cross | within

    def _restrict(self, pool: np.ndarray) -> "PartitionMatroid":
        """Restriction keeps each element's block label and the block capacities."""
        block_of = [self._block_of[e] for e in pool.tolist()]
        capacities = {label: self.capacity(label) for label in set(block_of)}
        return PartitionMatroid(block_of, capacities)

    @classmethod
    def uniform_blocks(cls, sizes: Sequence[int], capacities: Sequence[int]
                       ) -> "PartitionMatroid":
        """Build a partition matroid from consecutive blocks of given sizes."""
        if len(sizes) != len(capacities):
            raise InvalidParameterError("sizes and capacities must have equal length")
        block_of = []
        for label, size in enumerate(sizes):
            if size < 0:
                raise InvalidParameterError("block sizes must be non-negative")
            block_of.extend([label] * size)
        caps = {label: cap for label, cap in enumerate(capacities)}
        return cls(block_of, caps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PartitionMatroid(n={self.n}, blocks={len(self.blocks)}, "
            f"rank={self.rank()})"
        )
