"""Weighted coverage functions.

``f(S) = Σ_{topic t covered by S} weight(t)`` — the canonical monotone
submodular family.  The document-search example uses it to reward covering
many query aspects, the scenario the paper's introduction motivates
(different users expect different facets in the top results).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Iterable, Mapping, Sequence, Set, Tuple

import numpy as np

from repro._types import Element
from repro.exceptions import InvalidParameterError
from repro.functions.base import Candidates, GainState, SetFunction


class _CoverageGainState(GainState):
    """Boolean mask over dense topic ids: ``covered[t]`` iff some member has t."""

    __slots__ = ("covered",)


class CoverageFunction(SetFunction):
    """Weighted set coverage.

    Parameters
    ----------
    element_topics:
        ``element_topics[u]`` is the collection of topic identifiers element
        ``u`` covers.
    topic_weights:
        Optional mapping from topic identifier to a non-negative weight.
        Topics absent from the mapping default to weight 1.
    """

    def __init__(
        self,
        element_topics: Sequence[Iterable[int]],
        topic_weights: Mapping[int, float] | None = None,
    ) -> None:
        self._topics = [frozenset(topics) for topics in element_topics]
        weights: Dict[int, float] = dict(topic_weights or {})
        for value in weights.values():
            if value < 0:
                raise InvalidParameterError("topic weights must be non-negative")
        self._weights = weights
        # Dense re-indexing of the (arbitrary) topic identifiers, backing the
        # batched-gains path: topic id -> position in [0, T), per-topic weight
        # array, and the elements' dense topic indices in CSR form (element
        # u's are ``_topic_flat[_topic_offsets[u]:_topic_offsets[u + 1]]``).
        # First-seen dedupe, not sorted(): topic ids are arbitrary hashables
        # and need not be mutually orderable.  Gains are weight sums, so the
        # internal index assignment order never affects results.
        topic_ids = list(
            dict.fromkeys(t for topics in self._topics for t in topics)
        )
        topic_index = {t: i for i, t in enumerate(topic_ids)}
        self._topic_weight_array = np.array(
            [self._weight(t) for t in topic_ids], dtype=float
        )
        topic_lists = [
            sorted(topic_index[t] for t in topics) for topics in self._topics
        ]
        self._topic_offsets = np.cumsum([0] + [len(idx) for idx in topic_lists])
        self._topic_flat = np.fromiter(
            chain.from_iterable(topic_lists), dtype=int, count=self._topic_offsets[-1]
        )
        self._num_topic_ids = len(topic_ids)

    @property
    def n(self) -> int:
        return len(self._topics)

    def topics_of(self, element: Element) -> frozenset:
        """Return the topics covered by ``element``."""
        return self._topics[element]

    def _weight(self, topic: int) -> float:
        return self._weights.get(topic, 1.0)

    def covered_topics(self, subset: Iterable[Element]) -> Set[int]:
        """Return the union of topics covered by the subset."""
        covered: Set[int] = set()
        for element in self._as_set(subset):
            covered |= self._topics[element]
        return covered

    def value(self, subset: Iterable[Element]) -> float:
        return float(sum(self._weight(t) for t in self.covered_topics(subset)))

    def marginal(self, element: Element, subset: Iterable[Element]) -> float:
        members = self._as_set(subset)
        if element in members:
            return 0.0
        covered = self.covered_topics(members)
        gained = self._topics[element] - covered
        return float(sum(self._weight(t) for t in gained))

    # ------------------------------------------------------------------
    # Batched marginal-gain protocol
    # ------------------------------------------------------------------
    def gain_state(self, subset=()) -> _CoverageGainState:
        """O(Σ|topics|) state build: the covered-topic mask of the subset."""
        state = _CoverageGainState(subset)
        positions, _ = self._topic_positions(state.member_indices())
        state.covered = np.zeros(self._num_topic_ids, dtype=bool)
        state.covered[self._topic_flat[positions]] = True
        return state

    def gains(self, candidates: Candidates, state: _CoverageGainState) -> np.ndarray:
        """Batch gains in O(Σ|topics(u)|): the candidates' topic indices are
        gathered from the CSR arrays, each mapped to its weight when still
        uncovered (0 otherwise), and summed per candidate with one
        ``np.bincount``."""
        idx = np.asarray(candidates, dtype=int)
        positions, lengths = self._topic_positions(idx)
        uncovered = np.where(state.covered, 0.0, self._topic_weight_array)
        return np.bincount(
            np.repeat(np.arange(idx.size), lengths),
            weights=uncovered[self._topic_flat[positions]],
            minlength=idx.size,
        ).astype(float, copy=False)

    def push(self, state: _CoverageGainState, element: Element) -> _CoverageGainState:
        """O(|topics(element)|) incremental update of the covered mask."""
        super().push(state, element)
        offsets = self._topic_offsets
        state.covered[self._topic_flat[offsets[element] : offsets[element + 1]]] = True
        return state

    def _topic_positions(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Positions in ``_topic_flat`` of the topics of ``idx``, element by
        element, and each element's topic count."""
        starts = self._topic_offsets[idx]
        lengths = self._topic_offsets[idx + 1] - starts
        ends = np.cumsum(lengths)
        total = int(ends[-1]) if ends.size else 0
        return np.arange(total) + np.repeat(starts - (ends - lengths), lengths), lengths

    @property
    def parallel_safe(self) -> bool:
        return True

    @classmethod
    def random(
        cls,
        n: int,
        num_topics: int,
        *,
        topics_per_element: int = 3,
        seed=None,
    ) -> "CoverageFunction":
        """Generate a random coverage instance (used by tests and benches)."""
        from repro.utils.rng import make_rng

        if n < 0 or num_topics <= 0 or topics_per_element <= 0:
            raise InvalidParameterError("invalid coverage generator parameters")
        rng = make_rng(seed)
        element_topics = [
            rng.choice(
                num_topics, size=min(topics_per_element, num_topics), replace=False
            )
            for _ in range(n)
        ]
        weights = {
            t: float(w) for t, w in enumerate(rng.uniform(0.5, 1.5, size=num_topics))
        }
        return cls([list(map(int, topics)) for topics in element_topics], weights)
