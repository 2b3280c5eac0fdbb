"""Parameter validation helpers shared by algorithms and data generators."""

from __future__ import annotations

import numbers
from typing import Iterable, Optional, Set

import numpy as np

from repro.exceptions import InvalidParameterError, NonFiniteDataError


def check_finite_array(name: str, array: np.ndarray) -> np.ndarray:
    """Raise :class:`NonFiniteDataError` if ``array`` holds NaN or ±inf.

    The single finiteness gate shared by the metric and quality constructors
    (and :class:`~repro.core.objective.Objective`): one vectorized
    ``np.isfinite`` pass, with the first offending flat index reported so a
    poisoned corpus row can be found.
    """
    finite = np.isfinite(array)
    if not finite.all():
        bad = int(np.flatnonzero(~finite.ravel())[0])
        raise NonFiniteDataError(
            f"{name} must be finite; found {array.ravel()[bad]!r} at flat "
            f"index {bad}"
        )
    return array


def check_non_negative(name: str, value: float) -> float:
    """Raise :class:`InvalidParameterError` unless ``value >= 0``."""
    if value < 0:
        raise InvalidParameterError(f"{name} must be non-negative, got {value}")
    return value


def check_positive(name: str, value: float) -> float:
    """Raise :class:`InvalidParameterError` unless ``value > 0``."""
    if value <= 0:
        raise InvalidParameterError(f"{name} must be positive, got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Raise :class:`InvalidParameterError` unless ``0 <= value <= 1``."""
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_tradeoff(name: str, value: float) -> float:
    """Validate a trade-off parameter λ (must be non-negative and finite)."""
    if not value >= 0.0 or value != value or value in (float("inf"),):
        raise InvalidParameterError(
            f"{name} must be a finite non-negative number, got {value}"
        )
    return value


def check_cardinality(p: int, n: Optional[int] = None) -> int:
    """Validate a cardinality constraint ``p``, returned as an ``int``.

    ``p`` must be a non-negative integer (NumPy integers included, ``bool``
    excluded) and, when the universe size ``n`` is given, at most ``n``.
    """
    if not isinstance(p, numbers.Integral) or isinstance(p, bool):
        raise InvalidParameterError(f"cardinality p must be an integer, got {p!r}")
    if p < 0:
        raise InvalidParameterError(f"cardinality p must be non-negative, got {p}")
    if n is not None and p > n:
        raise InvalidParameterError(
            f"cardinality p={p} exceeds the universe size n={n}"
        )
    return int(p)


def check_candidate_pool(elements: Iterable[int], n: int) -> np.ndarray:
    """Canonicalize a candidate pool against a universe of size ``n``.

    Deduplicates in first-seen order and bounds-checks in one vectorized
    pass.  Returns the canonical index array — the single dedupe/validation
    rule every ``restrict`` implementation (metrics, functions, matroids,
    :class:`~repro.core.restriction.Restriction`) shares.
    """
    idx = np.fromiter(dict.fromkeys(elements), dtype=int)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        bad = int(idx.min()) if idx.min() < 0 else int(idx.max())
        raise InvalidParameterError(f"candidate {bad} outside the universe")
    return idx


def check_elements(subset: Iterable[int], n: int) -> Set[int]:
    """Normalize a subset to a ``set`` and verify every index is in range."""
    normalized = set(subset)
    for element in normalized:
        if not isinstance(element, (int,)) or isinstance(element, bool):
            raise InvalidParameterError(
                f"elements must be integer indices, got {element!r}"
            )
        if element < 0 or element >= n:
            raise InvalidParameterError(
                f"element {element} is outside the universe [0, {n})"
            )
    return normalized
