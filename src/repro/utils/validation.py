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
    p = _check_integer("cardinality p", p, 0)
    if n is not None and p > n:
        raise InvalidParameterError(
            f"cardinality p={p} exceeds the universe size n={n}"
        )
    return p


def _check_integer(name: str, value: int, minimum: int) -> int:
    """The integer rule of the count knobs (``p``, shard counts and sizes,
    worker and retry counts): ``value`` must be an integer (NumPy integers
    included, ``bool`` excluded) of at least ``minimum``; returned as an
    ``int``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise InvalidParameterError(f"{name} must be at least {minimum}, got {value}")
    return int(value)


def check_candidate_pool(elements: Iterable[int], n: int) -> np.ndarray:
    """Canonicalize a candidate pool against a universe of size ``n``.

    The pool rule: every entry is an integer (NumPy integers included;
    ``bool``, floats — integral ones too — strings, ``None`` and nested
    sequences are not), duplicates are dropped in first-seen order, and
    every entry lies in ``[0, n)``.  A violation raises
    :class:`InvalidParameterError`; otherwise the canonical index array is
    returned.

    The rule runs once per pool, at the door where the pool enters:
    :class:`~repro.core.restriction.Restriction` (behind
    ``Objective.restrict``), ``solve(candidates=)``,
    ``solve_sharded(candidates=)`` (a one-shard call solves on the pool it
    checked) and the winners of a resumed sharded checkpoint,
    ``PreparedCorpus.restriction_for`` (behind the serving window,
    ``solve_many`` and ``PreparedCorpus.solve``), and the public
    ``restrict`` / ``restrict_lazy`` of the
    :class:`~repro.metrics.base.Metric`,
    :class:`~repro.functions.base.SetFunction` and
    :class:`~repro.matroids.base.Matroid` protocols.  Everything below a door
    takes the returned array as checked: the families' ``_restrict`` /
    ``_restrict_lazy`` hooks never re-check it.
    """
    if (
        isinstance(elements, np.ndarray)
        and elements.ndim == 1
        and elements.dtype.kind == "i"
    ):
        idx = elements.astype(int)
    else:
        try:
            entries = list(elements)
        except TypeError:
            raise InvalidParameterError(
                f"a candidate pool must be an iterable of integers, got "
                f"{type(elements).__name__}"
            ) from None
        for kind in set(map(type, entries)) - {int}:
            if not issubclass(kind, numbers.Integral) or issubclass(kind, bool):
                bad = next(e for e in entries if type(e) is kind)
                raise InvalidParameterError(f"candidate {bad!r} is not an integer")
        try:
            idx = np.fromiter(entries, dtype=int, count=len(entries))
        except OverflowError:
            raise InvalidParameterError(
                "a candidate lies outside the universe"
            ) from None
    # One sort serves the bounds check and the duplicate test; the
    # first-seen dedupe runs only when a duplicate is present.
    ordered = np.sort(idx)
    if ordered.size and (ordered[0] < 0 or ordered[-1] >= n):
        bad = int(ordered[0]) if ordered[0] < 0 else int(ordered[-1])
        raise InvalidParameterError(f"candidate {bad} outside the universe")
    if (ordered[1:] == ordered[:-1]).any():
        idx = np.fromiter(dict.fromkeys(idx.tolist()), dtype=int)
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
