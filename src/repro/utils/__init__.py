"""Small shared utilities: deterministic RNG handling, timing, validation."""

from repro.obs.trace import Stopwatch, timed
from repro.utils.deadline import Deadline, mark_interrupted
from repro.utils.rng import make_rng, spawn_rngs
from repro.utils.validation import (
    check_cardinality,
    check_elements,
    check_finite_array,
    check_non_negative,
    check_probability,
    check_tradeoff,
)

__all__ = [
    "Deadline",
    "mark_interrupted",
    "make_rng",
    "spawn_rngs",
    "Stopwatch",
    "timed",
    "check_cardinality",
    "check_elements",
    "check_finite_array",
    "check_non_negative",
    "check_probability",
    "check_tradeoff",
]
