"""Dynamic updates for max-sum diversification with modular quality (Section 6).

The setting: a solution of known quality is maintained while element weights
and pairwise distances change over time.  After each perturbation the
*oblivious single-swap update rule* performs at most a few swaps and the
paper proves (Theorems 3–6 / Corollary 4) that an approximation ratio of 3 is
maintained with a single update for weight increases, distance increases and
distance decreases, and for weight decreases bounded by ``w/(p-2)``; larger
weight decreases need ``⌈log_{(p-2)/(p-3)} w/(w-δ)⌉`` updates.

Package contents:

* :mod:`~repro.dynamic.perturbation` — the four perturbation types.
* :mod:`~repro.dynamic.update_rules` — the oblivious single-swap rule and the
  multi-update schedule.
* :mod:`~repro.dynamic.engine` — :class:`DynamicDiversifier`, which owns the
  mutable instance and applies perturbations + updates.
* :mod:`~repro.dynamic.events` — :class:`EventBatch` /
  :class:`EventBatchBuilder`, the typed-array form of one tick of a batched
  event stream (weight/distance changes, inserts, deletes).
* :mod:`~repro.dynamic.plan` — :func:`~repro.dynamic.plan.plan_tick`, which
  validates a tick and resolves its final values before either engine writes.
* :mod:`~repro.dynamic.session` — :class:`DynamicSession`, the facade over
  the dense engine and the sharded tier (:class:`ShardedDynamicEngine`) with
  periodic checkpoints and full re-solves.
* :mod:`~repro.dynamic.simulation` — the V/E/M perturbation environments and
  worst-ratio tracking of Section 7.3 (Figure 1).
"""

from repro.dynamic.engine import DynamicDiversifier, EngineSnapshot
from repro.dynamic.events import EventBatch, EventBatchBuilder
from repro.dynamic.session import (
    DynamicSession,
    SessionSnapshot,
    ShardedDynamicEngine,
)
from repro.dynamic.perturbation import (
    DistanceDecrease,
    DistanceIncrease,
    Perturbation,
    PerturbationType,
    WeightDecrease,
    WeightIncrease,
)
from repro.dynamic.simulation import (
    Environment,
    SimulationRecord,
    run_dynamic_simulation,
    worst_ratio_curve,
)
from repro.dynamic.update_rules import (
    UpdateOutcome,
    best_k_swap,
    k_swap_update,
    oblivious_update,
    required_updates_for_weight_decrease,
    update_until_stable,
)

__all__ = [
    "Perturbation",
    "PerturbationType",
    "WeightIncrease",
    "WeightDecrease",
    "DistanceIncrease",
    "DistanceDecrease",
    "DynamicDiversifier",
    "EngineSnapshot",
    "EventBatch",
    "EventBatchBuilder",
    "DynamicSession",
    "SessionSnapshot",
    "ShardedDynamicEngine",
    "oblivious_update",
    "update_until_stable",
    "required_updates_for_weight_decrease",
    "best_k_swap",
    "k_swap_update",
    "UpdateOutcome",
    "Environment",
    "SimulationRecord",
    "run_dynamic_simulation",
    "worst_ratio_curve",
]
