"""repro — a reproduction of "Max-Sum Diversification, Monotone Submodular
Functions and Dynamic Updates" (Borodin, Jain, Lee, Ye; PODS 2012).

The library selects a subset ``S`` of a ground set maximizing

``φ(S) = f(S) + λ · Σ_{ {u,v} ⊆ S } d(u, v)``

where ``f`` is a normalized monotone submodular quality function, ``d`` is a
metric and the constraint is a cardinality bound or independence in a
matroid.  The three headline algorithms match the paper's contributions:

* :func:`~repro.core.greedy.greedy_diversify` — Greedy B, 2-approximation
  under a cardinality constraint (Theorem 1);
* :func:`~repro.core.local_search.local_search_diversify` — single-swap local
  search, 2-approximation under any matroid constraint (Theorem 2);
* :class:`~repro.dynamic.engine.DynamicDiversifier` — the oblivious
  single-swap update rule maintaining a 3-approximation under weight and
  distance perturbations (Theorems 3–6).

Quick start
-----------
>>> from repro import make_synthetic_instance, greedy_diversify
>>> instance = make_synthetic_instance(50, seed=0)
>>> result = greedy_diversify(instance.objective, p=5)
>>> len(result.selected)
5
"""

from repro.core import (
    LocalSearchConfig,
    Objective,
    Restriction,
    RunControl,
    SolveCheckpoint,
    SolverResult,
    StreamingDiversifier,
    exact_dispersion,
    exact_diversify,
    exact_knapsack_diversify,
    gollapudi_sharma_greedy,
    greedy_dispersion,
    greedy_diversify,
    knapsack_greedy,
    local_search_diversify,
    matching_diversify,
    mmr_select,
    refine_with_local_search,
    solve,
    solve_many,
    solve_sharded,
    streaming_diversify,
)
from repro.data import (
    FeatureInstance,
    GeoInstance,
    LetorQueryData,
    PortfolioInstance,
    SavedInstance,
    SyntheticInstance,
    SyntheticLetorCorpus,
    load_instance,
    make_feature_instance,
    make_geo_instance,
    make_portfolio_instance,
    make_synthetic_instance,
    save_instance,
)
from repro.dynamic import (
    DistanceDecrease,
    DistanceIncrease,
    DynamicDiversifier,
    DynamicSession,
    EngineSnapshot,
    Environment,
    EventBatch,
    EventBatchBuilder,
    SessionSnapshot,
    ShardedDynamicEngine,
    WeightDecrease,
    WeightIncrease,
)
from repro.durability import (
    DurableStore,
    SnapshotStore,
    WriteAheadLog,
)
from repro.exceptions import (
    DurabilityError,
    DurabilityWarning,
    InvalidParameterError,
    NonFiniteDataError,
    NumericalDegradationWarning,
    RecoveryError,
    ReproError,
    ReproWarning,
    ServerClosedError,
    ServerOverloadedError,
    SnapshotVersionError,
    WalCorruptionError,
)
from repro.functions import (
    CoverageFunction,
    FacilityLocationFunction,
    LogDeterminantFunction,
    MixtureFunction,
    ModularFunction,
    SaturatedCoverageFunction,
    SetFunction,
    ZeroFunction,
)
from repro.matroids import (
    GraphicMatroid,
    Matroid,
    PartitionMatroid,
    TransversalMatroid,
    TruncatedMatroid,
    UniformMatroid,
)
from repro.metrics import (
    CosineMetric,
    DistanceMatrix,
    EuclideanMetric,
    GrowableDistanceMatrix,
    Metric,
    PatchedMetric,
    UniformRandomMetric,
)
from repro.obs import (
    MetricsRegistry,
    Stopwatch,
    Trace,
    get_registry,
)
from repro.serve import (
    CorpusSnapshot,
    PreparedCorpus,
    ServeQuery,
    Server,
    ServerStats,
)
from repro.utils.deadline import Deadline

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Objective",
    "Restriction",
    "SolverResult",
    "LocalSearchConfig",
    "SolveCheckpoint",
    "RunControl",
    "Deadline",
    "solve",
    "solve_many",
    "solve_sharded",
    "greedy_diversify",
    "greedy_dispersion",
    "gollapudi_sharma_greedy",
    "matching_diversify",
    "mmr_select",
    "local_search_diversify",
    "refine_with_local_search",
    "exact_diversify",
    "exact_dispersion",
    "knapsack_greedy",
    "exact_knapsack_diversify",
    "StreamingDiversifier",
    "streaming_diversify",
    # functions
    "SetFunction",
    "ModularFunction",
    "ZeroFunction",
    "CoverageFunction",
    "SaturatedCoverageFunction",
    "FacilityLocationFunction",
    "LogDeterminantFunction",
    "MixtureFunction",
    # metrics
    "Metric",
    "DistanceMatrix",
    "GrowableDistanceMatrix",
    "PatchedMetric",
    "EuclideanMetric",
    "CosineMetric",
    "UniformRandomMetric",
    # matroids
    "Matroid",
    "UniformMatroid",
    "PartitionMatroid",
    "TransversalMatroid",
    "GraphicMatroid",
    "TruncatedMatroid",
    # dynamic
    "DynamicDiversifier",
    "DynamicSession",
    "EngineSnapshot",
    "EventBatch",
    "EventBatchBuilder",
    "SessionSnapshot",
    "ShardedDynamicEngine",
    "WeightIncrease",
    "WeightDecrease",
    "DistanceIncrease",
    "DistanceDecrease",
    "Environment",
    # observability
    "Trace",
    "MetricsRegistry",
    "get_registry",
    "Stopwatch",
    # serving
    "PreparedCorpus",
    "Server",
    "ServerStats",
    "ServeQuery",
    "CorpusSnapshot",
    # durability
    "DurableStore",
    "SnapshotStore",
    "WriteAheadLog",
    # data
    "SyntheticInstance",
    "make_synthetic_instance",
    "FeatureInstance",
    "make_feature_instance",
    "SyntheticLetorCorpus",
    "LetorQueryData",
    "PortfolioInstance",
    "make_portfolio_instance",
    "GeoInstance",
    "make_geo_instance",
    "SavedInstance",
    "save_instance",
    "load_instance",
    # errors and warnings
    "ReproError",
    "InvalidParameterError",
    "NonFiniteDataError",
    "ReproWarning",
    "NumericalDegradationWarning",
    "DurabilityWarning",
    "ServerClosedError",
    "ServerOverloadedError",
    "DurabilityError",
    "WalCorruptionError",
    "RecoveryError",
    "SnapshotVersionError",
]
