"""repro — Immutable Regions for Subspace Top-k Queries.

A complete, from-scratch reproduction of

    Kyriakos Mouratidis and HweeHwa Pang,
    "Computing Immutable Regions for Subspace Top-k Queries",
    PVLDB 6(2): 73–84, 2012.

Given a high-dimensional dataset indexed by per-dimension inverted lists
and a sparse linear top-k query, the library computes — for every query
dimension — the *immutable region*: the widest range of that weight within
which the top-k result is preserved, together with the exact result
holding in each neighbouring region for up to φ perturbations.

Quickstart
----------
>>> import repro
>>> data = repro.Dataset.from_dense(
...     [[0.8, 0.32], [0.7, 0.5], [0.1, 0.8], [0.1, 0.6]]
... )
>>> query = repro.Query([0, 1], [0.8, 0.5])
>>> computation = repro.compute_immutable_regions(data, query, k=2)
>>> computation.result.ids            # R(q) = [d2, d1] in paper numbering
[1, 0]
>>> lo, hi = computation.region(0).lower.delta, computation.region(0).upper.delta
>>> round(lo, 6), round(hi, 6)        # IR_1 = (-16/35, 0.1)
(-0.457143, 0.1)

The four methods of the paper are selected with ``method=`` ("scan",
"prune", "thres", "cpt"); φ>0 sequences with ``phi=``; the §7.4
composition-only mode with ``count_reorderings=False``.
"""

from .core.brute import (
    brute_force_bounds_phi0,
    brute_force_sequence,
    brute_force_sequences,
    brute_force_topk,
)
from .core.engine import (
    BACKENDS,
    METHODS,
    TOPK_MODES,
    ImmutableRegionEngine,
    RegionComputation,
    RunMetrics,
    compute_immutable_regions,
)
from .core.concurrent import (
    concurrent_deviation_safe,
    cross_polytope_margin,
    sensitivity_profile,
)
from .core.distributed import DistributedEngine
from .core.regions import Bound, BoundKind, ImmutableRegion, RegionSequence
from .datasets.base import Dataset
from .datasets.image import generate_image_features
from .datasets.synthetic import generate_correlated, generate_independent
from .datasets.text import generate_text_corpus
from .datasets.workloads import QueryWorkload, sample_queries, slider_drag
from .errors import (
    AlgorithmError,
    DatasetError,
    GeometryError,
    QueryError,
    ReproError,
    StorageError,
    ValidationError,
)
from .metrics.counters import AccessCounters, EvaluationCounters
from .service import (
    AsyncGateway,
    BatchResult,
    QueryService,
    RegionCache,
    ServiceStats,
    ShardedQueryService,
    TokenBucket,
    region_cache_key,
)
from .metrics.diskmodel import DiskModel
from .metrics.footprint import FootprintModel, MemoryFootprint
from .stb.radius import STBResult, stb_radius
from .storage.index import InvertedIndex
from .storage.mutations import AppliedMutation, Mutation, MutationBatch
from .storage.sharded import IndexShard, ShardedIndex
from .topk.query import Query
from .topk.result import CandidateList, TopKResult
from .topk.ta import ThresholdAlgorithm

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # datasets
    "Dataset",
    "generate_correlated",
    "generate_independent",
    "generate_text_corpus",
    "generate_image_features",
    "QueryWorkload",
    "sample_queries",
    "slider_drag",
    # storage / top-k
    "InvertedIndex",
    "IndexShard",
    "ShardedIndex",
    "AppliedMutation",
    "Mutation",
    "MutationBatch",
    "Query",
    "TopKResult",
    "CandidateList",
    "ThresholdAlgorithm",
    # core
    "METHODS",
    "DistributedEngine",
    "ImmutableRegionEngine",
    "RegionComputation",
    "RunMetrics",
    "compute_immutable_regions",
    "Bound",
    "BoundKind",
    "ImmutableRegion",
    "RegionSequence",
    "brute_force_topk",
    "brute_force_bounds_phi0",
    "brute_force_sequence",
    "brute_force_sequences",
    "concurrent_deviation_safe",
    "cross_polytope_margin",
    "sensitivity_profile",
    # service
    "QueryService",
    "ShardedQueryService",
    "AsyncGateway",
    "TokenBucket",
    "BatchResult",
    "RegionCache",
    "ServiceStats",
    "region_cache_key",
    # comparators
    "STBResult",
    "stb_radius",
    # metrics
    "AccessCounters",
    "EvaluationCounters",
    "DiskModel",
    "FootprintModel",
    "MemoryFootprint",
    # errors
    "ReproError",
    "ValidationError",
    "DatasetError",
    "QueryError",
    "StorageError",
    "GeometryError",
    "AlgorithmError",
]
