"""Storage substrate: inverted lists, tuple store, index.

Mirrors the paper's system model (§3, §7.1): the dataset is indexed by one
inverted list per dimension, each sorted by coordinate value in descending
order and holding ``(tuple_id, value)`` entries for the tuples with a
non-zero coordinate; full tuples live in an external file reached by random
access.  Both structures report their accesses into
:class:`~repro.metrics.AccessCounters`, from which the
:class:`~repro.metrics.DiskModel` derives simulated I/O time.
"""

from .durability import (
    AtlasInfo,
    DurabilityCounters,
    GenerationInfo,
    SnapshotStore,
    WalRecord,
    WriteAheadLog,
    dump_atlas,
    load_atlas,
    read_atlas_info,
)
from .index import InvertedIndex
from .inverted_list import InvertedList, ListCursor
from .mutations import AppliedMutation, Mutation, MutationBatch
from .plan import PlanCacheStats, SubspacePlan, SubspacePlanCache, ZoneStats
from .sharded import IndexShard, ShardedIndex
from .tuple_store import TupleStore

__all__ = [
    "AppliedMutation",
    "AtlasInfo",
    "DurabilityCounters",
    "GenerationInfo",
    "IndexShard",
    "InvertedIndex",
    "InvertedList",
    "ListCursor",
    "Mutation",
    "MutationBatch",
    "PlanCacheStats",
    "ShardedIndex",
    "SnapshotStore",
    "SubspacePlan",
    "SubspacePlanCache",
    "TupleStore",
    "WalRecord",
    "WriteAheadLog",
    "dump_atlas",
    "load_atlas",
    "read_atlas_info",
    "ZoneStats",
]
