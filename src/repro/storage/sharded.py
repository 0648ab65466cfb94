"""Row-range sharding of a dataset and its inverted index.

A :class:`ShardedIndex` splits one :class:`~repro.datasets.base.Dataset`
into ``n_shards`` contiguous row-range shards.  Each :class:`IndexShard`
owns a full storage stack over its slice — its own
:class:`~repro.storage.index.InvertedIndex` (and therefore its own
:class:`~repro.storage.plan.SubspacePlanCache`), its own
:class:`~repro.storage.tuple_store.TupleStore`, and its own epoch counter
— so per-shard work (plan builds, TA runs, fused sweeps) touches only
``n/S`` rows and per-shard mutations patch only the touched shard's
derived state.

Row ranges are *contiguous and ascending*: shard ``s`` owns global tuple
ids ``[starts[s], starts[s+1])`` and the last shard is open-ended (new
inserts are appended to it).  Local ids are ``global − start``, so the
global library total order ``(-score, id)`` is reproduced exactly by
merging per-shard results in shard order — the property the distributed
compute path (:mod:`repro.core.distributed`) relies on for bit-exact
parity with the single-index engine.

The sharded container keeps the *global* dataset and a global
:class:`InvertedIndex` over it (the "oracle" index): exact TA replays,
φ>0 sequences, and fallback computations run unsharded against it, and
the service's region cache keys its delta-aware invalidation on the
global epoch.  :meth:`ShardedIndex.apply` routes one
:class:`~repro.storage.mutations.MutationBatch` through the global index
first (validation + atomicity + applied deltas) and then replays each
mutation on its owning shard in local coordinates.  Each index on the
way patches its resident plans in place (see :mod:`repro.storage.plan`);
untouched shards keep their epoch and their plans untouched.

Per-signature **zone statistics** (:meth:`IndexShard.signature_stats`,
a :class:`~repro.storage.plan.ZoneStats` kept by the shard's plan) are
the shard-level pruning substrate: the per-dimension coordinate
maxima/minima over the shard's rows bound — in exact IEEE-754
arithmetic, see :mod:`repro.core.distributed` — every score and every
Lemma 1 crossing the shard can produce, which is what lets the
distributed path skip whole shards without ever diverging from the
oracle.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._util import require
from ..datasets.base import Dataset
from ..metrics.counters import AccessCounters
from .index import InvertedIndex
from .mutations import Mutation, MutationBatch
from .plan import ZoneStats, signature_of
from .tuple_store import TupleStore

__all__ = ["IndexShard", "ShardedIndex"]


def _slice_dataset(dataset: Dataset, start: int, stop: int) -> Dataset:
    """An independent CSR dataset holding rows ``[start, stop)`` of *dataset*.

    Works on the live (possibly mutated) state via ``csr_arrays``; row
    values are exact copies, so shard-local arithmetic is bit-identical
    to arithmetic on the global rows.  Tombstoned rows become empty rows
    — identical to their live representation, and the global validation
    in :meth:`ShardedIndex.apply` guarantees they are never re-targeted.
    """
    indptr, indices, values = dataset.csr_arrays
    lo, hi = int(indptr[start]), int(indptr[stop])
    sub_indptr = (indptr[start : stop + 1] - indptr[start]).copy()
    return Dataset(
        sub_indptr, indices[lo:hi].copy(), values[lo:hi].copy(), dataset.n_dims
    )


class IndexShard:
    """One contiguous row-range shard with its own storage stack."""

    def __init__(self, shard_id: int, start: int, dataset: Dataset) -> None:
        self.shard_id = int(shard_id)
        #: First global tuple id owned by this shard (the local→global
        #: offset); the range is open-ended for the last shard.
        self.start = int(start)
        self.dataset = dataset
        self.index = InvertedIndex(dataset)
        self._store: Optional[TupleStore] = None
        self._store_counters = AccessCounters()

    @property
    def n_rows(self) -> int:
        """Live row count (grows when inserts land on the last shard)."""
        return self.dataset.n_tuples

    @property
    def epoch(self) -> int:
        """The shard's own mutation epoch (independent of other shards)."""
        return self.index.epoch

    @property
    def store(self) -> TupleStore:
        """The shard's random-access tuple store (lazily created)."""
        store = self._store
        if store is None:
            store = self._store = TupleStore(self.dataset, self._store_counters)
        return store

    def to_global(self, local_id: int) -> int:
        """Translate a shard-local tuple id to the global id space."""
        return self.start + int(local_id)

    def to_local(self, global_id: int) -> int:
        """Translate a global tuple id into this shard's id space."""
        return int(global_id) - self.start

    def signature_stats(self, dims) -> ZoneStats:
        """Zone statistics for *dims*' signature, from the shard's plan.

        The first call per signature builds (and warms) the plan every
        later per-shard kernel call reuses; writes keep its statistics
        exact in place, and the returned object only changes when they
        do.
        """
        if self.n_rows == 0:
            qlen = len(signature_of(dims))
            return ZoneStats(
                maxima=np.zeros(qlen, dtype=np.float64),
                minima=np.zeros(qlen, dtype=np.float64),
                n_positive=0,
                nnz_ge2_total=0,
                n_rows=0,
            )
        return self.index.plans.plan_for(dims).zone

    def __repr__(self) -> str:
        return (
            f"IndexShard(id={self.shard_id}, rows=[{self.start}, "
            f"{self.start + self.n_rows}), epoch={self.epoch})"
        )


class ShardedIndex:
    """Balanced contiguous row-range shards plus the global oracle index.

    Parameters
    ----------
    data:
        The dataset to shard, or a prebuilt global :class:`InvertedIndex`
        over it (reused as the oracle index).
    n_shards:
        Number of row-range shards; balanced split, last shard open-ended.
    boundaries:
        Optional explicit row-range fence ``[0, b_1, ..., n_tuples]``
        (ascending, ``n_shards + 1`` entries) replacing the balanced
        split.  Lets a score-aware partitioner hand the hot head of a
        sorted layout its own small shard, so certificates delete almost
        all rows; parity is layout-independent either way.
    """

    def __init__(
        self,
        data: Dataset | InvertedIndex,
        n_shards: int,
        boundaries: Optional[List[int]] = None,
    ) -> None:
        require(int(n_shards) >= 1, "n_shards must be >= 1")
        if isinstance(data, InvertedIndex):
            self._index = data
            self._dataset = data.dataset
        else:
            self._dataset = data
            self._index = InvertedIndex(data)
        self.n_shards = int(n_shards)
        n = self._dataset.n_tuples
        if boundaries is None:
            boundaries = np.linspace(0, n, self.n_shards + 1).astype(np.int64)
        else:
            boundaries = np.asarray([int(b) for b in boundaries], dtype=np.int64)
            require(
                boundaries.shape == (self.n_shards + 1,),
                f"boundaries must have n_shards + 1 = {self.n_shards + 1} entries",
            )
            require(
                int(boundaries[0]) == 0 and int(boundaries[-1]) == n,
                f"boundaries must run from 0 to n_tuples ({n})",
            )
            require(
                bool(np.all(np.diff(boundaries) >= 0)),
                "boundaries must be ascending",
            )
        self._starts: List[int] = [int(b) for b in boundaries[:-1]]
        self.shards: List[IndexShard] = [
            IndexShard(s, self._starts[s], _slice_dataset(self._dataset, self._starts[s], int(boundaries[s + 1])))
            for s in range(self.n_shards)
        ]

    # ------------------------------------------------------------------

    @property
    def dataset(self) -> Dataset:
        """The global dataset (the single source of truth for mutations)."""
        return self._dataset

    @property
    def index(self) -> InvertedIndex:
        """The global (unsharded) oracle index over the full dataset."""
        return self._index

    @property
    def epoch(self) -> int:
        """The global dataset epoch (bumped once per applied batch)."""
        return self._index.epoch

    @property
    def shard_epochs(self) -> Tuple[int, ...]:
        """Per-shard epochs — untouched shards keep theirs across batches."""
        return tuple(shard.epoch for shard in self.shards)

    @property
    def starts(self) -> Tuple[int, ...]:
        """Each shard's first global tuple id — the shard fence.

        Together with ``n_tuples`` this is the full row-range layout;
        snapshots persist it so recovery rebuilds identical shards.
        """
        return tuple(self._starts)

    def shard_of(self, tuple_id: int) -> int:
        """The shard owning a global tuple id (last shard is open-ended)."""
        tuple_id = int(tuple_id)
        require(tuple_id >= 0, "tuple ids are non-negative")
        return bisect.bisect_right(self._starts, tuple_id) - 1

    # ------------------------------------------------------------------

    def apply(self, batch) -> list:
        """Apply a mutation batch globally and route it to owning shards.

        The batch first goes through the global
        :meth:`InvertedIndex.apply` — whole-batch validation, atomic
        dataset application, incremental patching of any built global
        lists, one global epoch bump — and the returned
        :class:`~repro.storage.mutations.AppliedMutation` deltas then
        drive the shard router: deletes/updates replay on the owning
        shard in local coordinates, inserts append to the last shard
        (whose open range keeps local ids equal to ``global − start``).
        Every index the batch reaches patches its resident plans and
        their zone statistics in place; only the touched shards' epochs
        advance, and every other shard's plans stay as they are.

        Must not run concurrently with scans (same contract as
        :meth:`InvertedIndex.apply`); the service layer holds its writer
        gate around this call.
        """
        if isinstance(batch, Mutation):
            batch = MutationBatch((batch,))
        elif not isinstance(batch, MutationBatch):
            batch = MutationBatch(tuple(batch))
        applied = self._index.apply(batch)
        routed: Dict[int, List[Mutation]] = {}
        pending_inserts = 0
        for mutation, delta in zip(batch, applied):
            if delta.kind == "insert":
                sid = self.n_shards - 1
                shard = self.shards[sid]
                expected = shard.to_global(shard.n_rows + pending_inserts)
                if expected != delta.tuple_id:  # pragma: no cover - invariant
                    raise AssertionError(
                        f"insert id drift: global {delta.tuple_id}, "
                        f"shard expects {expected}"
                    )
                pending_inserts += 1
                local = Mutation.insert(delta.new_dims, delta.new_values)
            else:
                sid = self.shard_of(delta.tuple_id)
                lid = self.shards[sid].to_local(delta.tuple_id)
                if delta.kind == "delete":
                    local = Mutation.delete(lid)
                else:
                    local = Mutation.update(lid, mutation.dims[0], mutation.values[0])
            routed.setdefault(sid, []).append(local)
        for sid, mutations in routed.items():
            self.shards[sid].index.apply(MutationBatch(tuple(mutations)))
        return applied

    @property
    def plan_patches(self) -> int:
        """Plans patched in place so far, over the global index and every shard."""
        indexes = [self._index] + [shard.index for shard in self.shards]
        return sum(index.plans.stats().patches for index in indexes)

    def __repr__(self) -> str:
        sizes = ", ".join(str(shard.n_rows) for shard in self.shards)
        return (
            f"ShardedIndex(n_shards={self.n_shards}, rows=[{sizes}], "
            f"epoch={self.epoch})"
        )
