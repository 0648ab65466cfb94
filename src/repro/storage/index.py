"""Inverted index: one sorted list per dimension over a dataset.

Lists are built lazily (a 180k-term corpus only ever materialises the lists
its queries touch) and cached.  The index is shared across queries and
methods; scan state lives in per-run :class:`~repro.storage.ListCursor`
objects created by :meth:`InvertedIndex.cursors_for`.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Optional

import numpy as np

from ..datasets.base import Dataset
from ..errors import StorageError
from .inverted_list import InvertedList, ListCursor
from .plan import CellChanges, SubspacePlanCache

__all__ = ["InvertedIndex"]


class InvertedIndex:
    """Lazy per-dimension inverted lists over a :class:`Dataset`.

    The index is safe to share across threads: a built list is immutable,
    and the lazy build itself is serialised by an internal lock so two
    concurrent first touches of the same dimension cannot race (see
    :mod:`repro.service`, which runs many engines against one index).

    Warm-path traffic never contends: lookups of an already-built list —
    the common case once a signature's first query has run — read the list
    dict without taking the build lock (safe under the GIL: dict reads are
    atomic, and entries are only ever added, never mutated or removed).
    """

    def __init__(self, dataset: Dataset) -> None:
        self._dataset = dataset
        self._lists: Dict[int, InvertedList] = {}
        self._build_lock = threading.Lock()
        self._plans: Optional[SubspacePlanCache] = None
        self._plans_lock = threading.Lock()
        self._epoch = dataset.epoch
        self._write_seq = 0

    @property
    def dataset(self) -> Dataset:
        """The indexed dataset."""
        return self._dataset

    @property
    def epoch(self) -> int:
        """The dataset epoch this index's built lists and plans reflect.

        Kept in lockstep with ``dataset.epoch`` by :meth:`apply`; plans
        carry it as a stamp, and the service's region cache keys its
        entries on it.
        """
        return self._epoch

    @property
    def write_seq(self) -> int:
        """Write sequence number: odd while :meth:`apply` or :meth:`refresh`
        runs, advanced twice by each.

        A plan build that read an even value and still reads the same one
        when it finishes overlapped no write (see
        :meth:`SubspacePlanCache.plan_for`).
        """
        return self._write_seq

    @property
    def n_dims(self) -> int:
        """Dimensionality of the indexed data space."""
        return self._dataset.n_dims

    def apply(self, batch) -> list:
        """Apply a mutation batch to the dataset, the built lists and the plans.

        Each built inverted list is patched incrementally — canonical
        sorted-insert for new coordinates, lazy tombstones for removed
        ones — instead of being rebuilt; unbuilt lists simply build from
        the mutated dataset on first touch.  The index epoch advances to
        the dataset's, and every resident
        :class:`~repro.storage.plan.SubspacePlan` is carried to it in
        place (see :meth:`SubspacePlanCache.advance`): grown by any
        inserted rows, then re-stamped when no changed coordinate lies on
        its signature and cell-patched otherwise.  The cost is
        O(changed coordinates × (list patch + resident plans)).

        Must not run concurrently with readers of this index (scans,
        plan lookups): lists and plans change in place.  The service
        layer (:meth:`repro.service.QueryService.apply_mutations`) holds
        its writer gate around this call, and recovery replays before
        serving.  A reader the gate does not cover (a timed-out
        supervised shard call still running) gets a discarded answer and
        leaves no stale plan behind: :attr:`write_seq` keeps a plan build
        that overlapped this call out of the cache.

        Returns the per-mutation
        :class:`~repro.storage.mutations.AppliedMutation` deltas.
        """
        with self._build_lock:
            if self._epoch != self._dataset.epoch:
                raise StorageError(
                    "index is stale relative to its dataset: mutations must "
                    "be routed through InvertedIndex.apply (or call "
                    "refresh() after mutating the dataset directly)"
                )
            self._write_seq += 1
            try:
                applied = self._dataset.apply(batch)
                changes: CellChanges = {}
                for delta in applied:
                    for dim, old_v, new_v in delta.coordinate_changes():
                        changes.setdefault(dim, []).append(
                            (delta.tuple_id, 0.0 if new_v is None else new_v)
                        )
                        inverted = self._lists.get(dim)
                        if inverted is None:
                            continue
                        if old_v is not None:
                            inverted.remove_entry(delta.tuple_id, old_v)
                        if new_v is not None:
                            inverted.insert_entry(delta.tuple_id, new_v)
                from_epoch, self._epoch = self._epoch, self._dataset.epoch
                if self._plans is not None:
                    self._plans.advance(
                        from_epoch, self._epoch, self._dataset.n_tuples, changes
                    )
            finally:
                self._write_seq += 1
        return applied

    def restore_epoch(self, epoch: int) -> None:
        """Adopt a recovered epoch (recovery only; see
        :meth:`~repro.datasets.base.Dataset.restore_epoch`).

        Restores the dataset's epoch and the index's in one step so the
        lockstep invariant :meth:`apply` checks holds from the first
        replayed batch.  Must run before any list or plan is built.
        """
        with self._build_lock:
            if self._lists:
                raise StorageError(
                    "restore_epoch must run before any inverted list is built"
                )
            self._dataset.restore_epoch(epoch)
            self._epoch = self._dataset.epoch

    def refresh(self) -> None:
        """Resynchronise with a dataset that was mutated directly.

        Drops every built list and cached plan; both rebuild lazily from
        the dataset's current state.  :meth:`apply` never needs this —
        it patches in place.
        """
        with self._build_lock:
            self._write_seq += 1
            try:
                self._lists.clear()
                self._epoch = self._dataset.epoch
                if self._plans is not None:
                    self._plans.clear()
            finally:
                self._write_seq += 1

    @property
    def plans(self) -> SubspacePlanCache:
        """The index's shared :class:`SubspacePlanCache` (lazily created).

        Every engine and service over this index amortises per-signature
        work through the same cache; see :mod:`repro.storage.plan`.
        """
        cache = self._plans
        if cache is None:
            with self._plans_lock:
                cache = self._plans
                if cache is None:
                    cache = self._plans = SubspacePlanCache(self)
        return cache

    def list_for(self, dim: int) -> InvertedList:
        """The inverted list of *dim* (built on first access).

        The warm path is lock-free: a cached list is returned straight from
        the dict (range validation is implied by the cache hit).  Only a
        cold build validates and serialises under the build lock.
        """
        dim = int(dim)
        cached = self._lists.get(dim)
        if cached is not None:
            return cached
        if not 0 <= dim < self._dataset.n_dims:
            raise StorageError(
                f"dimension {dim} out of range [0, {self._dataset.n_dims})"
            )
        with self._build_lock:
            cached = self._lists.get(dim)
            if cached is None:
                ids, values = self._dataset.column(dim)
                cached = InvertedList(dim, ids, values)
                self._lists[dim] = cached
        return cached

    def warm(self, dims: Iterable[int] | np.ndarray) -> None:
        """Pre-build the lists of *dims* (e.g. a workload's dimensions).

        Warming before a multi-threaded batch keeps the build lock out of
        the hot path and makes per-query latencies comparable.
        """
        for dim in dims:
            self.list_for(int(dim))

    def cursors_for(self, dims: Iterable[int] | np.ndarray) -> Dict[int, ListCursor]:
        """Fresh scan cursors for the given dimensions (one TA run's state).

        Warm-signature traffic builds cursors without ever touching the
        build lock (see :meth:`list_for`'s lock-free fast path).
        """
        return {int(dim): ListCursor(self.list_for(int(dim))) for dim in dims}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Locks don't pickle; workers get fresh ones.  Plans are derived
        # state, heavyweight, and hold a back-reference — workers rebuild
        # them lazily from their own traffic — but the cache's *bounds*
        # (capacity / max_bytes) are configuration and must round-trip.
        del state["_build_lock"]
        del state["_plans_lock"]
        plans = state.pop("_plans")
        state["_plans_bounds"] = (
            None if plans is None else (plans.capacity, plans.max_bytes)
        )
        return state

    def __setstate__(self, state: dict) -> None:
        bounds = state.pop("_plans_bounds", None)
        self.__dict__.update(state)
        self._build_lock = threading.Lock()
        self._plans_lock = threading.Lock()
        self._plans = None
        self._write_seq = 0
        if "_epoch" not in self.__dict__:
            # Pickles from before versioning carry no epoch field.
            self._epoch = self._dataset.epoch
        if bounds is not None:
            self._plans = SubspacePlanCache(self, *bounds)

    def built_dimensions(self) -> list[int]:
        """Dimensions whose lists have been materialised so far."""
        return sorted(self._lists)

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(n_dims={self.n_dims}, "
            f"built={len(self._lists)} lists)"
        )
