"""Inverted lists and scan cursors.

An :class:`InvertedList` for dimension ``j`` holds ``(tuple_id, value)``
entries for every tuple with a non-zero j-th coordinate, sorted by value
descending (ties broken by ascending id — the library-wide total order).
Scan state lives in :class:`ListCursor`, so several algorithms (TA,
Phase 3 resumption, tests) can walk the same list independently.

Lists support *incremental maintenance* under dataset mutations (driven
by :meth:`repro.storage.index.InvertedIndex.apply`, never concurrently
with scans): an insert splices the new entry into its canonical sorted
position; a removal marks a **lazy tombstone** — an O(1) flag plus cache
invalidation — and physical compaction is deferred until the dead count
crosses a threshold.  Every read (cursor pulls, ``ids``/``values``
arrays, ``position_of``) sees only live entries, in exactly the order a
freshly built list over the mutated data would have, so downstream
algorithms and their access counters are bit-identical either way.

Sorted accesses are charged to an :class:`~repro.metrics.AccessCounters`
by the cursor on every :meth:`ListCursor.pull`.
"""

from __future__ import annotations

import threading
from typing import Optional, Tuple

import numpy as np

from .._util import require, stable_desc_order
from ..errors import StorageError
from ..metrics.counters import AccessCounters

__all__ = ["InvertedList", "ListCursor"]

#: Tombstones tolerated before a physical compaction, as
#: ``max(_COMPACT_MIN, size >> _COMPACT_SHIFT)`` — at most ~12.5% of a
#: large list is dead at any time, and tiny lists never thrash.
_COMPACT_MIN = 64
_COMPACT_SHIFT = 3

#: Orders memo stores against patches.  Shared by every list, so lists
#: stay picklable; taken only to store a memo or to invalidate reads.
_MEMO_LOCK = threading.Lock()


class InvertedList:
    """Per-dimension posting list, sorted by value descending.

    Reads are immutable-snapshot semantics between mutations; mutations
    themselves are only issued by the owning index's ``apply`` while no
    scan is in flight (the service layer serialises them).  A reader
    outside that gate (a timed-out supervised shard call still running)
    may see a torn read once, but never leaves a stale memo behind: a
    memo is stored only if no patch ran while it was built.
    """

    def __init__(self, dim: int, ids: np.ndarray, values: np.ndarray) -> None:
        require(dim >= 0, "dimension must be non-negative")
        ids_arr = np.ascontiguousarray(ids, dtype=np.int64)
        values_arr = np.ascontiguousarray(values, dtype=np.float64)
        if ids_arr.shape != values_arr.shape or ids_arr.ndim != 1:
            raise StorageError("ids and values must be 1-D arrays of equal length")
        order = stable_desc_order(values_arr, ids_arr)
        self._dim = int(dim)
        # Physical arrays: the canonical order, possibly with tombstoned
        # slots interleaved (_dead mask, allocated on first removal).
        self._ids = ids_arr[order]
        self._values = values_arr[order]
        self._ids.setflags(write=False)
        self._values.setflags(write=False)
        self._dead: Optional[np.ndarray] = None
        self._n_dead = 0
        #: Lazily gathered (ids, values) of live entries while tombstones
        #: exist; None when clean or stale.
        self._live: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # id → position lookup, built once on first use and shared by every
        # cursor over this list: ids sorted ascending plus the matching list
        # positions, queried via searchsorted (see position_of).
        self._lookup: Optional[Tuple[np.ndarray, np.ndarray]] = None
        #: Bumped by every patch; a memo built across a bump is not stored.
        self._patches = 0

    @property
    def dim(self) -> int:
        """The dimension this list indexes."""
        return self._dim

    @property
    def size(self) -> int:
        """Number of live entries (tuples with a non-zero coordinate here)."""
        return int(self._ids.size) - self._n_dead

    def _live_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(ids, values)`` of live entries, canonical order."""
        if self._n_dead == 0:
            return self._ids, self._values
        live = self._live
        if live is None:
            patches = self._patches
            keep = ~self._dead
            ids = self._ids[keep]
            values = self._values[keep]
            ids.setflags(write=False)
            values.setflags(write=False)
            live = (ids, values)
            with _MEMO_LOCK:
                if self._patches == patches:
                    self._live = live
        return live

    @property
    def ids(self) -> np.ndarray:
        """Tuple ids in list order (read-only view, live entries only)."""
        return self._live_arrays()[0]

    @property
    def values(self) -> np.ndarray:
        """Values in list order, descending (read-only view, live entries)."""
        return self._live_arrays()[1]

    def entry(self, position: int) -> Tuple[int, float]:
        """The ``(tuple_id, value)`` entry at *position*."""
        if not 0 <= position < self.size:
            raise StorageError(
                f"position {position} out of range [0, {self.size}) in L{self._dim}"
            )
        ids, values = self._live_arrays()
        return int(ids[position]), float(values[position])

    def key_at(self, position: int) -> float:
        """Sorting key at *position*; 0.0 past the end (exhausted ⇒ t_j = 0)."""
        if position >= self.size:
            return 0.0
        if position < 0:
            raise StorageError("position must be non-negative")
        return float(self._live_arrays()[1][position])

    def _id_lookup(self) -> Tuple[np.ndarray, np.ndarray]:
        lookup = self._lookup
        if lookup is None:
            patches = self._patches
            ids = self._live_arrays()[0]
            order = np.argsort(ids, kind="stable")
            lookup = (ids[order], order.astype(np.int64))
            with _MEMO_LOCK:
                if self._patches == patches:
                    self._lookup = lookup
        return lookup

    # ------------------------------------------------------------------
    # Incremental maintenance (issued by InvertedIndex.apply only)
    # ------------------------------------------------------------------

    def _value_span(self, value: float) -> Tuple[int, int]:
        """Physical ``[lo, hi)`` range of entries whose value equals *value*."""
        values = self._values
        n = values.size
        ascending = values[::-1]
        lo = n - int(np.searchsorted(ascending, value, side="right"))
        hi = n - int(np.searchsorted(ascending, value, side="left"))
        return lo, hi

    def insert_entry(self, tuple_id: int, value: float) -> None:
        """Splice ``(tuple_id, value)`` into its canonical sorted position.

        The caller (the index's apply path) guarantees *tuple_id* is not
        currently live in this list.
        """
        lo, hi = self._value_span(value)
        pos = lo + int(np.searchsorted(self._ids[lo:hi], tuple_id))
        self._ids = np.insert(self._ids, pos, int(tuple_id))
        self._values = np.insert(self._values, pos, float(value))
        self._ids.setflags(write=False)
        self._values.setflags(write=False)
        if self._dead is not None:
            self._dead = np.insert(self._dead, pos, False)
        self._invalidate_reads()

    def remove_entry(self, tuple_id: int, value: float) -> None:
        """Tombstone the live entry ``(tuple_id, value)`` (lazy removal).

        The physical slot is only reclaimed once the dead count crosses
        the compaction threshold; reads skip tombstones transparently.
        """
        lo, hi = self._value_span(value)
        span = self._ids[lo:hi]
        for offset in np.nonzero(span == int(tuple_id))[0].tolist():
            pos = lo + offset
            if self._dead is None or not self._dead[pos]:
                if self._dead is None:
                    self._dead = np.zeros(self._ids.size, dtype=bool)
                self._dead[pos] = True
                self._n_dead += 1
                self._invalidate_reads()
                if self._n_dead >= max(
                    _COMPACT_MIN, self._ids.size >> _COMPACT_SHIFT
                ):
                    self._compact()
                return
        raise StorageError(
            f"entry (d{tuple_id}, {value!r}) not live in L{self._dim}"
        )

    def _invalidate_reads(self) -> None:
        with _MEMO_LOCK:
            self._patches += 1
            self._live = None
            self._lookup = None

    def _compact(self) -> None:
        """Reclaim tombstoned slots; physical order is already canonical."""
        ids, values = self._live_arrays()
        self._ids, self._values = ids, values
        self._dead = None
        self._n_dead = 0
        self._invalidate_reads()

    @property
    def n_tombstones(self) -> int:
        """Currently tombstoned (dead, not yet compacted) entries."""
        return self._n_dead

    def position_of(self, tuple_id: int) -> Optional[int]:
        """Position of *tuple_id* in this list, or ``None`` if absent.

        Used by Phase 3's sorted-access shortcut: if TA's cursor has passed
        this position, the tuple was encountered via sorted access in this
        list.  The lookup (one ``argsort``, queried by ``searchsorted``) is
        built lazily on first use and shared across cursors.
        """
        sorted_ids, positions = self._id_lookup()
        idx = int(np.searchsorted(sorted_ids, int(tuple_id)))
        if idx < sorted_ids.size and sorted_ids[idx] == int(tuple_id):
            return int(positions[idx])
        return None

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"InvertedList(dim={self._dim}, size={self.size})"


class ListCursor:
    """A mutable scan position over an :class:`InvertedList`.

    The cursor starts at the top (highest value).  :meth:`peek_key` returns
    the sorting key of the *next* entry — the paper's ``t_j`` threshold
    component — without consuming it; :meth:`pull` consumes the entry and
    charges one sorted access.
    """

    def __init__(self, inverted_list: InvertedList) -> None:
        self._list = inverted_list
        self._position = 0

    @property
    def inverted_list(self) -> InvertedList:
        """The underlying list."""
        return self._list

    @property
    def dim(self) -> int:
        """The dimension being scanned."""
        return self._list.dim

    @property
    def position(self) -> int:
        """Number of entries consumed so far."""
        return self._position

    @property
    def exhausted(self) -> bool:
        """Whether the whole list has been consumed."""
        return self._position >= self._list.size

    def peek_key(self) -> float:
        """The next entry's value (``t_j``); 0.0 once exhausted."""
        return self._list.key_at(self._position)

    def pull(self, counters: AccessCounters) -> Tuple[int, float]:
        """Consume and return the next ``(tuple_id, value)`` entry."""
        if self.exhausted:
            raise StorageError(f"cursor over L{self.dim} is exhausted")
        entry = self._list.entry(self._position)
        self._position += 1
        counters.record_sorted()
        return entry

    def pull_block(self, n: int, counters: AccessCounters) -> Tuple[np.ndarray, np.ndarray]:
        """Consume up to *n* entries at once; returns ``(ids, values)`` slices.

        The block equivalent of *n* :meth:`pull` calls: the cursor advances
        by the number of entries returned and the counters are charged in
        bulk (``record_sorted(count)``).  Returns read-only views into the
        list's arrays — empty when the cursor is exhausted.
        """
        if n < 0:
            raise StorageError("block size must be non-negative")
        start = self._position
        stop = min(start + n, self._list.size)
        count = stop - start
        self._position = stop
        if count:
            counters.record_sorted(count)
        return self._list.ids[start:stop], self._list.values[start:stop]

    def has_passed(self, tuple_id: int) -> bool:
        """Whether *tuple_id*'s entry was already consumed via sorted access.

        Returns ``False`` when the tuple has no entry in this list (its
        coordinate is zero here).
        """
        pos = self._list.position_of(tuple_id)
        return pos is not None and pos < self._position

    def __repr__(self) -> str:
        return (
            f"ListCursor(dim={self.dim}, position={self._position}, "
            f"size={self._list.size})"
        )
