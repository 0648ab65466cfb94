"""Per-signature subspace plans: reusable cross-query state.

Serving traffic is dominated by a small set of *dims signatures* — popular
dimension combinations that refinement UIs and repeated searches hit over
and over (§7 of the paper evaluates exactly such per-subspace workloads).
Yet every :meth:`~repro.core.engine.ImmutableRegionEngine.compute` call
rebuilds the same per-subspace structures from scratch: the gathered
column block ``X[:, dims]``, the per-dimension coordinate orders behind
the ``SLj`` probe lists, and the id-lookup tables of the inverted lists.

A :class:`SubspacePlan` materialises all of that **once per signature**.
Memory layout, per plan of ``n`` rows and ``qlen`` signature dims:

* one ``(qlen, n)`` float64 array holding the signature's columns, row
  ``j`` being dimension ``dims[j]``'s dense column.  :meth:`column`
  returns a row of it (contiguous, so the fused region sweeps stream
  each column stride-1), and ``block`` is its transposed ``(n, qlen)``
  view — ``block[t]`` equals ``dataset.values_at(t, dims)`` bit for bit,
  so any arithmetic on plan rows is identical to arithmetic on per-tuple
  fetches.  A plan that has grown by inserts keeps up to n/8 spare
  columns of capacity past ``n``, so later inserts append in place.
  Nothing else is stored per row except:
* ``nnz_rows`` — per-row count of non-zero signature coordinates, in
  the narrowest unsigned dtype that holds ``qlen``; shared by the
  C0/CH/CL partition accounting of every query on the signature.
* :class:`ZoneStats` — per-dimension maxima/minima plus the counts of
  rows with at least one / two non-zero signature coordinates; the
  shard-skip substrate of :mod:`repro.core.distributed`.
* per-dimension **lexsorted probe orders**, built lazily — rank arrays
  over ``(coordinate, id)`` (ascending and descending), from which a
  query's ``SLj↑`` / ``SLj↓`` probe lists follow by a cheap integer
  argsort instead of a per-query float lexsort (see
  :func:`repro.core.thresholding.build_probe_orders`).

Building a plan also warms the signature's inverted lists and their
id-lookup tables, so a query on a planned signature never pays a cold
list build or takes the index build lock.

**Plans follow writes in place.**  :meth:`InvertedIndex.apply
<repro.storage.index.InvertedIndex.apply>` hands every batch's
coordinate changes to :meth:`SubspacePlanCache.advance` under the
service's writer gate: a plan no changed coordinate touches is only
re-stamped to the new epoch; a touched plan has its changed cells,
``nnz_rows`` and zone statistics updated in O(changed cells) (a column
is rescanned only when its old extreme left) and the rank arrays of the
touched columns dropped.  Inserted rows are appended first (all-zero,
then patched like any other cell), which drops every rank array since
the new rows shift ranks.  The write cost is O(changed coordinates ×
resident plans), plus an amortised O(1) per inserted row and plan.

The writer gate does not cover every reader: a supervised shard call
that timed out keeps running in its dispatcher thread after its request
failed over.  Its answer is discarded, but it must leave no stale state
behind, so a plan build that overlapped a write is served uncached, and
rank arrays build under the same per-plan lock the patch takes.

:class:`SubspacePlanCache` is the thread-safe LRU registry the engine and
service consult (`plan_for`), with hit/build/patch counters exposed for
tests and dashboards.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .._util import require
from ..errors import StorageError

__all__ = [
    "PlanCacheStats",
    "SubspacePlan",
    "SubspacePlanCache",
    "ZoneStats",
    "signature_of",
]

#: Per-dimension cell changes of one batch: ``dim → [(row, new value)]``
#: in batch order (``0.0`` for a removed coordinate).
CellChanges = Dict[int, List[Tuple[int, float]]]


def signature_of(dims: Iterable[int] | np.ndarray) -> Tuple[int, ...]:
    """The canonical (sorted, deduplicated-checked) signature of *dims*.

    Queries store dims sorted and unique, so for :class:`~repro.topk.query.Query`
    inputs this is just a tuple conversion; raw iterables are validated.
    """
    sig = tuple(int(d) for d in dims)
    if any(b <= a for a, b in zip(sig, sig[1:])):
        raise StorageError(f"signature dims must be sorted and unique, got {sig}")
    return sig


@dataclass(frozen=True)
class ZoneStats:
    """Zone statistics of one plan: its rows' bounds on the signature.

    ``maxima[j]`` / ``minima[j]`` bound the stored coordinates on the
    signature's j-th dimension (zeros included — absent coordinates
    read as 0.0, exactly as the plan block stores them).  ``n_positive``
    counts rows with at least one non-zero signature coordinate (the
    rows' contribution to any query's candidate universe on this
    signature), ``nnz_ge2_total`` those with at least two (the CL-union
    contribution).  All are query-independent; a patch that changes any
    of them replaces the plan's object, so a held instance never moves.
    """

    maxima: np.ndarray
    minima: np.ndarray
    n_positive: int
    nnz_ge2_total: int
    n_rows: int


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


class SubspacePlan:
    """Materialised cross-query state for one dims signature.

    Built by :class:`SubspacePlanCache`, and read-only to everyone else:
    only :meth:`SubspacePlanCache.advance` changes a plan, in place,
    under the owning index's writer side.
    """

    def __init__(self, index, dims: Iterable[int] | np.ndarray) -> None:
        self.signature = signature_of(dims)
        self.dims = np.asarray(self.signature, dtype=np.int64)
        dataset = index.dataset
        #: Index epoch the plan reflects; :meth:`SubspacePlanCache.advance`
        #: carries it forward with every applied batch.
        self.epoch = index.epoch
        self.n_tuples = dataset.n_tuples
        self.qlen = self.dims.size
        # Tuple ids are row positions, so each column is a direct scatter
        # of the dataset's cached column — cheaper than the searchsorted
        # gather of kernels.gather_columns, with the same exact-copy
        # guarantee.
        columns = np.zeros((self.qlen, self.n_tuples), dtype=np.float64)
        for j, dim in enumerate(self.signature):
            # list_for both validates the dimension and warms the lazy
            # inverted list; the id-lookup table behind position_of is
            # forced too, so has_passed never builds under traffic.
            inverted = index.list_for(dim)
            inverted._id_lookup()
            col_ids, col_vals = dataset.column(dim)
            if col_ids.size:
                columns[j, col_ids] = col_vals
        self._store = columns
        self._nnz = np.count_nonzero(columns, axis=0).astype(
            np.min_scalar_type(self.qlen)
        )
        self._expose()
        self.zone = ZoneStats(
            maxima=self._column_extremes(np.max),
            minima=self._column_extremes(np.min),
            n_positive=int(np.count_nonzero(self._nnz)),
            nnz_ge2_total=int(np.count_nonzero(self._nnz >= 2)),
            n_rows=self.n_tuples,
        )
        self._asc_ranks: Dict[int, np.ndarray] = {}
        self._desc_ranks: Dict[int, np.ndarray] = {}
        self._rank_lock = threading.Lock()

    def _expose(self) -> None:
        """(Re)bind the read-only views over the first ``n_tuples`` rows."""
        n = self.n_tuples
        #: The ``(n_tuples, qlen)`` column block ``X[:, dims]`` (a
        #: read-only transposed view of the column store).
        self.block = _read_only(self._store[:, :n].T)
        self._columns = tuple(
            _read_only(self._store[j, :n]) for j in range(self.qlen)
        )
        #: Per-row count of non-zero signature coordinates (read-only).
        self.nnz_rows = _read_only(self._nnz[:n])

    def _column_extremes(self, reduce) -> np.ndarray:
        if self.n_tuples:
            out = reduce(self._store, axis=1)
        else:
            out = np.zeros(self.qlen, dtype=np.float64)
        out.setflags(write=False)
        return out

    @property
    def nnz_ge2_total(self) -> int:
        """Rows with >= 2 non-zero signature coordinates — the part of any
        query's candidate list that pruning must keep (CL union)."""
        return self.zone.nnz_ge2_total

    # ------------------------------------------------------------------

    def j_pos(self, dim: int) -> int:
        """Column index of *dim* inside the signature."""
        pos = int(np.searchsorted(self.dims, int(dim)))
        if pos >= self.qlen or self.dims[pos] != int(dim):
            raise StorageError(f"dimension {dim} not in signature {self.signature}")
        return pos

    def rows(self, tuple_ids: np.ndarray) -> np.ndarray:
        """Coordinates of *tuple_ids* at the signature dims (copies).

        Row ``i`` equals ``dataset.values_at(tuple_ids[i], dims)`` exactly
        — the same guarantee as :func:`repro.kernels.scoring.gather_columns`,
        at O(len(ids)) instead of O(qlen · len(ids) · log n).
        """
        return self.block[np.asarray(tuple_ids, dtype=np.int64)]

    def column(self, j_pos: int) -> np.ndarray:
        """One dimension's dense coordinate column (contiguous, read-only)."""
        return self._columns[j_pos]

    def asc_rank(self, j_pos: int) -> np.ndarray:
        """Rank of every tuple in the ``(coord asc, id asc)`` order of column *j_pos*.

        ``asc_rank[t] < asc_rank[u]`` iff tuple ``t`` precedes ``u`` in an
        ascending-coordinate probe list (``SLj↑``); restricting the global
        order to any candidate pool therefore reproduces the pool's
        per-query lexsort exactly.  Built lazily per dimension and cached.
        """
        return self._rank(j_pos, descending=False)

    def desc_rank(self, j_pos: int) -> np.ndarray:
        """Rank in the ``(coord desc, id asc)`` order (``SLj↓`` probe order)."""
        return self._rank(j_pos, descending=True)

    def _rank(self, j_pos: int, descending: bool) -> np.ndarray:
        cache = self._desc_ranks if descending else self._asc_ranks
        ranks = cache.get(j_pos)
        if ranks is not None:
            return ranks
        with self._rank_lock:
            ranks = cache.get(j_pos)
            if ranks is not None:
                return ranks
            # + 0.0 canonicalises -0.0 exactly as lexsort_records does;
            # a stable sort breaks ties by row position, i.e. by id.
            keys = self._columns[j_pos] + 0.0
            if descending:
                keys = -keys
            order = np.argsort(keys, kind="stable")
            ranks = np.empty(self.n_tuples, dtype=np.int64)
            ranks[order] = np.arange(self.n_tuples, dtype=np.int64)
            ranks.setflags(write=False)
            cache[j_pos] = ranks
        return ranks

    # ------------------------------------------------------------------

    def _grow(self, n_tuples: int) -> None:
        """Append all-zero rows up to *n_tuples* (caller holds the writer side).

        Appends in place while the spare capacity lasts, else reallocates
        with n/8 spare columns.  Zero rows lower each minimum to 0.0 and
        shift every rank, so all rank arrays are dropped.
        """
        n = self.n_tuples
        if n_tuples > self._store.shape[1]:
            capacity = n_tuples + (n_tuples >> 3)
            store = np.zeros((self.qlen, capacity), dtype=np.float64)
            store[:, :n] = self._store[:, :n]
            nnz = np.zeros(capacity, dtype=self._nnz.dtype)
            nnz[:n] = self._nnz[:n]
            self._store, self._nnz = store, nnz
        self.n_tuples = n_tuples
        self._expose()
        zone = self.zone
        minima = np.minimum(zone.minima, 0.0)
        minima.setflags(write=False)
        self.zone = ZoneStats(
            zone.maxima, minima, zone.n_positive, zone.nnz_ge2_total, n_tuples
        )
        self._asc_ranks.clear()
        self._desc_ranks.clear()

    def _patch(self, changes: CellChanges) -> bool:
        """Write *changes* into the plan's cells; returns whether any landed.

        Keeps ``nnz_rows`` and the zone statistics exact in O(changed
        cells): an extreme is recomputed from its column only when the
        cell that held it moved inward.  Rank arrays of a touched column
        are dropped (they rebuild lazily).  Caller holds the writer side.
        """
        zone = self.zone
        maxima = minima = None
        n_positive, nnz_ge2 = zone.n_positive, zone.nnz_ge2_total
        for j, dim in enumerate(self.signature):
            cells = changes.get(dim)
            if cells is None:
                continue
            if maxima is None:
                maxima, minima = zone.maxima.copy(), zone.minima.copy()
            column = self._store[j, : self.n_tuples]
            for row, value in cells:
                old = float(column[row])
                column[row] = value
                moved = (value != 0.0) - (old != 0.0)
                if moved:
                    before = int(self._nnz[row])
                    after = before + moved
                    self._nnz[row] = after
                    n_positive += (after >= 1) - (before >= 1)
                    nnz_ge2 += (after >= 2) - (before >= 2)
                if value > maxima[j]:
                    maxima[j] = value
                elif old == maxima[j] and value < old:
                    maxima[j] = column.max()
                if value < minima[j]:
                    minima[j] = value
                elif old == minima[j] and value > old:
                    minima[j] = column.min()
            self._asc_ranks.pop(j, None)
            self._desc_ranks.pop(j, None)
        if maxima is None:
            return False
        maxima.setflags(write=False)
        minima.setflags(write=False)
        self.zone = ZoneStats(maxima, minima, n_positive, nnz_ge2, self.n_tuples)
        return True

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the materialised arrays."""
        total = self._store.nbytes + self._nnz.nbytes
        for cache in (self._asc_ranks, self._desc_ranks):
            total += sum(arr.nbytes for arr in cache.values())
        return total

    def __repr__(self) -> str:
        return (
            f"SubspacePlan(signature={self.signature}, n_tuples={self.n_tuples}, "
            f"~{self.nbytes / 1e6:.1f} MB)"
        )


@dataclass(frozen=True)
class PlanCacheStats:
    """A point-in-time snapshot of plan-cache effectiveness."""

    hits: int
    builds: int
    evictions: int
    size: int
    capacity: int
    #: Plans whose cells an applied batch changed (patched in place).
    patches: int = 0

    @property
    def lookups(self) -> int:
        """Total ``plan_for`` calls."""
        return self.hits + self.builds

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served by an existing plan (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


def _assert_current(plan: SubspacePlan, epoch: int) -> None:
    # advance() carries every resident plan forward with each batch, so a
    # plan from another epoch means a write bypassed InvertedIndex.apply.
    if plan.epoch != epoch:
        raise AssertionError(
            f"plan {plan.signature} is at epoch {plan.epoch}, index at {epoch}"
        )


class SubspacePlanCache:
    """A bounded, thread-safe LRU cache of :class:`SubspacePlan` objects.

    One cache per :class:`~repro.storage.index.InvertedIndex` (see its
    ``plans`` property); every engine and service sharing the index shares
    the plans.  Residency is doubly bounded — by plan count (*capacity*)
    and by total bytes (*max_bytes*; each plan holds a ``qlen × n_tuples``
    float64 column store plus rank arrays, so on large datasets the byte
    bound is the one that binds).  Cold builds are single-flighted per
    signature: concurrent first touches of one signature build the plan
    once and share it.
    """

    def __init__(
        self,
        index,
        capacity: int = 32,
        max_bytes: int = 256 * 1024 * 1024,
    ) -> None:
        require(capacity >= 1, "plan cache capacity must be >= 1")
        require(max_bytes >= 1, "plan cache max_bytes must be >= 1")
        self._index = index
        self.capacity = int(capacity)
        self.max_bytes = int(max_bytes)
        self._plans: "OrderedDict[Tuple[int, ...], SubspacePlan]" = OrderedDict()
        self._lock = threading.Lock()
        self._building: Dict[Tuple[int, ...], threading.Event] = {}
        self._hits = 0
        self._builds = 0
        self._evictions = 0
        self._patches = 0

    def plan_for(self, dims: Iterable[int] | np.ndarray) -> SubspacePlan:
        """The plan of *dims*' signature, built on first use.

        A resident plan is always at the index's epoch: :meth:`advance`
        patches it with every applied batch, so it is served as is.  A
        build is cached only if no write ran while it read the index
        (:attr:`InvertedIndex.write_seq
        <repro.storage.index.InvertedIndex.write_seq>` unchanged and even).
        """
        signature = signature_of(dims)
        while True:
            with self._lock:
                plan = self._plans.get(signature)
                if plan is not None:
                    _assert_current(plan, self._index.epoch)
                    self._plans.move_to_end(signature)
                    self._hits += 1
                    return plan
                pending = self._building.get(signature)
                if pending is None:
                    # This thread owns the build.
                    self._building[signature] = threading.Event()
                    break
            # Another thread is building this signature: wait for it, then
            # re-check (the finished plan may also have been evicted).
            pending.wait()
        # Build outside the lock: plan construction touches the dataset's
        # column cache and the index's lazy lists (both internally safe),
        # and a long build must not block lookups of other signatures.
        seq = self._index.write_seq
        try:
            plan = SubspacePlan(self._index, signature)
            with self._lock:
                self._builds += 1
                # A build that overlapped a write may hold torn columns
                # and missed advance(), so it is served once, uncached.
                # Only readers outside the writer gate get here, such as
                # a timed-out supervised shard call still running.
                if seq % 2 == 0 and self._index.write_seq == seq:
                    self._plans[signature] = plan
                    self._evict_over_budget()
        finally:
            with self._lock:
                self._building.pop(signature).set()
        return plan

    def advance(
        self, from_epoch: int, epoch: int, n_tuples: int, changes: CellChanges
    ) -> None:
        """Carry every resident plan from *from_epoch* to *epoch*.

        *changes* maps each changed dimension to its ``(row, new value)``
        cells in batch order.  Plans first grow to *n_tuples* rows when
        the batch inserted some; plans whose signature then misses every
        changed dimension are only re-stamped, the rest are patched in
        place.  A plan not at *from_epoch* is dropped, never patched.
        Each plan is changed under its rank lock, so a rank array built
        concurrently is built from the columns before or after the patch,
        never in between.  Growth can raise the plans' bytes, so the byte
        bound is re-applied after a batch with inserts.

        Called by :meth:`InvertedIndex.apply` only.
        """
        with self._lock:
            grew = False
            for signature, plan in list(self._plans.items()):
                if plan.epoch != from_epoch:
                    del self._plans[signature]
                    continue
                with plan._rank_lock:
                    if plan.n_tuples != n_tuples:
                        plan._grow(n_tuples)
                        grew = True
                    if plan._patch(changes):
                        self._patches += 1
                    plan.epoch = epoch
            if grew:
                self._evict_over_budget()

    def _evict_over_budget(self) -> None:
        """Drop LRU entries while over either bound (lock held by caller).

        The most recent insertion always stays resident — a plan larger
        than ``max_bytes`` on its own is served once rather than rejected.
        """
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self._evictions += 1
        while (
            len(self._plans) > 1
            and sum(plan.nbytes for plan in self._plans.values()) > self.max_bytes
        ):
            self._plans.popitem(last=False)
            self._evictions += 1

    def peek(self, dims: Iterable[int] | np.ndarray) -> Optional[SubspacePlan]:
        """The cached plan, or ``None`` — never builds, never counts hits."""
        signature = signature_of(dims)
        with self._lock:
            plan = self._plans.get(signature)
            if plan is not None:
                _assert_current(plan, self._index.epoch)
            return plan

    def clear(self) -> None:
        """Drop every plan (counters are kept; they describe the lifetime)."""
        with self._lock:
            self._plans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, dims) -> bool:
        with self._lock:
            return signature_of(dims) in self._plans

    def stats(self) -> PlanCacheStats:
        """Snapshot of hit/build/eviction/patch counts and occupancy."""
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                builds=self._builds,
                evictions=self._evictions,
                size=len(self._plans),
                capacity=self.capacity,
                patches=self._patches,
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"SubspacePlanCache(size={stats.size}/{stats.capacity}, "
            f"hits={stats.hits}, builds={stats.builds})"
        )
