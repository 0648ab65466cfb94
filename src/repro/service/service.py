"""A batch/concurrent query service over one shared inverted index.

:class:`QueryService` is the first piece of traffic-serving architecture
on top of the single-query :class:`~repro.core.engine.ImmutableRegionEngine`:

* **shared state** — one :class:`~repro.storage.index.InvertedIndex` and
  one engine per method serve every query; engines are stateless between
  runs (all run state is created inside ``compute``), so one engine can
  answer many queries concurrently; the index's
  :class:`~repro.storage.plan.SubspacePlanCache` amortises per-signature
  work (column block, probe-order ranks, lookup tables) across the whole
  service lifetime;
* **batching** — :meth:`run_batch` takes a whole
  :class:`~repro.datasets.workloads.QueryWorkload` (or any iterable of
  queries) and returns the computations in input order plus a
  :class:`~repro.service.stats.ServiceStats` readout.  Cache misses are
  grouped by dims signature and executed through
  :meth:`~repro.core.engine.ImmutableRegionEngine.compute_many`, so
  queries sharing a subspace share one plan and — in
  ``topk_mode="matmul"`` — one fused scoring pass;
* **caching** — finished computations land in a two-tier LRU
  :class:`~repro.service.cache.RegionCache`; bit-identical repeats
  replay the stored computation, and — with ``reuse="region"`` — a
  query matching a cached entry in all dimensions but one, whose
  deviating weight lies strictly inside that dimension's stored
  immutable region, is served by ``searchsorted`` membership in the
  :class:`~repro.service.cache.RegionIndex` and re-based onto the new
  weight without running the engine (the paper's §1 "skip re-querying
  while the slider stays inside the region", applied server-side);
* **single-flight** — duplicate queries *within* a batch are submitted
  once and share the result, so a hot query costs one engine run no
  matter how often it appears;
* **dynamic data** — :meth:`apply_mutations` applies a
  :class:`~repro.storage.mutations.MutationBatch` behind a
  readers/writer gate that drains in-flight query work first, patches
  the inverted lists and the resident subspace plans in place, and
  selectively invalidates cached regions on the changed dimensions via
  the Lemma 1 delta test (:mod:`repro.service.invalidation`);
* **pooling** — signature groups are chunked into *batch windows* and run
  through a ``concurrent.futures`` executor: ``"thread"`` (default; the
  engines share the in-process index and plans) or ``"process"`` (each
  worker rebuilds the engines — and its own plans — from the dataset),
  with ``"sequential"`` as the no-pool baseline.  The pool is created on
  first use and reused across batches; ``close()`` — or using the
  service as a context manager — shuts it down.

``topk_mode`` selects the execution mode for computed queries: ``"ta"``
(default) replays the paper's TA with exact access counters; ``"matmul"``
is the fused serving fast path — identical regions, counters not
simulated (see :meth:`ImmutableRegionEngine.compute_many`).

All stats accounting happens on the calling thread, so
:class:`ServiceStats` needs no locks; worker tasks only run engines.
Latency of a windowed query is attributed as its window's wall time
divided by the window size — the service-level amortised cost.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Executor, Future, ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .._util import require
from ..core.engine import (
    BACKENDS,
    METHODS,
    TOPK_MODES,
    ImmutableRegionEngine,
    RegionComputation,
)
from ..datasets.base import Dataset
from ..errors import QueryError
from ..metrics.diskmodel import DiskModel
from ..storage.index import InvertedIndex
from ..storage.mutations import Mutation, MutationBatch
from ..topk.query import Query
from .cache import CacheKey, RegionCache, region_cache_key
from .invalidation import invalidate_region_cache
from .router import plan_windows
from .stats import ServiceStats

__all__ = ["BatchResult", "EXECUTORS", "REUSE_MODES", "QueryService"]

#: Supported execution strategies for :meth:`QueryService.run_batch`.
EXECUTORS = ("sequential", "thread", "process")

#: Cache-reuse policies: ``"off"`` always computes (no lookups, no
#: inserts), ``"exact"`` replays bit-identical repeats only, ``"region"``
#: (default) additionally serves single-dimension weight perturbations
#: from cached immutable regions (see :meth:`RegionCache.lookup`).
REUSE_MODES = ("off", "exact", "region")


# ----------------------------------------------------------------------
# Process-pool plumbing.  Workers rebuild the engines from the dataset
# (pickled once per worker via the initializer) instead of unpickling a
# shared index per task; module-level functions keep the tasks picklable.
# ----------------------------------------------------------------------

def _coerce_batch(batch) -> MutationBatch:
    """Normalise ``apply_mutations`` input to one :class:`MutationBatch`.

    Mirrors the coercion inside :meth:`Dataset.apply`, hoisted up so the
    WAL logs exactly the batch the index will apply.
    """
    if isinstance(batch, MutationBatch):
        return batch
    if isinstance(batch, Mutation):
        return MutationBatch((batch,))
    return MutationBatch(tuple(batch))


_WORKER_STATE: Dict[str, object] = {}


def _process_worker_init(dataset: Dataset, engine_kwargs: Dict) -> None:
    _WORKER_STATE["index"] = InvertedIndex(dataset)
    _WORKER_STATE["engine_kwargs"] = engine_kwargs
    _WORKER_STATE["engines"] = {}


def _worker_engine(method: str) -> ImmutableRegionEngine:
    engines: Dict[str, ImmutableRegionEngine] = _WORKER_STATE["engines"]
    engine = engines.get(method)
    if engine is None:
        engine = engines[method] = ImmutableRegionEngine(
            _WORKER_STATE["index"], method=method, **_WORKER_STATE["engine_kwargs"]
        )
    return engine


def _process_worker_compute_many(
    method: str, queries: List[Query], k: int, phi: int, topk_mode: str
) -> Tuple[List[RegionComputation], float]:
    start = time.perf_counter()
    computations = _worker_engine(method).compute_many(
        queries, k, phi=phi, topk_mode=topk_mode
    )
    return computations, time.perf_counter() - start


class _ReadWriteGate:
    """A writer-preferring readers/writer gate.

    Query work (batches, single executes) enters as a *reader* — many may
    run concurrently.  :meth:`QueryService.apply_mutations` enters as the
    *writer*: it waits for in-flight readers to drain, blocks new ones
    while it patches the index and sweeps the caches, and releases.  A
    computation therefore always observes one consistent epoch — lists,
    plans, and dataset rows all from the same version — with no torn
    reads.  Writer preference keeps a stream of queries from starving
    mutations.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    @contextmanager
    def reading(self):
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def writing(self):
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True
        try:
            yield
        finally:
            with self._cond:
                self._writer_active = False
                self._cond.notify_all()


@dataclass
class BatchResult:
    """The outcome of one :meth:`QueryService.run_batch` call.

    ``computations[i]`` answers the i-th input query — identical to what
    a dedicated ``ImmutableRegionEngine.compute`` call would return for
    it (cache hits replay a previous identical run).
    """

    computations: List[RegionComputation]
    stats: ServiceStats = field(default_factory=ServiceStats)

    def __len__(self) -> int:
        return len(self.computations)

    def __iter__(self) -> Iterator[RegionComputation]:
        return iter(self.computations)

    def __getitem__(self, index: int) -> RegionComputation:
        return self.computations[index]


class QueryService:
    """Executes query batches against one shared index with caching.

    Parameters
    ----------
    data:
        The dataset to serve, or a prebuilt :class:`InvertedIndex` over it.
    method:
        Default region-computation method for queries that don't override it.
    executor:
        ``"thread"`` (default), ``"process"``, or ``"sequential"``.
    max_workers:
        Pool size for the pooled executors (``None``: the executor default).
    cache_capacity:
        LRU capacity of the shared :class:`RegionCache`.
    topk_mode:
        ``"ta"`` (default): computed queries replay the paper's TA with
        exact access counters.  ``"matmul"``: the fused serving fast path
        — identical regions/bounds, access counters not simulated.
    batch_window:
        Maximum queries per submitted ``compute_many`` task.  Within a
        signature group, up to this many queries share one fused pass;
        larger windows amortise better, smaller windows spread a group
        across more pool workers.
    reuse:
        Cache-reuse policy (:data:`REUSE_MODES`).  ``"region"`` (default)
        runs the two-tier lookup: exact hit → region hit → miss, where a
        region hit answers a query that deviates from a cached entry in
        one dimension's weight — strictly inside that dimension's stored
        immutable region — by re-basing the cached computation instead of
        running the engine.  ``"exact"`` is the bit-identical-repeat
        tier alone; ``"off"`` disables the cache entirely.  Single-flight
        dedup within a batch applies in every mode, and its serves are
        recorded under the ``"exact"`` tier (they are exact-key repeats
        answered from the batch itself, even when the cache is off).
    count_reorderings, probing, disk_model, backend:
        Forwarded to every engine (see :class:`ImmutableRegionEngine`);
        ``backend`` selects the vectorized fast path (default) or the
        scalar reference loops for the whole service, including process
        workers.
    """

    def __init__(
        self,
        data: Dataset | InvertedIndex,
        method: str = "cpt",
        executor: str = "thread",
        max_workers: Optional[int] = None,
        cache_capacity: int = 1024,
        count_reorderings: bool = True,
        probing: str = "max_impact",
        disk_model: Optional[DiskModel] = None,
        backend: str = "vector",
        topk_mode: str = "ta",
        batch_window: int = 128,
        reuse: str = "region",
        durability=None,
    ) -> None:
        require(method in METHODS, f"unknown method {method!r}")
        require(executor in EXECUTORS, f"unknown executor {executor!r}")
        require(backend in BACKENDS, f"unknown backend {backend!r}")
        require(topk_mode in TOPK_MODES, f"unknown topk_mode {topk_mode!r}")
        require(batch_window >= 1, "batch_window must be >= 1")
        require(reuse in REUSE_MODES, f"unknown reuse mode {reuse!r}")
        if max_workers is not None:
            require(max_workers >= 1, "max_workers must be >= 1")
        self.index = data if isinstance(data, InvertedIndex) else InvertedIndex(data)
        self.method = method
        self.executor = executor
        self.max_workers = max_workers
        self.count_reorderings = count_reorderings
        self.probing = probing
        self.backend = backend
        self.topk_mode = topk_mode
        self.batch_window = int(batch_window)
        self.reuse = reuse
        self.disk_model = disk_model if disk_model is not None else DiskModel()
        self.cache = RegionCache(cache_capacity, track_regions=(reuse == "region"))
        self._engines: Dict[str, ImmutableRegionEngine] = {}
        self._engines_lock = Lock()
        self._pool: Optional[Executor] = None
        self._dispatch: Optional[ThreadPoolExecutor] = None
        self._gate = _ReadWriteGate()
        # Serialises replicated batches so the epoch fence check and the
        # apply are one atomic step even when replicate ops race.
        self._replication_lock = Lock()
        #: Optional :class:`~repro.service.recovery.DurabilityManager`.
        #: When set, every acknowledged mutation batch is WAL-logged
        #: (fsynced) before it is applied, and periodic snapshots are
        #: taken inside the writer gate's quiescent window.
        self.durability = durability

    # ------------------------------------------------------------------

    def _engine_kwargs(self) -> Dict:
        return {
            "probing": self.probing,
            "disk_model": self.disk_model,
            "count_reorderings": self.count_reorderings,
            "backend": self.backend,
        }

    def engine_for(self, method: str) -> ImmutableRegionEngine:
        """The shared (lazily built) engine of one method."""
        require(method in METHODS, f"unknown method {method!r}")
        with self._engines_lock:
            engine = self._engines.get(method)
            if engine is None:
                engine = self._engines[method] = ImmutableRegionEngine(
                    self.index, method=method, **self._engine_kwargs()
                )
            return engine

    def _lookup(
        self, key: CacheKey, query: Query
    ) -> Tuple[Optional[RegionComputation], str]:
        """Tiered cache lookup honouring the service's ``reuse`` policy.

        Must run under the mutation gate (as a reader): the region tier
        re-bases against the live dataset, which the gate keeps at one
        consistent epoch for the duration of the lookup-or-compute.
        """
        if self.reuse == "region":
            return self.cache.lookup(key, query, self.index.dataset)
        if self.reuse == "exact":
            cached = self.cache.get(key)
            return cached, ("exact" if cached is not None else "miss")
        return None, "miss"

    def execute(
        self,
        query: Query,
        k: int,
        phi: int = 0,
        method: Optional[str] = None,
        deadline=None,
    ) -> RegionComputation:
        """Answer one query through the cache tiers (compute on miss).

        Runs as a *reader* of the mutation gate: a concurrent
        :meth:`apply_mutations` either happens entirely before the
        computation observes the index or entirely after it finishes.
        """
        return self.execute_tiered(query, k, phi, method, deadline=deadline)[0]

    def execute_tiered(
        self,
        query: Query,
        k: int,
        phi: int = 0,
        method: Optional[str] = None,
        deadline=None,
    ) -> Tuple[RegionComputation, str]:
        """:meth:`execute` plus the serving tier the answer came from.

        The tier is one of :data:`~repro.service.stats.TIERS` — the serve
        gateway reports it per response so clients can see whether a
        query touched the engine (and, in the sharded service, any shard)
        at all.

        *deadline* (a :class:`~repro.service.deadline.Deadline`) bounds
        the request end to end: checked before the cache lookup and
        propagated into the engine, where shard dispatch and merge
        barriers enforce it (:class:`~repro.errors.DeadlineExceeded` on
        exhaustion — a cheap cache hit can still answer inside a nearly
        spent budget).
        """
        method = self.method if method is None else method
        key = region_cache_key(query, k, phi, method, self.count_reorderings)
        with self._gate.reading():
            if deadline is not None:
                deadline.check("admission")
            cached, tier = self._lookup(key, query)
            if cached is not None:
                return cached, tier
            computation = self.engine_for(method).compute_many(
                [query], k, phi=phi, topk_mode=self.topk_mode, deadline=deadline
            )[0]
            if self.reuse != "off":
                self.cache.put(key, computation)
            return computation, "computed"

    def submit(
        self, query: Query, k: int, phi: int = 0, method: Optional[str] = None
    ) -> "Future[RegionComputation]":
        """Asynchronous :meth:`execute`: returns a future resolving to the
        computation.

        The query runs on a dedicated dispatch pool — deliberately *not*
        the batch-window pool: a gate-blocked submission must never sit in
        front of the windows of an in-flight batch that already holds the
        gate.  Each submission takes the mutation gate as a reader, so
        racing :meth:`apply_mutations` calls serialise against it and
        every resolved computation reflects one consistent epoch.
        """
        with self._engines_lock:
            if self._dispatch is None:
                self._dispatch = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-submit"
                )
            dispatch = self._dispatch
        return dispatch.submit(self.execute, query, k, phi, method)

    def run_stream(
        self,
        queries: Iterable[Query],
        k: int,
        phi: int = 0,
        method: Optional[str] = None,
    ) -> BatchResult:
        """Answer queries strictly in arrival order (interactive traffic).

        The serving model for refinement UIs: each query is looked up at
        *its* point in the stream, so a slider tick can be served from
        the immutable region its own anchor computed moments earlier.
        (:meth:`run_batch`, by contrast, resolves every cache lookup
        before computing anything — right for bulk workloads, but a drag
        burst inside one batch would miss the regions the burst itself
        is about to produce.)  Each query takes the mutation gate as a
        reader individually, so a mutation can land between two ticks —
        exactly like a stream of :meth:`execute` calls, plus the
        per-tier :class:`ServiceStats` accounting.
        """
        method = self.method if method is None else method
        require(method in METHODS, f"unknown method {method!r}")
        stats = ServiceStats()
        computations: List[RegionComputation] = []
        start = time.perf_counter()
        for query in queries:
            if not isinstance(query, Query):
                raise QueryError(f"stream items must be Query objects, got {query!r}")
            key = region_cache_key(query, k, phi, method, self.count_reorderings)
            query_start = time.perf_counter()
            with self._gate.reading():
                cached, tier = self._lookup(key, query)
                if cached is not None:
                    stats.record(
                        method, time.perf_counter() - query_start, True, tier=tier
                    )
                    computations.append(cached)
                    continue
                computation = self.engine_for(method).compute_many(
                    [query], k, phi=phi, topk_mode=self.topk_mode
                )[0]
                if self.reuse != "off":
                    self.cache.put(key, computation)
            stats.record(
                method,
                time.perf_counter() - query_start,
                False,
                metrics=computation.metrics,
            )
            computations.append(computation)
        require(len(computations) >= 1, "stream must contain at least one query")
        stats.wall_seconds = time.perf_counter() - start
        return BatchResult(computations=computations, stats=stats)

    def apply_mutations(self, batch) -> ServiceStats:
        """Apply a :class:`~repro.storage.mutations.MutationBatch` to the
        served dataset, invalidating only what the mutations can affect.

        Entry point for dynamic data (see the README's "Dynamic data"
        section).  Holding the mutation gate as the *writer* — i.e. after
        every in-flight batch window and single execute has drained, and
        before any new one starts — it:

        1. routes the batch through :meth:`InvertedIndex.apply`
           (incremental list patching, in-place patching of resident
           subspace plans, epoch bump);
        2. sweeps the region cache through the delta test of
           :mod:`repro.service.invalidation` — only entries whose
           subspace holds a changed dimension are tested; those whose
           regions provably survive the touched tuples' score-line
           moves stay cached, the rest are evicted;
        3. for the process executor, retires the worker pool (workers
           hold pre-mutation index copies; the next batch respawns them
           against the mutated dataset).

        The cost is O(changed coordinates × resident plans + cache
        entries on the changed dimensions).  Returns a
        :class:`ServiceStats` carrying the invalidation stats
        (``mutations_applied``, ``regions_kept``/``regions_evicted``,
        ``plans_patched``) and the wall time of the whole step.
        """
        stats = ServiceStats()
        start = time.perf_counter()
        batch = _coerce_batch(batch)
        with self._gate.writing():
            if self.durability is not None:
                # Log-before-apply: the batch is durable (fsynced) before
                # any state changes, so a crash after this point replays
                # it and a crash before it never acknowledged anything.
                self.durability.log(batch, self.index.epoch + 1)
            patches = self.index.plans.stats().patches
            applied = self.index.apply(batch)
            stats.plans_patched = self.index.plans.stats().patches - patches
            kept, evicted = invalidate_region_cache(
                self.cache, applied, self.index.dataset
            )
            if self.executor == "process" and self._pool is not None:
                self._pool.shutdown(wait=True)
                self._pool = None
            if self.durability is not None and self.durability.note_batch():
                self._snapshot_locked()
        stats.mutation_batches = 1
        stats.mutations_applied = len(applied)
        stats.regions_kept = kept
        stats.regions_evicted = evicted
        stats.wall_seconds = time.perf_counter() - start
        return stats

    def apply_replicated(self, batch, epoch: int) -> ServiceStats:
        """Apply an epoch-stamped batch shipped by a replication primary.

        The fence mirrors the WAL's sequential-epoch refusal: *epoch*
        must be exactly this replica's next version, otherwise a batch
        was lost or reordered in flight and applying this one would
        silently diverge from the primary — a structured
        :class:`~repro.errors.ReplicationError` is raised instead, and
        the primary (or its catch-up path) must replay the gap first.
        Batches at or below the current epoch are also refused: a
        duplicate delivery must not double-apply.
        """
        from ..errors import ReplicationError

        batch = _coerce_batch(batch)
        with self._replication_lock:
            expected = self.index.epoch + 1
            if int(epoch) != expected:
                raise ReplicationError(
                    f"epoch fence: replica at {self.index.epoch}, expected "
                    f"batch for epoch {expected}, got {int(epoch)}"
                )
            return self.apply_mutations(batch)

    # ------------------------------------------------------------------

    def run_batch(
        self,
        queries: Iterable[Query],
        k: int,
        phi: int = 0,
        method: Optional[str] = None,
    ) -> BatchResult:
        """Answer every query of a workload; results come in input order.

        Accepts a :class:`QueryWorkload` or any iterable of queries.
        Cache misses are grouped by dims signature, chunked into
        ``batch_window``-sized windows, and executed via
        ``compute_many``; per-query latency is the window's amortised
        wall time, while ``stats.wall_seconds`` covers the whole batch
        including scheduling.
        """
        batch = list(queries)
        require(len(batch) >= 1, "batch must contain at least one query")
        for query in batch:
            if not isinstance(query, Query):
                raise QueryError(f"batch items must be Query objects, got {query!r}")
        method = self.method if method is None else method
        require(method in METHODS, f"unknown method {method!r}")

        stats = ServiceStats()
        start = time.perf_counter()
        with self._gate.reading():
            computations = self._run_windows(batch, k, phi, method, stats)
        stats.wall_seconds = time.perf_counter() - start
        return BatchResult(computations=computations, stats=stats)

    # ------------------------------------------------------------------

    def _plan_windows(
        self,
        batch: List[Query],
        keys: List[CacheKey],
        slots: List[Optional[RegionComputation]],
        stats: ServiceStats,
        method: str,
    ) -> Tuple[List[List[int]], Dict[CacheKey, int]]:
        """Resolve cache hits and window the remaining misses.

        Delegates to :func:`repro.service.router.plan_windows` — the
        grouping/window-planning implementation shared with the sharded
        serving path — bound to this service's tiered lookup and window
        size.
        """
        return plan_windows(
            batch, keys, slots, stats, method, self.batch_window, self._lookup
        )

    def _settle(
        self,
        batch: List[Query],
        keys: List[CacheKey],
        slots: List[Optional[RegionComputation]],
        owner_of: Dict[CacheKey, int],
        stats: ServiceStats,
        method: str,
    ) -> List[RegionComputation]:
        """Resolve single-flight duplicates after every owner has landed.

        The owner's slot answers the duplicate — whether the owner was an
        exact replay, a region-tier view, or a fresh computation — so a
        repeated perturbed query costs one lookup and one re-base for the
        whole batch, not one per occurrence.  For cached (non-view)
        owners the entry is re-fetched through :meth:`RegionCache.get` so
        the cache's lifetime hit counters keep agreeing with the
        service-level accounting; region views are never inserted, so
        their duplicates come straight from the owner's slot.
        """
        for i, key in enumerate(keys):
            if slots[i] is not None:
                continue
            lookup_start = time.perf_counter()
            owner_slot = slots[owner_of[key]]
            assert owner_slot is not None
            replay = None
            if self.reuse != "off" and owner_slot.reuse is None:
                # Can only miss if this batch alone overflowed the LRU
                # capacity; the owner's slot still answers either way.
                replay = self.cache.get(key)
            slots[i] = replay if replay is not None else owner_slot
            # Duplicates are exact-key repeats answered from the batch
            # itself, whatever tier the owner came from — only the owner's
            # record carries the region tier, so n_region_hits stays equal
            # to the number of re-bases actually performed.
            stats.record(
                method, time.perf_counter() - lookup_start, True, tier="exact"
            )
        assert all(slot is not None for slot in slots)
        return slots  # type: ignore[return-value]

    def _record_window(
        self,
        window: List[int],
        computations: List[RegionComputation],
        seconds: float,
        keys: List[CacheKey],
        slots: List[Optional[RegionComputation]],
        stats: ServiceStats,
        method: str,
    ) -> None:
        share = seconds / len(window)
        for i, computation in zip(window, computations):
            if self.reuse != "off":
                self.cache.put(keys[i], computation)
            stats.record(method, share, False, metrics=computation.metrics)
            slots[i] = computation

    def _run_windows(
        self,
        batch: List[Query],
        k: int,
        phi: int,
        method: str,
        stats: ServiceStats,
    ) -> List[RegionComputation]:
        keys: List[CacheKey] = [
            region_cache_key(query, k, phi, method, self.count_reorderings)
            for query in batch
        ]
        slots: List[Optional[RegionComputation]] = [None] * len(batch)
        windows, owner_of = self._plan_windows(batch, keys, slots, stats, method)

        if self.executor == "sequential":
            engine = self.engine_for(method)
            for window in windows:
                window_queries = [batch[i] for i in window]
                window_start = time.perf_counter()
                computations = engine.compute_many(
                    window_queries, k, phi=phi, topk_mode=self.topk_mode
                )
                seconds = time.perf_counter() - window_start
                self._record_window(
                    window, computations, seconds, keys, slots, stats, method
                )
            return self._settle(batch, keys, slots, owner_of, stats, method)

        pool = self._get_pool()
        futures: List[Tuple[List[int], "Future[Tuple[List[RegionComputation], float]]"]] = []
        for window in windows:
            window_queries = [batch[i] for i in window]
            futures.append(
                (window, self._submit(pool, method, window_queries, k, phi))
            )
        for window, future in futures:
            computations, seconds = future.result()
            self._record_window(
                window, computations, seconds, keys, slots, stats, method
            )
        return self._settle(batch, keys, slots, owner_of, stats, method)

    def _get_pool(self) -> Executor:
        """The service's executor, created on first use and reused.

        Reuse matters most in process mode: workers are spawned and the
        dataset pickled into them once per service, not once per batch,
        and worker-side engines, inverted lists, and subspace plans stay
        warm across batches.
        """
        if self._pool is None:
            if self.executor == "process":
                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    initializer=_process_worker_init,
                    initargs=(self.index.dataset, self._engine_kwargs()),
                )
            else:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.max_workers, thread_name_prefix="repro-query"
                )
        return self._pool

    def _snapshot_locked(self) -> None:
        """Persist a snapshot; caller holds the writer gate (quiescent)."""
        self.durability.snapshot(self.index.dataset, cache=self.cache)

    def snapshot_now(self) -> bool:
        """Take an epoch-consistent snapshot immediately (if durable).

        Drains in-flight query windows (writer gate) first, so the
        persisted arrays, epoch, and atlas all belong to one version.
        The graceful-drain path of ``repro serve`` calls this as its
        final flush.  Returns whether a snapshot was written.
        """
        if self.durability is None:
            return False
        with self._gate.writing():
            self._snapshot_locked()
        return True

    def durability_counters(self) -> Dict[str, float]:
        """Merged durability counters, or ``{}`` when not durable."""
        if self.durability is None:
            return {}
        return self.durability.counters()

    def close(self) -> None:
        """Shut down the worker pools (idempotent; the cache survives)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._dispatch is not None:
            self._dispatch.shutdown(wait=True)
            self._dispatch = None
        if self.durability is not None:
            self.durability.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _submit(
        self,
        pool: Executor,
        method: str,
        window_queries: List[Query],
        k: int,
        phi: int,
    ) -> "Future[Tuple[List[RegionComputation], float]]":
        if self.executor == "process":
            return pool.submit(
                _process_worker_compute_many,
                method,
                window_queries,
                k,
                phi,
                self.topk_mode,
            )
        engine = self.engine_for(method)

        def task() -> Tuple[List[RegionComputation], float]:
            task_start = time.perf_counter()
            computations = engine.compute_many(
                window_queries, k, phi=phi, topk_mode=self.topk_mode
            )
            return computations, time.perf_counter() - task_start

        return pool.submit(task)

    def __repr__(self) -> str:
        return (
            f"QueryService(method={self.method!r}, executor={self.executor!r}, "
            f"topk_mode={self.topk_mode!r}, reuse={self.reuse!r}, "
            f"max_workers={self.max_workers}, cache={self.cache!r})"
        )
