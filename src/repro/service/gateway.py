"""Sharded serving: :class:`ShardedQueryService` and the async front door.

This module is the service tier of the sharded architecture
(:mod:`repro.storage.sharded` → :mod:`repro.core.distributed` → here):

* :class:`ShardedQueryService` is a :class:`~repro.service.service.QueryService`
  whose engines are :class:`~repro.core.distributed.DistributedEngine`
  coordinators over one shared :class:`~repro.storage.sharded.ShardedIndex`.
  Everything above the engine — the two-tier region cache, single-flight,
  window planning (:mod:`repro.service.router`), the mutation gate, the
  stats accounting — is inherited unchanged, so a region-tier hit is
  served *before any shard is touched* and mutations route through the
  shard router with delta-aware invalidation on top.
* :class:`AsyncGateway` is an asyncio front door over any query service:
  per-request admission control (bounded in-flight + bounded queue), an
  optional :class:`TokenBucket` rate limiter, and a JSON-lines-over-TCP
  protocol (``repro serve``).  Blocking service calls run on an executor,
  so the event loop keeps accepting, admitting, and shedding while shard
  fan-out is in flight.

The wire protocol is one JSON object per line, one JSON object back:

``{"op": "query", "dims": [...], "weights": [...], "k": 10}``
    → ``{"ok": true, "tier": ..., "result": [[id, score], ...],
    "regions": {dim: {"weight": w, "interval": [l_j, u_j]}}, ...}`` —
    the paper's slider marks per query dimension, straight from the
    computed (or cache-served) immutable regions.
``{"op": "mutate", "mutations": [{"kind": "update", "id": 3, "dim": 1,
"value": 0.5}, ...]}``
    → invalidation stats (regions kept/evicted, plans patched).
``{"op": "stats"}`` / ``{"op": "ping"}``
    → gateway counters + per-tier latency rollups / liveness.

Failure semantics (see README "Operating under failure"): every error
reply carries a stable ``code`` from :data:`ERROR_CODES` next to the
legacy ``error`` string; a request may carry ``deadline_ms`` (or inherit
the gateway's ``default_deadline_ms``) and is then bounded end to end —
exhaustion returns ``DEADLINE_EXCEEDED``, never a hang.  Unexpected
exceptions are logged with traceback and masked as ``INTERNAL``, not
misreported as client errors.
"""

from __future__ import annotations

import asyncio
import base64
import functools
import json
import logging
import signal
import threading
import time
from typing import Dict, List, Optional, Tuple

from .._util import require
from ..core.distributed import (
    SHARD_FAILURE_POLICIES,
    DistributedEngine,
    _InProcessTransport,
)
from ..core.engine import METHODS
from ..core.supervision import SupervisedTransport, SupervisionPolicy
from ..errors import (
    DeadlineExceeded,
    DegradedError,
    RecoveryError,
    ReplicationError,
    ReproError,
    ServiceError,
)
from ..metrics.diskmodel import DiskModel
from ..storage.durability import (
    DEFAULT_SYNC_CHUNK,
    build_sync_manifest,
    read_sync_chunk,
)
from ..storage.index import InvertedIndex
from ..storage.mutations import Mutation
from ..storage.sharded import ShardedIndex
from ..topk.query import Query
from .deadline import deadline_from_payload
from .invalidation import invalidate_region_cache
from .service import QueryService, _coerce_batch
from .stats import ServiceStats

__all__ = [
    "ERROR_CODES",
    "AsyncGateway",
    "ShardedQueryService",
    "TokenBucket",
    "error_reply",
]

logger = logging.getLogger(__name__)

#: The stable error taxonomy of the wire protocol.  ``code`` is the field
#: clients should branch on; the legacy ``error`` string stays for
#: backwards compatibility and extra human granularity (e.g. both
#: ``rate_limited`` and ``overloaded`` map to ``OVERLOADED``).
ERROR_CODES = (
    "BAD_REQUEST",
    "OVERLOADED",
    "DEADLINE_EXCEEDED",
    "DEGRADED",
    "INTERNAL",
    "UNAVAILABLE",
    "EPOCH_FENCE",
)


def error_reply(
    code: str, error: str, message: Optional[str] = None, **extra
) -> Dict:
    """A structured error response: stable ``code`` + legacy ``error``."""
    require(code in ERROR_CODES, f"unknown error code {code!r}")
    reply: Dict = {"ok": False, "code": code, "error": error}
    if message:
        reply["message"] = message
    reply.update(extra)
    return reply


class ShardedQueryService(QueryService):
    """A query service whose compute path fans out over index shards.

    Parameters are :class:`QueryService`'s, minus ``executor`` (windows
    run on the calling thread) and plus:

    n_shards:
        Row-range shard count (ignored when *data* is already a
        :class:`ShardedIndex`).
    shard_executor:
        Accepts only ``"sequential"``; kept for existing callers.  The
        shards live in this process and the coordinator calls them one
        at a time, interleaving shard-skip certificates with the merge
        (see :mod:`repro.core.distributed`).  One transport is shared by
        every per-method engine, and concurrent requests run their shard
        calls on their own threads.

    ``topk_mode`` defaults to ``"matmul"`` here — the fused path is the
    one that shards; TA replays delegate to the embedded unsharded
    oracle either way.

    Fault tolerance is opt-in: pass ``supervision=True`` (default
    policy) or a :class:`~repro.core.supervision.SupervisionPolicy` to
    wrap the shard transport in a
    :class:`~repro.core.supervision.SupervisedTransport` (retries,
    respawn, circuit breakers), and ``on_shard_failure`` to choose what
    happens when a shard stays down: ``"oracle"`` recomputes the chunk
    on the embedded unsharded oracle (exact answers, slower),
    ``"degraded"`` raises :class:`~repro.errors.DegradedError` so the
    gateway can return an explicit partial-availability response.
    *fault_plan* injects deterministic failures (tests/benchmarks) and
    implies supervision.
    """

    def __init__(
        self,
        data: "Dataset | InvertedIndex | ShardedIndex",
        n_shards: int = 4,
        shard_executor: str = "sequential",
        method: str = "cpt",
        max_workers: Optional[int] = None,
        cache_capacity: int = 1024,
        count_reorderings: bool = True,
        probing: str = "max_impact",
        disk_model: Optional[DiskModel] = None,
        backend: str = "vector",
        topk_mode: str = "matmul",
        batch_window: int = 128,
        reuse: str = "region",
        on_shard_failure: str = "oracle",
        supervision: "SupervisionPolicy | bool | None" = None,
        fault_plan=None,
        durability=None,
    ) -> None:
        require(
            shard_executor == "sequential",
            f"unknown shard_executor {shard_executor!r}; only 'sequential' "
            "remains (shards are called in-process)",
        )
        require(
            on_shard_failure in SHARD_FAILURE_POLICIES,
            f"unknown on_shard_failure {on_shard_failure!r}; "
            f"expected one of {SHARD_FAILURE_POLICIES}",
        )
        if isinstance(data, ShardedIndex):
            self.sharded = data
        else:
            self.sharded = ShardedIndex(data, n_shards)
        self.on_shard_failure = on_shard_failure
        if supervision is True:
            policy: Optional[SupervisionPolicy] = SupervisionPolicy()
        elif isinstance(supervision, SupervisionPolicy):
            policy = supervision
        else:
            require(
                supervision in (None, False),
                "supervision must be True, False, None or a SupervisionPolicy",
            )
            policy = SupervisionPolicy() if fault_plan is not None else None
        self.supervision_policy = policy
        self.fault_plan = fault_plan
        transport = _InProcessTransport(self.sharded)
        if policy is not None:
            transport = SupervisedTransport(
                transport,
                self.sharded.n_shards,
                policy=policy,
                fault_plan=fault_plan,
            )
        self._shard_transport = transport
        super().__init__(
            self.sharded.index,
            method=method,
            executor="sequential",
            max_workers=max_workers,
            cache_capacity=cache_capacity,
            count_reorderings=count_reorderings,
            probing=probing,
            disk_model=disk_model,
            backend=backend,
            topk_mode=topk_mode,
            batch_window=batch_window,
            reuse=reuse,
            durability=durability,
        )

    @property
    def n_shards(self) -> int:
        return self.sharded.n_shards

    def engine_for(self, method: str) -> DistributedEngine:
        """The shared (lazily built) distributed engine of one method."""
        require(method in METHODS, f"unknown method {method!r}")
        with self._engines_lock:
            engine = self._engines.get(method)
            if engine is None:
                engine = self._engines[method] = DistributedEngine(
                    self.sharded,
                    method=method,
                    transport=self._shard_transport,
                    on_shard_failure=self.on_shard_failure,
                    **self._engine_kwargs(),
                )
            return engine

    def supervision_snapshot(self) -> Dict:
        """Supervision counters + breaker states (``{}`` if unsupervised)."""
        snapshot = getattr(self._shard_transport, "supervision_snapshot", None)
        if callable(snapshot):
            out = dict(snapshot())
            with self._engines_lock:
                engines = tuple(self._engines.values())
            out["oracle_failovers"] = sum(
                getattr(engine, "oracle_failovers", 0) for engine in engines
            )
            return out
        return {}

    def apply_mutations(self, batch) -> ServiceStats:
        """Sharded :meth:`QueryService.apply_mutations`.

        Behind the writer gate: route the batch through the shard router
        (global validation + per-shard replay, untouched shards keep
        their epochs), which patches the resident plans of the global
        index and of every touched shard in place; sweep the region
        cache entries on the changed dimensions with the Lemma 1 delta
        test.  The shard workers read the live shards, so nothing else
        needs refreshing.  The cost is O(changed coordinates × resident
        plans + cache entries on the changed dimensions).
        """
        stats = ServiceStats()
        start = time.perf_counter()
        batch = _coerce_batch(batch)
        with self._gate.writing():
            if self.durability is not None:
                self.durability.log(batch, self.index.epoch + 1)
            patches = self.sharded.plan_patches
            applied = self.sharded.apply(batch)
            stats.plans_patched = self.sharded.plan_patches - patches
            kept, evicted = invalidate_region_cache(
                self.cache, applied, self.index.dataset
            )
            if self.durability is not None and self.durability.note_batch():
                self._snapshot_locked()
        stats.mutation_batches = 1
        stats.mutations_applied = len(applied)
        stats.regions_kept = kept
        stats.regions_evicted = evicted
        stats.wall_seconds = time.perf_counter() - start
        return stats

    def _snapshot_locked(self) -> None:
        """Sharded snapshot: also persist the shard fence and epochs."""
        self.durability.snapshot(
            self.index.dataset,
            starts=list(self.sharded.starts),
            shard_epochs=list(self.sharded.shard_epochs),
            cache=self.cache,
        )

    def close(self) -> None:
        super().close()
        self._shard_transport.close()

    def __repr__(self) -> str:
        return (
            f"ShardedQueryService(n_shards={self.n_shards}, "
            f"method={self.method!r}, "
            f"topk_mode={self.topk_mode!r}, reuse={self.reuse!r})"
        )


class TokenBucket:
    """A thread-safe token bucket: *rate* tokens/second, capacity *burst*.

    The clock is injectable so admission behaviour is testable without
    sleeping; the default is :func:`time.monotonic`.
    """

    def __init__(self, rate: float, burst: float, clock=time.monotonic) -> None:
        require(rate > 0.0, "rate must be > 0")
        require(burst >= 1.0, "burst must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock
        self._tokens = float(burst)
        self._stamp = clock()
        self._lock = threading.Lock()

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take *tokens* if available right now; never blocks."""
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False


def _parse_mutation(spec: Dict) -> Mutation:
    kind = spec.get("kind")
    if kind == "insert":
        return Mutation.insert(spec["dims"], spec["values"])
    if kind == "delete":
        return Mutation.delete(spec["id"])
    if kind == "update":
        return Mutation.update(spec["id"], spec["dim"], spec["value"])
    raise ReproError(f"unknown mutation kind {kind!r}")


class AsyncGateway:
    """Asyncio front door over a query service (JSON lines over TCP).

    Admission control is two-stage: at most *max_concurrent* requests
    execute at once (an :class:`asyncio.Semaphore`), and at most
    *max_queue* more may wait for a slot — anything beyond is shed
    immediately with ``{"error": "overloaded"}``.  An optional token
    bucket (*rate*/*burst*) sheds with ``{"error": "rate_limited"}``
    before a request even queues.  Blocking service calls run on the
    loop's default executor; the service's own readers/writer gate
    keeps them consistent with concurrent mutations.

    Per-query stats land in :attr:`stats` (a
    :class:`~repro.service.stats.ServiceStats`), recorded with the tier
    reported by :meth:`QueryService.execute_tiered` — so the stats
    endpoint shows how much traffic the region tier absorbed before any
    shard (or engine) was touched.
    """

    def __init__(
        self,
        service: QueryService,
        k: int = 10,
        phi: int = 0,
        max_concurrent: int = 8,
        max_queue: int = 64,
        rate: Optional[float] = None,
        burst: Optional[float] = None,
        default_deadline_ms: Optional[float] = None,
        fault_plan=None,
    ) -> None:
        require(k >= 1, "k must be >= 1")
        require(phi >= 0, "phi must be >= 0")
        require(max_concurrent >= 1, "max_concurrent must be >= 1")
        require(max_queue >= 0, "max_queue must be >= 0")
        require(
            default_deadline_ms is None or default_deadline_ms > 0,
            "default_deadline_ms must be > 0",
        )
        self.service = service
        self.k = int(k)
        self.phi = int(phi)
        self.max_concurrent = int(max_concurrent)
        self.max_queue = int(max_queue)
        self.default_deadline_ms = default_deadline_ms
        self.fault_plan = fault_plan
        self.bucket = (
            TokenBucket(rate, burst if burst is not None else max(rate, 1.0))
            if rate is not None
            else None
        )
        self.stats = ServiceStats()
        self.n_rejected_rate = 0
        self.n_rejected_load = 0
        self.n_errors = 0
        self.n_internal = 0
        self.n_replicated = 0
        self.n_sync_manifests = 0
        self._pending = 0
        self._draining = False
        self._n_connections = 0
        self._slots: Optional[asyncio.Semaphore] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._client_tasks: set = set()

    # -- request handling ------------------------------------------------

    async def handle(self, payload: Dict) -> Dict:
        """Answer one request object; never raises (errors become responses)."""
        try:
            op = payload.get("op", "query")
            if op == "ping":
                # The epoch lets replication peers track freshness from
                # liveness probes alone (fence waits, catch-up targeting).
                return {
                    "ok": True,
                    "op": "ping",
                    "epoch": self.service.index.epoch,
                }
            if op == "stats":
                return {"ok": True, "op": "stats", "stats": self.stats_snapshot()}
            if op == "query":
                return await self._handle_query(payload)
            if op == "mutate":
                return await self._handle_mutate(payload)
            if op == "replicate":
                return await self._handle_replicate(payload)
            if op == "sync_manifest":
                return await self._handle_sync_manifest()
            if op == "sync_chunk":
                return await self._handle_sync_chunk(payload)
            return error_reply(
                "BAD_REQUEST", "bad_request", f"unknown op {op!r}"
            )
        except Exception:  # noqa: BLE001 — last-resort guard for the wire
            logger.exception("unexpected error handling %r", payload.get("op"))
            self.n_internal += 1
            return error_reply("INTERNAL", "internal", "unexpected server error")

    def _admit(self) -> Optional[Dict]:
        if self._draining:
            self.n_rejected_load += 1
            return error_reply(
                "OVERLOADED", "shutting_down", "gateway is draining"
            )
        if self.bucket is not None and not self.bucket.try_acquire():
            self.n_rejected_rate += 1
            return error_reply("OVERLOADED", "rate_limited")
        if self._pending >= self.max_concurrent + self.max_queue:
            self.n_rejected_load += 1
            return error_reply("OVERLOADED", "overloaded")
        return None

    def _deadline_reply(self, exc: DeadlineExceeded) -> Dict:
        self.stats.deadline_hits += 1
        self.n_errors += 1
        return error_reply(
            "DEADLINE_EXCEEDED",
            "deadline_exceeded",
            str(exc),
            budget_ms=round(exc.budget * 1000.0, 3),
            elapsed_ms=round(exc.elapsed * 1000.0, 3),
            where=exc.where,
        )

    async def _handle_query(self, payload: Dict) -> Dict:
        rejected = self._admit()
        if rejected is not None:
            return rejected
        try:
            deadline = deadline_from_payload(payload, self.default_deadline_ms)
        except ReproError as exc:
            self.n_errors += 1
            return error_reply("BAD_REQUEST", "bad_request", str(exc))
        if self._slots is None:
            self._slots = asyncio.Semaphore(self.max_concurrent)
        self._pending += 1
        try:
            try:
                if deadline is None:
                    await self._slots.acquire()
                else:
                    # Evaluate the remaining budget before creating the
                    # acquire() coroutine — timeout() raises on an
                    # already-expired deadline.
                    timeout = deadline.timeout("queue")
                    await asyncio.wait_for(self._slots.acquire(), timeout=timeout)
            except (asyncio.TimeoutError, DeadlineExceeded):
                # Either the pre-acquire check tripped or the queue wait
                # burned the rest of the budget.
                return self._deadline_reply(
                    DeadlineExceeded(
                        deadline.budget, deadline.elapsed(), where="queue"
                    )
                )
            try:
                loop = asyncio.get_running_loop()
                start = time.perf_counter()
                try:
                    query = Query(payload["dims"], payload["weights"])
                    k = int(payload.get("k", self.k))
                    phi = int(payload.get("phi", self.phi))
                    method = payload.get("method")
                    min_epoch = payload.get("min_epoch")
                    if min_epoch is not None:
                        min_epoch = int(min_epoch)
                    kwargs = {"deadline": deadline}
                    if min_epoch is not None and getattr(
                        self.service, "supports_min_epoch", False
                    ):
                        # Replica sets route on freshness themselves.
                        kwargs["min_epoch"] = min_epoch
                    computation, tier = await loop.run_in_executor(
                        None,
                        functools.partial(
                            self.service.execute_tiered,
                            query,
                            k,
                            phi,
                            method,
                            **kwargs,
                        ),
                    )
                except DeadlineExceeded as exc:
                    return self._deadline_reply(exc)
                except DegradedError as exc:
                    self.stats.degraded_responses += 1
                    self.n_errors += 1
                    return error_reply(
                        "DEGRADED",
                        "degraded",
                        str(exc),
                        shards_consulted=list(exc.shards_consulted),
                        failed_shards=list(exc.failed_shards),
                    )
                except ReplicationError as exc:
                    # No healthy replica could answer — a structured
                    # refusal, never a hang or a silently wrong answer.
                    self.n_errors += 1
                    return error_reply("UNAVAILABLE", "unavailable", str(exc))
                except ServiceError:
                    # Infrastructure failure that escaped supervision —
                    # a server-side problem, not a client error.
                    logger.exception("shard infrastructure failure")
                    self.n_internal += 1
                    return error_reply(
                        "INTERNAL", "internal", "shard infrastructure failure"
                    )
                except (ReproError, KeyError, TypeError, ValueError) as exc:
                    self.n_errors += 1
                    return error_reply("BAD_REQUEST", "query_error", str(exc))
                seconds = time.perf_counter() - start
                self.stats.record(
                    computation.method,
                    seconds,
                    tier != "computed",
                    metrics=computation.metrics if tier == "computed" else None,
                    tier=tier,
                )
                reply = self._render(computation, tier, seconds)
                if min_epoch is not None and computation.epoch < min_epoch:
                    # Bounded staleness, made explicit: the client asked
                    # for at least min_epoch and got an older view.  A
                    # replica set already counted this; count it here for
                    # plain services.
                    reply["stale"] = True
                    if not getattr(self.service, "supports_min_epoch", False):
                        self.stats.stale_reads += 1
                return reply
            finally:
                self._slots.release()
        finally:
            self._pending -= 1

    async def _handle_mutate(self, payload: Dict) -> Dict:
        rejected = self._admit()
        if rejected is not None:
            return rejected
        loop = asyncio.get_running_loop()
        try:
            batch = [_parse_mutation(spec) for spec in payload["mutations"]]
            stats = await loop.run_in_executor(
                None, self.service.apply_mutations, batch
            )
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self.n_errors += 1
            return error_reply("BAD_REQUEST", "mutation_error", str(exc))
        self.stats.mutation_batches += stats.mutation_batches
        self.stats.mutations_applied += stats.mutations_applied
        self.stats.regions_kept += stats.regions_kept
        self.stats.regions_evicted += stats.regions_evicted
        self.stats.plans_patched += stats.plans_patched
        return {
            "ok": True,
            "op": "mutate",
            "applied": stats.mutations_applied,
            "regions_kept": stats.regions_kept,
            "regions_evicted": stats.regions_evicted,
            "plans_patched": stats.plans_patched,
            "epoch": self.service.index.epoch,
        }

    async def _handle_replicate(self, payload: Dict) -> Dict:
        """Accept an epoch-stamped batch shipped by a replication primary.

        The service's fence refuses any epoch that is not exactly its
        next version — returned as ``EPOCH_FENCE`` with the replica's
        current epoch so the primary can target catch-up (or decide the
        batch was a duplicate of one already applied).
        """
        rejected = self._admit()
        if rejected is not None:
            return rejected
        applier = getattr(self.service, "apply_replicated", None)
        if not callable(applier):
            self.n_errors += 1
            return error_reply(
                "BAD_REQUEST",
                "bad_request",
                "service does not accept replicated batches",
            )
        loop = asyncio.get_running_loop()
        try:
            epoch = int(payload["epoch"])
            batch = [_parse_mutation(spec) for spec in payload["mutations"]]
            stats = await loop.run_in_executor(None, applier, batch, epoch)
        except ReplicationError as exc:
            self.n_errors += 1
            return error_reply(
                "EPOCH_FENCE",
                "epoch_fence",
                str(exc),
                epoch=self.service.index.epoch,
            )
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self.n_errors += 1
            return error_reply("BAD_REQUEST", "mutation_error", str(exc))
        self.n_replicated += 1
        self.stats.mutation_batches += stats.mutation_batches
        self.stats.mutations_applied += stats.mutations_applied
        self.stats.regions_kept += stats.regions_kept
        self.stats.regions_evicted += stats.regions_evicted
        self.stats.plans_patched += stats.plans_patched
        return {
            "ok": True,
            "op": "replicate",
            "applied": stats.mutations_applied,
            "epoch": self.service.index.epoch,
        }

    def _sync_durability(self):
        """The durability manager sync ops serve from, or ``None``."""
        return getattr(self.service, "durability", None)

    async def _handle_sync_manifest(self) -> Dict:
        """Describe the newest checksum-valid durable state for a peer."""
        durability = self._sync_durability()
        if durability is None:
            self.n_errors += 1
            return error_reply(
                "BAD_REQUEST",
                "bad_request",
                "service has no durable state to sync from",
            )
        loop = asyncio.get_running_loop()
        try:
            manifest = await loop.run_in_executor(
                None, build_sync_manifest, durability.data_dir
            )
        except RecoveryError as exc:
            self.n_errors += 1
            return error_reply("UNAVAILABLE", "sync_unavailable", str(exc))
        self.n_sync_manifests += 1
        return {"ok": True, "op": "sync_manifest", "manifest": manifest}

    async def _handle_sync_chunk(self, payload: Dict) -> Dict:
        """Serve one CRC-tagged chunk of a durable artifact to a peer."""
        durability = self._sync_durability()
        if durability is None:
            self.n_errors += 1
            return error_reply(
                "BAD_REQUEST",
                "bad_request",
                "service has no durable state to sync from",
            )
        loop = asyncio.get_running_loop()
        try:
            name = str(payload["name"])
            offset = int(payload["offset"])
            length = int(payload.get("length", DEFAULT_SYNC_CHUNK))
            if not 1 <= length <= DEFAULT_SYNC_CHUNK:
                # The client must not choose how much the server reads
                # and holds per request.
                self.n_errors += 1
                return error_reply(
                    "BAD_REQUEST",
                    "sync_error",
                    f"sync chunk length must be in [1, {DEFAULT_SYNC_CHUNK}]",
                )
            chunk = await loop.run_in_executor(
                None,
                functools.partial(
                    read_sync_chunk,
                    durability.data_dir,
                    name,
                    offset,
                    length,
                    fault_plan=self.fault_plan,
                ),
            )
        except (ReproError, KeyError, TypeError, ValueError) as exc:
            self.n_errors += 1
            return error_reply("BAD_REQUEST", "sync_error", str(exc))
        self.stats.sync_chunks_sent += 1
        self.stats.sync_bytes_sent += len(chunk.data)
        return {
            "ok": True,
            "op": "sync_chunk",
            "name": chunk.name,
            "offset": chunk.offset,
            "data": base64.b64encode(chunk.data).decode("ascii"),
            "crc32": chunk.crc32,
            "eof": chunk.eof,
        }

    @staticmethod
    def _render(computation, tier: str, seconds: float) -> Dict:
        regions = {}
        for dim in computation.sequences:
            lower, upper = computation.immutable_interval(dim)
            regions[str(int(dim))] = {
                "weight": computation.query.weight_of(dim),
                "interval": [lower, upper],
            }
        return {
            "ok": True,
            "op": "query",
            "tier": tier,
            "epoch": computation.epoch,
            "method": computation.method,
            "result": [
                [int(tid), float(score)]
                for tid, score in zip(
                    computation.result.ids, computation.result.scores
                )
            ],
            "regions": regions,
            "seconds": seconds,
        }

    def stats_snapshot(self) -> Dict:
        supervision = {}
        accessor = getattr(self.service, "supervision_snapshot", None)
        if callable(accessor):
            supervision = accessor() or {}
        if supervision:
            # Mirror the transport-level counters into the ServiceStats
            # failure block so one snapshot tells the whole story.
            self.stats.shard_retries = int(supervision.get("retries", 0))
            self.stats.worker_respawns = int(supervision.get("respawns", 0))
            self.stats.breaker_transitions = int(
                supervision.get("breaker_transitions", 0)
            )
        durability = {}
        accessor = getattr(self.service, "durability_counters", None)
        if callable(accessor):
            durability = accessor() or {}
        if durability:
            # Same mirroring for the durability layer: the counters live
            # with the WAL/snapshot store, the snapshot reports them.
            self.stats.snapshots_written = int(
                durability.get("snapshots_written", 0)
            )
            self.stats.wal_records = int(durability.get("wal_records", 0))
            self.stats.wal_truncations = int(
                durability.get("wal_truncations", 0)
            )
            self.stats.checksum_rejections = int(
                durability.get("checksum_rejections", 0)
            )
            self.stats.recovery_seconds = float(
                durability.get("recovery_seconds", 0.0)
            )
        replication = {}
        accessor = getattr(self.service, "replication_snapshot", None)
        if callable(accessor):
            replication = accessor() or {}
        if replication:
            # Same mirroring for the replication tier: the counters live
            # with the replica set, the snapshot reports them.
            self.stats.replica_health_transitions = int(
                replication.get("health_transitions", 0)
            )
            self.stats.failovers = int(replication.get("failovers", 0))
            self.stats.stale_reads = int(replication.get("stale_reads", 0))
            self.stats.fence_waits = int(replication.get("fence_waits", 0))
        snapshot = self.stats.as_dict()
        snapshot["tiers"] = self.stats.tier_latencies(include_empty=True)
        snapshot["rejected"] = {
            "rate_limited": self.n_rejected_rate,
            "overloaded": self.n_rejected_load,
        }
        snapshot["errors"] = self.n_errors
        snapshot["internal_errors"] = self.n_internal
        if supervision:
            snapshot["supervision"] = supervision
        if durability:
            # The full counter set (includes the atlas dump/load counts
            # the compact ServiceStats block leaves out).
            snapshot["durability"] = durability
        if replication or self.n_replicated or self.n_sync_manifests:
            # The full per-replica readout (breaker states, epochs) the
            # compact ServiceStats block leaves out, plus this gateway's
            # own replication-protocol serving counters — also present on
            # a plain secondary that merely accepts replicate/sync ops.
            replication = dict(replication)
            replication["replicated_batches_received"] = self.n_replicated
            replication["sync_manifests_served"] = self.n_sync_manifests
            snapshot["replication"] = replication
        return snapshot

    # -- TCP server ------------------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        connection = self._n_connections
        self._n_connections += 1
        n_responses = 0
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # A line past the stream limit: its tail is still
                    # unread, so the connection cannot be resynchronised.
                    # Answer once, then close it.
                    self.n_errors += 1
                    reply = error_reply("BAD_REQUEST", "request_too_large", str(exc))
                    writer.write(json.dumps(reply).encode() + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                    if not isinstance(payload, dict):
                        raise ValueError("request must be a JSON object")
                except ValueError as exc:
                    self.n_errors += 1
                    response = error_reply("BAD_REQUEST", "bad_request", str(exc))
                else:
                    response = await self.handle(payload)
                data = json.dumps(response).encode() + b"\n"
                fault = (
                    self.fault_plan.draw_response(connection)
                    if self.fault_plan is not None
                    else None
                )
                n_responses += 1
                if fault is not None and fault.kind == "drop":
                    break  # connection dies before the reply is written
                if fault is not None and fault.kind == "torn":
                    writer.write(data[: max(1, len(data) // 2)])
                    await writer.drain()
                    break  # half a reply, then the connection dies
                writer.write(data)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, ConnectionAbortedError):
            pass
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                ConnectionAbortedError,
            ):
                pass

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Start accepting connections; returns the bound ``(host, port)``
        (an OS-assigned port when *port* is 0)."""
        self._server = await asyncio.start_server(self._client, host, port)
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def shutdown(self, drain_seconds: float = 5.0) -> None:
        """Graceful stop: refuse new work, drain in-flight, then close.

        The listener closes first (new connections are refused), requests
        arriving on live connections are shed with a structured
        ``shutting_down`` error, and in-flight requests get up to
        *drain_seconds* to complete before :meth:`stop` settles the
        remaining client tasks.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        drain_until = loop.time() + max(drain_seconds, 0.0)
        while self._pending > 0 and loop.time() < drain_until:
            await asyncio.sleep(0.01)
        await self.stop()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Before 3.12.1 wait_closed() does not wait for per-connection
        # handler tasks; settle them here so loop teardown never finds a
        # live handler.  Wait first — handlers exit on client EOF, and on
        # 3.11 cancelling one trips the unguarded task.exception() in the
        # streams done-callback — and cancel only a genuinely stuck one.
        if self._client_tasks:
            tasks = tuple(self._client_tasks)
            _, pending = await asyncio.wait(tasks, timeout=1.0)
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            self._client_tasks.clear()


async def _self_test_client(
    host: str, port: int, requests: List[Dict]
) -> List[Dict]:
    reader, writer = await asyncio.open_connection(host, port)
    responses: List[Dict] = []
    try:
        for payload in requests:
            writer.write(json.dumps(payload).encode() + b"\n")
            await writer.drain()
            line = await reader.readline()
            responses.append(json.loads(line))
    finally:
        writer.close()
        await writer.wait_closed()
    return responses


def run_self_test(
    gateway: AsyncGateway, requests: List[Dict], host: str = "127.0.0.1"
) -> List[Dict]:
    """Spin the gateway on an ephemeral port, push *requests* through a
    real client connection, shut down, and return the responses.

    One event loop runs both ends — used by ``repro serve --self-test``
    and the gateway tests, so the exercised path is the production
    reader/writer code, not a mock.
    """

    async def _run() -> List[Dict]:
        bound_host, bound_port = await gateway.start(host, 0)
        try:
            return await _self_test_client(bound_host, bound_port, requests)
        finally:
            await gateway.stop()

    return asyncio.run(_run())


def serve(
    service: QueryService,
    host: str = "127.0.0.1",
    port: int = 9736,
    drain_seconds: float = 5.0,
    **gateway_kwargs,
) -> None:
    """Blocking entry point: serve *service* until interrupted.

    SIGINT/SIGTERM trigger a graceful drain (up to *drain_seconds*):
    the listener stops accepting, in-flight requests finish, late
    arrivals on live connections get structured ``shutting_down``
    errors — no request is ever silently dropped mid-computation.  A
    durable service (one with a
    :class:`~repro.service.recovery.DurabilityManager`) takes one final
    epoch-consistent snapshot after the drain, so a clean shutdown needs
    no WAL replay on the next boot.
    """
    gateway = AsyncGateway(service, **gateway_kwargs)

    async def _run() -> None:
        bound_host, bound_port = await gateway.start(host, port)
        print(f"serving on {bound_host}:{bound_port} — {service!r}")
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        installed = []
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop_event.set)
                installed.append(sig)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread / platforms without signal support
        try:
            await stop_event.wait()
        finally:
            for sig in installed:
                loop.remove_signal_handler(sig)
        print("draining in-flight requests ...")
        await gateway.shutdown(drain_seconds)
        if getattr(service, "durability", None) is not None:
            service.snapshot_now()
            print("final snapshot flushed")

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass  # fallback when signal handlers could not be installed
