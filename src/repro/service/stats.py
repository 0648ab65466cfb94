"""Workload-level statistics for the batch query service.

The figures of the source paper average per-query metrics over a
workload (see :class:`~repro.bench.harness.MethodAggregate`); a *service*
additionally cares about operational metrics: throughput, tail latency,
and how much of the traffic the cache absorbed.  :class:`ServiceStats`
collects both views incrementally — one :meth:`record` per answered
query — so the service can aggregate across threads without keeping the
computations alive.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from .._util import require
from ..core.engine import RunMetrics

__all__ = [
    "DEFAULT_WINDOW",
    "EMPTY_TIER",
    "MethodRollup",
    "QueryRecord",
    "ServiceStats",
    "TIERS",
    "percentile",
    "sorted_percentile",
]


def sorted_percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an *already sorted* sample.

    The one percentile implementation every readout shares: callers that
    need several percentiles of the same sample sort once and probe this
    repeatedly instead of paying one sort per quantile.
    """
    require(0.0 <= q <= 100.0, "percentile must lie in [0, 100]")
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in [0, 100]).

    Nearest-rank keeps the answer an actually observed latency, which is
    what operators expect from a p95 readout; an empty sample reads 0.0.
    Beware the empty case when gating on this figure: 0.0 means "no
    data", not "perfect latency" — SLO gates must check the sample size
    first (the loadgen report does; see
    :meth:`repro.loadgen.report.LatencyReservoir.percentile`, which
    returns ``None`` instead).
    """
    require(0.0 <= q <= 100.0, "percentile must lie in [0, 100]")
    if not values:
        return 0.0
    return sorted_percentile(sorted(values), q)


#: How a query was answered: exact cache replay, region-tier reuse
#: (served from a cached immutable region without engine work), or a
#: fresh engine computation.
TIERS = ("exact", "region", "computed")

#: The explicit rollup of a tier that served no traffic.  Readers that
#: index into :meth:`ServiceStats.tier_latencies` unconditionally (the
#: gateway's stats endpoint, dashboards over ``as_dict``) get this marker
#: instead of a ``KeyError`` — all-zero, with ``n == 0.0`` as the
#: emptiness signal.
EMPTY_TIER: Dict[str, float] = {"n": 0.0, "mean": 0.0, "p50": 0.0, "p95": 0.0}

#: Default size of the sliding latency window percentiles are computed
#: over.  Totals, rates, and means are streaming (exact over the whole
#: run); only the percentile sample is windowed, so a long-running
#: ``repro serve`` holds a bounded number of records no matter how much
#: traffic it answers.
DEFAULT_WINDOW = 8192


@dataclass(frozen=True)
class QueryRecord:
    """One answered query: where it went and what it cost the service."""

    method: str
    seconds: float
    cache_hit: bool
    #: Serving tier (:data:`TIERS`); ``cache_hit`` is ``tier != "computed"``.
    tier: str = "computed"


@dataclass
class MethodRollup:
    """Incremental mean of :class:`RunMetrics` over one method's traffic.

    Only *freshly computed* queries contribute — a cache hit replays a
    computation without doing its work, so folding it in would
    double-count cost the service never paid.
    """

    method: str
    n_queries: int = 0
    evaluated_per_dim: float = 0.0
    io_seconds: float = 0.0
    cpu_seconds: float = 0.0
    memory_kbytes: float = 0.0
    candidates_total: float = 0.0

    def add(self, metrics: RunMetrics) -> None:
        """Fold one computation's metrics into the running means."""
        self.n_queries += 1
        n = self.n_queries

        def roll(mean: float, value: float) -> float:
            return mean + (value - mean) / n

        self.evaluated_per_dim = roll(
            self.evaluated_per_dim, metrics.evaluated_per_dim_mean
        )
        self.io_seconds = roll(self.io_seconds, metrics.io_seconds)
        self.cpu_seconds = roll(self.cpu_seconds, metrics.cpu_seconds)
        self.memory_kbytes = roll(self.memory_kbytes, metrics.memory.total_kbytes)
        self.candidates_total = roll(
            self.candidates_total, float(metrics.candidates_total)
        )

    def as_dict(self) -> Dict[str, float]:
        """JSON-safe representation (means over this method's traffic)."""
        return {
            "n_queries": self.n_queries,
            "evaluated_per_dim": self.evaluated_per_dim,
            "io_seconds": self.io_seconds,
            "cpu_seconds": self.cpu_seconds,
            "memory_kbytes": self.memory_kbytes,
            "candidates_total": self.candidates_total,
        }


@dataclass
class ServiceStats:
    """Operational and algorithmic statistics of one service run.

    Counts, rates, and means are *streaming* — folded in on every
    :meth:`record`, exact over the whole run.  Latency percentiles read
    :attr:`records`, a bounded ring of the most recent *window* records,
    so memory stays O(window) for the lifetime of a serving process (a
    long ``repro serve`` used to leak one record per query).  Sorted
    views of the window are cached per snapshot and invalidated by
    :meth:`record`, so polling ``p50``/``p95``/``tier_latencies`` between
    arrivals sorts once, not once per readout.

    Attributes
    ----------
    records:
        The most recent *window* :class:`QueryRecord`\\ s, in completion
        order (the percentile sample, not the full history —
        :attr:`n_queries` counts the whole run).
    window:
        Ring capacity of :attr:`records` (:data:`DEFAULT_WINDOW`).
    wall_seconds:
        End-to-end wall-clock of the batch (set by the service; includes
        scheduling and cache lookups, not just engine time).
    rollups:
        Per-method :class:`RunMetrics` means over freshly computed queries.
    mutation_batches, mutations_applied:
        Mutation traffic accounted by
        :meth:`~repro.service.service.QueryService.apply_mutations`.
    regions_kept, regions_evicted:
        Outcome of the delta-aware region-cache sweep: entries that
        survived the Lemma 1 half-space test vs entries invalidated.
    plans_patched:
        Resident subspace plans whose cells a mutation batch changed in
        place (plans off the changed dimensions are only re-stamped).
    deadline_hits, degraded_responses:
        Failure-path traffic: requests answered with a structured
        ``DEADLINE_EXCEEDED`` / ``DEGRADED`` error instead of a result.
    shard_retries, worker_respawns, breaker_transitions:
        Supervision activity folded in from the shard transport
        (:class:`~repro.core.supervision.SupervisedTransport`): shard
        calls replayed after a failure, worker pools respawned after a
        death, and circuit-breaker state changes.
    snapshots_written, wal_records, wal_truncations, checksum_rejections,
    recovery_seconds:
        Durability activity folded in from the service's
        :class:`~repro.service.recovery.DurabilityManager` (zero when the
        service is not durable): snapshot generations persisted, mutation
        batches WAL-logged, torn WAL tails repaired on open, artifacts or
        records rejected for checksum/format mismatches, and total time
        spent in crash recovery.
    replica_health_transitions, failovers, stale_reads, fence_waits:
        Replication activity folded in from a
        :class:`~repro.service.replication.ReplicaSet` (zero when serving
        a single replica): replica circuit-breaker state changes, write
        primaries promoted, reads explicitly served below the requested
        ``min_epoch``, and reads that waited on the epoch fence.
    sync_chunks_sent, sync_bytes_sent:
        Peer-warmup traffic this process served over the gateway's
        ``sync_chunk`` op (CRC-verified artifact chunks streamed to a
        joining replica).
    """

    records: Deque[QueryRecord] = field(default_factory=deque)
    wall_seconds: float = 0.0
    rollups: Dict[str, MethodRollup] = field(default_factory=dict)
    mutation_batches: int = 0
    mutations_applied: int = 0
    regions_kept: int = 0
    regions_evicted: int = 0
    plans_patched: int = 0
    deadline_hits: int = 0
    degraded_responses: int = 0
    shard_retries: int = 0
    worker_respawns: int = 0
    breaker_transitions: int = 0
    snapshots_written: int = 0
    wal_records: int = 0
    wal_truncations: int = 0
    checksum_rejections: int = 0
    recovery_seconds: float = 0.0
    replica_health_transitions: int = 0
    failovers: int = 0
    stale_reads: int = 0
    fence_waits: int = 0
    sync_chunks_sent: int = 0
    sync_bytes_sent: int = 0
    window: int = DEFAULT_WINDOW
    # Streaming counters (exact over the whole run, not just the window).
    _n_total: int = field(default=0, repr=False)
    _seconds_total: float = field(default=0.0, repr=False)
    _tier_counts: Dict[str, int] = field(default_factory=dict, repr=False)
    _tier_seconds: Dict[str, float] = field(default_factory=dict, repr=False)
    # Sorted views of the window, built lazily, dropped on record().
    _sorted_all: Optional[List[float]] = field(default=None, repr=False)
    _sorted_tiers: Optional[Dict[str, List[float]]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        require(self.window >= 1, "stats window must be >= 1")
        self.records = deque(self.records, maxlen=self.window)
        for tier in TIERS:
            self._tier_counts.setdefault(tier, 0)
            self._tier_seconds.setdefault(tier, 0.0)
        # Replay any seeded records (restored snapshots, tests) through
        # the streaming counters so both views agree from the start.
        for rec in self.records:
            self._n_total += 1
            self._seconds_total += rec.seconds
            self._tier_counts[rec.tier] += 1
            self._tier_seconds[rec.tier] += rec.seconds

    def record(
        self,
        method: str,
        seconds: float,
        cache_hit: bool,
        metrics: Optional[RunMetrics] = None,
        tier: Optional[str] = None,
    ) -> None:
        """Account one answered query; pass *metrics* for fresh computations.

        *tier* names the serving tier (:data:`TIERS`); when omitted it is
        derived from *cache_hit* (``"exact"`` for hits, ``"computed"``
        otherwise) — region-tier callers must pass it explicitly.
        """
        if tier is None:
            tier = "exact" if cache_hit else "computed"
        require(tier in TIERS, f"unknown tier {tier!r}")
        seconds = float(seconds)
        self.records.append(QueryRecord(method, seconds, bool(cache_hit), tier))
        self._n_total += 1
        self._seconds_total += seconds
        self._tier_counts[tier] += 1
        self._tier_seconds[tier] += seconds
        self._sorted_all = None
        self._sorted_tiers = None
        if metrics is not None:
            rollup = self.rollups.get(method)
            if rollup is None:
                rollup = self.rollups[method] = MethodRollup(method)
            rollup.add(metrics)

    # ------------------------------------------------------------------
    # Derived readouts
    # ------------------------------------------------------------------

    @property
    def n_queries(self) -> int:
        """Total answered queries (whole run, not just the window)."""
        return self._n_total

    @property
    def n_cache_hits(self) -> int:
        """Queries served without running an engine (both cache tiers)."""
        return self._tier_counts["exact"] + self._tier_counts["region"]

    @property
    def n_exact_hits(self) -> int:
        """Exact-key serves: cache replays and within-batch single-flight
        duplicates (the latter are counted here in every reuse mode —
        they are answered from the batch itself, not by an engine run)."""
        return self._tier_counts["exact"]

    @property
    def n_region_hits(self) -> int:
        """Queries served from a cached immutable region (tier 2)."""
        return self._tier_counts["region"]

    @property
    def n_computed(self) -> int:
        """Queries that ran an engine."""
        return self.n_queries - self.n_cache_hits

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of the run served from the cache."""
        return self.n_cache_hits / self._n_total if self._n_total else 0.0

    @property
    def throughput_qps(self) -> float:
        """Answered queries per wall-clock second."""
        return self.n_queries / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def _sorted_window(self) -> List[float]:
        """Sorted latencies of the window; cached until the next record."""
        if self._sorted_all is None:
            self._sorted_all = sorted(r.seconds for r in self.records)
        return self._sorted_all

    def _sorted_tier_windows(self) -> Dict[str, List[float]]:
        """Per-tier sorted window latencies; one pass, cached."""
        if self._sorted_tiers is None:
            buckets: Dict[str, List[float]] = {tier: [] for tier in TIERS}
            for rec in self.records:
                buckets[rec.tier].append(rec.seconds)
            self._sorted_tiers = {
                tier: sorted(values) for tier, values in buckets.items()
            }
        return self._sorted_tiers

    def latency_percentile(self, q: float) -> float:
        """Nearest-rank latency percentile over the record window."""
        return sorted_percentile(self._sorted_window(), q)

    @property
    def p50_latency_seconds(self) -> float:
        """Median per-query latency (window)."""
        return self.latency_percentile(50.0)

    @property
    def p95_latency_seconds(self) -> float:
        """95th-percentile per-query latency (window)."""
        return self.latency_percentile(95.0)

    @property
    def mean_latency_seconds(self) -> float:
        """Mean per-query latency (streaming; exact over the whole run)."""
        if not self._n_total:
            return 0.0
        return self._seconds_total / self._n_total

    def tier_latencies(
        self, include_empty: bool = False
    ) -> Dict[str, Dict[str, float]]:
        """Per-tier latency rollup: ``{tier: {n, mean, p50, p95}}``.

        ``n`` and ``mean`` are streaming (exact over the run); the
        percentiles read the bounded record window — a tier whose traffic
        has entirely aged out of the window reports its exact count and
        mean with zeroed percentiles.  By default only tiers with traffic
        appear; with *include_empty* every tier of :data:`TIERS` is
        present, tiers without traffic carrying a copy of the
        :data:`EMPTY_TIER` marker (all-zero, ``n == 0.0``) — the form
        stable consumers (the serve gateway's stats endpoint, the
        empty-service case) should request so a quiet tier never turns
        into a ``KeyError``.  Region hits should sit orders of magnitude
        below computed queries — this readout is how the region-reuse
        benchmark (and operators) verify that.
        """
        rollup: Dict[str, Dict[str, float]] = {}
        windows = self._sorted_tier_windows()
        for tier in TIERS:
            n = self._tier_counts[tier]
            if n == 0:
                if include_empty:
                    rollup[tier] = dict(EMPTY_TIER)
                continue
            ordered = windows[tier]
            rollup[tier] = {
                "n": float(n),
                "mean": self._tier_seconds[tier] / n,
                "p50": sorted_percentile(ordered, 50.0),
                "p95": sorted_percentile(ordered, 95.0),
            }
        return rollup

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def as_dict(self) -> Dict:
        """JSON-safe summary (drops the raw per-query records).

        All pre-existing keys keep their meaning; ``window`` (added with
        the bounded ring) reports the percentile sample: its capacity
        and how many records it currently holds.
        """
        return {
            "n_queries": self.n_queries,
            "window": {"capacity": self.window, "n": len(self.records)},
            "n_computed": self.n_computed,
            "n_cache_hits": self.n_cache_hits,
            "n_exact_hits": self.n_exact_hits,
            "n_region_hits": self.n_region_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "tiers": self.tier_latencies(),
            "wall_seconds": self.wall_seconds,
            "throughput_qps": self.throughput_qps,
            "latency_seconds": {
                "mean": self.mean_latency_seconds,
                "p50": self.p50_latency_seconds,
                "p95": self.p95_latency_seconds,
            },
            "methods": {
                name: rollup.as_dict() for name, rollup in sorted(self.rollups.items())
            },
            "mutations": {
                "batches": self.mutation_batches,
                "applied": self.mutations_applied,
                "regions_kept": self.regions_kept,
                "regions_evicted": self.regions_evicted,
                "plans_patched": self.plans_patched,
            },
            "failures": {
                "deadline_hits": self.deadline_hits,
                "degraded_responses": self.degraded_responses,
                "shard_retries": self.shard_retries,
                "worker_respawns": self.worker_respawns,
                "breaker_transitions": self.breaker_transitions,
            },
            "durability": {
                "snapshots_written": self.snapshots_written,
                "wal_records": self.wal_records,
                "wal_truncations": self.wal_truncations,
                "checksum_rejections": self.checksum_rejections,
                "recovery_seconds": self.recovery_seconds,
            },
            "replication": {
                "replica_health_transitions": self.replica_health_transitions,
                "failovers": self.failovers,
                "stale_reads": self.stale_reads,
                "fence_waits": self.fence_waits,
                "sync_chunks_sent": self.sync_chunks_sent,
                "sync_bytes_sent": self.sync_bytes_sent,
            },
        }

    def render(self) -> str:
        """Fixed-width text report (the ``repro batch`` output)."""
        lines = [
            f"{self.n_queries} queries in {self.wall_seconds:.3f} s "
            f"— {self.throughput_qps:.1f} q/s",
            f"latency: mean {self.mean_latency_seconds * 1000:.2f} ms, "
            f"p50 {self.p50_latency_seconds * 1000:.2f} ms, "
            f"p95 {self.p95_latency_seconds * 1000:.2f} ms",
            f"cache: {self.n_cache_hits}/{self.n_queries} served from cache "
            f"({self.cache_hit_rate:.1%}); {self.n_computed} computed",
        ]
        if self.n_region_hits:
            region_tier = self.tier_latencies().get("region", EMPTY_TIER)
            lines.append(
                f"reuse: {self.n_exact_hits} exact + {self.n_region_hits} "
                f"region hits (region-tier p50 "
                f"{region_tier['p50'] * 1e6:.1f} µs)"
            )
        if self.mutation_batches:
            lines.append(
                f"mutations: {self.mutations_applied} applied in "
                f"{self.mutation_batches} batch(es); regions kept "
                f"{self.regions_kept}, evicted {self.regions_evicted}; "
                f"plans patched {self.plans_patched}"
            )
        if (
            self.deadline_hits
            or self.degraded_responses
            or self.shard_retries
            or self.worker_respawns
            or self.breaker_transitions
        ):
            lines.append(
                f"failures: {self.deadline_hits} deadline hits, "
                f"{self.degraded_responses} degraded; supervision: "
                f"{self.shard_retries} retries, {self.worker_respawns} "
                f"respawns, {self.breaker_transitions} breaker transitions"
            )
        if (
            self.snapshots_written
            or self.wal_records
            or self.wal_truncations
            or self.checksum_rejections
        ):
            lines.append(
                f"durability: {self.snapshots_written} snapshots, "
                f"{self.wal_records} WAL records, "
                f"{self.wal_truncations} torn tails repaired, "
                f"{self.checksum_rejections} checksum rejections"
                + (
                    f"; recovered in {self.recovery_seconds:.3f} s"
                    if self.recovery_seconds
                    else ""
                )
            )
        if (
            self.replica_health_transitions
            or self.failovers
            or self.stale_reads
            or self.fence_waits
            or self.sync_chunks_sent
        ):
            lines.append(
                f"replication: {self.failovers} failovers, "
                f"{self.replica_health_transitions} health transitions, "
                f"{self.stale_reads} stale reads, "
                f"{self.fence_waits} fence waits; sync served "
                f"{self.sync_chunks_sent} chunks "
                f"({self.sync_bytes_sent} bytes)"
            )
        if self.rollups:
            lines.append("")
            lines.append(
                f"{'method':>8} | {'queries':>7} | {'eval/dim':>9} | "
                f"{'I/O (s)':>9} | {'CPU (ms)':>9} | {'cand.':>7}"
            )
            lines.append("-" * 64)
            for name in sorted(self.rollups):
                rollup = self.rollups[name]
                lines.append(
                    f"{name:>8} | {rollup.n_queries:>7} | "
                    f"{rollup.evaluated_per_dim:>9.2f} | "
                    f"{rollup.io_seconds:>9.4f} | "
                    f"{rollup.cpu_seconds * 1000:>9.3f} | "
                    f"{rollup.candidates_total:>7.1f}"
                )
        return "\n".join(lines)
