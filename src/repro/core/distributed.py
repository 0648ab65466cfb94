"""Distributed fused execution over a :class:`~repro.storage.sharded.ShardedIndex`.

:class:`DistributedEngine` is the sharded counterpart of
``ImmutableRegionEngine.compute_many``: per-shard work runs the existing
fused kernels *unchanged* against each shard's own subspace plan, and a
coordinator merges the per-shard answers into results, regions, and
metrics that are **bit-identical** to the single-index engine (the
"oracle") — property-tested in ``tests/properties/test_shard_parity.py``.

Execution model (the classic distributed-TA shape, adapted to the fused
φ=0 path):

1. **Top-k — per-shard select, global merge.**  Every shard returns its
   local top-``(k+1)`` under the library total order ``(-score, id)``;
   local ids translate to global by adding the shard's row offset, and
   because shards are contiguous ascending row ranges, merging the
   translated lists under the same total order reproduces the global
   selection exactly.  Any global top-``(k+1)`` member is inside its own
   shard's top-``(k+1)``, so the merged, trimmed list ``C`` is the exact
   global top-``(k+1)``; the oracle's boundary-tie test reduces to
   ``len(C) > k and C[k].score == C[k-1].score`` (an excluded tuple ties
   the k-th score iff the ``(k+1)``-th merged entry does), and tied
   queries fall back to the exact TA replay exactly as the fused
   single-index path does.

2. **Regions — per-shard Lemma 1 sweeps, global strict-merge.**  Phase 1
   (the ``k−1`` adjacent result-pair constraints) runs centrally with the
   gathered result rows — code identical to the single-index fused path.
   The d_k-vs-everyone sweep shards naturally: each shard reduces its own
   rows to at most one upper and one lower candidate crossing
   (first-occurrence extremal, the sequential-equivalence contract of
   :func:`~repro.core.context.apply_batch_constraints`), and the
   coordinator applies the candidates in **ascending shard order** under
   the same strict-improvement rule.  Contiguous ascending shards make
   the concatenation of shard-local row orders equal the global row
   order, so the surviving bound *and its first-achiever provenance*
   match the global reduction bit for bit.

Shard-skip certificates (the scale-out lever)
---------------------------------------------
Each shard publishes per-signature zone statistics (per-dimension
coordinate maxima/minima).  ``ub[q,s] = fused_scores(maxima_s, w_q)`` is
computed by the *same ordered accumulation* as every row score; since
IEEE-754 multiply/add round monotonically and weights are non-negative,
``ub`` dominates every score shard ``s`` can produce for query ``q``.
That single double yields exact skip rules — no tolerance, no epsilon:

* **top-k:** skip shard ``s`` once the merged list already holds ``k+1``
  entries and ``ub[q,s] < skp1`` (the current merged ``(k+1)``-th score,
  which only rises) — every skipped score is then *strictly* below the
  final ``(k+1)``-th, so it can neither enter the top-``(k+1)`` nor tie
  the k-th score;
* **upper sweep:** skip when ``max_coord <= dk_coord`` (no positive
  crossing denominators exist in the shard at all) or when
  ``(dk_score − ub) / (max_coord − dk_coord) >= hi``: every crossing
  delta the shard can produce has numerator ``fl(dk_score − score) >=
  fl(dk_score − ub) > 0`` and denominator ``<= fl(max_coord −
  dk_coord)`` (both by rounding monotonicity; a positive real difference
  of doubles never rounds to zero because subnormals are representable),
  so every shard delta is ``>= hi`` and cannot *strictly* improve the
  bound ``hi``;
* **lower sweep:** symmetric via ``min_coord`` and the exact identities
  ``fl(x − y) = −fl(y − x)`` and ``fl(a / −b) = −fl(a / b)``.

Equal-delta edges are provenance-safe: a skipped shard's candidate equal
to the surviving bound would not have been applied by the strict rule
anyway (the bound already held that value when the shard's turn came),
so the recorded achiever is unchanged.  Certificates therefore never
alter output — they only delete provably non-competitive work, which is
where the measured shard-count speedup comes from on a single core.

Fan-out
-------
Shards live in the coordinator's process and are called directly, one
at a time, in the order the merge needs them.  Phase A visits shards
highest-cap first and certifies each against the merged list so far;
phase B applies each query's sweep candidates in ascending shard order
and certifies every (query, shard) pair against the bounds the earlier
shards left.  Interleaving certificates with the merge deletes the most
work.  The top-k pass returns its score rows to the coordinator by
reference and the sweep of the same (query, shard) reuses them, so one
fused scoring serves both passes; a sweep without a row (the shard was
certified out of the top-k pass) recomputes it.  A
:class:`~repro.core.supervision.SupervisedTransport` may wrap the
transport to bound, retry and circuit-break every shard call.

Everything the fused geometry does not cover — ``topk_mode="ta"``,
``phi > 0``, composition-only mode, forced iterative processing,
boundary ties, the domain-edge degeneracy — runs through the embedded
single-index oracle, unsharded and exact.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._util import require
from ..errors import AlgorithmError, DegradedError, QueryError, ShardUnavailable
from ..kernels.batch import fused_scores, fused_topk
from ..kernels.constraints import (
    batch_crossings,
    batch_pair_crossings,
    first_max_index,
    first_min_index,
)
from ..metrics.counters import AccessCounters, EvaluationCounters
from ..storage.index import InvertedIndex
from ..storage.sharded import IndexShard, ShardedIndex
from ..topk.query import Query
from ..topk.result import TopKResult
from .batch_exec import _SCORE_CHUNK, _group_by_signature
from .context import DimensionView, WorkingBounds, apply_batch_constraints
from .engine import TOPK_MODES, ImmutableRegionEngine, RegionComputation, RunMetrics
from .regions import Bound, BoundKind, ImmutableRegion, RegionSequence

__all__ = ["SHARD_FAILURE_POLICIES", "DistributedEngine"]

#: What the engine does when a shard is unavailable (retries exhausted or
#: circuit open): ``"oracle"`` falls back to the embedded unsharded
#: engine (exact, slower, bounded by the request deadline); ``"degraded"``
#: raises :class:`~repro.errors.DegradedError` so the serving tier can
#: return an explicit ``DEGRADED`` reply naming the shards consulted.
SHARD_FAILURE_POLICIES = ("oracle", "degraded")


# ----------------------------------------------------------------------
# Shard-side compute endpoint and the transport that reaches it
# ----------------------------------------------------------------------


class _ShardWorker:
    """Kernel endpoint over one shard: score, select, sweep in local ids.

    All returned ids are global (local + shard offset).  The coordinator
    sends :meth:`topk` and :meth:`sweep` only to shards with rows.
    """

    def __init__(self, shard: IndexShard) -> None:
        self.shard = shard

    def stats(self, signature: Tuple[int, ...]):
        return self.shard.signature_stats(signature)

    def topk(
        self, signature: Tuple[int, ...], weights: np.ndarray, kk: int
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray, int]], np.ndarray]:
        """Local top-``kk`` of every query row of *weights*.

        Returns ``(answers, scores)``: per query ``(global_ids, scores,
        n_positive)``, plus the ``(queries, rows)`` score matrix itself,
        which the coordinator hands back to :meth:`sweep` so the top-k
        pass and the region sweeps share one fused scoring.
        """
        plan = self.shard.index.plans.plan_for(signature)
        scores = fused_scores(plan.block, np.asarray(weights, dtype=np.float64))
        answers = [
            (
                (top.ids + self.shard.start).astype(np.int64),
                top.scores,
                int(top.n_positive),
            )
            for top in fused_topk(scores, kk)
        ]
        return answers, scores

    def rows(
        self, signature: Tuple[int, ...], local_ids: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Result-row gather: signature coordinates + non-zero counts."""
        plan = self.shard.index.plans.plan_for(signature)
        ids = np.asarray(local_ids, dtype=np.int64)
        return plan.rows(ids), np.asarray(plan.nnz_rows[ids], dtype=np.int64)

    def sweep(self, signature: Tuple[int, ...], req: Dict) -> List[Tuple]:
        """Reduce the shard's rows to extremal Lemma 1 crossing candidates.

        The request covers one query: its score row (the top-k pass's
        row, or ``None`` to recompute it from the request's weights), its
        result rows inside this shard (masked out like the global sweep
        masks the whole result), and the dimensions still in play with
        per-side flags.  Per dimension the answer is ``(upper, lower)`` —
        ``upper = (delta, global_id)`` and ``lower = (delta, global_id,
        nnz, coord_nonzero)`` (the two extra fields feed the
        coordinator's domain-edge degeneracy check) — with ``None`` for a
        side that yields no constraint.  Arithmetic and first-occurrence
        reductions are exactly the single-index sweep's, restricted to
        this shard's rows.
        """
        plan = self.shard.index.plans.plan_for(signature)
        row = req["row"]
        if row is None:
            row = fused_scores(plan.block, req["weights"])[0]
        zero_mask = row == 0.0
        local_results = req["local_result_ids"]
        dk_score = float(req["dk_score"])
        answers: List[Tuple] = []
        for j_pos, dk_coord, want_upper, want_lower in req["dims"]:
            deltas, denoms = batch_crossings(dk_score, dk_coord, row, plan.column(j_pos))
            denoms[local_results] = 0.0
            denoms[zero_mask] = 0.0
            upper = None
            if want_upper:
                ui = first_min_index(deltas, denoms > 0.0)
                if ui is not None:
                    upper = (float(deltas[ui]), self.shard.to_global(ui))
            lower = None
            if want_lower:
                li = first_max_index(deltas, denoms < 0.0)
                if li is not None:
                    lower = (
                        float(deltas[li]),
                        self.shard.to_global(li),
                        int(plan.nnz_rows[li]),
                        bool(plan.block[li, j_pos] != 0.0),
                    )
            answers.append((upper, lower))
        return answers


class _InProcessTransport:
    """Direct calls against the live shards, one at a time.

    *deadline* is accepted for signature parity with
    :class:`~repro.core.supervision.SupervisedTransport`: an in-process
    call cannot be interrupted, and the engine checks the deadline at
    every dispatch barrier itself.
    """

    def __init__(self, sharded: ShardedIndex) -> None:
        self.workers = [_ShardWorker(shard) for shard in sharded.shards]

    def call(self, sid: int, op: str, args: tuple, deadline=None):
        return getattr(self.workers[sid], op)(*args)

    def map(self, calls: List[Tuple[int, str, tuple]], deadline=None) -> List:
        return [self.call(*call) for call in calls]

    def respawn(self, sid: int) -> None:
        """Rebuild shard *sid*'s worker (supervision's recovery hook)."""
        self.workers[sid] = _ShardWorker(self.workers[sid].shard)

    def close(self) -> None:
        """Nothing to release: the workers are the live shards."""


# ----------------------------------------------------------------------
# Exact shard-skip certificates (see the module docstring for proofs)
# ----------------------------------------------------------------------


def _upper_certified(
    ub: float, dk_score: float, max_coord: float, dk_coord: float, hi: float
) -> bool:
    if max_coord <= dk_coord:
        return True  # no positive denominator exists in the shard
    if ub < dk_score:
        return (dk_score - ub) / (max_coord - dk_coord) >= hi
    return False


def _lower_certified(
    ub: float, dk_score: float, min_coord: float, dk_coord: float, lo: float
) -> bool:
    if min_coord >= dk_coord:
        return True  # no negative denominator exists in the shard
    if ub < dk_score:
        return -((dk_score - ub) / (dk_coord - min_coord)) <= lo
    return False


class _PreparedQuery:
    """Coordinator-side state of one non-fallback query within a chunk."""

    __slots__ = (
        "i",
        "qpos",
        "query",
        "result",
        "result_ids",
        "result_scores",
        "dk_gid",
        "dk_score",
        "dk_nnz",
        "result_ge2",
        "local_results",
        "views",
        "bounds",
        "lower_meta",
        "evals",
    )


class DistributedEngine:
    """Coordinator for sharded fused execution, oracle-exact by merge.

    Duck-types the engine surface :class:`~repro.service.QueryService`
    uses (``compute_many``/``compute`` plus the ``method`` /
    ``count_reorderings`` / ``footprint_model`` / ``index`` attributes),
    so the sharded service slots it in without touching the window
    machinery.  Non-fused configurations delegate wholesale to the
    embedded single-index oracle over the global index.
    """

    def __init__(
        self,
        sharded: ShardedIndex,
        method: str = "cpt",
        transport=None,
        on_shard_failure: str = "oracle",
        **engine_kwargs,
    ) -> None:
        require(
            on_shard_failure in SHARD_FAILURE_POLICIES,
            f"unknown on_shard_failure {on_shard_failure!r}; "
            f"expected one of {SHARD_FAILURE_POLICIES}",
        )
        self.sharded = sharded
        self.on_shard_failure = on_shard_failure
        #: Fused chunks that lost a shard and were re-answered (exactly)
        #: by the embedded oracle under the ``"oracle"`` failure policy.
        self.oracle_failovers = 0
        self.oracle = ImmutableRegionEngine(sharded.index, method=method, **engine_kwargs)
        self._owns_transport = transport is None
        self._transport = _InProcessTransport(sharded) if transport is None else transport

    # -- engine surface -------------------------------------------------

    @property
    def index(self) -> InvertedIndex:
        return self.oracle.index

    @property
    def method(self) -> str:
        return self.oracle.method

    @property
    def count_reorderings(self) -> bool:
        return self.oracle.count_reorderings

    @property
    def footprint_model(self):
        return self.oracle.footprint_model

    def _use_iterative(self, phi: int) -> bool:
        return self.oracle._use_iterative(phi)

    def compute(self, query: Query, k: int, phi: int = 0, plan=None) -> RegionComputation:
        """Single-query compute: always the unsharded oracle."""
        return self.oracle.compute(query, k, phi=phi, plan=plan)

    def close(self) -> None:
        if self._owns_transport:
            self._transport.close()

    # -- batched compute ------------------------------------------------

    def compute_many(
        self,
        queries,
        k: int,
        phi: int = 0,
        topk_mode: str = "ta",
        deadline=None,
    ) -> List[RegionComputation]:
        """Answer every query; bit-identical to the oracle's ``compute_many``.

        *deadline* (a :class:`~repro.service.deadline.Deadline`) bounds
        the whole call: it is checked at every shard-dispatch and merge
        barrier, converted into per-call timeouts by a supervised
        transport, and exhaustion raises
        :class:`~repro.errors.DeadlineExceeded` — never a hang.  A shard
        lost mid-chunk (supervision gave up on it) is handled per
        :attr:`on_shard_failure`: the chunk re-runs on the embedded
        unsharded oracle (exact), or :class:`~repro.errors.DegradedError`
        names the shards that did and did not answer.
        """
        if topk_mode not in TOPK_MODES:
            raise QueryError(
                f"unknown topk_mode {topk_mode!r}; expected one of {TOPK_MODES}"
            )
        batch = list(queries)
        require(len(batch) >= 1, "compute_many needs at least one query")
        require(k >= 1, "k must be >= 1")
        require(phi >= 0, "phi must be >= 0")
        fused_eligible = (
            topk_mode == "matmul"
            and phi == 0
            and self.oracle.count_reorderings
            and not self.oracle._use_iterative(phi)
        )
        if not fused_eligible:
            # TA replays and φ>0 sequences run unsharded — the oracle path
            # needs TA's encounter machinery, which is global by nature.
            return self.oracle.compute_many(
                batch, k, phi=phi, topk_mode=topk_mode, deadline=deadline
            )
        results: List = [None] * len(batch)
        for signature, indices in _group_by_signature(batch).items():
            owners: Dict[bytes, int] = {}
            unique: List[int] = []
            for i in indices:
                key = batch[i].weights.tobytes()
                owner = owners.get(key)
                if owner is None:
                    owners[key] = i
                    unique.append(i)
                else:
                    results[i] = owner  # patched to the owner's object below
            for start in range(0, len(unique), _SCORE_CHUNK):
                chunk = unique[start : start + _SCORE_CHUNK]
                if deadline is not None:
                    deadline.check("chunk-dispatch")
                try:
                    self._fused_chunk(
                        batch, chunk, k, signature, results, deadline=deadline
                    )
                except ShardUnavailable as failure:
                    self._failover(batch, chunk, k, results, failure, deadline)
            for i in indices:
                if isinstance(results[i], int):
                    results[i] = results[results[i]]
        return results

    def _failover(
        self,
        batch: List[Query],
        chunk: List[int],
        k: int,
        results: List,
        failure: ShardUnavailable,
        deadline,
    ) -> None:
        """A shard gave out mid-chunk: degrade per :attr:`on_shard_failure`.

        The oracle fallback recomputes the *whole* chunk against the
        global (unsharded) index — any partial per-query state from the
        failed fused pass is discarded, so the answers are exactly the
        fault-free ones.  The policy raise carries which shards answered
        so the serving tier can say precisely what it could not do.
        """
        if self.on_shard_failure == "degraded":
            failed = {failure.shard}
            consulted = tuple(
                s for s in range(self.sharded.n_shards) if s not in failed
            )
            raise DegradedError(consulted, tuple(sorted(failed))) from failure
        self.oracle_failovers += 1
        fallback = self.oracle.compute_many(
            [batch[i] for i in chunk],
            k,
            phi=0,
            topk_mode="matmul",
            deadline=deadline,
        )
        for i, computation in zip(chunk, fallback):
            results[i] = computation

    # -- the fused distributed chunk ------------------------------------

    def _fused_chunk(
        self,
        batch: List[Query],
        chunk: List[int],
        k: int,
        signature: Tuple[int, ...],
        results: List,
        deadline=None,
    ) -> None:
        n_shards = self.sharded.n_shards
        n_queries = len(chunk)
        order_key = lambda e: (-e[0], e[1])  # the library total order

        # ---- phase A: per-shard top-(k+1), merged under certificates
        topk_start = time.perf_counter()
        weights = np.stack([batch[i].weights for i in chunk])
        if deadline is not None:
            deadline.check("shard-dispatch")
        stats = self._transport.map(
            [(s, "stats", (signature,)) for s in range(n_shards)],
            deadline=deadline,
        )
        live = [
            s
            for s in range(n_shards)
            if stats[s].n_rows > 0 and stats[s].n_positive > 0
        ]
        maxima = np.stack([stats[s].maxima for s in range(n_shards)])
        # Per-(query, shard) score caps, accumulated in the library order
        # so they dominate every shard score exactly (see module docstring).
        ubs = fused_scores(maxima, weights)
        total_ge2 = sum(stats[s].nnz_ge2_total for s in range(n_shards))
        entries: List[List[Tuple[float, int]]] = [[] for _ in range(n_queries)]
        npos = [0] * n_queries
        # (qpos, shard) -> the top-k pass's score row, reused by the sweep.
        score_rows: Dict[Tuple[int, int], np.ndarray] = {}

        def merge(qpos: int, gids: np.ndarray, scores: np.ndarray) -> None:
            if gids.size == 0:
                return
            merged = entries[qpos] + [
                (float(score), int(gid)) for score, gid in zip(scores, gids)
            ]
            merged.sort(key=order_key)
            entries[qpos] = merged[: k + 1]

        # Highest-cap shards first: they fill the merged list fastest,
        # which certifies the low-cap tail away for the most queries.
        for s in np.lexsort((np.arange(n_shards), -ubs.max(axis=0))):
            s = int(s)
            if s not in live:
                continue
            need: List[int] = []
            for qpos in range(n_queries):
                ent = entries[qpos]
                if len(ent) > k and ubs[qpos, s] < ent[k][0]:
                    # Certified: all shard scores strictly below the
                    # merged (k+1)-th — structural positive count
                    # stands in for the per-query one.
                    npos[qpos] += stats[s].n_positive
                else:
                    need.append(qpos)
            if not need:
                continue
            if deadline is not None:
                deadline.check("shard-dispatch")
            answers, scores = self._transport.call(
                s, "topk", (signature, weights[need], k + 1), deadline=deadline
            )
            for qpos, row, (gids, top_scores, n_pos) in zip(need, scores, answers):
                score_rows[qpos, s] = row
                npos[qpos] += n_pos
                merge(qpos, gids, top_scores)
        topk_share = (time.perf_counter() - topk_start) / n_queries
        if deadline is not None:
            deadline.check("merge")

        # ---- per-query result assembly + fallback detection
        region_start = time.perf_counter()
        pending: List[Tuple[int, int]] = []  # (batch index, qpos)
        for qpos, i in enumerate(chunk):
            ent = entries[qpos]
            if not ent:
                raise AlgorithmError(
                    "query matched no tuple with a positive score; "
                    "no region exists"
                )
            if len(ent) > k and ent[k][0] == ent[k - 1][0]:
                # Bit-exact score tie across the k boundary: the true
                # R(q) depends on TA's encounter order — replay it.
                results[i] = self.oracle.compute(batch[i], k, phi=0)
                continue
            pending.append((i, qpos))

        # One batched result-row gather per owning shard for the chunk.
        needed = sorted({gid for i, qpos in pending for _, gid in entries[qpos][:k]})
        rowinfo: Dict[int, Tuple[np.ndarray, int]] = {}
        if needed:
            by_owner: Dict[int, List[int]] = {}
            for gid in needed:
                by_owner.setdefault(self.sharded.shard_of(gid), []).append(gid)
            owners = sorted(by_owner)
            if deadline is not None:
                deadline.check("shard-dispatch")
            gathered = self._transport.map(
                [
                    (
                        s,
                        "rows",
                        (
                            signature,
                            np.asarray(by_owner[s], dtype=np.int64)
                            - self.sharded.shards[s].start,
                        ),
                    )
                    for s in owners
                ],
                deadline=deadline,
            )
            for s, (coords, nnz) in zip(owners, gathered):
                for pos, gid in enumerate(by_owner[s]):
                    rowinfo[gid] = (coords[pos], int(nnz[pos]))

        prepared: List[_PreparedQuery] = []
        for i, qpos in pending:
            prepared.append(
                self._prepare_query(batch[i], i, qpos, entries[qpos][:k], rowinfo)
            )

        # ---- phase B: sharded d_k sweeps under certificates
        for p in prepared:
            for s in live:  # ascending: global first-achiever order
                request = self._build_request(
                    p, s, stats, ubs, weights, score_rows.get((p.qpos, s))
                )
                if request is None:
                    continue
                if deadline is not None:
                    deadline.check("shard-dispatch")
                answers = self._transport.call(
                    s, "sweep", (signature, request), deadline=deadline
                )
                self._apply_answers(p, request["dims"], answers)

        # ---- finalize: degeneracy check, regions, metrics
        if deadline is not None:
            deadline.check("merge")
        region_share = (time.perf_counter() - region_start) / max(len(prepared), 1)
        for p in prepared:
            results[p.i] = self._finalize(p, k, npos[p.qpos], total_ge2, topk_share, region_share)

    # -- chunk helpers ---------------------------------------------------

    def _prepare_query(
        self,
        query: Query,
        i: int,
        qpos: int,
        top_entries: List[Tuple[float, int]],
        rowinfo: Dict[int, Tuple[np.ndarray, int]],
    ) -> _PreparedQuery:
        """Build result, views, bounds, and Phase 1 — the central part."""
        p = _PreparedQuery()
        p.i = i
        p.qpos = qpos
        p.query = query
        p.result = TopKResult([(gid, score) for score, gid in top_entries])
        p.result_ids = tuple(p.result.ids)
        p.result_scores = tuple(float(s) for s in p.result.scores)
        coords = np.stack([rowinfo[gid][0] for gid in p.result_ids])
        nnz = [rowinfo[gid][1] for gid in p.result_ids]
        p.dk_gid = p.result_ids[-1]
        p.dk_score = p.result_scores[-1]
        p.dk_nnz = nnz[-1]
        p.result_ge2 = sum(1 for value in nnz if value >= 2)
        p.local_results = {}
        for gid in p.result_ids:
            s = self.sharded.shard_of(gid)
            p.local_results.setdefault(s, []).append(
                gid - self.sharded.shards[s].start
            )
        p.local_results = {
            s: np.asarray(ids, dtype=np.int64) for s, ids in p.local_results.items()
        }
        p.views = []
        p.bounds = []
        p.lower_meta = [None] * query.qlen
        p.evals = EvaluationCounters()
        result_id_arr = np.asarray(p.result_ids, dtype=np.int64)
        scores_arr = np.asarray(p.result_scores, dtype=np.float64)
        for j_pos, dim in enumerate(int(d) for d in query.dims):
            column = coords[:, j_pos]
            view = DimensionView(
                dim=dim,
                weight=query.weight_of(dim),
                dk_id=p.dk_gid,
                dk_score=p.dk_score,
                dk_coord=float(column[-1]),
                result_ids=p.result_ids,
                result_scores=p.result_scores,
                result_coords=tuple(float(c) for c in column),
            )
            bounds = WorkingBounds(view)
            # Phase 1 — the k−1 adjacent result pairs, same kernel and
            # same global ids as the single-index fused path.
            if result_id_arr.size >= 2:
                p.evals.result_comparisons += result_id_arr.size - 1
                deltas, denoms = batch_pair_crossings(
                    scores_arr[:-1], column[:-1], scores_arr[1:], column[1:]
                )
                apply_batch_constraints(
                    bounds,
                    deltas,
                    denoms,
                    p.result_ids[1:],
                    p.result_ids[:-1],
                    BoundKind.REORDER,
                )
            p.views.append(view)
            p.bounds.append(bounds)
        return p

    def _build_request(
        self,
        p: _PreparedQuery,
        s: int,
        stats: List,
        ubs: np.ndarray,
        weights: np.ndarray,
        row: Optional[np.ndarray],
    ) -> Optional[Dict]:
        """The sweep request for (query, shard), or ``None`` if certified out.

        *row* is the query's score row over the shard from the top-k
        pass, or ``None`` when that pass skipped the shard.
        """
        ub = float(ubs[p.qpos, s])
        shard_stats = stats[s]
        dims: List[Tuple[int, float, bool, bool]] = []
        for j_pos, (view, bounds) in enumerate(zip(p.views, p.bounds)):
            want_upper = not _upper_certified(
                ub,
                view.dk_score,
                float(shard_stats.maxima[j_pos]),
                view.dk_coord,
                bounds.upper.delta,
            )
            want_lower = not _lower_certified(
                ub,
                view.dk_score,
                float(shard_stats.minima[j_pos]),
                view.dk_coord,
                bounds.lower.delta,
            )
            if want_upper or want_lower:
                dims.append((j_pos, view.dk_coord, want_upper, want_lower))
        if not dims:
            return None
        return {
            "row": row,
            "weights": weights[p.qpos : p.qpos + 1],
            "dk_score": p.dk_score,
            "local_result_ids": p.local_results.get(
                s, np.empty(0, dtype=np.int64)
            ),
            "dims": dims,
        }

    def _apply_answers(
        self, p: _PreparedQuery, dims: List[Tuple], answers: List[Tuple]
    ) -> None:
        """Strict-improvement application of one shard's sweep candidates."""
        for (j_pos, _, _, _), (upper, lower) in zip(dims, answers):
            bounds = p.bounds[j_pos]
            if upper is not None:
                delta, gid = upper
                if delta < bounds.upper.delta:
                    bounds.upper = Bound(
                        float(delta), BoundKind.COMPOSITION, int(gid), p.dk_gid
                    )
            if lower is not None:
                delta, gid, nnz, coord_nz = lower
                if delta > bounds.lower.delta:
                    bounds.lower = Bound(
                        float(delta), BoundKind.COMPOSITION, int(gid), p.dk_gid
                    )
                    p.lower_meta[j_pos] = (int(nnz), bool(coord_nz))

    def _finalize(
        self,
        p: _PreparedQuery,
        k: int,
        n_positive: int,
        total_ge2: int,
        topk_share: float,
        region_share: float,
    ) -> RegionComputation:
        sequences: Dict[int, RegionSequence] = {}
        for j_pos, (view, bounds) in enumerate(zip(p.views, p.bounds)):
            if (
                bounds.lower.kind == BoundKind.COMPOSITION
                and p.dk_nnz == 1
                and p.lower_meta[j_pos] is not None
                and p.lower_meta[j_pos][0] == 1
                and p.lower_meta[j_pos][1]
            ):
                # Domain-edge degeneracy (single-supported d_k vs
                # single-supported riser): the exact bound depends on
                # TA's encounter set — replay unsharded, like the
                # single-index fused path does.
                return self.oracle.compute(p.query, k, phi=0)
            region = ImmutableRegion(
                dim=view.dim,
                weight=view.weight,
                lower=bounds.lower,
                upper=bounds.upper,
                result_ids=p.result_ids,
            )
            sequences[view.dim] = RegionSequence(
                dim=view.dim, weight=view.weight, regions=(region,)
            )
        candidates_total = n_positive - len(p.result_ids)
        cl_union = total_ge2 - p.result_ge2
        qlen = p.query.qlen
        model = self.oracle.footprint_model
        if self.oracle.method == "scan":
            memory = model.scan(candidates_total)
        elif self.oracle.method == "thres":
            memory = model.thres(candidates_total, qlen)
        elif self.oracle.method == "prune":
            memory = model.prune(cl_union, qlen, 0)
        else:
            memory = model.cpt(cl_union, qlen, 0)
        metrics = RunMetrics(
            ta_access=AccessCounters(),
            region_access=AccessCounters(),
            evals=p.evals,
            evaluated_per_dim={int(d): 0 for d in p.query.dims},
            phase_seconds={"ta": topk_share, "regions": region_share},
            candidates_total=candidates_total,
            cl_union_size=cl_union,
            memory=memory,
            io_seconds=0.0,
            counters_simulated=False,
        )
        return RegionComputation(
            query=p.query,
            k=k,
            phi=0,
            method=self.oracle.method,
            count_reorderings=self.oracle.count_reorderings,
            iterative=False,
            result=p.result,
            sequences=sequences,
            metrics=metrics,
            epoch=self.sharded.index.epoch,
        )

    def __repr__(self) -> str:
        return (
            f"DistributedEngine(shards={self.sharded.n_shards}, "
            f"method={self.method!r})"
        )
