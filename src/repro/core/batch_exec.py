"""Cross-query batch execution: shared subspace plans + fused kernels.

:func:`compute_many` answers a whole batch of queries, amortising every
piece of per-subspace work across the queries that share a dims
signature:

1. queries are grouped by signature and each group checks the index's
   :class:`~repro.storage.plan.SubspacePlanCache` once — the gathered
   column block, probe-order rank arrays, and warmed id-lookup tables are
   built on the first query of a signature and reused by every later one;
2. ``topk_mode="ta"`` replays the paper's TA pull-by-pull against the
   shared plan: access counters, candidate lists, and traces are exactly
   those of a standalone :meth:`~repro.core.engine.ImmutableRegionEngine.compute`;
3. ``topk_mode="matmul"`` is the serving fast path: one fused
   scoring pass (``X_sub @ W.T`` in the library's accumulation order) plus
   an ``argpartition`` top-k per query replaces TA, and the φ=0 regions
   are assembled from one vectorized Lemma 1 sweep over the whole block —
   no per-query cursors, no candidate objects, no pull simulation.

Both modes return regions, bounds, and provenance **identical** to the
sequential engine (property-tested in
``tests/properties/test_batch_parity.py``).  Provenance identity holds
under the library-wide general-position assumption: when two distinct
tuples cross ``d_k`` at the *bit-exact same* delta, the recorded achiever
depends on processing order — exactly as it already does between the four
sequential methods (see DESIGN.md on ties).  The matmul mode does not
simulate the storage model, so its computations carry
``metrics.counters_simulated = False`` and zeroed access counters, and
its candidate accounting (``candidates_total``, ``cl_union_size``, the
derived memory footprint) describes the signature's *full* candidate
universe — every positive-score non-result tuple — rather than TA's
encounter-truncated ``C(q)``.

Why matmul-mode regions are exact
---------------------------------
Scores are bit-identical to TA's (shared accumulation order), so the
selected top-k equals ``R(q)`` whenever no excluded tuple ties the k-th
score bit-exactly (the kernel detects boundary ties and falls back to a
TA replay for that query).  For φ=0 with reordering counted, the final
bounds are, by Lemma 1, the domain interval intersected with (a) the
``k−1`` adjacent result-pair constraints (Phase 1 — computed here by the
same batch kernel the engine uses) and (b) the extremal crossing of
``d_k`` against **every** non-result tuple.  The sequential engine reaches
exactly that intersection through its candidate list and Phase 3
threshold scan; the fused path evaluates (b) directly over the plan's
block with the same crossing arithmetic, so bound deltas and provenance
match bit for bit.  Tuples with an all-zero block row (score 0) are
outside the candidate universe and masked out of the reduction
explicitly (their flat-zero lines could otherwise graze a vanishing
``d_k`` line at the domain edge through division rounding).  One further
structural coincidence escapes the shared arithmetic: when ``d_k`` and a
candidate are both supported on only one dimension, their lines vanish
together at weight 0 and the true crossing sits *exactly* on the domain
lower limit, where the sequential outcome depends on TA's encounter set
— such queries transparently fall back to the TA replay (see
:func:`_lower_bound_degenerate`), like boundary ties do.

Configurations the fused geometry does not cover (φ>0 sequences, the
§7.4 composition-only mode, forced iterative processing) transparently
run the TA replay path — still plan-accelerated, still exact.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._util import require
from ..errors import AlgorithmError, QueryError
from ..kernels.batch import FusedTopK, fused_scores, fused_topk, partition_counts_many
from ..kernels.constraints import batch_crossings, batch_pair_crossings
from ..metrics.counters import AccessCounters, EvaluationCounters
from ..storage.plan import SubspacePlan
from ..topk.query import Query
from ..topk.result import TopKResult
from .context import DimensionView, WorkingBounds, apply_batch_constraints
from .regions import BoundKind, ImmutableRegion, RegionSequence

__all__ = ["TOPK_MODES", "compute_many"]

#: How a batch obtains each query's top-k: ``"ta"`` replays the paper's
#: threshold algorithm (exact access counters); ``"matmul"`` fuses scoring
#: across the batch (identical regions, counters not simulated).
TOPK_MODES = ("ta", "matmul")

#: Queries per fused scoring pass: bounds the ``n_tuples × chunk`` score
#: matrix (~25 MB at n=50k) while keeping the accumulation well amortised.
_SCORE_CHUNK = 64


def _group_by_signature(queries: List[Query]) -> "OrderedDict[Tuple[int, ...], List[int]]":
    groups: "OrderedDict[Tuple[int, ...], List[int]]" = OrderedDict()
    for i, query in enumerate(queries):
        if not isinstance(query, Query):
            raise QueryError(f"batch items must be Query objects, got {query!r}")
        groups.setdefault(tuple(int(d) for d in query.dims), []).append(i)
    return groups


def compute_many(
    engine,
    queries,
    k: int,
    phi: int = 0,
    topk_mode: str = "ta",
    deadline=None,
) -> List:
    """Answer every query of *queries*; results come back in input order.

    See the module docstring for the execution model.  Duplicate queries
    (same weights) within a signature group are computed once and share
    the returned :class:`~repro.core.engine.RegionComputation` object.

    *deadline* bounds the batch: it is checked before each signature
    group, each fused score chunk, and each TA replay, so exhaustion
    surfaces as :class:`~repro.errors.DeadlineExceeded` within one unit
    of work rather than after the whole batch.
    """
    if topk_mode not in TOPK_MODES:
        raise QueryError(
            f"unknown topk_mode {topk_mode!r}; expected one of {TOPK_MODES}"
        )
    batch = list(queries)
    require(len(batch) >= 1, "compute_many needs at least one query")
    require(k >= 1, "k must be >= 1")
    require(phi >= 0, "phi must be >= 0")

    results: List = [None] * len(batch)
    fused_eligible = (
        topk_mode == "matmul"
        and phi == 0
        and engine.count_reorderings
        and not engine._use_iterative(phi)
    )
    for signature, indices in _group_by_signature(batch).items():
        # Single-flight within the group: identical weight vectors map to
        # one computation shared by every duplicate.
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
        if deadline is not None:
            deadline.check("engine-group")
        if fused_eligible:
            plan = engine.index.plans.plan_for(signature)
            _fused_group(engine, batch, unique, k, plan, results, deadline=deadline)
        else:
            # TA replay: a plan only trims constant factors here, so a
            # cold signature is worth materialising only when the group
            # amortises the build; a lone query on a cold signature runs
            # exactly like a standalone compute().
            plans = engine.index.plans
            plan = plans.peek(signature)
            if plan is None and len(unique) >= 2:
                plan = plans.plan_for(signature)
            for i in unique:
                if deadline is not None:
                    deadline.check("engine-query")
                results[i] = engine.compute(batch[i], k, phi=phi, plan=plan)
        for i in indices:
            if isinstance(results[i], int):
                results[i] = results[results[i]]
    return results


# ----------------------------------------------------------------------
# The fused (matmul) group path
# ----------------------------------------------------------------------


def _fused_group(
    engine,
    batch: List[Query],
    indices: List[int],
    k: int,
    plan: SubspacePlan,
    results: List,
    deadline=None,
) -> None:
    """Fused-scoring execution of one signature group (φ=0 fast path)."""
    for start in range(0, len(indices), _SCORE_CHUNK):
        if deadline is not None:
            deadline.check("engine-chunk")
        chunk = indices[start : start + _SCORE_CHUNK]
        topk_start = time.perf_counter()
        weights = np.stack([batch[i].weights for i in chunk])
        scores = fused_scores(plan.block, weights)
        tops = fused_topk(scores, k)
        counts = partition_counts_many(plan.nnz_rows, plan.nnz_ge2_total, tops)
        topk_share = (time.perf_counter() - topk_start) / len(chunk)
        for pos, i in enumerate(chunk):
            top = tops[pos]
            if top.ids.size == 0:
                raise AlgorithmError(
                    "query matched no tuple with a positive score; "
                    "no region exists"
                )
            if top.boundary_tie:
                # Bit-exact score tie across the k boundary: the true
                # R(q) depends on TA's encounter order — replay it.
                results[i] = engine.compute(batch[i], k, phi=0, plan=plan)
                continue
            computation = _fused_computation(
                engine, batch[i], k, plan, top, scores[pos], counts[pos], topk_share
            )
            if computation is None:
                # Domain-edge degeneracy (see _lower_bound_degenerate):
                # the exact bound depends on TA's encounter set — replay.
                computation = engine.compute(batch[i], k, phi=0, plan=plan)
            results[i] = computation


def _lower_bound_degenerate(
    plan: SubspacePlan, j_pos: int, dk_id: int, bound
) -> bool:
    """Whether a fused lower bound sits on the domain-edge degeneracy.

    When both ``d_k`` and the bound's rising candidate are supported on
    *only* this dimension within the subspace, their score lines both
    vanish at weight 0, so the true crossing is *exactly* the domain
    lower limit ``−q_j``.  The computed crossing then lands on either
    side of the limit purely by division rounding, while the sequential
    engine resolves the case through TA's encounter set (Phase 2's
    crossing for encountered candidates, Phase 3's — exact — endpoint
    threshold test for unseen ones).  The fused path cannot know the
    encounter set, so such queries are replayed through TA.  The test is
    purely structural (non-zero counts) — no floating-point tolerance.
    """
    if bound.kind != BoundKind.COMPOSITION:
        return False
    rising = bound.rising_id
    return (
        plan.nnz_rows[dk_id] == 1
        and plan.nnz_rows[rising] == 1
        and plan.block[rising, j_pos] != 0.0
    )


def _fused_computation(
    engine,
    query: Query,
    k: int,
    plan: SubspacePlan,
    top: FusedTopK,
    score_column: np.ndarray,
    counts: Tuple[int, int],
    topk_seconds: float,
):
    """Assemble one query's RegionComputation from the fused kernels."""
    from .engine import RegionComputation, RunMetrics  # circular at import time

    region_start = time.perf_counter()
    result = TopKResult(
        [(int(tid), float(score)) for tid, score in zip(top.ids, top.scores)]
    )
    result_ids = tuple(result.ids)
    result_id_arr = np.asarray(result_ids, dtype=np.int64)
    result_scores = tuple(float(s) for s in result.scores)
    evals = EvaluationCounters()

    sequences: Dict[int, RegionSequence] = {}
    for j_pos, dim in enumerate(int(d) for d in query.dims):
        coords = plan.block[result_id_arr, j_pos]
        view = DimensionView(
            dim=dim,
            weight=query.weight_of(dim),
            dk_id=result_ids[-1],
            dk_score=result_scores[-1],
            dk_coord=float(coords[-1]),
            result_ids=result_ids,
            result_scores=result_scores,
            result_coords=tuple(float(c) for c in coords),
        )
        bounds = WorkingBounds(view)
        # Phase 1 — the k−1 adjacent result pairs, same kernel as the
        # engine's vector backend.
        if result_id_arr.size >= 2:
            evals.result_comparisons += result_id_arr.size - 1
            scores_arr = np.asarray(result_scores, dtype=np.float64)
            deltas, denoms = batch_pair_crossings(
                scores_arr[:-1], coords[:-1], scores_arr[1:], coords[1:]
            )
            apply_batch_constraints(
                bounds, deltas, denoms, result_ids[1:], result_ids[:-1],
                BoundKind.REORDER,
            )
        # Phases 2+3, fused: d_k against every non-result tuple in one
        # vectorized Lemma 1 sweep (result rows masked out via a zero
        # denominator; zero-score rows are provably inert).
        deltas, denoms = batch_crossings(
            view.dk_score, view.dk_coord, score_column, plan.column(j_pos)
        )
        denoms[result_id_arr] = 0.0
        # Zero-score tuples are outside the candidate universe (TA has no
        # entry to encounter, the brute oracle filters them): mask them
        # out explicitly — their flat-zero lines can otherwise graze a
        # vanishing d_k line at the domain edge through division rounding.
        denoms[score_column == 0.0] = 0.0
        # Plan rows are tuple ids, so the row range names each constraint.
        apply_batch_constraints(
            bounds, deltas, denoms, range(plan.n_tuples), view.dk_id,
            BoundKind.COMPOSITION,
        )
        if _lower_bound_degenerate(plan, j_pos, view.dk_id, bounds.lower):
            return None
        region = ImmutableRegion(
            dim=dim,
            weight=view.weight,
            lower=bounds.lower,
            upper=bounds.upper,
            result_ids=result_ids,
        )
        sequences[dim] = RegionSequence(dim=dim, weight=view.weight, regions=(region,))

    candidates_total, cl_union = counts
    qlen = query.qlen
    model = engine.footprint_model
    if engine.method == "scan":
        memory = model.scan(candidates_total)
    elif engine.method == "thres":
        memory = model.thres(candidates_total, qlen)
    elif engine.method == "prune":
        memory = model.prune(cl_union, qlen, 0)
    else:
        memory = model.cpt(cl_union, qlen, 0)
    metrics = RunMetrics(
        ta_access=AccessCounters(),
        region_access=AccessCounters(),
        evals=evals,
        evaluated_per_dim={int(d): 0 for d in query.dims},
        phase_seconds={
            "ta": topk_seconds,
            "regions": time.perf_counter() - region_start,
        },
        candidates_total=candidates_total,
        cl_union_size=cl_union,
        memory=memory,
        io_seconds=0.0,
        counters_simulated=False,
    )
    return RegionComputation(
        query=query,
        k=k,
        phi=0,
        method=engine.method,
        count_reorderings=engine.count_reorderings,
        iterative=False,
        result=result,
        sequences=sequences,
        metrics=metrics,
        epoch=plan.epoch,
    )
