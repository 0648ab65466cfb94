"""Fused multi-query kernels over a shared subspace plan.

Where the other kernel modules batch *within* one query, this one batches
*across* queries sharing a dims signature: one accumulation pass scores
the whole column block against every query's weight vector at once, one
``argpartition`` per query extracts its exact top-k, and the C0/CH/CL
partition counts reduce along the query axis.  These kernels power
``ImmutableRegionEngine.compute_many(topk_mode="matmul")`` — the serving
fast path that skips the TA pull simulation entirely.

Exactness contract
------------------
``fused_scores`` accumulates dimension-by-dimension in signature order,
performing per element the identical multiply-round/add-round sequence of
:meth:`repro.topk.query.Query.score` — fused scores are bit-identical to
the scores TA would have computed.  ``fused_topk`` then selects by the
library total order ``(-score, id)``, which makes the selected result
equal TA's ``R(q)`` **except** when tuples tie bit-exactly at the k
boundary (TA's tie winner depends on which tuples its pulls encountered);
the kernel detects that case and reports it so callers can fall back to
an exact TA replay for the affected query.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = ["FusedTopK", "fused_scores", "fused_topk", "partition_counts_many"]


def fused_scores(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Scores of every tuple against every query: ``(n_queries, n_tuples)``.

    Parameters
    ----------
    block:
        The plan's ``(n_tuples, qlen)`` column block ``X[:, dims]``.  A
        plan's block is the transpose of its column store, so each
        ``block[:, j]`` read here is a contiguous column, not a copy.
    weights:
        ``(n_queries, qlen)`` weight matrix; row ``q`` holds query ``q``'s
        weights aligned with the signature dims.

    Element ``(q, t)`` is accumulated as ``((0 + w_q0·x_t0) + w_q1·x_t1) +
    ...`` — bit-identical to ``Query.score`` on the gathered row.  This is
    the ``W @ X_subᵀ`` product, spelled as an ordered accumulation instead
    of a BLAS GEMM so the summation order stays the library's.  The output
    is query-major so each query's score vector is a contiguous row — the
    top-k selection and the region sweeps read it stride-1.
    """
    block_arr = np.asarray(block, dtype=np.float64)
    weights_arr = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    out = np.zeros((weights_arr.shape[0], block_arr.shape[0]), dtype=np.float64)
    for j in range(weights_arr.shape[1]):
        out += weights_arr[:, j, None] * block_arr[:, j]
    return out


class FusedTopK:
    """One query's exact top-k as selected from a fused score column.

    Attributes
    ----------
    ids:
        Result tuple ids in the library order (score desc, id asc).
    scores:
        Matching scores (bit-identical to TA's).
    boundary_tie:
        True when one or more excluded tuples tie the k-th score
        bit-exactly.  The true result then depends on TA's encounter
        order, so the caller must fall back to a TA replay.
    n_positive:
        Number of tuples with a strictly positive score — the size of
        TA's encountered universe ``R(q) ∪ C(q) ∪ unseen``.
    """

    __slots__ = ("ids", "scores", "boundary_tie", "n_positive")

    def __init__(
        self,
        ids: np.ndarray,
        scores: np.ndarray,
        boundary_tie: bool,
        n_positive: int,
    ) -> None:
        self.ids = ids
        self.scores = scores
        self.boundary_tie = boundary_tie
        self.n_positive = n_positive


def fused_topk(scores: np.ndarray, k: int) -> List[FusedTopK]:
    """Per-query exact top-k over a fused ``(n_queries, n_tuples)`` score matrix.

    Only tuples with a strictly positive score qualify (TA never encounters
    a tuple absent from every query-dimension list), and results may hold
    fewer than *k* tuples when fewer qualify — both matching
    :class:`~repro.topk.ta.ThresholdAlgorithm` semantics exactly.
    """
    scores_arr = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n = scores_arr.shape[1]
    out: List[FusedTopK] = []
    for q in range(scores_arr.shape[0]):
        column = scores_arr[q]
        n_positive = int(np.count_nonzero(column > 0.0))
        kk = min(int(k), n_positive)
        if kk == 0:
            out.append(
                FusedTopK(
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.float64),
                    False,
                    0,
                )
            )
            continue
        if kk < n:
            part = np.argpartition(-column, kk - 1)[:kk]
        else:
            part = np.arange(n, dtype=np.int64)
        order = np.lexsort((part, -column[part]))
        top = part[order].astype(np.int64)
        kth_score = float(column[top[-1]])
        boundary_tie = False
        if kk < n:
            # A tie across the selection boundary makes the TA result
            # encounter-dependent; everything else is order-determined.
            boundary_tie = int(np.count_nonzero(column == kth_score)) > int(
                np.count_nonzero(column[top] == kth_score)
            )
        out.append(FusedTopK(top, column[top], boundary_tie, n_positive))
    return out


def partition_counts_many(
    nnz_rows: np.ndarray,
    nnz_ge2_total: int,
    results: List["FusedTopK"],
) -> List[Tuple[int, int]]:
    """Per-query ``(candidates_total, cl_union)`` counts along the query axis.

    In the fused path every positive-score non-result tuple is a candidate,
    so the counts follow from the plan's shared per-row non-zero counts:
    ``cl_union`` (candidates with ≥ 2 non-zero query coordinates) is the
    signature-wide total minus the result tuples' contribution.  One shared
    reduction replaces a per-query partition pass.
    """
    counts: List[Tuple[int, int]] = []
    nnz_arr = np.asarray(nnz_rows)
    for topk in results:
        result_ge2 = int(np.count_nonzero(nnz_arr[topk.ids] >= 2))
        candidates_total = topk.n_positive - topk.ids.size
        counts.append((candidates_total, int(nnz_ge2_total) - result_ge2))
    return counts
