"""Delta-aware invalidation of cached region computations.

A data mutation does not have to flush the whole
:class:`~repro.service.cache.RegionCache`: the immutable-region semantics
give a cheap sufficient condition for a cached computation to remain
*exactly* valid.  For a touched tuple ``u`` and a cached region of
dimension ``j`` with deviation interval ``[δl, δu]``, consider the score
lines over the deviation ``δ``:

    S_u(δ) = S(u, q) + δ·u_j        S_k(δ) = S(d_k, q) + δ·d_k,j

(the Lemma 1 geometry: every line is affine in ``δ``).  If both the
tuple's **old** line and its **new** line stay strictly below the
region's k-th line at *both* endpoints of the interval — a half-space
check, since an affine function below at both endpoints is below
throughout — then within the whole region the tuple neither enters the
top-k nor crosses ``d_k``.  Its Lemma 1 constraint therefore lies
strictly outside the interval on both the old and the new data, so the
stored bounds, their provenance, and every per-region result are
untouched: the cached computation *is* the computation a fresh engine run
on the mutated data would answer with.  (The old line matters too: a
tuple that used to cross inside the region may have been the binding
constraint, so only "was outside AND stays outside" proves nothing
moved.)

The test is conservative in the safe direction.  Any mutation that
*changes* a result tuple, a bound's recorded provenance tuple, or whose
line check fails — including exact-tie grazes at an endpoint — evicts
the entry, and the next query recomputes against the mutated index.
Mutations that leave the touched row's projection onto the cached
query's subspace unchanged (e.g. an update of an off-subspace
coordinate, even of a result tuple) cannot move any score line of that
subspace and always keep the entry.

**Indexed sweep.**  A mutation can only move score lines on the
dimensions it changes, so :func:`invalidate_region_cache` asks the cache
(:meth:`RegionCache.sweep_dims`) for the entries whose query subspace
holds a changed dimension — every other entry survives untested — and
applies to each the same rule as :func:`computation_survives`.  Per
entry it derives once, the first time a sweep tests it, the tuple ids
its regions name and each region's k-th line at both endpoints; both
stay valid while the entry lives, because an entry survives only while
no mutation moves one of those tuples within its subspace.  A sweep
therefore costs O(entries on the changed dimensions), with no dataset
reads for entries tested before.  :func:`computation_survives` stays as
the reference the indexed sweep is property-tested against.

Eviction is routed through :meth:`RegionCache.sweep_dims`, which purges each
dropped entry's region-index postings inside the same critical section:
the region tier (see :mod:`repro.service.cache`) can therefore never
serve a membership hit from an entry this sweep has invalidated — a
stale region hit would be a correctness bug, so postings carry their
entry's epoch and are re-validated against the live entry on read.

Property-tested in
``tests/properties/test_region_immutability_semantics.py``: an entry
judged *valid* returns the brute-force top-k of the mutated data at
every deviation inside its regions; an *evicted* entry recomputes
cleanly (to a possibly different region).
``tests/properties/test_mutation_parity.py`` holds the indexed sweep's
keep/evict decisions equal to :func:`computation_survives`'.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..core.engine import RegionComputation
from ..datasets.base import Dataset
from ..storage.mutations import AppliedMutation
from .cache import RegionCache

__all__ = ["computation_survives", "invalidate_region_cache"]


def _touches_structure(computation: RegionComputation, tuple_id: int) -> bool:
    """Whether *tuple_id* appears in any region's result or bound provenance."""
    for sequence in computation.sequences.values():
        for region in sequence.regions:
            if tuple_id in region.result_ids:
                return True
            for bound in (region.lower, region.upper):
                if bound.rising_id == tuple_id or bound.falling_id == tuple_id:
                    return True
    return False


def _structure_ids(computation: RegionComputation) -> FrozenSet:
    """Every id :func:`_touches_structure` answers ``True`` for."""
    ids = set()
    for sequence in computation.sequences.values():
        for region in sequence.regions:
            ids.update(region.result_ids)
            for bound in (region.lower, region.upper):
                ids.update((bound.rising_id, bound.falling_id))
    return frozenset(ids)


def _kth_lines(
    computation: RegionComputation, dataset: Dataset
) -> List[Tuple[int, float, float]]:
    """``(j_pos, endpoint, kth_line)`` for both endpoints of every region.

    The same arithmetic as :func:`computation_survives`' pass 2.
    """
    query = computation.query
    dims = query.dims
    lines: List[Tuple[int, float, float]] = []
    for sequence in computation.sequences.values():
        j_pos = int(np.searchsorted(dims, sequence.dim))
        for region in sequence.regions:
            kth_coords = dataset.values_at(region.result_ids[-1], dims)
            kth_score = query.score(kth_coords)
            kth_slope = float(kth_coords[j_pos])
            for endpoint in (region.lower.delta, region.upper.delta):
                lines.append((j_pos, endpoint, kth_score + endpoint * kth_slope))
    return lines


def computation_survives(
    computation: RegionComputation,
    deltas: Sequence[AppliedMutation],
    dataset: Dataset,
) -> bool:
    """Whether a cached computation provably survives *deltas* unchanged.

    *dataset* is the post-mutation dataset; it is only consulted for the
    subspace projections of result tuples, which — whenever the answer
    can be ``True`` — no delta has changed.
    """
    query = computation.query
    dims = query.dims
    # A short result (fewer positive-score tuples than k) means every
    # positive tuple of the subspace is already in the result: any
    # mutation that moves a score line either touches a result tuple or
    # adds a brand-new positive tuple that would extend the result.
    short_result = len(computation.result) < computation.k

    # Pass 1 — structural involvement.  A delta that leaves the row's
    # projection onto the query subspace unchanged is inert (its score
    # line over this subspace is the same affine function before and
    # after); one that changes a result or provenance tuple's projection
    # invalidates outright.
    relevant: List[Tuple[float, np.ndarray, float, np.ndarray]] = []
    for delta in deltas:
        old_coords = delta.coords_at(dims, new=False)
        new_coords = delta.coords_at(dims, new=True)
        if np.array_equal(old_coords, new_coords):
            continue
        if short_result or _touches_structure(computation, delta.tuple_id):
            return False
        relevant.append(
            (query.score(old_coords), old_coords, query.score(new_coords), new_coords)
        )
    if not relevant:
        return True

    # Pass 2 — the Lemma 1 half-space check, per region of every
    # dimension's sequence (φ>0 sequences check each member region
    # against its own k-th tuple's line).
    for sequence in computation.sequences.values():
        j_pos = int(np.searchsorted(dims, sequence.dim))
        for region in sequence.regions:
            kth_coords = dataset.values_at(region.result_ids[-1], dims)
            kth_score = query.score(kth_coords)
            kth_slope = float(kth_coords[j_pos])
            for endpoint in (region.lower.delta, region.upper.delta):
                kth_line = kth_score + endpoint * kth_slope
                for old_score, old_coords, new_score, new_coords in relevant:
                    if old_score + endpoint * float(old_coords[j_pos]) >= kth_line:
                        return False
                    if new_score + endpoint * float(new_coords[j_pos]) >= kth_line:
                        return False
    return True


def invalidate_region_cache(
    cache: RegionCache,
    deltas: Sequence[AppliedMutation],
    dataset: Dataset,
) -> Tuple[int, int]:
    """Selectively evict cached computations invalidated by *deltas*.

    Tests only the entries whose query subspace holds a changed
    dimension (see the module notes), each by the rule of
    :func:`computation_survives` — the decisions are identical — and
    returns ``(kept, evicted)`` counts over the whole cache.
    """
    changed = {dim for delta in deltas for dim, _, _ in delta.coordinate_changes()}
    #: dims bytes → the deltas that move a row's projection onto them,
    #: as ``(tuple_id, old_coords, new_coords)``; shared by the entries
    #: of one subspace.
    moved_by_dims: Dict[bytes, List[Tuple[int, np.ndarray, np.ndarray]]] = {}

    def keep(computation: RegionComputation, memo: Dict) -> bool:
        query = computation.query
        dims = query.dims
        dims_key = dims.tobytes()
        moved = moved_by_dims.get(dims_key)
        if moved is None:
            moved = moved_by_dims[dims_key] = []
            for delta in deltas:
                old_coords = delta.coords_at(dims, new=False)
                new_coords = delta.coords_at(dims, new=True)
                if not np.array_equal(old_coords, new_coords):
                    moved.append((delta.tuple_id, old_coords, new_coords))
        if not moved:
            return True
        if len(computation.result) < computation.k:
            return False
        structure = memo.get("structure")
        if structure is None:
            structure = memo["structure"] = _structure_ids(computation)
        for tuple_id, _, _ in moved:
            if tuple_id in structure:
                return False
        lines = memo.get("lines")
        if lines is None:
            lines = memo["lines"] = _kth_lines(computation, dataset)
        for _, old_coords, new_coords in moved:
            old_score, new_score = query.score(old_coords), query.score(new_coords)
            old_slopes, new_slopes = old_coords.tolist(), new_coords.tolist()
            for j_pos, endpoint, kth_line in lines:
                if old_score + endpoint * old_slopes[j_pos] >= kth_line:
                    return False
                if new_score + endpoint * new_slopes[j_pos] >= kth_line:
                    return False
        return True

    return cache.sweep_dims(sorted(changed), keep)
