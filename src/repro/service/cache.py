"""Two-tier cache of finished region computations.

Traffic against a search service is heavily repetitive: popular queries
recur, and refinement UIs re-issue *almost* the same query while a user
drags a weight slider.  The cache serves both shapes:

**Tier 1 — exact.**  A :class:`~repro.core.engine.RegionComputation` is
fully determined by the query vector and the engine configuration, so
the service can replay it instead of recomputing.  The exact key
captures everything the output depends on: ``(dims, weights, k, phi,
method, count_reorderings)``.  Weights are compared exactly
(bit-for-bit) — two queries with weights differing in the last ulp are
different queries and may have different regions.

**Tier 2 — region.**  The paper's headline application (§1) is that an
immutable region lets a client skip re-querying while a weight slider
stays inside the region.  :class:`RegionIndex` materialises every cached
computation's per-dimension regions as *absolute weight intervals* in
flat sorted arrays, keyed by the subspace, the engine configuration,
and the weights of every *other* dimension.  An incoming query that
matches a cached entry in all dimensions but one — with the deviating
weight strictly inside one of that dimension's stored regions under the
open(crossing)/closed(domain) endpoint semantics of
:meth:`~repro.core.regions.ImmutableRegion.contains` — is answered in
O(log m) ``searchsorted`` time by :func:`rebase_computation`, **without
running the engine**.  This is the reverse-materialisation move of the
reverse top-k indexing literature applied to our own output: the
computed regions become the serving data structure.

Cached computations are shared objects: callers must treat them as
immutable (the library never mutates a finished computation).  Region
hits return freshly built views, never the shared anchors.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .._util import require
from ..core.engine import RegionComputation, RunMetrics
from ..core.lemma1 import crossing_delta
from ..core.regions import Bound, BoundKind, ImmutableRegion, RegionSequence
from ..datasets.base import Dataset
from ..errors import AlgorithmError, ValidationError
from ..kernels.scoring import accumulate_scores, gather_columns
from ..metrics.counters import AccessCounters, EvaluationCounters
from ..metrics.footprint import MemoryFootprint
from ..topk.query import Query
from ..topk.result import TopKResult

__all__ = [
    "CacheKey",
    "CacheStats",
    "RegionCache",
    "RegionIndex",
    "ReuseProvenance",
    "rebase_computation",
    "region_cache_key",
]

#: ``(dims_bytes, weights_bytes, k, phi, method, count_reorderings)``.
CacheKey = Tuple[bytes, bytes, int, int, str, bool]

#: One float64 weight occupies 8 bytes in a key's ``weights_bytes``.
_W = 8


def region_cache_key(
    query: Query,
    k: int,
    phi: int,
    method: str,
    count_reorderings: bool = True,
) -> CacheKey:
    """The cache key of one (query, engine configuration) pair.

    Dims and weights are keyed on their raw array bytes
    (``ndarray.tobytes``) rather than Python tuples of scalars: one C-level
    copy and a fast bytes hash replace per-element boxing, tuple
    allocation, and element-wise tuple hashing.  Microbench (qlen=4,
    CPython 3.11, build+hash): ~0.5 µs/key vs ~3.4 µs for the tuple key —
    a ~7× cheaper hot-path lookup.  Semantics are the documented bit-exact
    comparison either way (weights live in ``(0, 1]``, so the one
    value-vs-bits divergence of float equality, ``-0.0 == 0.0``, cannot
    arise; NaN weights are rejected at Query construction).
    """
    return (
        query.dims.tobytes(),
        query.weights.tobytes(),
        int(k),
        int(phi),
        str(method),
        bool(count_reorderings),
    )


@dataclass(frozen=True)
class ReuseProvenance:
    """Where a region-tier answer came from.

    Attached as :attr:`RegionComputation.reuse` to every view built by
    :func:`rebase_computation`, so callers (and tests) can tell an
    engine-computed answer from a served one and audit the proof chain:
    the anchor entry, the dimension whose stored region proved the hit,
    which region of the anchor's sequence contained the new weight, and
    the data epoch the anchor was computed under.
    """

    source_key: CacheKey
    dim: int
    region_index: int
    anchor_weight: float
    epoch: int


def _reuse_metrics() -> RunMetrics:
    """Zeroed metrics for a served view: the service did no engine work."""
    return RunMetrics(
        ta_access=AccessCounters(),
        region_access=AccessCounters(),
        evals=EvaluationCounters(),
        evaluated_per_dim={},
        phase_seconds={},
        candidates_total=0,
        cl_union_size=0,
        memory=MemoryFootprint(0, 0),
        io_seconds=0.0,
        counters_simulated=False,
    )


#: Memoisable per-(entry, dimension) gather: the coordinate block of
#: every tuple a re-base can need, plus the id → row lookup.
SequenceGather = Tuple[np.ndarray, Dict[int, int]]


def sequence_gather(
    anchor: RegionComputation, dim: int, dataset: Dataset
) -> SequenceGather:
    """The coordinate block backing re-bases of *anchor*'s *dim* sequence.

    Rows cover, in one columnar gather, every result tuple of every
    region in the sequence and every crossing bound's rising/falling
    tuple — all the tuples whose scores/coordinates
    :func:`rebase_computation` reads.  Valid for the anchor's lifetime
    in the cache: the delta-aware sweep evicts any entry whose
    structural tuples' subspace projections a mutation changes, so a
    surviving entry's gather is bit-equal to a fresh one.
    """
    sequence = anchor.sequences[dim]
    ids: List[int] = []
    seen: set = set()
    for region in sequence.regions:
        for tuple_id in region.result_ids:
            if tuple_id not in seen:
                seen.add(tuple_id)
                ids.append(tuple_id)
        for bound in (region.lower, region.upper):
            if bound.kind != BoundKind.DOMAIN:
                for tuple_id in (bound.rising_id, bound.falling_id):
                    if tuple_id not in seen:
                        seen.add(tuple_id)
                        ids.append(tuple_id)
    coords_matrix = gather_columns(
        dataset, np.asarray(ids, dtype=np.int64), anchor.query.dims
    )
    return coords_matrix, {tuple_id: i for i, tuple_id in enumerate(ids)}


def rebase_computation(
    anchor: RegionComputation,
    query: Query,
    dim_pos: int,
    region_index: int,
    dataset: Dataset,
    source_key: Optional[CacheKey] = None,
    gather: Optional[SequenceGather] = None,
) -> Optional[RegionComputation]:
    """A :class:`RegionComputation` view answering *query* from *anchor*.

    *query* must equal the anchor's query in every dimension except
    position *dim_pos*, whose weight lies inside region *region_index* of
    the anchor's sequence for that dimension.  The view is re-based onto
    the new weight:

    * every crossing bound's delta is **recomputed from its provenance**
      — ``crossing_delta`` over :meth:`Query.score` values of the
      recorded rising/falling tuples — which reproduces, bit for bit,
      the arithmetic a fresh engine run at the new weight performs for
      the same binding constraint (every engine path derives a bound
      delta as one score subtraction over one coordinate subtraction,
      and IEEE-754 negation symmetry makes the quotient orientation-
      independent); domain bounds re-base to ``−w`` / ``1 − w`` exactly;
    * rising/falling provenance is *direction-oriented* — "the tuple
      whose line crosses upward at the bound" means upward when moving
      away from the query's weight — so every boundary lying between the
      anchor's current region and the containing region swaps its
      rising/falling labels, exactly as the fresh sweep anchored in the
      containing region would report them;
    * the result is the containing region's annotated top-k, re-scored
      at the new weight (same left-to-right accumulation as every other
      scoring route, so scores are bit-identical to a fresh TA's);
    * only the proven dimension's sequence is populated — the other
      dimensions' regions depend on the moved weight and would require
      engine work to re-derive;
    * ``epoch`` is inherited from the anchor (the regions are proven for
      that data version) and :class:`ReuseProvenance` marks the answer
      as served.

    Returns ``None`` when re-based bounds fail region/sequence
    validation (possible only under extreme floating-point edge cases,
    e.g. a weight within one ulp of a crossing); callers treat that as a
    cache miss and fall through to the engine.
    """
    dims = anchor.query.dims
    dim = int(dims[dim_pos])
    sequence = anchor.sequences[dim]
    containing = sequence.regions[region_index]
    w_new = float(query.weights[dim_pos])

    # One ordered accumulation over the sequence's gathered coordinate
    # block covers every tuple the view needs (all regions' results and
    # crossing provenance).  Both kernels are bit-identical to the scalar
    # values_at/Query.score route (their documented contract), so the
    # vectorisation changes no output bit — and because a cache entry
    # only ever survives mutations that leave its structural tuples'
    # subspace projections unchanged, the gather can be memoised per
    # (entry, dimension) across a whole drag burst (the RegionIndex does
    # exactly that), leaving one ~(k+2φ)-element accumulation per hit.
    if gather is None:
        gather = sequence_gather(anchor, dim, dataset)
    coords_matrix, position_of = gather
    scores_vector = accumulate_scores(coords_matrix, query.weights)
    deviating_coords = coords_matrix[:, dim_pos]

    def score(tuple_id: int) -> float:
        return float(scores_vector[position_of[tuple_id]])

    def coord(tuple_id: int) -> float:
        return float(deviating_coords[position_of[tuple_id]])

    # Adjacent regions share their crossing Bound object; memoising on the
    # bound's identity preserves exact contiguity in the re-based sequence.
    bound_memo: Dict[int, Bound] = {}
    anchor_current = sequence.current_index

    def rebase_bound(bound: Bound, boundary: int, is_lower: bool) -> Bound:
        if bound.kind == BoundKind.DOMAIN:
            return Bound(-w_new if is_lower else 1.0 - w_new, BoundKind.DOMAIN)
        rebased = bound_memo.get(id(bound))
        if rebased is None:
            # Boundaries between the anchor's current region and the
            # containing one change sweep sides: their labels mirror.
            flipped = (
                region_index <= boundary < anchor_current
                or anchor_current <= boundary < region_index
            )
            rising, falling = bound.rising_id, bound.falling_id
            if flipped:
                rising, falling = falling, rising
            delta = crossing_delta(
                score(falling), coord(falling), score(rising), coord(rising)
            )
            rebased = bound_memo[id(bound)] = Bound(
                delta, bound.kind, rising_id=rising, falling_id=falling
            )
        return rebased

    result = TopKResult([(tid, score(tid)) for tid in containing.result_ids])
    # With count_reorderings=False reorder crossings do not end regions, so
    # the result *order* can change inside one: a fresh engine run at the
    # new weight annotates the containing region with the order holding
    # there, not at the anchor.  Re-sorting the annotated ids at the new
    # weight (the TopKResult order above) reproduces that bit for bit.
    # Under the default reorder-counting semantics no reorder can occur
    # inside a region and the anchor's order is already the new-weight
    # order, so this is the identity there.
    containing_ids = (
        containing.result_ids
        if anchor.count_reorderings
        else tuple(result.ids)
    )

    try:
        regions = tuple(
            ImmutableRegion(
                dim=dim,
                weight=w_new,
                lower=rebase_bound(region.lower, i - 1, is_lower=True),
                upper=rebase_bound(region.upper, i, is_lower=False),
                result_ids=(
                    containing_ids if i == region_index else region.result_ids
                ),
            )
            for i, region in enumerate(sequence.regions)
        )
        rebased_sequence = RegionSequence(
            dim=dim, weight=w_new, regions=regions, current_index=region_index
        )
    except (AlgorithmError, ValidationError):
        return None
    if source_key is None:
        source_key = region_cache_key(
            anchor.query,
            anchor.k,
            anchor.phi,
            anchor.method,
            anchor.count_reorderings,
        )
    return RegionComputation(
        query=query,
        k=anchor.k,
        phi=anchor.phi,
        method=anchor.method,
        count_reorderings=anchor.count_reorderings,
        iterative=anchor.iterative,
        result=result,
        sequences={dim: rebased_sequence},
        metrics=_reuse_metrics(),
        epoch=anchor.epoch,
        reuse=ReuseProvenance(
            source_key=source_key,
            dim=dim,
            region_index=region_index,
            anchor_weight=float(anchor.query.weights[dim_pos]),
            epoch=anchor.epoch,
        ),
    )


# ----------------------------------------------------------------------
# Region index: cached regions as a queryable membership structure
# ----------------------------------------------------------------------

#: ``(dims_bytes, k, phi, method, count_reorderings, dim_pos, other_weights_bytes)``
#: — everything an incoming query must match *exactly* for a posting of
#: the remaining (deviating) dimension to be a membership candidate.
GroupKey = Tuple[bytes, int, int, str, bool, int, bytes]


@dataclass(frozen=True)
class _Posting:
    """One cached region, projected to its absolute weight interval."""

    low: float  # absolute interval start, nudged 2 ulp outward (prefilter)
    high: float  # absolute interval end, nudged 2 ulp outward (prefilter)
    key: CacheKey  # the parent entry's exact cache key
    dim_pos: int  # position of the deviating dimension in the query dims
    region_index: int  # index into the parent sequence's regions
    epoch: int  # the parent entry's epoch at posting time


def _other_weights(weights_bytes: bytes, dim_pos: int) -> bytes:
    """*weights_bytes* with the 8-byte float at *dim_pos* sliced out."""
    start = dim_pos * _W
    return weights_bytes[:start] + weights_bytes[start + _W :]


def _group_key(key: CacheKey, dim_pos: int) -> GroupKey:
    """The posting group of *key*'s entries deviating in *dim_pos* alone.

    The single construction point for :data:`GroupKey` — insertion
    (:meth:`RegionIndex.add`) and lookup
    (:meth:`RegionCache._region_candidate`) must build the tuple
    identically or lookups silently stop matching insertions.
    """
    dims_bytes, weights_bytes, k, phi, method, count_reorderings = key
    return (
        dims_bytes,
        k,
        phi,
        method,
        count_reorderings,
        dim_pos,
        _other_weights(weights_bytes, dim_pos),
    )


class _PostingList:
    """Postings of one group, kept ready for sorted membership probes.

    The flat arrays are rebuilt lazily after inserts/removals: ``_lows``
    holds the (nudged) interval starts ascending and ``_high_maxes`` the
    running maximum of the (nudged) interval ends, so a membership probe
    is one ``searchsorted`` plus a short backward walk bounded by the
    overlap degree of the stored intervals (φ>0 sequences of neighbouring
    anchors overlap; current regions tile the weight axis).  The 2-ulp
    outward nudge makes the prefilter a strict superset of exact
    membership — the authoritative accept/reject is always
    :meth:`ImmutableRegion.contains` on the parent's stored region.
    """

    __slots__ = ("postings", "_lows", "_high_maxes", "_order", "_dirty")

    def __init__(self) -> None:
        self.postings: List[_Posting] = []
        self._lows: Optional[np.ndarray] = None
        self._high_maxes: Optional[np.ndarray] = None
        self._order: List[_Posting] = []
        self._dirty = True

    def add(self, posting: _Posting) -> None:
        self.postings.append(posting)
        self._dirty = True

    def discard_key(self, key: CacheKey) -> int:
        before = len(self.postings)
        self.postings = [p for p in self.postings if p.key != key]
        dropped = before - len(self.postings)
        if dropped:
            self._dirty = True
        return dropped

    def _rebuild(self) -> None:
        self._order = sorted(self.postings, key=lambda p: p.low)
        self._lows = np.fromiter(
            (p.low for p in self._order), dtype=np.float64, count=len(self._order)
        )
        highs = np.fromiter(
            (p.high for p in self._order), dtype=np.float64, count=len(self._order)
        )
        self._high_maxes = np.maximum.accumulate(highs) if highs.size else highs
        self._dirty = False

    def candidates(self, weight: float) -> List[_Posting]:
        """Postings whose nudged interval may contain *weight*, best-last-first."""
        if self._dirty:
            self._rebuild()
        lows, high_maxes = self._lows, self._high_maxes
        assert lows is not None and high_maxes is not None
        pos = int(np.searchsorted(lows, weight, side="right"))
        found: List[_Posting] = []
        i = pos - 1
        while i >= 0 and high_maxes[i] >= weight:
            posting = self._order[i]
            if posting.high >= weight:
                found.append(posting)
            i -= 1
        return found


def _nudge_out(values: np.ndarray, direction: float) -> np.ndarray:
    """*values* moved two ulp toward *direction* (prefilter slack)."""
    return np.nextafter(np.nextafter(values, direction), direction)


class RegionIndex:
    """Absolute-weight-interval index over a cache's region computations.

    For every indexed entry and every query dimension ``p``, each region
    of that dimension's sequence becomes one :class:`_Posting` under the
    group key ``(dims, k, phi, method, count_reorderings, p,
    other-weights-bytes)``: an incoming query matching the group exactly
    deviates from the entry in dimension ``p`` alone, so a sorted-array
    membership probe on the deviating weight decides reuse in
    O(log m).  Postings carry their parent's epoch; readers re-validate
    both the parent's presence and its epoch before serving, so a
    posting can never outlive (or outdate) its entry unnoticed.

    Not thread-safe on its own — :class:`RegionCache` owns one and
    serialises every call under its lock, which is what makes sweeps
    atomic: an entry and its postings drop in the same critical section.
    """

    def __init__(self) -> None:
        self._groups: Dict[GroupKey, _PostingList] = {}
        self._groups_of: Dict[CacheKey, List[GroupKey]] = {}
        self._gathers: Dict[CacheKey, Dict[int, SequenceGather]] = {}
        self._n_postings = 0

    def __len__(self) -> int:
        return self._n_postings

    @property
    def n_groups(self) -> int:
        return len(self._groups)

    def add(self, key: CacheKey, computation: RegionComputation) -> int:
        """Index every region of *computation* under *key*; returns postings added."""
        dims = computation.query.dims
        weights = computation.query.weights
        group_keys: List[GroupKey] = []
        added = 0
        for dim_pos in range(dims.size):
            sequence = computation.sequences.get(int(dims[dim_pos]))
            if sequence is None:
                continue
            group_key = _group_key(key, dim_pos)
            lowers, uppers, _, _ = sequence.interval_table()
            anchor = float(weights[dim_pos])
            lows = _nudge_out(anchor + lowers, -np.inf)
            highs = _nudge_out(anchor + uppers, np.inf)
            plist = self._groups.get(group_key)
            if plist is None:
                plist = self._groups[group_key] = _PostingList()
            for region_index in range(lowers.size):
                plist.add(
                    _Posting(
                        low=float(lows[region_index]),
                        high=float(highs[region_index]),
                        key=key,
                        dim_pos=dim_pos,
                        region_index=region_index,
                        epoch=computation.epoch,
                    )
                )
                added += 1
            group_keys.append(group_key)
        if group_keys:
            self._groups_of[key] = group_keys
        self._n_postings += added
        return added

    def peek_gather(self, key: CacheKey, dim: int) -> Optional[SequenceGather]:
        """The memoised re-base gather of one entry's dimension, if built."""
        per_dim = self._gathers.get(key)
        return None if per_dim is None else per_dim.get(dim)

    def store_gather(
        self, key: CacheKey, dim: int, gather: SequenceGather
    ) -> None:
        """Memoise a gather built by the caller (outside the cache lock).

        Reused across a whole drag burst; dropped with the entry's
        postings in :meth:`discard`, so it can never outlive — or outdate
        — its entry (see :func:`sequence_gather` for why a surviving
        entry's gather stays bit-exact across mutations).
        """
        self._gathers.setdefault(key, {})[dim] = gather

    def discard(self, key: CacheKey) -> int:
        """Drop every posting of *key* (and its gathers); returns postings dropped."""
        self._gathers.pop(key, None)
        group_keys = self._groups_of.pop(key, None)
        if not group_keys:
            return 0
        dropped = 0
        for group_key in group_keys:
            plist = self._groups.get(group_key)
            if plist is None:
                continue
            dropped += plist.discard_key(key)
            if not plist.postings:
                del self._groups[group_key]
        self._n_postings -= dropped
        return dropped

    def candidates(self, group_key: GroupKey, weight: float) -> List[_Posting]:
        """Membership candidates for *weight* in *group_key* (may be stale)."""
        plist = self._groups.get(group_key)
        if plist is None:
            return []
        return plist.candidates(weight)

    def clear(self) -> None:
        self._groups.clear()
        self._groups_of.clear()
        self._gathers.clear()
        self._n_postings = 0


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of cache effectiveness."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    #: Entries dropped by mutation-driven sweeps (see
    #: :meth:`RegionCache.sweep_dims`), counted separately from capacity
    #: evictions.
    invalidations: int = 0
    #: Tier-2 hits: answers served by region membership instead of an
    #: exact key match (:attr:`hits` counts exact tier-1 hits only).
    region_hits: int = 0
    #: Live postings in the region index (one per indexed region).
    postings: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (exact gets plus two-tier lookups)."""
        return self.hits + self.region_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when idle)."""
        served = self.hits + self.region_hits
        return served / self.lookups if self.lookups else 0.0


class RegionCache:
    """A bounded, thread-safe, two-tier LRU cache of region computations.

    Parameters
    ----------
    capacity:
        Maximum number of cached computations; the least recently *used*
        entry is evicted when a put exceeds it.
    track_regions:
        Maintain the :class:`RegionIndex` over cached entries (default).
        Disabling skips posting maintenance for deployments that only
        ever use the exact tier.

    Every mutation of the entry map — put, refresh, capacity eviction,
    sweep, clear — updates the region index inside the same critical
    section, so a posting is never observable without its parent entry:
    a stale region hit would be a correctness bug, not a staleness bug.

    The cache also posts every computation under each dimension of its
    query subspace, so a mutation-driven :meth:`sweep_dims` tests only
    the entries a changed dimension can reach.
    """

    def __init__(self, capacity: int = 1024, track_regions: bool = True) -> None:
        require(capacity >= 1, "cache capacity must be >= 1")
        self.capacity = int(capacity)
        self.track_regions = bool(track_regions)
        self._entries: "OrderedDict[CacheKey, RegionComputation]" = OrderedDict()
        self._index = RegionIndex()
        #: dimension → keys of the entries whose query subspace holds it.
        self._by_dim: Dict[int, Dict[CacheKey, None]] = {}
        #: Per-entry scratch of :meth:`sweep_dims`' tests, dropped with
        #: the entry.
        self._sweep_memos: Dict[CacheKey, Dict] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._region_hits = 0

    def get(self, key: CacheKey) -> Optional[RegionComputation]:
        """The cached computation for *key*, or ``None`` (counts a miss).

        Exact tier only; :meth:`lookup` adds the region tier.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def _region_candidate(
        self, key: CacheKey, query: Query, skip: List[_Posting]
    ) -> Optional[Tuple[_Posting, RegionComputation, int, Optional[SequenceGather]]]:
        """First membership-passing posting (caller holds the lock).

        *skip* holds posting objects (identity-compared, and kept
        referenced so their identities stay unique) that already failed a
        re-base or re-validation this lookup.  Only the memoised gather is
        fetched here; building a missing one is the caller's job, outside
        the lock.
        """
        weights = query.weights
        for dim_pos in range(weights.size):
            group_key = _group_key(key, dim_pos)
            weight = float(weights[dim_pos])
            for posting in self._index.candidates(group_key, weight):
                if any(posting is skipped for skipped in skip):
                    continue
                anchor = self._entries.get(posting.key)
                if anchor is None or anchor.epoch != posting.epoch:
                    continue  # defensive: posting outlived its entry
                dim = int(query.dims[dim_pos])
                region = anchor.sequences[dim].regions[posting.region_index]
                if not region.contains_weight(weight):
                    continue  # prefilter slack or exactly on a crossing
                gather = self._index.peek_gather(posting.key, dim)
                return posting, anchor, dim_pos, gather
        return None

    def lookup(
        self,
        key: CacheKey,
        query: Query,
        dataset: Dataset,
    ) -> Tuple[Optional[RegionComputation], str]:
        """Two-tier lookup: exact hit → region hit → miss.

        Returns ``(computation, tier)`` with tier one of ``"exact"``,
        ``"region"``, ``"miss"``.  A region hit re-bases the anchor entry
        onto the query's weights via :func:`rebase_computation` (*dataset*
        supplies the provenance tuples' rows — which, for any entry that
        survived mutation sweeps, no mutation has touched) and counts
        toward :attr:`CacheStats.region_hits`; exactly one counter moves
        per call.

        The re-base — including a first hit's :func:`sequence_gather`
        build — runs *outside* the cache lock: anchors are immutable
        shared objects and the dataset is held steady by the service's
        mutation gate, so concurrent exact gets and puts are not
        serialised behind the view construction.  Before the view is
        served, the lock is retaken and the anchor re-validated (same
        object, same epoch): a sweep or refresh that raced the re-base
        discards the view, preserving the no-stale-serves guarantee
        without holding the lock through the rebuild.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._hits += 1
                return entry, "exact"
        skip: List[_Posting] = []
        while True:
            with self._lock:
                candidate = self._region_candidate(key, query, skip)
                if candidate is None:
                    self._misses += 1
                    return None, "miss"
            posting, anchor, dim_pos, gather = candidate
            dim = int(query.dims[dim_pos])
            fresh_gather = gather is None
            if fresh_gather:
                gather = sequence_gather(anchor, dim, dataset)
            view = rebase_computation(
                anchor,
                query,
                dim_pos,
                posting.region_index,
                dataset,
                source_key=posting.key,
                gather=gather,
            )
            with self._lock:
                if view is None or self._entries.get(posting.key) is not anchor:
                    skip.append(posting)
                    continue  # rounding edge, or the anchor was swept/refreshed
                if fresh_gather:
                    self._index.store_gather(posting.key, dim, gather)
                # The anchor did the serving work: keep it hot.
                self._entries.move_to_end(posting.key)
                self._region_hits += 1
            return view, "region"

    def peek(self, key: CacheKey) -> Optional[RegionComputation]:
        """Like :meth:`get` but without touching recency or hit counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: CacheKey, computation: RegionComputation) -> None:
        """Insert *key*, evicting the LRU entry if over capacity.

        Refreshing an existing key is an explicit drop-plus-reinsert: the
        old computation's region postings are purged before the new
        computation is indexed, so the region index can never hold
        postings for an overwritten entry.
        """
        with self._lock:
            if key in self._entries:
                self._drop(key)
            self._entries[key] = computation
            # The isinstance guard is load-bearing: unit tests (and any
            # caller using the cache as a generic store) may put sentinel
            # objects that carry no sequences to index.
            if isinstance(computation, RegionComputation):
                for dim in computation.query.dims.tolist():
                    self._by_dim.setdefault(dim, {})[key] = None
                if self.track_regions and computation.reuse is None:
                    self._index.add(key, computation)
            while len(self._entries) > self.capacity:
                self._drop(next(iter(self._entries)))
                self._evictions += 1

    def _drop(self, key: CacheKey) -> None:
        """Remove *key*'s entry, postings and sweep state (lock held)."""
        computation = self._entries.pop(key)
        self._index.discard(key)
        self._sweep_memos.pop(key, None)
        if isinstance(computation, RegionComputation):
            for dim in computation.query.dims.tolist():
                keys = self._by_dim[dim]
                del keys[key]
                if not keys:
                    del self._by_dim[dim]

    def sweep_dims(self, dims, keep) -> Tuple[int, int]:
        """Drop the entries on *dims* for which ``keep(computation, memo)``
        is falsy.

        Only computations whose query subspace holds a dimension of
        *dims* are tested — found through the dimension postings, in
        O(matching entries) — and every other entry is kept untested.
        *memo* is a dict the cache keeps while the entry lives and drops
        with it, for data the test derives once per entry.

        The sweep is atomic with respect to :meth:`get`/:meth:`lookup`/
        :meth:`put` (the lock is held throughout — mutation-driven
        invalidation must not interleave with lookups that could
        resurrect a stale entry), and each dropped entry's region
        postings are purged in the same critical section — a region
        lookup racing the sweep either sees the entry with its postings
        or neither.  Recency order of the kept entries is preserved.
        Returns ``(kept, dropped)`` counts; drops are tallied as
        invalidations, not capacity evictions.
        """
        with self._lock:
            candidates: Dict[CacheKey, None] = {}
            for dim in dims:
                candidates.update(self._by_dim.get(int(dim), {}))
            doomed = [
                key
                for key in candidates
                if not keep(
                    self._entries[key], self._sweep_memos.setdefault(key, {})
                )
            ]
            for key in doomed:
                self._drop(key)
            self._invalidations += len(doomed)
            return len(self._entries), len(doomed)

    def clear(self) -> None:
        """Drop every entry (counters are kept; they describe the lifetime)."""
        with self._lock:
            self._entries.clear()
            self._index.clear()
            self._by_dim.clear()
            self._sweep_memos.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: CacheKey) -> bool:
        with self._lock:
            return key in self._entries

    def stats(self) -> CacheStats:
        """Snapshot of per-tier hit/miss/eviction counts and occupancy."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self.capacity,
                invalidations=self._invalidations,
                region_hits=self._region_hits,
                postings=len(self._index),
            )

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"RegionCache(size={stats.size}/{stats.capacity}, "
            f"hits={stats.hits}, region_hits={stats.region_hits}, "
            f"misses={stats.misses})"
        )
