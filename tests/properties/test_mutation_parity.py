"""Property-based tests: incremental mutation maintenance ≡ fresh rebuild.

The dynamic-data subsystem promises that after *any* sequence of
mutation batches, the incrementally maintained state — overlay rows,
patched columns, sorted-insert/tombstoned inverted lists, subspace
plans patched in place — is **bit-identical** to an index built from
scratch on :meth:`Dataset.compacted` (the same live rows re-packed into
fresh CSR).

These tests hold that promise at every level: raw storage arrays,
subspace plans patched in place (global and per shard), the single-query
engine on both backends and all four methods, the fused ``compute_many``
modes, the cached :class:`QueryService` route, and the
dimension-indexed region-cache sweep against its reference rule
:func:`~repro.service.invalidation.computation_survives`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import (
    METHODS,
    Dataset,
    ImmutableRegionEngine,
    InvertedIndex,
    Mutation,
    MutationBatch,
    Query,
    QueryService,
)
from repro.service.cache import region_cache_key
from repro.service.invalidation import computation_survives, invalidate_region_cache
from repro.storage.sharded import ShardedIndex

from ..conftest import assert_plan_matches_build

SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ----------------------------------------------------------------------
# Case generation: a dataset plus a deterministic mutation script.
# Opcode digits concretise against the evolving dataset state, so every
# generated batch is valid by construction while staying shrinkable.
# ----------------------------------------------------------------------


@st.composite
def mutation_case(draw, max_n=50, max_m=6, max_batch=5):
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(6, max_n))
    m = draw(st.integers(2, max_m))
    density = draw(st.floats(0.3, 1.0))
    batch_sizes = draw(
        st.lists(st.integers(1, max_batch), min_size=1, max_size=3)
    )
    op_codes = draw(
        st.lists(
            st.integers(0, 9),
            min_size=sum(batch_sizes),
            max_size=sum(batch_sizes),
        )
    )
    k = draw(st.integers(1, 6))
    return seed, n, m, density, batch_sizes, op_codes, k


def build_dataset(seed: int, n: int, m: int, density: float) -> Dataset:
    rng = np.random.default_rng(seed)
    dense = rng.random((n, m)) * (rng.random((n, m)) < density)
    return Dataset.from_dense(dense)


def make_batch(rng, dataset: Dataset, op_codes) -> MutationBatch:
    """Concretise one batch of opcodes against the dataset's live state."""
    mutations = []
    for code in op_codes:
        live = [
            t for t in range(dataset.n_tuples) if t not in dataset.deleted_ids
        ]
        # Mutations within the batch land sequentially, so exclude ids
        # this batch already deleted.
        for mutation in mutations:
            if mutation.kind == "delete":
                live = [t for t in live if t != mutation.tuple_id]
        if code >= 8 and live:  # delete
            mutations.append(Mutation.delete(int(rng.choice(live))))
        elif code >= 6 or not live:  # insert
            qlen = int(rng.integers(1, dataset.n_dims + 1))
            dims = rng.choice(dataset.n_dims, size=qlen, replace=False)
            mutations.append(
                Mutation.insert(dims.tolist(), rng.uniform(0.05, 1.0, qlen))
            )
        else:  # update (value 0.0 one time in five: drop the coordinate)
            tid = int(rng.choice(live))
            dim = int(rng.integers(dataset.n_dims))
            value = 0.0 if rng.random() < 0.2 else float(rng.uniform(0.0, 1.0))
            mutations.append(Mutation.update(tid, dim, value))
    return MutationBatch(tuple(mutations))


def mutate(case):
    """Build the dataset, warm an index over it, apply every batch.

    Returns ``(index, rebuilt_index, rng)`` where the rebuilt index is a
    fresh build over the compacted (live-state) dataset.
    """
    seed, n, m, density, batch_sizes, op_codes, _ = case
    dataset = build_dataset(seed, n, m, density)
    index = InvertedIndex(dataset)
    index.warm(range(m))  # every list exists, so every list gets patched
    rng = np.random.default_rng(seed + 1)
    consumed = 0
    for size in batch_sizes:
        batch = make_batch(rng, dataset, op_codes[consumed : consumed + size])
        consumed += size
        index.apply(batch)
    return index, InvertedIndex(dataset.compacted()), rng


def draw_query(rng, dataset: Dataset, max_qlen=4):
    eligible = [
        d for d in range(dataset.n_dims) if dataset.column_nnz(d) > 0
    ]
    assume(len(eligible) >= 2)
    qlen = min(max_qlen, len(eligible))
    dims = sorted(rng.choice(eligible, size=qlen, replace=False).tolist())
    return Query(dims, rng.uniform(0.2, 0.9, size=qlen))


# ----------------------------------------------------------------------
# Comparison helpers (answer + counters; see test_backend_parity for the
# same shape over backends)
# ----------------------------------------------------------------------


def bound_repr(bound):
    return (bound.delta, bound.kind, bound.rising_id, bound.falling_id)


def sequence_repr(sequence):
    return (
        tuple(
            (bound_repr(r.lower), bound_repr(r.upper), r.result_ids)
            for r in sequence.regions
        ),
        sequence.current_index,
    )


def answer_repr(computation):
    """The query's *answer*: result and full region sequences."""
    return {
        "result": computation.result.ids,
        "sequences": {
            dim: sequence_repr(seq) for dim, seq in computation.sequences.items()
        },
    }


def computation_repr(computation):
    """Answer plus every simulated counter — the full bit-parity check."""
    metrics = computation.metrics
    evals = metrics.evals
    return {
        **answer_repr(computation),
        "ta_access": (
            metrics.ta_access.sorted_accesses,
            metrics.ta_access.random_accesses,
        ),
        "region_access": (
            metrics.region_access.sorted_accesses,
            metrics.region_access.random_accesses,
        ),
        "evals": (
            evals.evaluated_candidates,
            evals.result_comparisons,
            evals.termination_checks,
            evals.pruned_candidates,
            evals.phase3_tuples,
        ),
        "evaluated_per_dim": metrics.evaluated_per_dim,
        "candidates_total": metrics.candidates_total,
        "cl_union_size": metrics.cl_union_size,
    }


# ----------------------------------------------------------------------
# Storage-level parity
# ----------------------------------------------------------------------


@given(case=mutation_case())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_storage_state_matches_rebuild(case):
    """Lists, columns, and CSR arrays are bit-identical to a fresh build."""
    index, rebuilt, _ = mutate(case)
    dataset, fresh_data = index.dataset, rebuilt.dataset
    assert dataset.n_tuples == fresh_data.n_tuples
    assert dataset.nnz == fresh_data.nnz
    for dim in range(dataset.n_dims):
        patched = index.list_for(dim)
        built = rebuilt.list_for(dim)
        assert np.array_equal(patched.ids, built.ids)
        assert np.array_equal(patched.values, built.values)
        assert patched.size == built.size
        col_ids, col_vals = dataset.column(dim)
        fresh_ids, fresh_vals = fresh_data.column(dim)
        assert np.array_equal(col_ids, fresh_ids)
        assert np.array_equal(col_vals, fresh_vals)
        # position_of agrees over every live id (the lookup tables are
        # rebuilt lazily after mutations).
        for tid in col_ids.tolist():
            assert patched.position_of(tid) == built.position_of(tid)
    for ours, theirs in zip(dataset.csr_arrays, fresh_data.csr_arrays):
        assert np.array_equal(ours, theirs)


def plan_signatures(m: int):
    """One signature the changes often miss, one they often hit, one they
    always hit (every update lands on it)."""
    return [(0, 1), (m - 1,), tuple(range(m))]


def plan_indexes(target):
    """Every index whose plans *target* keeps: itself, or global + shards."""
    if isinstance(target, ShardedIndex):
        return [target.index] + [s.index for s in target.shards if s.n_rows]
    return [target]


@pytest.mark.parametrize("n_shards", [None, 3])
@given(case=mutation_case())
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_resident_plans_match_fresh_builds(case, n_shards):
    """After every batch, each resident plan equals a fresh build bit for
    bit, and every batch keeps every plan object and builds nothing:
    plans are grown, patched or re-stamped, never rebuilt."""
    seed, n, m, density, batch_sizes, op_codes, _ = case
    dataset = build_dataset(seed, n, m, density)
    target = (
        InvertedIndex(dataset) if n_shards is None else ShardedIndex(dataset, n_shards)
    )
    signatures = plan_signatures(m)
    rng = np.random.default_rng(seed + 1)
    consumed = 0
    for size in batch_sizes:
        resident = {}
        for index in plan_indexes(target):
            for signature in signatures:
                plan = index.plans.plan_for(signature)
                plan.asc_rank(0)
                plan.desc_rank(plan.qlen - 1)
                resident[id(index), signature] = plan
        builds = [index.plans.stats().builds for index in plan_indexes(target)]
        batch = make_batch(rng, dataset, op_codes[consumed : consumed + size])
        consumed += size
        target.apply(batch)
        for index in plan_indexes(target):
            for signature in signatures:
                plan = index.plans.peek(signature)
                assert plan is resident[id(index), signature]
                assert_plan_matches_build(plan, index)
        assert [index.plans.stats().builds for index in plan_indexes(target)] == builds


@given(case=mutation_case(max_n=40), phi=st.integers(0, 1))
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_indexed_sweep_keeps_what_computation_survives_keeps(case, phi):
    """The dimension-indexed sweep's keep/evict decisions equal the
    reference rule's, batch after batch (so its per-entry data, derived
    on an entry's first test, stays valid while the entry lives)."""
    seed, n, m, density, batch_sizes, op_codes, k = case
    dataset = build_dataset(seed, n, m, density)
    index = InvertedIndex(dataset)
    rng = np.random.default_rng(seed + 1)
    with QueryService(index, executor="sequential", reuse="region") as service:
        cache = service.cache
        keys = {}
        consumed = 0
        for size in batch_sizes:
            # Fresh entries at every epoch; the second k gives a short
            # result (fewer positive tuples than k).
            for kk in (k, k, dataset.n_tuples + 1):
                query = draw_query(rng, dataset, max_qlen=3)
                service.execute(query, kk, phi=phi)
                keys[region_cache_key(query, kk, phi, service.method)] = query
            before = {key: cache.peek(key) for key in keys}
            before = {key: comp for key, comp in before.items() if comp is not None}
            batch = make_batch(rng, dataset, op_codes[consumed : consumed + size])
            consumed += size
            applied = index.apply(batch)
            expected = {
                key
                for key, computation in before.items()
                if computation_survives(computation, applied, dataset)
            }
            kept, evicted = invalidate_region_cache(cache, applied, dataset)
            assert {key for key in before if key in cache} == expected
            assert (kept, evicted) == (len(expected), len(before) - len(expected))


@pytest.mark.parametrize("method", METHODS)
@given(case=mutation_case(), phi=st.integers(0, 1))
@settings(**SETTINGS)
def test_engine_parity_after_mutations(case, phi, method):
    """compute() on the patched index ≡ compute() on a fresh rebuild.

    Full bit-parity: regions, bounds, provenance, and every access and
    evaluation counter, on both backends.
    """
    index, rebuilt, rng = mutate(case)
    k = case[-1]
    query = draw_query(rng, index.dataset)
    for backend in ("scalar", "vector"):
        incremental = ImmutableRegionEngine(index, method=method, backend=backend)
        fresh = ImmutableRegionEngine(rebuilt, method=method, backend=backend)
        assert computation_repr(
            incremental.compute(query, k, phi=phi)
        ) == computation_repr(fresh.compute(query, k, phi=phi))


@pytest.mark.parametrize("topk_mode", ["ta", "matmul"])
@given(case=mutation_case(), phi=st.integers(0, 1))
@settings(**SETTINGS)
def test_compute_many_parity_after_mutations(case, phi, topk_mode):
    """Batched execution over the patched index ≡ over a fresh rebuild.

    The ta mode must match on counters too; matmul on the answer (its
    counters are not simulated by design).
    """
    index, rebuilt, rng = mutate(case)
    k = case[-1]
    queries = [draw_query(rng, index.dataset) for _ in range(3)]
    incremental = ImmutableRegionEngine(index, method="cpt")
    fresh = ImmutableRegionEngine(rebuilt, method="cpt")
    ours = incremental.compute_many(queries, k, phi=phi, topk_mode=topk_mode)
    theirs = fresh.compute_many(queries, k, phi=phi, topk_mode=topk_mode)
    compare = computation_repr if topk_mode == "ta" else answer_repr
    for mine, other in zip(ours, theirs):
        assert compare(mine) == compare(other)


@given(case=mutation_case(max_n=40))
@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_cached_service_route_matches_rebuild(case):
    """A warm service that lived through the mutations answers like a
    cold service on the rebuilt data.

    The cache is seeded *before* the mutations, so surviving entries are
    served straight from the delta test's verdict — their answers must
    still be the rebuild's answers.
    """
    seed, n, m, density, batch_sizes, op_codes, k = case
    dataset = build_dataset(seed, n, m, density)
    index = InvertedIndex(dataset)
    index.warm(range(m))
    rng = np.random.default_rng(seed + 1)
    with QueryService(index, executor="sequential") as service:
        base = draw_query(rng, dataset)
        queries = [base] + [
            Query(base.dims, rng.uniform(0.2, 0.9, size=base.qlen))
            for _ in range(3)
        ]
        service.run_batch(queries, k)  # seed the cache pre-mutation
        consumed = 0
        for size in batch_sizes:
            batch = make_batch(rng, dataset, op_codes[consumed : consumed + size])
            consumed += size
            service.apply_mutations(batch)
        live_queries = [
            q
            for q in queries
            if all(dataset.column_nnz(int(d)) > 0 for d in q.dims)
        ]
        assume(live_queries)
        with QueryService(dataset.compacted(), executor="sequential") as cold:
            for query in live_queries:
                assert answer_repr(service.execute(query, k)) == answer_repr(
                    cold.execute(query, k)
                )
