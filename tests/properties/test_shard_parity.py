"""Property-based tests: the sharded engine is bit-identical to the oracle.

:class:`~repro.core.distributed.DistributedEngine` promises the *exact*
output of the single-index engine — results, scores, region sequences,
bound kinds and provenance ids, domain bounds — for every shard count,
every method, both kernel backends, and across interleaved mutations.
The shard-skip certificates are exact IEEE-754 arguments, not
tolerances, so the comparison here is ``==`` on floats, never
``approx``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    BACKENDS,
    METHODS,
    Dataset,
    DistributedEngine,
    ImmutableRegionEngine,
    InvertedIndex,
    Mutation,
    MutationBatch,
    Query,
    ShardedIndex,
)
from repro.core.distributed import _InProcessTransport
from repro.core.supervision import SupervisedTransport

SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SHARD_COUNTS = (1, 2, 4, 7)


@st.composite
def dataset_and_workload(draw, max_n=70, max_m=6, max_k=6):
    """A random sparse dataset plus a workload mixing dims signatures."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(8, max_n))
    m = draw(st.integers(2, max_m))
    density = draw(st.floats(0.3, 1.0))
    rng = np.random.default_rng(seed)
    dense = rng.random((n, m)) * (rng.random((n, m)) < density)
    data = Dataset.from_dense(dense)
    eligible = [d for d in range(m) if data.column_nnz(d) > 0]
    if len(eligible) < 2:
        dense[:, :2] = rng.random((n, 2))
        data = Dataset.from_dense(dense)
        eligible = [d for d in range(m) if data.column_nnz(d) > 0]
    n_signatures = draw(st.integers(1, 3))
    queries_per_signature = draw(st.integers(1, 3))
    queries = []
    for _ in range(n_signatures):
        qlen = int(rng.integers(2, min(4, len(eligible)) + 1))
        dims = sorted(rng.choice(eligible, size=qlen, replace=False).tolist())
        for _ in range(queries_per_signature):
            queries.append(Query(dims, rng.uniform(0.2, 0.9, size=qlen)))
    rng.shuffle(queries)
    k = draw(st.integers(1, max_k))
    return dense, queries, k


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


def region_repr(computation):
    """Everything the sharded path promises bit-identical."""
    return {
        "result": computation.result.ids,
        "scores": [float(s) for s in computation.result.scores],
        "sequences": {
            dim: sequence_repr(seq) for dim, seq in computation.sequences.items()
        },
        "reorder_counts": computation.metrics.evals.result_comparisons,
        "epoch": computation.epoch,
    }


def assert_parity(dense, queries, k, phi, method, backend, supervised=False):
    oracle = ImmutableRegionEngine(
        InvertedIndex(Dataset.from_dense(dense)), method=method, backend=backend
    )
    reference = [
        region_repr(c)
        for c in oracle.compute_many(queries, k, phi=phi, topk_mode="matmul")
    ]
    for n_shards in SHARD_COUNTS:
        sharded = ShardedIndex(Dataset.from_dense(dense), n_shards)
        transport = None
        if supervised:
            transport = SupervisedTransport(_InProcessTransport(sharded), n_shards)
        engine = DistributedEngine(
            sharded, method=method, transport=transport, backend=backend
        )
        try:
            batch = engine.compute_many(queries, k, phi=phi, topk_mode="matmul")
            assert len(batch) == len(queries)
            for ref, got in zip(reference, batch):
                assert ref == region_repr(got), (n_shards, method, backend)
        finally:
            engine.close()
            if transport is not None:
                transport.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", METHODS)
@given(case=dataset_and_workload(), phi=st.sampled_from((0, 1)))
@settings(**SETTINGS)
def test_sharded_matches_oracle(case, phi, method, backend):
    """All shard counts × methods × backends × φ reproduce the oracle."""
    dense, queries, k = case
    assert_parity(dense, queries, k, phi, method, backend)


@given(case=dataset_and_workload(), supervised=st.booleans())
@settings(**SETTINGS)
def test_shard_executors_agree(case, supervised):
    """Direct and supervised shard calls both reproduce the oracle.

    The supervised transport runs every call on a dispatcher thread and
    fans the zone-stats and row-gather calls out concurrently.
    """
    dense, queries, k = case
    assert_parity(dense, queries, k, 0, "cpt", "vector", supervised=supervised)


@given(case=dataset_and_workload())
@settings(**SETTINGS)
def test_parity_under_interleaved_mutations(case):
    """Sharded and single-index stay in lockstep across mutation batches."""
    dense, queries, k = case
    rng = np.random.default_rng(int(np.asarray(dense).sum() * 1e6) % 2**32)
    sharded = ShardedIndex(Dataset.from_dense(dense), 4)
    engine = DistributedEngine(sharded, method="cpt")
    oracle = ImmutableRegionEngine(InvertedIndex(Dataset.from_dense(dense)))
    live = list(range(sharded.dataset.n_tuples))
    try:
        for _ in range(2):
            reference = oracle.compute_many(queries, k, topk_mode="matmul")
            batch = engine.compute_many(queries, k, topk_mode="matmul")
            for ref, got in zip(reference, batch):
                assert region_repr(ref) == region_repr(got)
            m = sharded.dataset.n_dims
            target = int(live[int(rng.integers(0, len(live)))])
            victim = int(live[int(rng.integers(0, len(live)))])
            live.remove(victim)
            live.append(sharded.dataset.n_tuples)  # the insert's new id
            mutations = MutationBatch(
                (
                    Mutation.update(
                        target, int(rng.integers(0, m)), float(rng.uniform(0.1, 1.0))
                    ),
                    Mutation.delete(victim),
                    Mutation.insert(
                        [0, m - 1], rng.uniform(0.1, 1.0, size=2).tolist()
                    ),
                )
            )
            sharded.apply(mutations)
            oracle.index.apply(mutations)
            assert sharded.epoch == oracle.index.epoch
    finally:
        engine.close()


@given(case=dataset_and_workload())
@settings(**SETTINGS)
def test_duplicate_queries_share_one_computation(case):
    """Duplicates within a batch map to the very same computation object."""
    dense, queries, k = case
    engine = DistributedEngine(ShardedIndex(Dataset.from_dense(dense), 3))
    try:
        doubled = list(queries) + list(queries)
        batch = engine.compute_many(doubled, k, topk_mode="matmul")
        for first, second in zip(batch[: len(queries)], batch[len(queries) :]):
            assert first is second
    finally:
        engine.close()


def test_ta_mode_delegates_to_oracle_with_counters():
    """topk_mode="ta" runs unsharded with fully simulated counters."""
    rng = np.random.default_rng(7)
    dense = rng.random((40, 5))
    engine = DistributedEngine(ShardedIndex(Dataset.from_dense(dense), 4))
    oracle = ImmutableRegionEngine(InvertedIndex(Dataset.from_dense(dense)))
    query = Query([0, 2], [0.6, 0.4])
    try:
        got = engine.compute_many([query], 5, topk_mode="ta")[0]
        ref = oracle.compute_many([query], 5, topk_mode="ta")[0]
        assert region_repr(ref) == region_repr(got)
        assert got.metrics.counters_simulated
        assert (
            got.metrics.ta_access.sorted_accesses
            == ref.metrics.ta_access.sorted_accesses
        )
    finally:
        engine.close()


def test_custom_boundaries_keep_parity():
    """Parity is layout-independent: a skewed fence answers like the oracle."""
    rng = np.random.default_rng(3)
    dense = rng.random((30, 4))
    queries = [Query([0, 2], [0.8, 0.3]), Query([1, 3], [0.5, 0.6])]
    oracle = ImmutableRegionEngine(InvertedIndex(Dataset.from_dense(dense)))
    reference = [
        region_repr(c) for c in oracle.compute_many(queries, 4, topk_mode="matmul")
    ]
    sharded = ShardedIndex(
        Dataset.from_dense(dense), 3, boundaries=[0, 4, 18, 30]
    )
    engine = DistributedEngine(sharded)
    try:
        batch = engine.compute_many(queries, 4, topk_mode="matmul")
        assert reference == [region_repr(c) for c in batch]
    finally:
        engine.close()


def test_more_shards_than_rows():
    """Zero-row shards are inert — parity holds even when S > n."""
    rng = np.random.default_rng(11)
    dense = rng.random((5, 3))
    queries = [Query([0, 2], [0.8, 0.3])]
    assert_parity(dense, queries, 3, 0, "cpt", "vector")
    engine = DistributedEngine(ShardedIndex(Dataset.from_dense(dense), 9))
    oracle = ImmutableRegionEngine(InvertedIndex(Dataset.from_dense(dense)))
    try:
        got = engine.compute_many(queries, 3, topk_mode="matmul")[0]
        ref = oracle.compute_many(queries, 3, topk_mode="matmul")[0]
        assert region_repr(ref) == region_repr(got)
    finally:
        engine.close()
