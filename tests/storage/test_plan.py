"""Tests for SubspacePlan and its per-index LRU cache."""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro import Dataset, InvertedIndex, Query
from repro.errors import StorageError
from repro.storage.plan import SubspacePlan, SubspacePlanCache, signature_of

from ..conftest import random_sparse_dataset


@pytest.fixture()
def dataset():
    rng = np.random.default_rng(77)
    return random_sparse_dataset(rng, n_tuples=50, n_dims=6, density=0.6)


@pytest.fixture()
def index(dataset):
    return InvertedIndex(dataset)


class TestSignature:
    def test_sorted_dims_accepted(self):
        assert signature_of([0, 3, 5]) == (0, 3, 5)
        assert signature_of(np.asarray([1, 2])) == (1, 2)

    def test_unsorted_or_duplicate_rejected(self):
        with pytest.raises(StorageError):
            signature_of([3, 0])
        with pytest.raises(StorageError):
            signature_of([1, 1])


class TestSubspacePlan:
    def test_block_rows_match_per_tuple_fetches(self, dataset, index):
        plan = SubspacePlan(index, [0, 2, 4])
        dims = np.asarray([0, 2, 4])
        for tid in range(dataset.n_tuples):
            expected = dataset.values_at(tid, dims)
            assert np.array_equal(plan.block[tid], expected)
        gathered = plan.rows(np.asarray([3, 1, 3]))
        assert np.array_equal(gathered[0], gathered[2])
        assert np.array_equal(gathered[1], dataset.values_at(1, dims))

    def test_columns_are_contiguous_and_exact(self, dataset, index):
        plan = SubspacePlan(index, [1, 3])
        for j_pos in (0, 1):
            column = plan.column(j_pos)
            assert column.flags["C_CONTIGUOUS"]
            assert np.array_equal(column, plan.block[:, j_pos])

    def test_rank_arrays_encode_lexsorted_probe_orders(self, dataset, index):
        plan = SubspacePlan(index, [0, 2])
        column = plan.column(1)
        ids = np.arange(plan.n_tuples)  # plan rows are tuple ids
        asc = np.lexsort((ids, column + 0.0))
        desc = np.lexsort((ids, -(column + 0.0)))
        assert np.array_equal(np.argsort(plan.asc_rank(1)), asc)
        assert np.array_equal(np.argsort(plan.desc_rank(1)), desc)

    def test_plan_build_warms_lists_and_lookups(self, dataset, index):
        assert index.built_dimensions() == []
        SubspacePlan(index, [1, 4])
        assert index.built_dimensions() == [1, 4]
        # The id lookup behind position_of is prebuilt too.
        assert index.list_for(1)._lookup is not None

    def test_j_pos_validates_membership(self, dataset, index):
        plan = SubspacePlan(index, [0, 2])
        assert plan.j_pos(2) == 1
        with pytest.raises(StorageError):
            plan.j_pos(1)

    def test_nnz_counts(self, index):
        data = Dataset.from_dense(
            [[0.5, 0.0, 0.2], [0.0, 0.0, 0.9], [0.1, 0.3, 0.4], [0.0, 0.0, 0.0]]
        )
        plan = SubspacePlan(InvertedIndex(data), [0, 2])
        assert plan.nnz_rows.tolist() == [2, 1, 2, 0]
        assert plan.nnz_ge2_total == 2


class TestSubspacePlanCache:
    def test_plan_built_once_per_signature(self, index):
        cache = SubspacePlanCache(index)
        first = cache.plan_for([0, 2])
        again = cache.plan_for(np.asarray([0, 2]))
        other = cache.plan_for([1, 2])
        assert again is first
        assert other is not first
        stats = cache.stats()
        assert stats.builds == 2
        assert stats.hits == 1
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_lru_eviction(self, index):
        cache = SubspacePlanCache(index, capacity=2)
        a = cache.plan_for([0])
        cache.plan_for([1])
        cache.plan_for([0])  # refresh a
        cache.plan_for([2])  # evicts [1]
        assert [0] in cache and [2] in cache and [1] not in cache
        assert cache.plan_for([0]) is a
        assert cache.stats().evictions == 1

    def test_engine_compute_many_reuses_one_plan(self, dataset, index):
        from repro import ImmutableRegionEngine

        engine = ImmutableRegionEngine(index, method="cpt")
        rng = np.random.default_rng(5)
        queries = [Query([0, 2], rng.uniform(0.2, 0.9, size=2)) for _ in range(6)]
        engine.compute_many(queries, 4, topk_mode="matmul")
        stats = index.plans.stats()
        assert stats.builds == 1
        engine.compute_many(queries, 4, topk_mode="ta")
        assert index.plans.stats().builds == 1  # same signature, same plan

    def test_ta_mode_skips_plan_build_for_lone_cold_query(self, dataset, index):
        from repro import ImmutableRegionEngine

        engine = ImmutableRegionEngine(index, method="cpt")
        engine.compute_many([Query([0, 3], [0.5, 0.6])], 4, topk_mode="ta")
        assert index.plans.stats().builds == 0  # nothing to amortise
        engine.compute_many(
            [Query([0, 3], [0.5, 0.6]), Query([0, 3], [0.4, 0.7])],
            4,
            topk_mode="ta",
        )
        assert index.plans.stats().builds == 1  # group amortises the build

    def test_byte_budget_evicts_lru_plans(self, index):
        cache = SubspacePlanCache(index, capacity=16, max_bytes=1)
        cache.plan_for([0, 1])
        cache.plan_for([2, 3])  # over budget: evicts [0, 1], keeps newest
        assert len(cache) == 1
        assert [2, 3] in cache and [0, 1] not in cache
        assert cache.stats().evictions == 1

    def test_cold_builds_are_single_flighted(self, index):
        import repro.storage.plan as plan_module

        cache = SubspacePlanCache(index)
        builds = []
        original = plan_module.SubspacePlan

        class CountingPlan(original):
            def __init__(self, idx, dims):
                builds.append(tuple(int(d) for d in signature_of(dims)))
                super().__init__(idx, dims)

        plan_module.SubspacePlan = CountingPlan
        try:
            barrier = threading.Barrier(4)
            plans = []

            def touch():
                barrier.wait()
                plans.append(cache.plan_for([0, 1, 2]))

            threads = [threading.Thread(target=touch) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            plan_module.SubspacePlan = original
        assert builds == [(0, 1, 2)]  # exactly one construction
        assert all(p is plans[0] for p in plans)

    def test_concurrent_lookups_share_one_plan(self, index):
        cache = SubspacePlanCache(index)
        plans = []
        barrier = threading.Barrier(4)

        def touch():
            barrier.wait()
            plans.append(cache.plan_for([0, 1, 2]))

        threads = [threading.Thread(target=touch) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(p is plans[0] for p in plans)
        assert len(cache) == 1

    def test_pickled_index_drops_plans(self, dataset, index):
        index.plans.plan_for([0, 1])
        clone = pickle.loads(pickle.dumps(index))
        assert len(clone.plans) == 0  # rebuilt lazily in workers
        assert clone.plans.plan_for([0, 1]).signature == (0, 1)

    def test_peek_and_clear(self, index):
        cache = SubspacePlanCache(index)
        assert cache.peek([0]) is None
        plan = cache.plan_for([0])
        assert cache.peek([0]) is plan
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().builds == 1  # lifetime counters survive
