"""Unit tests for :mod:`repro.storage.sharded`."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Dataset, InvertedIndex, Mutation, MutationBatch
from repro.errors import ValidationError
from repro.storage.plan import ZoneStats
from repro.storage.sharded import ShardedIndex

from ..conftest import assert_plan_matches_build


def make_dataset(n=20, m=4, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset.from_dense(rng.random((n, m)) * (rng.random((n, m)) < 0.8))


class TestConstruction:
    def test_balanced_contiguous_split(self):
        sharded = ShardedIndex(make_dataset(n=10), 3)
        assert [s.start for s in sharded.shards] == [0, 3, 6]
        assert [s.n_rows for s in sharded.shards] == [3, 3, 4]
        assert sum(s.n_rows for s in sharded.shards) == 10

    def test_single_shard_covers_everything(self):
        sharded = ShardedIndex(make_dataset(n=7), 1)
        assert sharded.shards[0].n_rows == 7
        assert sharded.shards[0].start == 0

    def test_more_shards_than_rows_leaves_empty_shards(self):
        sharded = ShardedIndex(make_dataset(n=3), 5)
        assert sum(s.n_rows for s in sharded.shards) == 3
        assert any(s.n_rows == 0 for s in sharded.shards)
        # Empty shards still answer stats (all-zero markers).
        empty = next(s for s in sharded.shards if s.n_rows == 0)
        stats = empty.signature_stats((0, 2))
        assert stats.n_positive == 0 and stats.n_rows == 0
        assert stats.maxima.tolist() == [0.0, 0.0]

    def test_accepts_prebuilt_index(self):
        data = make_dataset()
        index = InvertedIndex(data)
        sharded = ShardedIndex(index, 2)
        assert sharded.index is index
        assert sharded.dataset is data

    def test_n_shards_validated(self):
        with pytest.raises(ValidationError):
            ShardedIndex(make_dataset(), 0)

    def test_custom_boundaries(self):
        sharded = ShardedIndex(make_dataset(n=10), 3, boundaries=[0, 2, 5, 10])
        assert [s.start for s in sharded.shards] == [0, 2, 5]
        assert [s.n_rows for s in sharded.shards] == [2, 3, 5]
        assert sharded.shard_of(1) == 0
        assert sharded.shard_of(2) == 1
        assert sharded.shard_of(9) == 2

    def test_boundaries_validated(self):
        data = make_dataset(n=10)
        with pytest.raises(ValidationError):  # wrong fence length
            ShardedIndex(data, 3, boundaries=[0, 5, 10])
        with pytest.raises(ValidationError):  # must start at 0
            ShardedIndex(data, 2, boundaries=[1, 5, 10])
        with pytest.raises(ValidationError):  # must end at n_tuples
            ShardedIndex(data, 2, boundaries=[0, 5, 9])
        with pytest.raises(ValidationError):  # must ascend
            ShardedIndex(data, 3, boundaries=[0, 7, 3, 10])

    def test_shard_rows_equal_global_rows(self):
        # Every shard row must equal the global row at start + local id.
        data = make_dataset(n=17)
        sharded = ShardedIndex(data, 4)
        indptr, indices, values = data.csr_arrays
        for shard in sharded.shards:
            s_indptr, s_indices, s_values = shard.dataset.csr_arrays
            for lid in range(shard.n_rows):
                gid = shard.to_global(lid)
                g = slice(indptr[gid], indptr[gid + 1])
                l = slice(s_indptr[lid], s_indptr[lid + 1])
                assert indices[g].tolist() == s_indices[l].tolist()
                assert values[g].tolist() == s_values[l].tolist()


class TestRouting:
    def test_shard_of_matches_ranges(self):
        sharded = ShardedIndex(make_dataset(n=10), 3)
        for shard in sharded.shards:
            for lid in range(shard.n_rows):
                assert sharded.shard_of(shard.to_global(lid)) == shard.shard_id

    def test_shard_of_is_open_ended_on_the_last_shard(self):
        sharded = ShardedIndex(make_dataset(n=10), 3)
        assert sharded.shard_of(999) == 2

    def test_shard_of_rejects_negative_ids(self):
        sharded = ShardedIndex(make_dataset(), 2)
        with pytest.raises(ValidationError):
            sharded.shard_of(-1)

    def test_local_global_round_trip(self):
        sharded = ShardedIndex(make_dataset(n=10), 3)
        shard = sharded.shards[1]
        assert shard.to_local(shard.to_global(2)) == 2


class TestMutationRouting:
    def test_update_touches_only_owning_shard(self):
        sharded = ShardedIndex(make_dataset(n=12), 3)
        before = sharded.shard_epochs
        sharded.apply(Mutation.update(5, 0, 0.77))  # row 5 lives in shard 1
        after = sharded.shard_epochs
        assert after[1] == before[1] + 1
        assert after[0] == before[0] and after[2] == before[2]
        assert sharded.epoch == 1

    def test_insert_appends_to_last_shard(self):
        sharded = ShardedIndex(make_dataset(n=12, m=4), 3)
        last = sharded.shards[-1]
        rows_before = last.n_rows
        applied = sharded.apply(Mutation.insert([0, 3], [0.5, 0.2]))
        assert applied[0].tuple_id == 12
        assert last.n_rows == rows_before + 1
        assert sharded.shard_of(12) == 2

    def test_delete_and_insert_in_one_batch(self):
        # A delete routed to the last shard must not disturb the insert
        # id accounting (regression: the drift guard once counted every
        # routed mutation, not just prior inserts).
        sharded = ShardedIndex(make_dataset(n=9, m=3), 2)
        batch = MutationBatch(
            (Mutation.delete(8), Mutation.insert([0, 1], [0.4, 0.6]))
        )
        applied = sharded.apply(batch)
        assert applied[1].tuple_id == 9
        assert sharded.shard_of(9) == 1

    def test_mutated_shard_rows_match_global(self):
        data = make_dataset(n=12, m=4)
        sharded = ShardedIndex(data, 3)
        sharded.apply(
            [
                Mutation.update(2, 1, 0.99),
                Mutation.delete(7),
                Mutation.insert([0, 2], [0.3, 0.8]),
            ]
        )
        indptr, indices, values = data.csr_arrays
        for shard in sharded.shards:
            s_indptr, s_indices, s_values = shard.dataset.csr_arrays
            for lid in range(shard.n_rows):
                gid = shard.to_global(lid)
                g = slice(indptr[gid], indptr[gid + 1])
                l = slice(s_indptr[lid], s_indptr[lid + 1])
                assert indices[g].tolist() == s_indices[l].tolist()
                assert values[g].tolist() == s_values[l].tolist()

    def test_apply_patches_global_and_shard_plans_in_place(self):
        sharded = ShardedIndex(make_dataset(n=12), 3)
        global_plan = sharded.index.plans.plan_for((0, 1))
        touched = sharded.shards[1].index.plans.plan_for((0, 1))
        other = sharded.shards[0].index.plans.plan_for((0, 1))
        sharded.apply(Mutation.update(5, 0, 0.5))  # row 5 lives in shard 1
        assert sharded.index.plans.plan_for((0, 1)) is global_plan
        assert sharded.shards[1].index.plans.plan_for((0, 1)) is touched
        assert sharded.shards[0].index.plans.plan_for((0, 1)) is other
        assert_plan_matches_build(global_plan, sharded.index)
        assert_plan_matches_build(touched, sharded.shards[1].index)
        assert other.epoch == sharded.shards[0].epoch == 0
        assert sharded.plan_patches == 2


class TestSignatureStats:
    def test_stats_bound_the_plan_block(self):
        sharded = ShardedIndex(make_dataset(n=20), 2)
        shard = sharded.shards[0]
        stats = shard.signature_stats((0, 2))
        plan = shard.index.plans.plan_for((0, 2))
        assert stats.maxima.tolist() == plan.block.max(axis=0).tolist()
        assert stats.minima.tolist() == plan.block.min(axis=0).tolist()
        assert stats.n_rows == shard.n_rows

    def test_stats_are_the_plan_zone_and_follow_writes(self):
        sharded = ShardedIndex(make_dataset(n=20), 2)
        shard = sharded.shards[0]
        first = shard.signature_stats((0, 1))
        assert shard.signature_stats((0, 1)) is first
        assert isinstance(first, ZoneStats)
        sharded.apply(Mutation.update(0, 3, 0.123))  # off the signature
        assert shard.signature_stats((0, 1)) is first
        sharded.apply(Mutation.update(0, 0, 0.999))  # new maximum of dim 0
        refreshed = shard.signature_stats((0, 1))
        plan = shard.index.plans.plan_for((0, 1))
        assert refreshed is not first and refreshed is plan.zone
        assert refreshed.maxima[0] == 0.999
        assert_plan_matches_build(plan, shard.index)

    def test_untouched_shard_keeps_cached_stats(self):
        sharded = ShardedIndex(make_dataset(n=20), 2)
        other = sharded.shards[1].signature_stats((0, 1))
        sharded.apply(Mutation.update(0, 0, 0.5))  # shard 0 only
        assert sharded.shards[1].signature_stats((0, 1)) is other
