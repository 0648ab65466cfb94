"""Unit tests for the mutation subsystem's storage layer.

Covers the mutation types, versioned :class:`Dataset` behaviour (epoch,
overlay rows, incremental column patching, compaction), incremental
:class:`InvertedList` maintenance (sorted insert, lazy tombstones,
compaction threshold), :meth:`InvertedIndex.apply`, in-place plan
patching, and the pickle round-trip regression (plan-cache bounds and the
epoch field must survive).
"""

from __future__ import annotations

import pickle
import threading

import numpy as np
import pytest

from repro import (
    Dataset,
    ImmutableRegionEngine,
    InvertedIndex,
    Mutation,
    MutationBatch,
    Query,
)
from repro.errors import DatasetError, StorageError
from repro.metrics.counters import AccessCounters
from repro.storage import inverted_list as inverted_list_module
from repro.storage.tuple_store import TupleStore

from ..conftest import assert_plan_matches_build

ROWS = [
    [0.8, 0.32, 0.0],
    [0.7, 0.5, 0.2],
    [0.1, 0.8, 0.0],
    [0.1, 0.6, 0.9],
]


@pytest.fixture()
def dataset() -> Dataset:
    return Dataset.from_dense(ROWS)


class TestMutationTypes:
    def test_insert_sorts_dims(self):
        mutation = Mutation.insert([2, 0], [0.3, 0.9])
        assert mutation.dims == (0, 2)
        assert mutation.values == (0.9, 0.3)

    def test_insert_rejects_duplicate_dims(self):
        with pytest.raises(DatasetError):
            Mutation.insert([1, 1], [0.2, 0.3])

    def test_batch_rejects_empty_and_non_mutations(self):
        with pytest.raises(Exception):
            MutationBatch(())
        with pytest.raises(DatasetError):
            MutationBatch(("not a mutation",))

    def test_unknown_kind_rejected(self):
        with pytest.raises(DatasetError):
            Mutation(kind="upsert")

    def test_applied_mutation_coordinate_changes(self, dataset):
        (delta,) = dataset.apply(MutationBatch((Mutation.update(1, 1, 0.55),)))
        assert list(delta.coordinate_changes()) == [(1, 0.5, 0.55)]
        assert delta.coords_at(np.array([0, 1]), new=False).tolist() == [0.7, 0.5]
        assert delta.coords_at(np.array([0, 1]), new=True).tolist() == [0.7, 0.55]


class TestVersionedDataset:
    def test_epoch_bumps_once_per_batch(self, dataset):
        assert dataset.epoch == 0 and not dataset.is_mutated
        dataset.apply(
            MutationBatch((Mutation.update(0, 0, 0.81), Mutation.delete(2)))
        )
        assert dataset.epoch == 1 and dataset.is_mutated

    def test_update_and_zero_removal(self, dataset):
        assert dataset.nnz == 10
        dataset.apply(MutationBatch((Mutation.update(1, 2, 0.0),)))
        assert dataset.value(1, 2) == 0.0
        assert dataset.nnz == 9
        dataset.apply(MutationBatch((Mutation.update(0, 2, 0.25),)))
        assert dataset.value(0, 2) == 0.25
        assert dataset.nnz == 10

    def test_delete_empties_row_and_keeps_ids(self, dataset):
        dataset.apply(MutationBatch((Mutation.delete(2),)))
        dims, values = dataset.row(2)
        assert dims.size == 0 and values.size == 0
        assert dataset.n_tuples == 4
        assert dataset.deleted_ids == frozenset({2})
        with pytest.raises(DatasetError):
            dataset.apply(MutationBatch((Mutation.delete(2),)))
        with pytest.raises(DatasetError):
            dataset.apply(MutationBatch((Mutation.update(2, 0, 0.5),)))

    def test_insert_assigns_next_id(self, dataset):
        (delta,) = dataset.apply(
            MutationBatch((Mutation.insert([0, 2], [0.4, 0.0]),))
        )
        assert delta.tuple_id == 4
        assert dataset.n_tuples == 5
        # The zero value is dropped (sparse model).
        assert dataset.row(4)[0].tolist() == [0]

    def test_batches_are_atomic(self, dataset):
        """A rejected batch leaves rows, columns, lists, and epoch untouched."""
        index = InvertedIndex(dataset)
        index.warm(range(3))
        dataset.column(0)  # cache a column so patching would be observable
        bad_batches = [
            MutationBatch((Mutation.update(0, 0, 0.05), Mutation.delete(99))),
            MutationBatch((Mutation.update(0, 0, 0.05), Mutation.update(1, 0, 2.0))),
            MutationBatch((Mutation.delete(2), Mutation.update(2, 1, 0.5))),
            MutationBatch((Mutation.update(0, 0, 0.05), Mutation(kind="update", tuple_id=1))),
        ]
        for batch in bad_batches:
            with pytest.raises(DatasetError):
                index.apply(batch)
        assert dataset.epoch == 0 and index.epoch == 0
        assert dataset.value(0, 0) == 0.8  # first mutation was NOT applied
        assert dataset.column(0)[1].tolist() == [0.8, 0.7, 0.1, 0.1]
        assert index.list_for(0).entry(0) == (0, 0.8)
        assert not dataset.deleted_ids

    def test_out_of_range_rejected(self, dataset):
        for bad in (
            Mutation.delete(9),
            Mutation.update(0, 7, 0.5),
            Mutation.update(0, 0, 1.5),
            Mutation.insert([9], [0.5]),
        ):
            with pytest.raises(DatasetError):
                dataset.apply(MutationBatch((bad,)))

    def test_cached_columns_are_patched(self, dataset):
        before_ids, _ = dataset.column(1)  # cache it
        assert before_ids.tolist() == [0, 1, 2, 3]
        dataset.apply(
            MutationBatch(
                (
                    Mutation.update(0, 1, 0.0),
                    Mutation.insert([1], [0.77]),
                    Mutation.update(3, 1, 0.61),
                )
            )
        )
        ids, values = dataset.column(1)
        assert ids.tolist() == [1, 2, 3, 4]
        assert values.tolist() == [0.5, 0.8, 0.61, 0.77]
        # A cold column computed through the overlay agrees.
        fresh_ids, fresh_values = dataset.compacted().column(1)
        assert np.array_equal(ids, fresh_ids)
        assert np.array_equal(values, fresh_values)

    def test_compacted_preserves_live_state(self, dataset):
        dataset.apply(
            MutationBatch(
                (Mutation.delete(0), Mutation.insert([0, 1], [0.2, 0.9]))
            )
        )
        compacted = dataset.compacted()
        assert compacted.n_tuples == dataset.n_tuples
        assert compacted.epoch == 0
        assert np.array_equal(compacted.to_dense(), dataset.to_dense())

    def test_csr_arrays_reflect_mutations(self, dataset):
        dataset.apply(MutationBatch((Mutation.update(0, 0, 0.44),)))
        indptr, indices, values = dataset.csr_arrays
        assert indptr[-1] == dataset.nnz
        rebuilt = Dataset(indptr.copy(), indices.copy(), values.copy(), 3)
        assert np.array_equal(rebuilt.to_dense(), dataset.to_dense())


class TestIncrementalInvertedList:
    def test_sorted_insert_and_tombstone_match_fresh_build(self, dataset):
        index = InvertedIndex(dataset)
        index.warm(range(3))
        index.apply(
            MutationBatch(
                (
                    Mutation.update(2, 0, 0.75),
                    Mutation.delete(1),
                    Mutation.insert([0, 1], [0.1, 0.45]),
                )
            )
        )
        fresh = InvertedIndex(dataset.compacted())
        for dim in range(3):
            patched, built = index.list_for(dim), fresh.list_for(dim)
            assert np.array_equal(patched.ids, built.ids)
            assert np.array_equal(patched.values, built.values)

    def test_tombstones_are_lazy_until_threshold(self, dataset, monkeypatch):
        monkeypatch.setattr(inverted_list_module, "_COMPACT_MIN", 3)
        index = InvertedIndex(dataset)
        inverted = index.list_for(1)
        index.apply(MutationBatch((Mutation.update(0, 1, 0.0),)))
        assert inverted.n_tombstones == 1  # lazy: slot still allocated
        assert inverted.size == 3
        assert inverted.ids.tolist() == [2, 3, 1]  # live view skips the dead slot
        index.apply(MutationBatch((Mutation.update(2, 1, 0.0),)))
        assert inverted.n_tombstones == 2
        index.apply(MutationBatch((Mutation.update(3, 1, 0.0),)))
        # Third tombstone crosses the threshold: physical compaction.
        assert inverted.n_tombstones == 0
        assert inverted.ids.tolist() == [1]

    def test_value_ties_break_by_id(self):
        data = Dataset.from_dense([[0.5], [0.3], [0.5]])
        index = InvertedIndex(data)
        index.apply(MutationBatch((Mutation.update(1, 0, 0.5),)))
        assert index.list_for(0).ids.tolist() == [0, 1, 2]

    def test_remove_missing_entry_raises(self, dataset):
        inverted = InvertedIndex(dataset).list_for(0)
        with pytest.raises(StorageError):
            inverted.remove_entry(0, 0.123)


class TestInvertedIndexApply:
    def test_epoch_tracks_dataset(self, dataset):
        index = InvertedIndex(dataset)
        assert index.epoch == 0
        index.apply(MutationBatch((Mutation.update(0, 0, 0.5),)))
        assert index.epoch == dataset.epoch == 1

    def test_direct_dataset_mutation_is_detected(self, dataset):
        index = InvertedIndex(dataset)
        index.warm([0])
        dataset.apply(MutationBatch((Mutation.update(0, 0, 0.5),)))
        with pytest.raises(StorageError):
            index.apply(MutationBatch((Mutation.update(0, 0, 0.6),)))
        index.refresh()
        assert index.epoch == dataset.epoch
        assert index.built_dimensions() == []
        index.apply(MutationBatch((Mutation.update(0, 0, 0.6),)))

    def test_unbuilt_lists_build_from_mutated_state(self, dataset):
        index = InvertedIndex(dataset)  # nothing warmed
        index.apply(MutationBatch((Mutation.update(2, 1, 0.95),)))
        assert index.list_for(1).entry(0) == (2, 0.95)

    def test_plan_for_and_peek_never_serve_an_older_epoch(self, dataset):
        index = InvertedIndex(dataset)
        plan = index.plans.plan_for([0, 1])
        for epoch, value in enumerate((0.5, 0.25, 0.0), start=1):
            index.apply(MutationBatch((Mutation.update(0, epoch % 3, value),)))
            assert index.plans.peek([0, 1]).epoch == index.epoch == epoch
            assert index.plans.plan_for([0, 1]).epoch == epoch
        # A plan left behind by a write that bypassed apply is refused.
        plan.epoch -= 1
        with pytest.raises(AssertionError):
            index.plans.plan_for([0, 1])
        with pytest.raises(AssertionError):
            index.plans.peek([0, 1])
        # The next write drops it rather than re-stamping it.
        index.apply(MutationBatch((Mutation.update(1, 2, 0.9),)))
        assert index.plans.peek([0, 1]) is None

    def test_off_signature_update_keeps_the_plan(self, dataset):
        index = InvertedIndex(dataset)
        plan = index.plans.plan_for([0, 1])
        block = plan.block.copy()
        zone = plan.zone
        index.apply(MutationBatch((Mutation.update(1, 2, 0.9),)))
        assert index.plans.plan_for([0, 1]) is plan
        assert plan.epoch == 1
        assert plan.zone is zone
        assert np.array_equal(plan.block, block)
        stats = index.plans.stats()
        assert (stats.builds, stats.patches) == (1, 0)

    def test_on_signature_update_patches_to_a_fresh_build(self, dataset):
        index = InvertedIndex(dataset)
        plan = index.plans.plan_for([0, 1])
        plan.asc_rank(0)
        plan.desc_rank(1)  # off the changed column: must stay exact
        index.apply(
            MutationBatch(
                (
                    Mutation.update(0, 0, 0.95),  # new maximum of dim 0
                    Mutation.update(2, 1, 0.0),  # old maximum of dim 1 leaves
                    Mutation.delete(3),
                )
            )
        )
        assert index.plans.plan_for([0, 1]) is plan
        assert plan.block[0, 0] == 0.95
        assert_plan_matches_build(plan, index)
        stats = index.plans.stats()
        assert (stats.builds, stats.patches) == (1, 1)

    def test_insert_appends_to_the_plans(self, dataset):
        index = InvertedIndex(dataset)
        plan = index.plans.plan_for([0, 1])
        plan.asc_rank(0)  # new rows shift every rank: must not go stale
        # Seven batches grow the plan past its exact-size allocation and
        # then into (and past) the spare capacity of later ones.
        for step in range(7):
            rows = [Mutation.insert([1], [0.05 * (step + 1)])]
            if step == 1:
                rows.append(Mutation.insert([0, 2], [0.4, 0.6]))
            if step == 3:
                rows.append(Mutation.insert([], []))
            index.apply(MutationBatch(tuple(rows)))
            assert index.plans.peek([0, 1]) is plan
            assert_plan_matches_build(plan, index)
        assert plan.n_tuples == index.dataset.n_tuples == 13
        assert index.plans.stats().builds == 1

    def test_build_overlapping_a_write_is_served_uncached(
        self, dataset, monkeypatch
    ):
        # A reader outside the writer gate (a timed-out shard call still
        # running) builds a plan while a write lands between its column
        # reads: the torn plan must not outlive the call.
        index = InvertedIndex(dataset)
        index.warm([0, 1])
        read_column = dataset.column
        writes = []

        def column_racing_a_write(dim):
            if dim == 1 and not writes:
                writes.append(
                    index.apply(MutationBatch((Mutation.update(0, 0, 0.95),)))
                )
            return read_column(dim)

        monkeypatch.setattr(dataset, "column", column_racing_a_write)
        torn = index.plans.plan_for([0, 1])
        assert writes and torn.epoch == 0 and index.epoch == 1
        assert index.plans.peek([0, 1]) is None
        plan = index.plans.plan_for([0, 1])
        assert plan is not torn and plan.epoch == 1
        assert_plan_matches_build(plan, index)

    def test_build_inside_a_write_is_served_uncached(self, dataset, monkeypatch):
        index = InvertedIndex(dataset)
        index.warm([0, 1])
        apply_to_dataset = dataset.apply
        inside = []

        def apply_with_a_concurrent_build(batch):
            applied = apply_to_dataset(batch)
            inside.append(index.plans.plan_for([0, 1]))
            return applied

        monkeypatch.setattr(dataset, "apply", apply_with_a_concurrent_build)
        index.apply(MutationBatch((Mutation.update(0, 0, 0.95),)))
        assert inside and index.plans.peek([0, 1]) is None
        assert index.write_seq == 2
        assert_plan_matches_build(index.plans.plan_for([0, 1]), index)

    def test_advance_waits_for_a_rank_build_in_flight(self, dataset):
        index = InvertedIndex(dataset)
        plan = index.plans.plan_for([0, 1])
        batch = MutationBatch((Mutation.update(0, 0, 0.95),))
        with plan._rank_lock:  # as held by a concurrent asc_rank build
            writer = threading.Thread(target=index.apply, args=(batch,))
            writer.start()
            writer.join(0.2)
            assert writer.is_alive() and plan.block[0, 0] == 0.8
        writer.join()
        assert_plan_matches_build(plan, index)

    def test_advance_reapplies_the_byte_bound(self, dataset):
        index = InvertedIndex(dataset)
        first = index.plans.plan_for([0, 1])
        second = index.plans.plan_for([1, 2])
        index.plans.max_bytes = first.nbytes + second.nbytes
        index.apply(MutationBatch((Mutation.insert([1], [0.3]),)))
        assert [0, 1] not in index.plans and index.plans.peek([1, 2]) is second
        assert index.plans.stats().evictions == 1


class TestTupleStoreVersioning:
    def test_epoch_and_row_cache_drop(self, dataset):
        counters = AccessCounters()
        store = TupleStore(dataset, counters, cache_rows=True)
        store.fetch(0, np.array([0, 1]))
        assert counters.random_accesses == 1
        store.fetch(0, np.array([0, 1]))
        assert counters.random_accesses == 1  # cached row is free
        store.apply(MutationBatch((Mutation.update(0, 0, 0.5),)))
        assert store.epoch == 1
        coords = store.fetch(0, np.array([0, 1]))
        assert counters.random_accesses == 2  # mutated row re-read
        assert coords.tolist() == [0.5, 0.32]


class TestPickleRoundTrip:
    """Regression: pickling must keep the plan-cache bounds and epoch."""

    def test_round_trip_preserves_epoch_lists_and_plan_bounds(self, dataset):
        index = InvertedIndex(dataset)
        # Customise the plan-cache bounds, then force the cache to exist.
        index._plans = None
        cache = index.plans
        cache.capacity = 7
        cache.max_bytes = 123456
        index.plans.plan_for([0, 1])
        index.warm(range(3))
        index.apply(
            MutationBatch(
                (Mutation.update(1, 0, 0.66), Mutation.delete(3))
            )
        )

        clone = pickle.loads(pickle.dumps(index))
        assert clone.epoch == index.epoch == 1
        # Plan-cache bounds survive; the heavyweight plans themselves
        # are rebuilt lazily by the worker.
        assert clone.plans.capacity == 7
        assert clone.plans.max_bytes == 123456
        assert len(clone.plans) == 0
        for dim in range(3):
            assert np.array_equal(
                clone.list_for(dim).ids, index.list_for(dim).ids
            )
            assert np.array_equal(
                clone.list_for(dim).values, index.list_for(dim).values
            )
        # The clone answers queries identically (including mutations).
        query = Query([0, 1], [0.8, 0.5])
        ours = ImmutableRegionEngine(index).compute(query, 2)
        theirs = ImmutableRegionEngine(clone).compute(query, 2)
        assert ours.result.ids == theirs.result.ids
        assert ours.region(0).weight_interval == theirs.region(0).weight_interval
        assert theirs.epoch == 1

    def test_default_plan_bounds_round_trip_when_cache_untouched(self, dataset):
        index = InvertedIndex(dataset)
        clone = pickle.loads(pickle.dumps(index))
        # No cache existed, so none is reconstructed until first use.
        assert clone.__dict__["_plans"] is None
        assert clone.plans is not None  # lazily created as before
