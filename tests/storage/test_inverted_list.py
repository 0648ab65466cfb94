"""Unit tests for inverted lists and cursors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import StorageError
from repro.metrics import AccessCounters
from repro.storage import InvertedList, ListCursor


@pytest.fixture()
def posting_list() -> InvertedList:
    # Deliberately unsorted input; constructor must sort by value desc.
    return InvertedList(
        dim=3,
        ids=np.array([10, 11, 12, 13]),
        values=np.array([0.2, 0.9, 0.5, 0.9]),
    )


class TestInvertedList:
    def test_sorted_descending(self, posting_list):
        assert posting_list.values.tolist() == [0.9, 0.9, 0.5, 0.2]

    def test_ties_broken_by_ascending_id(self, posting_list):
        assert posting_list.ids.tolist() == [11, 13, 12, 10]

    def test_entry(self, posting_list):
        assert posting_list.entry(2) == (12, 0.5)

    def test_entry_out_of_range(self, posting_list):
        with pytest.raises(StorageError):
            posting_list.entry(4)

    def test_key_at_inside(self, posting_list):
        assert posting_list.key_at(0) == 0.9

    def test_key_at_past_end_is_zero(self, posting_list):
        assert posting_list.key_at(4) == 0.0
        assert posting_list.key_at(100) == 0.0

    def test_key_at_negative_rejected(self, posting_list):
        with pytest.raises(StorageError):
            posting_list.key_at(-1)

    def test_position_of(self, posting_list):
        assert posting_list.position_of(12) == 2
        assert posting_list.position_of(999) is None

    def test_size_and_len(self, posting_list):
        assert posting_list.size == 4
        assert len(posting_list) == 4

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(StorageError):
            InvertedList(0, np.array([1, 2]), np.array([0.5]))

    def test_empty_list(self):
        empty = InvertedList(0, np.array([], dtype=np.int64), np.array([]))
        assert empty.size == 0
        assert empty.key_at(0) == 0.0


class TestListCursor:
    def test_peek_does_not_consume(self, posting_list):
        cursor = ListCursor(posting_list)
        assert cursor.peek_key() == 0.9
        assert cursor.position == 0

    def test_pull_consumes_and_counts(self, posting_list):
        counters = AccessCounters()
        cursor = ListCursor(posting_list)
        assert cursor.pull(counters) == (11, 0.9)
        assert cursor.position == 1
        assert counters.sorted_accesses == 1

    def test_pull_order_matches_list(self, posting_list):
        counters = AccessCounters()
        cursor = ListCursor(posting_list)
        pulled = [cursor.pull(counters)[0] for _ in range(4)]
        assert pulled == [11, 13, 12, 10]

    def test_exhausted(self, posting_list):
        counters = AccessCounters()
        cursor = ListCursor(posting_list)
        for _ in range(4):
            cursor.pull(counters)
        assert cursor.exhausted
        assert cursor.peek_key() == 0.0
        with pytest.raises(StorageError):
            cursor.pull(counters)

    def test_has_passed(self, posting_list):
        counters = AccessCounters()
        cursor = ListCursor(posting_list)
        assert not cursor.has_passed(11)
        cursor.pull(counters)
        assert cursor.has_passed(11)
        assert not cursor.has_passed(13)

    def test_has_passed_absent_tuple(self, posting_list):
        cursor = ListCursor(posting_list)
        assert not cursor.has_passed(999)

    def test_independent_cursors(self, posting_list):
        counters = AccessCounters()
        first = ListCursor(posting_list)
        second = ListCursor(posting_list)
        first.pull(counters)
        assert second.position == 0


class _PatchOnInvert(np.ndarray):
    """A tombstone mask whose ``~`` runs a one-shot patch after reading."""

    hook = None

    def __invert__(self):
        keep = np.invert(np.asarray(self))
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()
        return keep


class TestMemoRace:
    """A memo built across a patch is served once but never stored.

    Writes exclude scans through the service's writer gate, but a reader
    outside the gate (a timed-out supervised shard call that is still
    running) can overlap ``insert_entry``/``remove_entry``.  The patch is
    forced between the memo's build and its store.
    """

    def test_live_arrays_built_across_a_patch_are_not_kept(self, posting_list):
        posting_list.remove_entry(12, 0.5)
        dead = posting_list._dead.view(_PatchOnInvert)
        dead.hook = lambda: posting_list.remove_entry(10, 0.2)
        posting_list._dead = dead
        posting_list.ids  # builds from the pre-patch mask
        assert posting_list.ids.tolist() == [11, 13]
        assert posting_list.values.tolist() == [0.9, 0.9]

    def test_id_lookup_built_across_a_patch_is_not_kept(self, posting_list):
        build = posting_list._live_arrays

        def build_then_patch():
            del posting_list._live_arrays  # one shot
            arrays = build()
            posting_list.insert_entry(14, 0.7)
            return arrays

        posting_list._live_arrays = build_then_patch
        posting_list.position_of(12)  # builds from the pre-patch arrays
        assert posting_list.position_of(14) == 2
        assert posting_list.position_of(12) == 3
        assert posting_list.position_of(10) == 4
