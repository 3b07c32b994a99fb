"""Unit + property tests for the page recorder (§3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PageRecorder, PageRun
from repro.core.recorder import compress_runs


def test_compress_contiguous():
    runs = compress_runs(np.array([5, 6, 7, 8]))
    assert runs == [PageRun(5, 4)]


def test_compress_with_gaps():
    runs = compress_runs(np.array([1, 2, 10, 11, 12, 20]))
    assert runs == [PageRun(1, 2), PageRun(10, 3), PageRun(20, 1)]


def test_compress_unsorted_input():
    runs = compress_runs(np.array([7, 5, 6]))
    assert runs == [PageRun(5, 3)]


def test_compress_empty():
    assert compress_runs(np.array([], dtype=np.int64)) == []


def reference_runs(pages):
    """Maximal runs of the sorted distinct pages, by ``np.unique``."""
    arr = np.unique(np.asarray(pages, dtype=np.int64))
    if arr.size == 0:
        return []
    breaks = np.flatnonzero(np.diff(arr) != 1) + 1
    return [PageRun(int(r[0]), int(r.size)) for r in np.split(arr, breaks)]


@pytest.mark.parametrize("pages", [
    [4],
    [0, 1, 2, 3],                  # one ascending run
    [9, 8, 7, 6],                  # reversed: contiguous, not ascending
    [3, 1, 2, 5, 4],               # unsorted
    [5, 5, 6, 7],                  # duplicate inside a run
    [2, 3, 3],                     # duplicate at the end
    [6, 7, 8, 6],                  # duplicate of the first page
    [1, 2, 4, 5],                  # gapped
    [10, 11, 12, 20, 21, 1],       # gapped and unsorted
    [-1, 0, 1],                    # steps of one across zero
], ids=lambda p: ",".join(map(str, p)))
def test_compress_matches_unique_reference(pages):
    assert compress_runs(np.array(pages)) == reference_runs(pages)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 40), max_size=30), st.booleans())
def test_compress_matches_unique_reference_property(pages, ascending):
    if ascending:
        pages = sorted(pages)
    assert compress_runs(np.array(pages, dtype=np.int64)) == \
        reference_runs(pages)


def test_pagerun_expands():
    assert list(PageRun(3, 4).pages()) == [3, 4, 5, 6]


def test_record_and_take_preserves_flush_order():
    r = PageRecorder()
    r.record(1, np.array([100, 101]))   # first flush batch
    r.record(1, np.array([0, 1, 2]))    # second flush batch
    taken = r.take(1)
    assert list(taken) == [100, 101, 0, 1, 2]
    # record cleared after take
    assert r.take(1).size == 0


def test_records_are_per_pid():
    r = PageRecorder()
    r.record(1, np.array([1]))
    r.record(2, np.array([2]))
    assert list(r.take(1)) == [1]
    assert list(r.take(2)) == [2]


def test_empty_record_ignored():
    r = PageRecorder()
    r.record(1, np.array([], dtype=np.int64))
    assert r.record_entries(1) == 0


def test_peek_does_not_clear():
    r = PageRecorder()
    r.record(1, np.arange(4))
    assert r.peek(1) == [PageRun(0, 4)]
    assert r.recorded_pages(1) == 4
    assert r.take(1).size == 4


def test_clear():
    r = PageRecorder()
    r.record(1, np.arange(4))
    r.clear(1)
    assert r.take(1).size == 0


def test_run_compression_saves_entries():
    """The §3.3 point: contiguous flushes need few (base, offset) records."""
    r = PageRecorder()
    r.record(1, np.arange(0, 1024))  # one contiguous flush
    assert r.record_entries(1) == 1
    assert r.recorded_pages(1) == 1024


@given(st.lists(st.integers(0, 500), min_size=1, max_size=100))
@settings(max_examples=50, deadline=None)
def test_property_take_returns_recorded_set(pages):
    """take() returns exactly the set of recorded pages."""
    r = PageRecorder()
    arr = np.asarray(pages, dtype=np.int64)
    r.record(7, arr)
    taken = r.take(7)
    assert set(taken.tolist()) == set(pages)
    # runs within one batch never overlap
    assert len(np.unique(taken)) == taken.size


@given(st.lists(st.lists(st.integers(0, 200), min_size=1, max_size=20),
                min_size=1, max_size=10))
@settings(max_examples=30, deadline=None)
def test_property_multibatch_union(batches):
    """Across batches the union is preserved (duplicates allowed)."""
    r = PageRecorder()
    expect = set()
    for b in batches:
        r.record(3, np.asarray(b, dtype=np.int64))
        expect.update(b)
    taken = r.take(3)
    assert set(taken.tolist()) == expect
