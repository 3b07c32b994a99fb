"""Unit + property tests for the page table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem import PageTable


def make(n=64, pid=1):
    return PageTable(pid, n)


def swapped(t):
    """Pages out of memory with a swap copy."""
    return np.flatnonzero(~t.present & (t.swap_slot >= 0))


def test_initial_state():
    t = make(10)
    assert t.resident_count == 0
    assert t.index.resident_pages().size == 0
    assert not np.any(~t.present & (t.swap_slot >= 0))
    assert t.index.touched_pages().size == 0
    t.check_invariants()


def test_invalid_size():
    with pytest.raises(ValueError):
        PageTable(1, 0)


def test_make_resident_and_access():
    t = make()
    t.make_resident(np.array([1, 2, 3]))
    assert t.resident_count == 3
    t.record_access(np.array([1, 2, 3]), now=5.0)
    assert np.all(t.last_ref[[1, 2, 3]] == 5.0)
    assert t.referenced[[1, 2, 3]].all()
    assert not t.dirty[[1, 2, 3]].any()
    t.check_invariants()


def test_make_resident_twice_rejected():
    t = make()
    t.make_resident(np.array([1]))
    with pytest.raises(ValueError):
        t.make_resident(np.array([1]))


def test_record_access_nonresident_rejected():
    t = make()
    with pytest.raises(ValueError):
        t.record_access(np.array([5]), now=1.0)


def test_dirty_scalar_and_mask():
    t = make()
    t.make_resident(np.arange(4))
    t.record_access(np.arange(4), now=1.0, dirty=True)
    assert t.dirty[:4].all()

    t2 = make()
    t2.make_resident(np.arange(4))
    mask = np.array([True, False, True, False])
    t2.record_access(np.arange(4), now=1.0, dirty=mask)
    assert np.array_equal(t2.dirty[:4], mask)


def test_dirty_mask_shape_mismatch_rejected():
    t = make()
    t.make_resident(np.arange(4))
    with pytest.raises(ValueError):
        t.record_access(np.arange(4), now=1.0, dirty=np.array([True]))


def test_evict_clears_bits():
    t = make()
    t.make_resident(np.arange(4))
    t.record_access(np.arange(4), now=1.0, dirty=True)
    t.assign_slots(np.arange(4), np.arange(100, 104))
    t.evict(np.arange(4))
    assert t.resident_count == 0
    assert not t.dirty[:4].any()
    assert not t.referenced[:4].any()
    assert np.array_equal(swapped(t), np.arange(4))
    t.check_invariants()


def test_evict_nonresident_rejected():
    t = make()
    with pytest.raises(ValueError):
        t.evict(np.array([0]))


def test_slot_assignment_and_release():
    t = make()
    t.assign_slots(np.array([3, 4]), np.array([50, 51]))
    assert t.swap_slot[3] == 50
    freed = t.release_slots(np.array([3]))
    assert list(freed) == [50]
    assert t.swap_slot[3] == -1
    with pytest.raises(ValueError):
        t.release_slots(np.array([3]))


def test_dirty_and_clean_resident_sets():
    t = make()
    t.make_resident(np.arange(4))
    t.record_access(np.arange(4), now=1.0)
    # page 0: clean with slot -> discardable
    t.assign_slots(np.array([0]), np.array([9]))
    # page 1: dirty with slot -> needs rewrite
    t.assign_slots(np.array([1]), np.array([10]))
    t.record_access(np.array([1]), now=2.0, dirty=True)
    # pages 2,3: no slot -> need write regardless of dirty
    assert set(t.index.clean_resident_pages()) == {0}
    assert set(t.index.dirty_resident_pages()) == {1, 2, 3}


def test_clear_referenced_partial_and_full():
    t = make()
    t.make_resident(np.arange(4))
    t.record_access(np.arange(4), now=1.0)
    t.clear_referenced(np.array([0, 1]))
    assert not t.referenced[:2].any()
    assert t.referenced[2:4].all()
    t.clear_referenced()
    assert not t.referenced.any()


def test_absent_preserves_order():
    t = make()
    t.make_resident(np.array([2, 5]))
    out = t.absent(np.array([5, 1, 2, 9]))
    assert list(out) == [1, 9]


@given(st.lists(st.integers(0, 63), min_size=1, max_size=40, unique=True),
       st.integers(0, 1))
@settings(max_examples=50, deadline=None)
def test_property_resident_evict_roundtrip(pages, dirty_flag):
    """Residency round-trips and invariants hold under access/evict."""
    t = make(64)
    arr = np.asarray(pages, dtype=np.int64)
    t.make_resident(arr)
    t.record_access(arr, now=1.0, dirty=bool(dirty_flag))
    t.check_invariants()
    assert t.resident_count == arr.size
    # every page that needs a write gets a slot before eviction
    need = t.index.dirty_resident_pages()
    t.assign_slots(need, np.arange(need.size) + 1000)
    t.evict(arr)
    t.check_invariants()
    assert t.resident_count == 0
    # all touched pages must now be on swap
    assert set(swapped(t)) == set(pages)

