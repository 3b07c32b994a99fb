"""PageIndex: the page-state views of a page table.

Every view is a fresh scan of the table's arrays.  Besides a small unit
suite, a randomized property test interleaves every mutator and asserts,
after each step, that every view equals its predicate recomputed from
the raw arrays with ``np.flatnonzero``.
"""

import numpy as np
import pytest

from repro.mem.page_table import PageTable


def assert_views_match(t: PageTable) -> None:
    """Every ``table.index`` view equals its predicate over the arrays."""
    resident = np.flatnonzero(t.present)
    touched = np.flatnonzero(t.last_ref > -np.inf)
    np.testing.assert_array_equal(t.index.resident_pages(), resident)
    np.testing.assert_array_equal(
        t.index.dirty_resident_pages(),
        np.flatnonzero(t.present & (t.dirty | (t.swap_slot < 0))),
    )
    np.testing.assert_array_equal(
        t.index.clean_resident_pages(),
        np.flatnonzero(t.present & ~t.dirty & (t.swap_slot >= 0)),
    )
    np.testing.assert_array_equal(t.index.touched_pages(), touched)
    assert t.index.touched_count() == touched.size
    res, ages = t.index.candidates()
    np.testing.assert_array_equal(res, resident)
    np.testing.assert_array_equal(ages, t.last_ref[resident])
    assert t.resident_count == resident.size


def test_stale_cache_recomputed_after_mutation():
    """A view read after a mutation reflects it."""
    t = PageTable(pid=1, num_pages=64)
    t.make_resident(np.arange(10))
    np.testing.assert_array_equal(t.index.resident_pages(), np.arange(10))
    t.assign_slots(np.arange(5), np.arange(5) + 100)
    t.evict(np.arange(5))
    np.testing.assert_array_equal(
        t.index.resident_pages(), np.arange(5, 10)
    )
    assert_views_match(t)


def test_resident_count_tracks_invariants():
    t = PageTable(pid=1, num_pages=32)
    t.make_resident(np.arange(12))
    t.check_invariants()
    t.assign_slots(np.arange(12), np.arange(12) + 50)
    t.evict(np.arange(4))
    t.check_invariants()
    assert t.resident_count == 8


def test_index_repr_smoke():
    t = PageTable(pid=3, num_pages=8)
    assert "pid=3" in repr(t.index)


# ---------------------------------------------------------------------------
# randomized interleave property test
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("shuffled", [False, True])
def test_random_mutator_interleave(seed, shuffled):
    """Every view matches its predicate after every mutation, under a
    random interleaving of all mutators.  With ``shuffled`` the mutators
    get their pages in random order rather than ascending; the views are
    ascending either way."""
    rng = np.random.default_rng(seed)
    t = PageTable(pid=1, num_pages=256)
    next_slot = 0
    now = 0.0

    def sample(mask):
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64)
        k = int(rng.integers(1, idx.size + 1))
        pages = rng.choice(idx, size=k, replace=False)
        return pages if shuffled else np.sort(pages)

    def give_slots(pages):
        nonlocal next_slot
        need = pages[t.swap_slot[pages] < 0]
        if need.size:
            t.assign_slots(need, np.arange(next_slot, next_slot + need.size))
            next_slot += need.size

    for _ in range(300):
        now += 1.0
        op = rng.integers(0, 6)
        if op == 0:  # make_resident absent pages
            t.make_resident(sample(~t.present))
        elif op == 1:  # evict residents (slots for dirty ones first)
            pages = sample(t.present)
            give_slots(pages)
            t.evict(pages)
        elif op == 2:  # record_access on residents
            pages = sample(t.present)
            if pages.size:
                t.record_access(pages, now, rng.random(pages.size) < 0.5)
        elif op == 3:  # fault-time reference stamp
            t.set_last_ref(sample(t.present), now)
        elif op == 4:  # background write-back completes
            pages = sample(t.present & t.dirty)
            give_slots(pages)
            t.mark_clean(pages)
        else:  # clock sweep
            t.clear_referenced()
        assert_views_match(t)
        t.check_invariants()
