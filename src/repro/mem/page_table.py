"""Per-process page table with vectorised state.

Page state (numpy arrays indexed by virtual page number):

``present``     resident in physical memory
``dirty``       modified since the swap copy was last written
``referenced``  clock/LRU reference bit (cleared by sweeps)
``last_ref``    virtual time of the most recent reference (-inf if never)
``swap_slot``   slot holding the page's swap copy, or -1

Swap-cache semantics (matching Linux 2.2 closely enough for the paper's
mechanisms): a page keeps its swap slot across a page-in, so a *clean*
resident page with a slot can later be discarded without disk I/O —
this is exactly what the §3.4 background writer buys at switch time.
Dirtying a page invalidates (but keeps) the slot; the next page-out
rewrites it in place.

Page state is read through :attr:`PageTable.index`, a
:class:`~repro.mem.index.PageIndex` whose views scan the arrays on every
call.  State must be mutated through the methods below, never by
writing the arrays directly: the O(1) resident count and the order
counter are kept by those methods.

Order counter
-------------
:attr:`PageTable.order_epoch` is a counter for the
§3.4 background writer's oldest-first dirty queue (key ``(last_ref,
page)`` over the dirty-resident set ``present & (dirty | swap_slot <
0)``).  It is bumped only by the mutators that can *add* a page to that
set or change a key: :meth:`~PageTable.record_access`,
:meth:`~PageTable.record_access_runs`, :meth:`~PageTable.set_last_ref`,
:meth:`~PageTable.set_last_ref_values`, :meth:`~PageTable.make_resident`
and :meth:`~PageTable.release_slots`.  The other three —
:meth:`~PageTable.mark_clean`, :meth:`~PageTable.assign_slots` and
:meth:`~PageTable.evict` — are *shrink-only*: they can only remove pages
from the set and never touch ``last_ref``, and removing members leaves
the relative order of the rest unchanged.  A queue sorted while the
counter had a given value therefore stays correct, minus the pages that
have since left the set, until the counter moves.
"""

from __future__ import annotations

import numpy as np

from repro.mem.index import PageIndex


class PageTable:
    """State of one process's virtual address space.

    Parameters
    ----------
    pid:
        Process id (node-local).
    num_pages:
        Size of the address space in pages; page numbers are
        ``0..num_pages-1``.
    """

    def __init__(self, pid: int, num_pages: int) -> None:
        if num_pages <= 0:
            raise ValueError("num_pages must be positive")
        self.pid = pid
        self.num_pages = int(num_pages)
        self.present = np.zeros(self.num_pages, dtype=bool)
        self.dirty = np.zeros(self.num_pages, dtype=bool)
        self.referenced = np.zeros(self.num_pages, dtype=bool)
        self.last_ref = np.full(self.num_pages, -np.inf, dtype=np.float64)
        self.swap_slot = np.full(self.num_pages, -1, dtype=np.int64)
        #: per-process clock hand for sweep-style replacement
        self.clock_hand = 0
        #: order counter — bumped only by mutators that can grow the
        #: dirty-resident set or move a ``last_ref`` key (see module doc)
        self.order_epoch = 0
        # O(1) resident-set size, maintained by make_resident/evict
        self._resident_count = 0
        #: page-state views (resident / dirty / clean / candidates)
        self.index = PageIndex(self)

    # -- queries -----------------------------------------------------------
    @property
    def resident_count(self) -> int:
        """Resident set size in pages (O(1) — maintained incrementally)."""
        return self._resident_count

    def absent(self, pages: np.ndarray) -> np.ndarray:
        """Subset of ``pages`` (order preserved) that are not resident."""
        pages = np.asarray(pages, dtype=np.int64)
        return pages[~self.present[pages]]

    # -- mutations ---------------------------------------------------------
    def record_access(self, pages: np.ndarray, now: float,
                      dirty: bool | np.ndarray = False) -> None:
        """Mark ``pages`` referenced at ``now``; optionally dirtied.

        ``dirty`` may be a scalar or a boolean mask aligned with
        ``pages``.  All pages must already be resident.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        if not self.present[pages].all():
            raise ValueError("record_access on non-resident page")
        self.referenced[pages] = True
        self.last_ref[pages] = now
        if np.isscalar(dirty) or isinstance(dirty, bool):
            if dirty:
                self.dirty[pages] = True
        else:
            mask = np.asarray(dirty, dtype=bool)
            if mask.shape != pages.shape:
                raise ValueError("dirty mask shape mismatch")
            self.dirty[pages[mask]] = True
        self.order_epoch += 1

    def record_access_runs(
        self,
        runs: list[tuple[np.ndarray, float, "bool | np.ndarray"]],
    ) -> None:
        """Apply a batch of :meth:`record_access` updates in one call.

        ``runs`` is a list of ``(pages, now, dirty)`` tuples in access
        order; later stamps overwrite earlier ones exactly as the
        per-chunk calls would.  Callers (the steady-state fast path)
        have already verified residency via the vectorised probe, so the
        per-call ``present`` validation is skipped.  The batch is applied
        atomically from the simulation's point of view (no event can
        observe a half-applied run).
        """
        if not runs:
            return
        referenced = self.referenced
        last_ref = self.last_ref
        dirty_arr = self.dirty
        for pages, now, dirty in runs:
            referenced[pages] = True
            last_ref[pages] = now
            if np.isscalar(dirty) or isinstance(dirty, bool):
                if dirty:
                    dirty_arr[pages] = True
            else:
                mask = np.asarray(dirty, dtype=bool)
                if mask.shape != pages.shape:
                    raise ValueError("dirty mask shape mismatch")
                dirty_arr[pages[mask]] = True
        self.order_epoch += 1

    def set_last_ref(self, pages: np.ndarray, now: float) -> None:
        """Stamp ``last_ref`` only (a fault-time reference: the freshly
        paged-in pages must not look like the oldest in memory)."""
        if len(pages) == 0:
            return
        self.last_ref[pages] = now
        self.order_epoch += 1

    def set_last_ref_values(self, pages: np.ndarray,
                            values: np.ndarray) -> None:
        """Per-page :meth:`set_last_ref` stamps in one call.

        The batch-advance tier applies a whole run of fault groups at
        once; each group's pages get that group's waiter-resume time,
        exactly as the per-group calls would have stamped them.
        """
        if len(pages) == 0:
            return
        self.last_ref[pages] = values
        self.order_epoch += 1

    def make_resident(self, pages: np.ndarray) -> None:
        """Flip ``pages`` to present (frames must already be accounted).

        Freshly paged-in or zero-filled pages are clean and referenced.
        """
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        if self.present[pages].any():
            raise ValueError("make_resident on already-resident page")
        self.present[pages] = True
        self.dirty[pages] = False
        self.referenced[pages] = True
        self._resident_count += int(pages.size)
        self.order_epoch += 1

    def evict(self, pages: np.ndarray) -> None:
        """Flip ``pages`` to non-present (slots must be assigned for any
        page that needs a swap copy *before* calling this)."""
        pages = np.asarray(pages, dtype=np.int64)
        if pages.size == 0:
            return
        if not self.present[pages].all():
            raise ValueError("evict of non-resident page")
        self.present[pages] = False
        self.referenced[pages] = False
        self.dirty[pages] = False
        self._resident_count -= int(pages.size)

    def mark_clean(self, pages: np.ndarray) -> None:
        """Clear dirty bits after a successful swap write-back."""
        self.dirty[pages] = False

    def assign_slots(self, pages: np.ndarray, slots: np.ndarray) -> None:
        """Record swap copies for ``pages`` living in ``slots``."""
        pages = np.asarray(pages, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        if pages.shape != slots.shape:
            raise ValueError("pages/slots shape mismatch")
        self.swap_slot[pages] = slots

    def release_slots(self, pages: np.ndarray) -> np.ndarray:
        """Forget swap copies for ``pages``; returns the freed slot ids."""
        pages = np.asarray(pages, dtype=np.int64)
        slots = self.swap_slot[pages]
        if np.any(slots < 0):
            raise ValueError("release_slots on page without a slot")
        self.swap_slot[pages] = -1
        if pages.size:
            self.order_epoch += 1
        return slots

    def clear_referenced(self, pages: np.ndarray | None = None) -> None:
        """Clear reference bits (a clock sweep step)."""
        if pages is None:
            self.referenced[:] = False
        else:
            self.referenced[np.asarray(pages, dtype=np.int64)] = False

    # -- invariants (used by property tests and debug assertions) ----------
    def check_invariants(self) -> None:
        """Raise AssertionError if internal state is inconsistent."""
        # dirty or referenced implies present
        assert not np.any(self.dirty & ~self.present), "dirty non-resident page"
        assert not np.any(self.referenced & ~self.present), (
            "referenced non-resident page"
        )
        # a non-resident touched page must have a swap copy
        touched = self.last_ref > -np.inf
        assert not np.any(touched & ~self.present & (self.swap_slot < 0)), (
            "touched page neither resident nor on swap"
        )
        # slots are unique where assigned
        slots = self.swap_slot[self.swap_slot >= 0]
        assert len(np.unique(slots)) == slots.size, "duplicate swap slot"
        # the O(1) resident count tracks the array
        assert self._resident_count == int(np.count_nonzero(self.present)), (
            f"resident_count drift: cached={self._resident_count} "
            f"actual={int(np.count_nonzero(self.present))}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PageTable(pid={self.pid}, pages={self.num_pages}, "
            f"resident={self.resident_count})"
        )


__all__ = ["PageTable"]
