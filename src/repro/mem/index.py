"""Page-state views of a page table.

Reclaim, background writing and the adaptive mechanisms all decide from
the same few questions about a :class:`~repro.mem.page_table.PageTable`
— "which pages are resident?", "which resident pages are dirty?",
"what are the LRU eviction candidates?".  :class:`PageIndex` (reachable
as :attr:`PageTable.index`) is the one place those questions are
answered; every answer is a fresh scan of the table's arrays
(``np.flatnonzero`` over ``num_pages`` booleans plus a gather), so a
view is always a snapshot of the state at the time of the call.

A mechanism that consumes a view a batch at a time keeps one snapshot
instead of rescanning for every batch: a :class:`PageCursor` walks it
from a head position and re-snapshots whenever the table's order counter
(:attr:`~repro.mem.page_table.PageTable.order_epoch`) has moved.  Only
the order-changing mutators bump that counter; every other mutation can
only take pages out of the views the cursors follow, so a current
snapshot still holds every member, in order, and a page that has left
it cannot come back without a bump.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.mem.page_table import PageTable


class PageIndex:
    """Stateless views of one page table, recomputed on every call."""

    __slots__ = ("table",)

    def __init__(self, table: "PageTable") -> None:
        self.table = table

    def resident_pages(self) -> np.ndarray:
        """Page numbers currently resident, ascending."""
        return np.flatnonzero(self.table.present)

    def dirty_resident_pages(self) -> np.ndarray:
        """Resident pages whose swap copy is missing or stale."""
        t = self.table
        return np.flatnonzero(t.present & (t.dirty | (t.swap_slot < 0)))

    def clean_resident_pages(self) -> np.ndarray:
        """Resident pages discardable without I/O (valid swap copy)."""
        t = self.table
        return np.flatnonzero(t.present & ~t.dirty & (t.swap_slot >= 0))

    def candidates(self) -> tuple[np.ndarray, np.ndarray]:
        """Eviction-candidate snapshot: ``(resident pages, last_ref)``.

        The second array is aligned with the first (``last_ref`` gathered
        at the resident pages) — exactly what LRU-style victim selection
        consumes.
        """
        res = np.flatnonzero(self.table.present)
        return res, self.table.last_ref[res]

    def touched_pages(self) -> np.ndarray:
        """Pages the process has ever referenced."""
        return np.flatnonzero(self.table.last_ref > -np.inf)

    def touched_count(self) -> int:
        """Number of pages ever referenced."""
        return int(np.count_nonzero(self.table.last_ref > -np.inf))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PageIndex(pid={self.table.pid})"


class PageCursor:
    """One table's members of a page set, in a fixed order, walked from
    a head position (see module doc).

    Subclasses define the snapshot (:meth:`_snapshot`: the members,
    ordered) and membership (:meth:`_live`: a mask over some snapshot
    pages, read from the table).  Both must describe a set that only the
    order-changing mutators can grow.
    """

    def __init__(self, table: "PageTable") -> None:
        self.table = table
        self._sort()

    def _snapshot(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def _live(self, pages: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _sort(self) -> None:
        self.order = self.table.order_epoch
        self.pages = self._snapshot()
        self.head = self.end = 0

    @property
    def current(self) -> bool:
        """True while no order-changing mutation happened since the sort."""
        return self.order == self.table.order_epoch

    def take(self, n: int) -> np.ndarray:
        """The first ``n`` members in snapshot order (re-snapshots first
        when the counter moved)."""
        if not self.current:
            self._sort()
        return self.walk(n)

    def walk(self, n: int) -> np.ndarray:
        """Up to ``n`` snapshot pages that are still members, in order.

        Membership is read from the table, so a found page is a member
        even when the snapshot is stale; only a current snapshot is
        guaranteed to hold *every* member.
        """
        pages, head = self.pages, self.head
        # after skip_taken the head usually sits on a member; entries
        # that left the set since widen the window until n are found
        k = n
        while True:
            chunk = pages[head:head + k]
            live = np.flatnonzero(self._live(chunk))
            if live.size >= n or head + k >= pages.size:
                break
            k *= 2
        if live.size == 0:
            self.head = self.end = pages.size
            return chunk[:0]
        live = live[:n]
        # entries before the first live one have left the set for good
        self.head = head + int(live[0])
        self.end = head + int(live[-1]) + 1
        return chunk[live]

    def skip_taken(self) -> None:
        """Move the head past the last walk's pages.

        Call only once every page of that walk has left the set: the
        skipped entries are then all gone for good while the snapshot is
        current, and a stale snapshot is retaken by the next
        :meth:`take` anyway.
        """
        self.head = self.end


__all__ = ["PageCursor", "PageIndex"]
