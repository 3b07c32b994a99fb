"""Page-state views of a page table.

Reclaim, background writing and the adaptive mechanisms all decide from
the same few questions about a :class:`~repro.mem.page_table.PageTable`
— "which pages are resident?", "which resident pages are dirty?",
"what are the LRU eviction candidates?".  :class:`PageIndex` (reachable
as :attr:`PageTable.index`) is the one place those questions are
answered; every answer is a fresh scan of the table's arrays
(``np.flatnonzero`` over ``num_pages`` booleans plus a gather), so a
view is always a snapshot of the state at the time of the call.
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


__all__ = ["PageIndex"]
