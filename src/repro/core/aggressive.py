"""Aggressive page-out (§3.2, Fig. 3).

At the job switch, immediately page the outgoing process out in large
address-ordered blocks until there are enough free frames for the
incoming process's (estimated) working set.  The subsequent page-in
faults then proceed without interleaved page-out activity, and the
address-ordered block writes land in contiguous swap slots — which is
what later makes the adaptive page-in's block reads sequential.

Each batch is the outgoing process's ``batch_pages`` lowest resident
pages — ``index.resident_pages()[:batch_pages]``.  Rather than rescan
the table for every batch, a page-out walks one ascending snapshot of
the resident set with a head cursor (:class:`~repro.mem.index.PageCursor`)
and takes a new snapshot whenever the table's order counter moved.  Only
:meth:`~repro.mem.page_table.PageTable.make_resident` sets ``present``,
and it bumps that counter, so pages evicted meanwhile (by this page-out
or by anyone else) are skipped and pages a fault pins stay at the head,
exactly as in a fresh scan.
"""

from __future__ import annotations

import numpy as np

from repro.disk.device import PRIO_FOREGROUND
from repro.mem.index import PageCursor
from repro.mem.replacement import VictimBatch
from repro.mem.vmm import VirtualMemoryManager
from repro.obs.registry import NULL_OBS


class _ResidentCursor(PageCursor):
    """One table's resident pages, ascending (see module doc)."""

    def _snapshot(self) -> np.ndarray:
        return self.table.index.resident_pages()

    def _live(self, pages: np.ndarray) -> np.ndarray:
        return self.table.present[pages]


class AggressivePageOut:
    """Implements Fig. 3's ``aggressive_try_to_free_pages``."""

    def __init__(self, vmm: VirtualMemoryManager, batch_pages: int = 256,
                 obs=NULL_OBS) -> None:
        if batch_pages <= 0:
            raise ValueError("batch_pages must be positive")
        self.vmm = vmm
        self.batch_pages = batch_pages
        self._c_batches = obs.counter("ao_batches", node=vmm.name)
        self._c_pages = obs.counter("ao_pages_evicted", node=vmm.name)

    def run(self, out_pid: int, target_free: int):
        """Process fragment: evict ``out_pid`` until ``target_free``
        frames are free (or the outgoing process is fully swapped out).

        ``target_free`` is normally the incoming working-set estimate
        plus the high watermark, so the following fault burst never
        trips reclaim.
        """
        vmm = self.vmm
        table = vmm.tables.get(out_pid)
        cursor = None
        while vmm.frames.free < target_free:
            if table is None or table.resident_count == 0:
                return  # Fig. 3 stops at the outgoing process's pages
            if cursor is None:
                cursor = _ResidentCursor(table)
            victims = cursor.take(self.batch_pages)
            freed = yield from vmm.evict_batch(
                VictimBatch(out_pid, victims), PRIO_FOREGROUND
            )
            if freed == victims.size:
                cursor.skip_taken()
            self._c_batches.inc()
            self._c_pages.inc(freed)

    def target_for(self, incoming_ws_pages: int) -> int:
        """Free-frame target for a given incoming working-set size."""
        cap = self.vmm.params.total_frames
        return min(cap, incoming_ws_pages + self.vmm.params.freepages_high)


__all__ = ["AggressivePageOut"]
