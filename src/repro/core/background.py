"""Background writing of dirty pages (§3.4).

While a job is running — during the last fraction of its quantum — a
low-priority writer flushes its dirty pages to swap *without evicting
them*.  At the switch those pages are clean with valid swap copies and
can be discarded without I/O, shortening the page-out burst.  Pages the
job re-dirties after being cleaned are written again; that repeated
writing is the §3.4 cost the 10 %-of-quantum tuning minimises.

Burst order
-----------
Each burst writes the ``batch_pages`` oldest dirty resident pages, key
``(last_ref, page)`` — exactly ``argsort(last_ref[dirty],
kind="stable")`` over the ascending dirty-resident set.  The writer
keeps that order in an oldest-first queue instead of re-sorting the set
for every burst.  The queue is sorted once per value of the table's
order counter (:attr:`~repro.mem.page_table.PageTable.order_epoch`),
which only the mutators that can add a dirty-resident page or move a
``last_ref`` key bump.  Everything else — the writer's own
``mark_clean`` / ``assign_slots``, and evictions — is shrink-only: it
removes pages from the set and so cannot reorder the rest.  A burst
therefore walks the queue from a head cursor (a
:class:`~repro.mem.index.PageCursor`), skips entries that have left the
set, and takes the first ``batch_pages`` that have not.  A burst that
was written in full has left the set too, so the head moves past it
at once instead of re-reading those pages at the next burst.  Pages an
in-flight fault pins stay dirty, and stay at their place in the queue,
for the next burst; a burst that could write nothing waits ``poll_s``
before it looks again.  The same walk answers the stop-time
``bg_deadline_misses`` question; only a stale queue with no live entry
falls back to a scan of the table.

A burst is written with ``evict_batch(..., keep_resident=True)``, which
returns the number of pages written.  Its pages are taken in the same
instant the eviction lock is requested, so they are dirty resident when
the lock is granted unless another eviction held it meanwhile; only
then does ``evict_batch`` check them again.

The queue and its table reference live only while the writer runs:
:meth:`BackgroundWriter.stop`, the job's exit and a failed write all
drop them, so an idle writer pins no page table between quanta.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.disk.device import PRIO_BACKGROUND
from repro.faults.errors import DiskFailure
from repro.mem.index import PageCursor
from repro.mem.replacement import VictimBatch
from repro.mem.vmm import VirtualMemoryManager
from repro.obs.registry import NULL_OBS
from repro.sim.engine import Interrupt, Process


class _DirtyQueue(PageCursor):
    """One table's dirty-resident pages, oldest first (see module doc)."""

    def _snapshot(self) -> np.ndarray:
        t = self.table
        dirty = np.flatnonzero(t.present & (t.dirty | (t.swap_slot < 0)))
        return dirty[np.argsort(t.last_ref[dirty], kind="stable")]

    def _live(self, pages: np.ndarray) -> np.ndarray:
        t = self.table
        return t.present[pages] & (t.dirty[pages] | (t.swap_slot[pages] < 0))

    def take(self, n: int) -> np.ndarray:
        """The ``n`` oldest dirty resident pages, ascending."""
        burst = super().take(n)
        burst.sort()  # a fresh copy (or an empty view): sort in place
        return burst


class BackgroundWriter:
    """The per-node background dirty-page writer daemon.

    Telemetry: ``bg_bursts`` / ``bg_pages_written`` mirror the burst
    attributes; ``bg_deadline_misses`` counts switches that stopped the
    writer while the job still had dirty resident pages — the writer
    missed its §3.4 deadline of cleaning everything before the quantum
    ended, so the switch path pays for the remainder.
    """

    def __init__(
        self,
        vmm: VirtualMemoryManager,
        batch_pages: int = 64,
        poll_s: float = 1.0,
        obs=NULL_OBS,
    ) -> None:
        if batch_pages <= 0:
            raise ValueError("batch_pages must be positive")
        if poll_s <= 0:
            raise ValueError("poll_s must be positive")
        self.vmm = vmm
        self.batch_pages = batch_pages
        self.poll_s = poll_s
        self._proc: Optional[Process] = None
        self._pid: Optional[int] = None
        self._queue: Optional[_DirtyQueue] = None
        #: pages written by the writer, cumulatively (for the §3.4
        #: repeated-writing analysis)
        self.pages_written = 0
        self.bursts = 0
        #: bursts abandoned because the write failed permanently
        self.write_failures = 0
        self._obs_on = obs.enabled
        self._c_bursts = obs.counter("bg_bursts", node=vmm.name)
        self._c_pages = obs.counter("bg_pages_written", node=vmm.name)
        self._c_misses = obs.counter("bg_deadline_misses", node=vmm.name)
        self._c_failures = obs.counter("bg_write_failures", node=vmm.name)

    @property
    def active(self) -> bool:
        """True while a writer process is running."""
        return self._proc is not None and self._proc.is_alive

    @property
    def pid(self) -> Optional[int]:
        return self._pid

    def start(self, pid: int) -> None:
        """``start_bgwrite(inpid)`` of §3.5: begin flushing ``pid``'s
        dirty pages at low priority."""
        if self.active:
            raise RuntimeError("background writer already active")
        if pid not in self.vmm.tables:
            raise KeyError(f"unknown pid {pid}")
        self._pid = pid
        self._proc = self.vmm.env.process(self._run(pid))

    def stop(self) -> None:
        """``stop_bgwrite()`` of §3.5: halt the writer (idempotent).

        Called when the actual job switch begins; a burst already queued
        on the disk completes (the device is non-preemptive), but no new
        burst is started.
        """
        if self.active:
            if self._obs_on and self._dirty_left():
                self._c_misses.inc()
            self._proc.interrupt("stop_bgwrite")
        self._proc = None
        self._pid = None
        self._queue = None

    def _dirty_left(self) -> bool:
        """Whether the job still has a dirty resident page."""
        table = self.vmm.tables.get(self._pid)
        if table is None:
            return False
        queue = self._queue
        if queue is not None and queue.table is table:
            if queue.walk(1).size:
                return True
            if queue.current:
                return False
        return table.index.dirty_resident_pages().size > 0

    def _run(self, pid: int):
        vmm = self.vmm
        queue = None
        try:
            while True:
                table = vmm.tables.get(pid)
                if table is None:
                    return  # process exited
                if queue is None:
                    queue = self._queue = _DirtyQueue(table)
                # Write oldest-referenced dirty pages first: they are the
                # least likely to be re-dirtied before the switch.
                burst = queue.take(self.batch_pages)
                if burst.size:
                    written = yield from vmm.evict_batch(
                        VictimBatch(pid, burst),
                        priority=PRIO_BACKGROUND,
                        keep_resident=True,
                    )
                    if written:
                        if written == burst.size:
                            queue.skip_taken()
                        self.pages_written += written
                        self.bursts += 1
                        self._c_bursts.inc()
                        self._c_pages.inc(written)
                        continue
                    if pid not in vmm.tables:
                        return  # process exited
                # nothing to write, or every page is pinned by an
                # in-flight fault: look again later, not at this instant
                yield vmm.env.timeout(self.poll_s)
        except Interrupt:
            return
        except DiskFailure:
            # Background writing is an optimisation: a permanently
            # failed low-priority write just stops the writer for this
            # quantum; the switch path will write those pages instead.
            self.write_failures += 1
            self._c_failures.inc()
            return
        finally:
            # a restarted writer may already own a newer queue
            if self._queue is queue:
                self._queue = None


__all__ = ["BackgroundWriter"]
