"""Victim-selection policies for page reclaim.

Two baselines are provided:

:class:`GlobalLruPolicy`
    Evicts the globally least-recently-used resident pages, regardless
    of owner.  This is the paper's narrative baseline ("the lingering
    pages ... will be swapped out first, because they are older than
    B's pages", §3.1) and the policy under which *false eviction* of a
    rescheduled job's residual working set occurs.

:class:`LargestProcessClockPolicy`
    The Linux 2.2 flavour the paper describes in §2: pick the process
    with the largest resident set and sweep its pages with a clock hand,
    clearing reference bits and evicting unreferenced pages.

The adaptive *selective page-out* mechanism (:mod:`repro.core`) wraps
whichever baseline is active.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.mem.page_table import PageTable


@dataclass
class VictimBatch:
    """A group of pages from one process chosen for eviction."""

    pid: int
    pages: np.ndarray  # ascending page numbers

    @property
    def count(self) -> int:
        return int(self.pages.size)


class ReplacementPolicy:
    """Interface: produce victim batches totalling ``count`` pages."""

    #: human-readable policy name (used in reports)
    name = "abstract"

    def select_victims(
        self,
        tables: Mapping[int, PageTable],
        count: int,
        cluster: int,
        protect: Optional[Mapping[int, np.ndarray]] = None,
    ) -> list[VictimBatch]:
        """Choose up to ``count`` resident pages to evict.

        Parameters
        ----------
        tables:
            All page tables on the node, keyed by pid.
        count:
            Total pages wanted.
        cluster:
            Maximum batch size (one batch becomes one disk write).
        protect:
            Optional pid -> page-array map of pages that must not be
            selected (e.g. pages being faulted in right now).
        """
        raise NotImplementedError

    @staticmethod
    def _protected_mask(
        table: PageTable, protect: Optional[Mapping[int, np.ndarray]]
    ) -> np.ndarray:
        mask = np.zeros(table.num_pages, dtype=bool)
        if protect and table.pid in protect:
            mask[np.asarray(protect[table.pid], dtype=np.int64)] = True
        return mask

    @staticmethod
    def _drop_protected(
        table: PageTable,
        protect: Optional[Mapping[int, np.ndarray]],
        pages: np.ndarray,
        aligned: Optional[np.ndarray] = None,
    ) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Filter protected pages out of ``pages`` (and an aligned
        companion array), without scanning the full address space."""
        if not protect or table.pid not in protect or pages.size == 0:
            return pages, aligned
        mask = np.zeros(table.num_pages, dtype=bool)
        mask[np.asarray(protect[table.pid], dtype=np.int64)] = True
        keep = ~mask[pages]
        return pages[keep], (aligned[keep] if aligned is not None else None)

    @staticmethod
    def _batched(pid: int, pages: np.ndarray, cluster: int) -> list[VictimBatch]:
        """Split ``pages`` into cluster-sized batches (ascending order)."""
        out = []
        # row-wise sort of the full chunks in one call (identical to
        # sorting each chunk separately), tail chunk sorted on its own
        full = pages.size - pages.size % cluster
        if full:
            for row in np.sort(pages[:full].reshape(-1, cluster), axis=1):
                out.append(VictimBatch(pid, row))
        if full < pages.size:
            out.append(VictimBatch(pid, np.sort(pages[full:])))
        return out


class GlobalLruPolicy(ReplacementPolicy):
    """Evict the globally oldest pages by last-reference time."""

    name = "global-lru"

    def select_victims(self, tables, count, cluster, protect=None):
        if count <= 0:
            return []
        pids: list[np.ndarray] = []
        pages: list[np.ndarray] = []
        ages: list[np.ndarray] = []
        for pid, table in tables.items():
            res, age = table.index.candidates()
            res, age = self._drop_protected(table, protect, res, age)
            if res.size == 0:
                continue
            pids.append(np.full(res.size, pid, dtype=np.int64))
            pages.append(res)
            ages.append(age)
        if not pages:
            return []
        if len(pages) == 1:
            all_pids, all_pages, all_ages = pids[0], pages[0], ages[0]
        else:
            all_pids = np.concatenate(pids)
            all_pages = np.concatenate(pages)
            all_ages = np.concatenate(ages)
        take = min(count, all_pages.size)
        idx = np.argpartition(all_ages, take - 1)[:take] if take < all_pages.size \
            else np.arange(all_pages.size)
        # Order victims by age (oldest first) for deterministic batching.
        idx = idx[np.argsort(all_ages[idx], kind="stable")]
        batches: list[VictimBatch] = []
        sel_pids = all_pids[idx]
        sel_pages = all_pages[idx]
        # Group consecutive same-pid victims into cluster batches so one
        # batch never mixes processes (a disk write is per process).
        # Pid-run boundaries are found vectorised; each run is then cut
        # into cluster-sized chunks from its start, which reproduces the
        # original scalar scan exactly.
        n = idx.size
        if len(pages) == 1:
            bounds = [0, n]
        else:
            change = np.flatnonzero(sel_pids[1:] != sel_pids[:-1]) + 1
            bounds = [0, *change.tolist(), n]
        for a, b in zip(bounds[:-1], bounds[1:]):
            pid = int(sel_pids[a])
            # all full cluster chunks of this run are sorted in one
            # vectorised call (a row-wise sort of the reshaped block is
            # exactly the per-chunk np.sort); only the tail chunk needs
            # its own sort
            n_run = b - a
            full = n_run - n_run % cluster
            if full:
                block = np.sort(
                    sel_pages[a:a + full].reshape(-1, cluster), axis=1
                )
                for row in block:
                    batches.append(VictimBatch(pid, row))
            if full < n_run:
                batches.append(VictimBatch(pid, np.sort(sel_pages[a + full:b])))
        return batches


class LargestProcessClockPolicy(ReplacementPolicy):
    """Linux 2.2-style: sweep the largest process with a clock hand.

    Reference bits are cleared as the hand passes; unreferenced resident
    pages are evicted.  The hand position persists across calls (stored
    on the page table), so repeated pressure cycles through the address
    space just like the kernel's ``swap_out`` loop.
    """

    name = "largest-clock"

    def select_victims(self, tables, count, cluster, protect=None):
        if count <= 0:
            return []
        batches: list[VictimBatch] = []
        remaining = count
        # Consider processes in decreasing RSS order (O(1) resident
        # counts); normally the first yields everything needed.
        order = sorted(
            tables.values(), key=lambda t: t.resident_count, reverse=True
        )
        for table in order:
            if remaining <= 0:
                break
            if table.resident_count == 0:
                continue  # nothing to sweep; skip the eligibility scan
            victims = self._sweep(table, remaining, protect)
            if victims.size:
                batches.extend(self._batched(table.pid, victims, cluster))
                remaining -= victims.size
        return batches

    def _sweep(
        self,
        table: PageTable,
        wanted: int,
        protect: Optional[Mapping[int, np.ndarray]],
    ) -> np.ndarray:
        pmask = self._protected_mask(table, protect)
        eligible = table.present & ~pmask
        if not eligible.any():
            return np.empty(0, dtype=np.int64)
        hand = table.clock_hand
        n = table.num_pages
        # Vectorised sweep: visit pages in hand order; pass 1 takes
        # eligible unreferenced pages (clearing reference bits up to
        # where the hand stops); pass 2 (bits now clear) takes the rest.
        order = np.concatenate([np.arange(hand, n), np.arange(0, hand)])
        elig_o = eligible[order]
        unref_o = elig_o & ~table.referenced[order]

        pass1_pos = np.flatnonzero(unref_o)
        take1 = pass1_pos[:wanted]
        victims = order[take1]

        if take1.size:
            stop = int(take1[-1])  # index in sweep order of last victim
        else:
            stop = -1

        if victims.size < wanted:
            # Full first revolution happened: every reference bit swept.
            table.referenced[order[elig_o]] = False
            remaining_pos = np.flatnonzero(elig_o & ~unref_o)
            take2 = remaining_pos[: wanted - victims.size]
            victims = np.concatenate([victims, order[take2]])
            stop = int(take2[-1]) if take2.size else n - 1
        else:
            # Clear reference bits of the swept eligible prefix only.
            prefix = order[: stop + 1]
            swept = prefix[eligible[prefix]]
            table.referenced[swept] = False

        table.clock_hand = int(order[(stop + 1) % n])
        return np.sort(victims.astype(np.int64))


class PageAgingPolicy(ReplacementPolicy):
    """Linux 2.2-style page aging (cf. the paper's ref. [17]).

    Every page carries an *age* counter: referenced pages gain age (up
    to a cap) as the sweep passes them, unreferenced pages halve it; a
    page becomes evictable when its age reaches zero.  Processes are
    visited in decreasing-RSS order like the 2.2 ``swap_out`` loop.

    This is the aging scheme Jiang & Zhang credit for 2.2's "relatively
    more effective protection against thrashing" — pages need several
    unreferenced sweeps before they are evicted, so a burst of pressure
    does not instantly strip a briefly-idle working set.
    """

    name = "page-aging"

    #: age gained when the sweep finds the referenced bit set
    AGE_GAIN = 3
    #: age ceiling
    AGE_MAX = 20
    #: age assigned to never-swept resident pages at first encounter
    AGE_START = 3
    #: bound on halving passes per selection call
    MAX_PASSES = 8

    def __init__(self) -> None:
        self._ages: dict[int, np.ndarray] = {}

    def _age_array(self, table: PageTable) -> np.ndarray:
        arr = self._ages.get(table.pid)
        if arr is None or arr.size != table.num_pages:
            arr = np.full(table.num_pages, self.AGE_START, dtype=np.int16)
            self._ages[table.pid] = arr
        return arr

    def _reap_exited(self, tables) -> None:
        """Drop age arrays of pids that no longer have a page table.

        Without this, a long job stream grows ``_ages`` by one array per
        process that ever ran — an unbounded leak over open-system runs.
        """
        if len(self._ages) <= len(tables):
            return
        for pid in [p for p in self._ages if p not in tables]:
            del self._ages[pid]

    def select_victims(self, tables, count, cluster, protect=None):
        if count <= 0:
            return []
        self._reap_exited(tables)
        batches: list[VictimBatch] = []
        remaining = count
        order = sorted(
            tables.values(), key=lambda t: t.resident_count, reverse=True
        )
        for table in order:
            if remaining <= 0:
                break
            if table.resident_count == 0:
                continue
            victims = self._sweep(table, remaining, protect)
            if victims.size:
                batches.extend(self._batched(table.pid, victims, cluster))
                remaining -= victims.size
        return batches

    def _sweep(self, table, wanted, protect):
        ages = self._age_array(table)
        pmask = self._protected_mask(table, protect)
        eligible = table.present & ~pmask
        if not eligible.any():
            return np.empty(0, dtype=np.int64)
        collected: list[np.ndarray] = []
        total = 0
        for _ in range(self.MAX_PASSES):
            # referenced pages gain age and lose the bit; idle pages decay
            ref = eligible & table.referenced
            idle = eligible & ~table.referenced
            ages[ref] = np.minimum(ages[ref] + self.AGE_GAIN, self.AGE_MAX)
            table.referenced[ref] = False
            ages[idle] >>= 1
            zero = np.flatnonzero(idle & (ages == 0))
            if zero.size:
                take = zero[: wanted - total]
                collected.append(take)
                eligible[take] = False
                total += take.size
            if total >= wanted:
                break
        if not collected:
            return np.empty(0, dtype=np.int64)
        return np.sort(np.concatenate(collected))


__all__ = [
    "GlobalLruPolicy",
    "LargestProcessClockPolicy",
    "PageAgingPolicy",
    "ReplacementPolicy",
    "VictimBatch",
]
