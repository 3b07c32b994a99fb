"""Selective page-out (§3.1, Fig. 2).

Victim selection that considers only the *outgoing* process's pages —
oldest first — and falls back to the default replacement policy once
the outgoing process has nothing resident left.  This prevents the
*false eviction* of the incoming process's residual working set: under
plain LRU those residual pages are the oldest in memory and would be
evicted precisely when they are about to be used again.
"""

from __future__ import annotations

from typing import Mapping, Optional

import numpy as np

from repro.mem.page_table import PageTable
from repro.mem.replacement import ReplacementPolicy, VictimBatch
from repro.obs.registry import NULL_OBS


class SelectivePageOut:
    """A ``victim_selector`` implementing Fig. 2's ``try_to_free_pages``.

    Parameters
    ----------
    fallback:
        Replacement policy used once the outgoing process is fully
        swapped out (the paper falls back to the default LRU path).

    The currently outgoing process is set via :meth:`set_outgoing` at
    each job switch; ``None`` disables selectivity (pure fallback).

    Telemetry: ``so_selective_evictions`` counts victim pages taken
    from the outgoing process, ``so_fallback_evictions`` pages the
    default policy had to supply, and ``so_false_evictions_avoided``
    selective victims chosen while some *other* process still had
    resident pages — each one a page plain LRU might have falsely
    evicted (§3.1).
    """

    def __init__(self, fallback: ReplacementPolicy, obs=NULL_OBS,
                 node: str = "") -> None:
        self.fallback = fallback
        self.out_pid: Optional[int] = None
        self._obs_on = obs.enabled
        self._c_selective = obs.counter("so_selective_evictions", node=node)
        self._c_fallback = obs.counter("so_fallback_evictions", node=node)
        self._c_avoided = obs.counter("so_false_evictions_avoided",
                                      node=node)

    def set_outgoing(self, out_pid: Optional[int]) -> None:
        """Install the outgoing process for the coming quantum."""
        self.out_pid = out_pid

    def __call__(
        self,
        tables: Mapping[int, PageTable],
        count: int,
        cluster: int,
        protect: Optional[Mapping[int, np.ndarray]] = None,
    ) -> list[VictimBatch]:
        if count <= 0:
            return []
        batches: list[VictimBatch] = []
        remaining = count
        chosen: np.ndarray | None = None
        table = tables.get(self.out_pid) if self.out_pid is not None else None
        if table is not None and table.resident_count > 0:
            res, ages = table.index.candidates()
            if protect and table.pid in protect:
                pmask = np.zeros(table.num_pages, dtype=bool)
                pmask[np.asarray(protect[table.pid], dtype=np.int64)] = True
                keep = ~pmask[res]
                res, ages = res[keep], ages[keep]
            if res.size:
                # oldest first, as in Fig. 2 ("select oldest page of p")
                order = np.argsort(ages, kind="stable")
                victims = res[order][:remaining]
                for i in range(0, victims.size, cluster):
                    chunk = np.sort(victims[i : i + cluster])
                    batches.append(VictimBatch(table.pid, chunk))
                remaining -= victims.size
                chosen = victims
                if self._obs_on and victims.size:
                    self._c_selective.inc(int(victims.size))
                    if any(pid != table.pid and t.resident_count > 0
                           for pid, t in tables.items()):
                        self._c_avoided.inc(int(victims.size))
        if remaining > 0:
            # The fallback must not re-select pages already chosen above.
            fb_protect = dict(protect) if protect else {}
            if chosen is not None and chosen.size:
                prev = fb_protect.get(self.out_pid)
                fb_protect[self.out_pid] = (
                    np.concatenate([np.asarray(prev, dtype=np.int64), chosen])
                    if prev is not None
                    else chosen
                )
            fb = self.fallback.select_victims(
                tables, remaining, cluster, fb_protect
            )
            if self._obs_on and fb:
                self._c_fallback.inc(sum(int(b.pages.size) for b in fb))
            batches.extend(fb)
        return batches


__all__ = ["SelectivePageOut"]
