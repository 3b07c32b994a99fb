"""Working-set size estimation from previous-quantum references.

The paper's aggressive page-out needs "the working set size of the
incoming process", which "the kernel obtains ... using the page
references during the incoming process' previous time quanta" (§3.2,
§3.5).  This estimator snapshots, at each deschedule, how many distinct
pages the process referenced during the quantum that just ended, and
blends it with earlier quanta with an exponential moving average.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.mem.page_table import PageTable


class WorkingSetEstimator:
    """Tracks per-process working-set size across scheduling quanta.

    Parameters
    ----------
    alpha:
        EMA weight of the most recent quantum (1.0 = only the latest).
    """

    def __init__(self, alpha: float = 0.7) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._quantum_start: dict[int, float] = {}
        self._estimate: dict[int, float] = {}

    def begin_quantum(self, pid: int, now: float) -> None:
        """Note that ``pid`` was just scheduled at time ``now``."""
        self._quantum_start[pid] = now

    def end_quantum(self, pid: int, table: PageTable, now: float) -> int:
        """Record the quantum that just ended; returns its distinct-page
        reference count."""
        start = self._quantum_start.pop(pid, None)
        if start is None:
            # Process was never marked scheduled; fall back to everything
            # it has ever touched.
            referenced = table.index.touched_count()
        else:
            referenced = int(np.count_nonzero(table.last_ref >= start))
        prev = self._estimate.get(pid)
        if prev is None or prev <= 0:
            self._estimate[pid] = float(referenced)
        else:
            self._estimate[pid] = (
                self.alpha * referenced + (1 - self.alpha) * prev
            )
        return referenced

    def estimate(self, pid: int, table: Optional[PageTable] = None) -> int:
        """Best working-set-size estimate for ``pid``, in pages.

        Before any quantum has completed, falls back to the number of
        pages the process has ever touched (if a table is supplied) —
        the kernel would similarly have nothing better on first switch.
        """
        est = self._estimate.get(pid)
        if est is not None and est > 0:
            return int(round(est))
        if table is not None:
            return table.index.touched_count()
        return 0

    def forget(self, pid: int) -> None:
        """Drop state for an exited process."""
        self._quantum_start.pop(pid, None)
        self._estimate.pop(pid, None)


__all__ = ["WorkingSetEstimator"]
