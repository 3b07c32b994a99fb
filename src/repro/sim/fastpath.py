"""The steady-state execution fast-path switches.

Between gang switches a job's reference stream is hit-dominated; the
fast path removes per-chunk simulation machinery that provably cannot
change any simulated outcome:

* :meth:`~repro.mem.vmm.VirtualMemoryManager.touch_fast` services a
  fully-resident chunk without entering the generator fault path;
* the job execution loop coalesces consecutive fully-resident chunks
  into a single CPU timeout (:mod:`repro.gang.job`);
* the disk dispatches requests through a callback chain instead of one
  coroutine process per request, and folds the per-group major-fault
  CPU charge into the request's completion trigger.

On top of that sits the **batch-advance tier** (:data:`BATCH_ENABLED`):
inside a demand fill the VMM detects runs of same-type, non-interacting
events (sequential disk read groups, zero-fill delays, reclaim write
batches) and applies their entire effect synchronously with a local
clock, re-entering the event loop with a single resync timeout at the
run's exact end time (see ``VirtualMemoryManager._advance_eager``).
The events the run *would* have dispatched are tallied on
``Environment.events_absorbed``, so ``events_simulated`` stays
comparable across modes.

All of these are pure compute-saving transforms: with the fast path on,
every simulation *output* (makespan, paging/fault counters, metrics
records, mechanism counters) stays bit-for-bit identical, while
``Environment.events_processed`` legitimately drops because fewer
bookkeeping events exist.  ``set_fast_path_enabled(False)`` restores
the per-chunk/per-process event structure exactly, reproducing the
historical event stream (the documented re-baseline for pinned event
counts is keyed on this switch — see docs/architecture.md).

The switches are read at run time so identity tests can compare the
modes; toggle them
*between* simulation runs, never while an environment is mid-run (a
half-switched run would mix event structures).

Environment overrides (read once at import, for CI matrix legs):

``REPRO_FASTPATH=0``       start with the whole fast path disabled
``REPRO_BATCH_ADVANCE=0``  start with only the batch-advance tier off
"""

from __future__ import annotations

import os

_OFF = ("0", "off", "false", "no")

#: Module-level switch consulted by the hot paths.  Mutate only through
#: :func:`set_fast_path_enabled`.
ENABLED = os.environ.get("REPRO_FASTPATH", "1").lower() not in _OFF

#: The batch-advance tier rides on top of the fast path: it only
#: engages while :data:`ENABLED` is also true.  Mutate only through
#: :func:`set_batch_advance_enabled`.
BATCH_ENABLED = os.environ.get("REPRO_BATCH_ADVANCE", "1").lower() not in _OFF


def set_fast_path_enabled(enabled: bool) -> None:
    """Globally enable/disable the steady-state fast path."""
    global ENABLED
    ENABLED = bool(enabled)


def fast_path_enabled() -> bool:
    """Whether the steady-state fast path is active."""
    return ENABLED


def set_batch_advance_enabled(enabled: bool) -> None:
    """Globally enable/disable the batch-advance execution tier."""
    global BATCH_ENABLED
    BATCH_ENABLED = bool(enabled)


def batch_advance_enabled() -> bool:
    """Whether the batch-advance tier is active (requires the fast path)."""
    return ENABLED and BATCH_ENABLED


__all__ = [
    "BATCH_ENABLED",
    "ENABLED",
    "batch_advance_enabled",
    "fast_path_enabled",
    "set_batch_advance_enabled",
    "set_fast_path_enabled",
]
