"""Pluggable sweep executor backends.

:func:`repro.perf.pool.run_cells` does not hard-code *how* cells
reach worker processes — it executes through an
:class:`ExecutorBackend`:

* ``"serial"`` — in-process, one cell at a time (forced even when
  ``jobs > 1``; useful for debugging and as the identity baseline);
* ``"persistent"`` — the PR 10 warm-worker executor with zero-copy
  spec-table dispatch and work stealing
  (:mod:`repro.perf.persistent`); the default for parallel sweeps.

Backend contract
----------------
Every backend — including a future multi-host dispatcher — must
guarantee (see DESIGN.md §8 for the normative text):

1. **Deterministic merge.**  ``run`` returns one result per input
   cell *in input order*, regardless of completion order, worker
   count, or stealing.  Identity is byte-level outside the reserved
   ``"_perf"`` quarantine.
2. **State reset.**  Every execution goes through
   :func:`repro.perf.pool._execute` (or an exact equivalent), so
   process-global state is reset per cell and a cell's result never
   depends on which worker ran it or what ran before.
3. **Fail-fast by default.**  Without a supervisor, the first cell
   exception propagates to the caller with its original type and
   message.  Retries, quarantine (``"_failed"``) and fingerprint-keyed
   resume are *supervisor* semantics layered on top, not backend ones.

Selection
---------
``run_cells(backend=...)`` > process default
(:func:`set_default_backend`, installed by the CLI ``--backend`` flag)
> the ``REPRO_BACKEND`` env var > the built-in default
(``persistent``).  The supervisor does not consult the chain at all:
supervision needs process isolation to contain crashes and cancel
hangs, so it always drives the persistent executor.
"""

from __future__ import annotations

import os
from typing import Optional, Sequence

#: env var naming the default backend when no explicit choice is made
BACKEND_ENV = "REPRO_BACKEND"

#: resolution order sentinel accepted anywhere a backend name is:
#: "auto" defers to the default chain
AUTO = "auto"


class ExecutorBackend:
    """How sweep cells reach (worker) processes — see module docs."""

    #: registry name; also what ``--backend`` accepts
    name: str = "?"

    def run(self, cells: Sequence, jobs: int, capture: Optional[bool],
            prints: Optional[Sequence[str]] = None) -> list:
        """Execute ``cells``; return results in input order.

        ``prints`` is the optional list of PR 4 content fingerprints
        aligned with ``cells`` (already computed by the caller when a
        cache is active) — backends that dispatch by fingerprint reuse
        them instead of re-hashing.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class SerialBackend(ExecutorBackend):
    """In-process execution, one cell at a time."""

    name = "serial"

    def run(self, cells, jobs, capture, prints=None):
        from repro.perf.pool import _execute

        return [_execute(cell, capture) for cell in cells]


class PersistentBackend(ExecutorBackend):
    """Warm-worker executor with work stealing (PR 10 tentpole)."""

    name = "persistent"

    def run(self, cells, jobs, capture, prints=None):
        from repro.perf.persistent import (StealScheduler,
                                           get_default_executor)

        executor = get_default_executor()
        gen, wids = executor.begin_sweep(cells, capture=capture,
                                         jobs=min(jobs, len(cells)))
        results: list = [None] * len(cells)
        pending = set(range(len(cells)))
        sched = StealScheduler(wids)
        sched.extend(range(len(cells)))
        idle = set(wids)
        inflight: dict[int, int] = {}  # wid -> cell index
        failures: dict[int, BaseException] = {}
        try:
            while pending:
                if not failures:
                    for wid in sorted(idle):
                        index = sched.next_for(wid)
                        if index is None:
                            break
                        fp = prints[index] if prints else ""
                        try:
                            executor.dispatch(wid, index, 0, fp)
                        except (KeyError, RuntimeError, OSError):
                            # the worker died between poll and
                            # dispatch; fail fast like any other death
                            pending.discard(index)
                            failures[index] = RuntimeError(
                                f"worker {wid} died before cell "
                                f"{index} could be dispatched")
                            idle.discard(wid)
                            continue
                        inflight[wid] = index
                        idle.discard(wid)
                if not inflight:
                    break  # failed cells drained; nothing left to reap
                for ev in executor.poll(0.05):
                    if ev.kind == "result":
                        index = inflight.pop(ev.wid, None)
                        idle.add(ev.wid)
                        if index is None or ev.index != index:
                            continue  # defensive: not ours
                        pending.discard(index)
                        if ev.ok:
                            results[index] = ev.payload
                        else:
                            failures[index] = ev.payload
                    elif ev.kind == "died":
                        index = inflight.pop(ev.wid, None)
                        idle.discard(ev.wid)
                        if index is not None:
                            pending.discard(index)
                            failures[index] = RuntimeError(
                                f"worker died (exit {ev.exitcode}) "
                                f"while running cell {index}")
        finally:
            executor.end_sweep()
        if pending and not failures:  # pragma: no cover - defensive
            raise RuntimeError(
                "persistent sweep stalled: workers were lost without "
                "delivering results")
        if failures:
            # fail fast like the serial path: the *earliest declared*
            # failing cell wins, so which worker finished first never
            # changes the raised error
            raise failures[min(failures)]
        return results


#: singleton registry — backends are stateless policy objects
BACKENDS: dict[str, ExecutorBackend] = {
    b.name: b for b in (SerialBackend(), PersistentBackend())
}

_default_backend: Optional[str] = None


def get_default_backend() -> Optional[str]:
    """The process-wide default backend name (``None`` = unset)."""
    return _default_backend


def set_default_backend(name: Optional[str]) -> None:
    """Install (or with ``None``/"auto" remove) the process default."""
    global _default_backend
    if name in (None, AUTO):
        _default_backend = None
        return
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}")
    _default_backend = name


def resolve_backend(spec=None) -> ExecutorBackend:
    """Resolve a backend: explicit > default > env > built-in.

    ``spec`` may be an :class:`ExecutorBackend` instance (used as is —
    the seam a multi-host dispatcher plugs into), a registry name, or
    ``None``/``"auto"`` to walk the default chain.
    """
    if isinstance(spec, ExecutorBackend):
        return spec
    name = spec if spec not in (None, AUTO) else None
    if name is None:
        name = get_default_backend()
    if name is None:
        env = os.environ.get(BACKEND_ENV, "").strip().lower()
        name = env or None
        if name == AUTO:
            name = None
    if name is None:
        name = "persistent"
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; choose from {sorted(BACKENDS)}"
        ) from None


def resolve_jobs(jobs) -> int:
    """Parse a job count, accepting ``"auto"`` = ``os.cpu_count()``."""
    if isinstance(jobs, str):
        if jobs.strip().lower() == AUTO:
            return os.cpu_count() or 1
        jobs = int(jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return jobs


__all__ = [
    "AUTO",
    "BACKENDS",
    "BACKEND_ENV",
    "ExecutorBackend",
    "PersistentBackend",
    "SerialBackend",
    "get_default_backend",
    "resolve_backend",
    "resolve_jobs",
    "set_default_backend",
]
