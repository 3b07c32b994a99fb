"""The paging disk: request queue, head model, service times.

Service model
-------------
A request names a set of swap slots and a direction (read/write).  The
slots are grouped into maximal consecutive runs; each run costs

* a **seek + rotational latency** unless the head is already positioned
  at the run's first slot (i.e. the run continues the previous transfer),
* plus ``pages * page_transfer_time``,
* plus a fixed per-request controller overhead.

This is deliberately the simplest model that exhibits the two effects
the paper's mechanisms exploit: (1) contiguous block transfers amortise
the arm movement, and (2) interleaved page-in/page-out bursts destroy
head locality and thrash the arm (paper §2, §4 Fig. 6).

Scheduling
----------
Requests queue by ``(priority, arrival)``.  Foreground page faults use
:data:`PRIO_FOREGROUND`; the paper's §3.4 background dirty-page writer
uses :data:`PRIO_BACKGROUND` so it never delays a foreground fault that
is already queued.  Service is non-preemptive.

Faults
------
With a :class:`~repro.faults.plan.FaultPlan` attached, each service
attempt may suffer a latency spike or a transient error.  Errors are
retried with exponential backoff up to ``max_retries`` per request,
bounded by an optional cumulative per-device ``retry_budget``; when
either is exhausted the request *fails* with a typed
:class:`~repro.faults.errors.DiskFailure` instead of silently hanging,
and whatever process awaited it sees the exception.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.faults.errors import DiskFailure
from repro.faults.plan import FaultPlan
from repro.obs.registry import NULL_OBS
from repro.sim import fastpath as _fastpath
from repro.sim.engine import NORMAL, Environment, Event

#: Queue priority for demand faults and switch-time paging bursts.
PRIO_FOREGROUND = 0
#: Queue priority for the background dirty-page writer (served only when
#: no foreground request is waiting).
PRIO_BACKGROUND = 10


def _run_positioning(
    slots: list, pos: int, same_op: bool, positioning_s: float, coef: float
) -> tuple[int, float]:
    """(seeks, positioning cost) of one request's sorted slot list.

    ``slots`` are plain ints, ``pos`` is the head position and
    ``same_op`` whether the head's last transfer had this request's
    direction.  A slot streams free of positioning cost if it exactly
    continues the previous transfer, so only the first slot of each
    maximal consecutive run can seek; a direction change (read->write
    or write->read) always seeks on the first run, since page-in and
    page-out streams target different areas/queues.  Costs add in run
    order.
    """
    seeks = 0
    positioning = 0.0
    for s in slots:
        if s != pos or not same_op:
            seeks += 1
            positioning += positioning_s
            if coef > 0.0:
                # math.sqrt is bitwise-identical to np.sqrt
                positioning += coef * math.sqrt(abs(s - pos))
        pos = s + 1
        same_op = True
    return seeks, positioning


@dataclass(frozen=True)
class DiskParams:
    """Latency/geometry parameters of the paging device.

    Defaults approximate a circa-2003 commodity IDE disk, matching the
    era of the paper's testbed (the absolute values only set the time
    scale; every reported result is a ratio).
    """

    #: average seek time, seconds
    seek_s: float = 0.008
    #: average rotational latency, seconds (half a revolution @7200rpm)
    rotational_s: float = 0.004
    #: sustained sequential transfer rate, bytes/second
    transfer_bytes_s: float = 20e6
    #: page (and swap-slot) size in bytes
    page_bytes: int = 4096
    #: fixed per-request controller/driver overhead, seconds
    overhead_s: float = 0.0005
    #: optional distance-dependent seek component: each positioning
    #: additionally costs ``coef * sqrt(|target - head|)`` seconds
    #: (the classic a + b*sqrt(d) arm model).  0 (the default) keeps the
    #: flat-seek model used by all paper experiments; the disk-scheduling
    #: extension sets it to study elevator disciplines.
    seek_distance_coef_s: float = 0.0

    def __post_init__(self) -> None:
        if min(self.seek_s, self.rotational_s, self.overhead_s,
               self.seek_distance_coef_s) < 0:
            raise ValueError("latencies must be non-negative")
        if self.transfer_bytes_s <= 0 or self.page_bytes <= 0:
            raise ValueError("rates and sizes must be positive")

    @property
    def page_transfer_s(self) -> float:
        """Time to stream one page once the head is positioned."""
        return self.page_bytes / self.transfer_bytes_s

    @property
    def positioning_s(self) -> float:
        """Seek plus rotational latency for one discontiguous run."""
        return self.seek_s + self.rotational_s


#: Disk of the paper's testbed era (c. 2001 commodity IDE under the
#: Linux 2.2 swap path): slower sustained transfer and a longer
#: effective seek than the :class:`DiskParams` defaults.  The
#: experiment harnesses use this so that paging costs occupy a
#: paper-like share of the five-minute quantum.
ERA_DISK = DiskParams(
    seek_s=0.012,
    rotational_s=0.004,
    transfer_bytes_s=10e6,
)


class DiskRequest(Event):
    """A queued transfer; fires (with the service time) when complete.

    Carries ``__slots__`` like every other event class: tens of
    thousands of requests per run make the per-instance dict a
    measurable allocation cost on the paging hot path.
    """

    __slots__ = (
        "disk", "slots", "op", "priority", "pid", "submitted_at",
        "cancelled", "_queued", "service_time", "seeks", "completed_at",
        "_extra_delay",
    )

    def __init__(
        self,
        disk: "Disk",
        slots: np.ndarray,
        op: str,
        priority: int,
        pid: Optional[int] = None,
    ) -> None:
        super().__init__(disk.env)
        if op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {op!r}")
        if slots.size == 0:
            raise ValueError("empty slot list")
        self.disk = disk
        self.slots = np.sort(np.asarray(slots, dtype=np.int64))
        self.op = op
        self.priority = priority
        self.pid = pid
        self.submitted_at = disk.env.now
        self.cancelled = False
        #: still sitting in the wait queue (kept by the disk's O(1)
        #: live-queue counter)
        self._queued = False
        #: filled in when serviced
        self.service_time: Optional[float] = None
        self.seeks: Optional[int] = None
        #: virtual time service finished (set on success; the fast path
        #: may deliver the completion to the waiter ``_extra_delay``
        #: later, so refault-window checks use this exact instant)
        self.completed_at: Optional[float] = None
        #: extra delay between service completion and the waiter seeing
        #: the trigger (the fused major-fault CPU charge); honoured only
        #: by the fast dispatcher
        self._extra_delay = 0.0

    @property
    def npages(self) -> int:
        return int(self.slots.size)

    def cancel(self) -> bool:
        """Withdraw the request if it has not begun service.

        Returns True if cancelled (the event then never fires), False if
        service already started or completed.
        """
        if self.triggered or self.cancelled:
            return False
        self.cancelled = True
        if self._queued:
            self._queued = False
            self.disk._live -= 1
        return True


class _EagerRequest:
    """Completed-transfer record for the batch-advance tier.

    The eager service path (:meth:`Disk.service_eager`,
    :meth:`Disk.commit_eager_run`) never enqueues or dispatches, so it
    does not need an :class:`~repro.sim.engine.Event`; this carries just
    the fields completion hooks and the VMM read back.  ``slots`` must
    already be sorted ascending (plan groups and eviction batches are).
    """

    __slots__ = (
        "slots", "op", "priority", "pid", "submitted_at",
        "service_time", "seeks", "completed_at",
    )

    def __init__(
        self,
        slots: np.ndarray,
        op: str,
        priority: int,
        pid: Optional[int],
        submitted_at: float,
    ) -> None:
        self.slots = slots
        self.op = op
        self.priority = priority
        self.pid = pid
        self.submitted_at = submitted_at
        self.service_time: Optional[float] = None
        self.seeks: Optional[int] = None
        self.completed_at: Optional[float] = None

    @property
    def npages(self) -> int:
        return int(self.slots.size)


class Disk:
    """A single paging device shared by everything on one node.

    Parameters
    ----------
    env:
        Simulation environment.
    params:
        Latency model parameters.
    on_complete:
        Optional callback ``f(request, start_time, end_time)`` invoked
        when each request finishes — the metrics collector hooks here.
    faults:
        Optional fault plan injecting transient errors / latency spikes
        into each service attempt (inert when ``None``).
    max_retries:
        Transient-error retries per request before the request fails
        with :class:`~repro.faults.errors.DiskFailure`.
    retry_budget:
        Optional cumulative retry allowance for the whole device; once
        spent, further errors fail immediately (``None`` = unlimited).
    """

    def __init__(
        self,
        env: Environment,
        params: DiskParams = DiskParams(),
        on_complete: Optional[Callable[[DiskRequest, float, float], None]] = None,
        name: str = "disk0",
        faults: Optional[FaultPlan] = None,
        max_retries: int = 4,
        retry_budget: Optional[int] = None,
        obs=NULL_OBS,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if retry_budget is not None and retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        self.env = env
        self.params = params
        self.name = name
        self.on_complete = on_complete
        #: optional run-aware observer ``f(op, sizes, starts, ends,
        #: pid)`` taking a whole eager run in one call; when set it
        #: replaces ``on_complete`` for bulk commits (the collector
        #: installs both)
        self.on_complete_run: Optional[Callable] = None
        self.faults = faults
        self.max_retries = max_retries
        self.retry_budget_left = retry_budget
        self._queue: list[tuple[int, int, DiskRequest]] = []
        self._seq = 0
        self._busy = False
        # live (non-cancelled) queued requests, maintained incrementally
        # so submit() does not rescan the heap
        self._live = 0
        #: slot just past the last one transferred (head position)
        self._head = 0
        #: direction of the last transfer, for interleave accounting
        self._last_op: Optional[str] = None
        # cumulative statistics
        self.total_busy_s = 0.0
        self.total_requests = 0
        self.total_pages = {"read": 0, "write": 0}
        self.total_seeks = 0
        #: deepest wait queue observed (including the request in service)
        self.max_queue_seen = 0
        # fault/response statistics
        self.error_count = 0
        self.retry_count = 0
        self.failed_requests = 0
        self.latency_spikes = 0
        # telemetry (no-ops against the default NULL_OBS registry)
        self._obs_on = obs.enabled
        self._c_requests = obs.counter("disk_requests", node=name)
        self._c_pages_read = obs.counter("disk_pages", node=name, op="read")
        self._c_pages_write = obs.counter("disk_pages", node=name, op="write")
        self._c_seeks = obs.counter("disk_seeks", node=name)
        self._c_errors = obs.counter("disk_errors", node=name)
        self._c_retries = obs.counter("disk_retries", node=name)
        self._c_failed = obs.counter("disk_failed_requests", node=name)
        self._c_spikes = obs.counter("disk_latency_spikes", node=name)
        self._h_service = obs.histogram("disk_service_s", node=name)

    # -- public API ----------------------------------------------------------
    def submit(
        self,
        slots: np.ndarray,
        op: str,
        priority: int = PRIO_FOREGROUND,
        pid: Optional[int] = None,
        extra_delay: float = 0.0,
    ) -> DiskRequest:
        """Queue a transfer of ``slots``; returns an awaitable request.

        ``extra_delay`` defers the waiter-visible completion trigger by
        that much *after* service finishes (the device itself frees at
        service completion).  The fault path uses it to fold the
        per-group major-fault CPU charge into the trigger instead of a
        separate timeout event; only the fast dispatcher honours it, so
        callers must pass 0 when the fast path is disabled.
        """
        req = DiskRequest(self, np.asarray(slots, dtype=np.int64), op, priority, pid)
        req._extra_delay = extra_delay
        if _fastpath.ENABLED and not self._busy and not self._queue:
            # idle disk, empty heap (an empty heap implies _live == 0):
            # the push/pop round trip the dispatcher would perform is a
            # no-op, so start service directly.  Depth accounting and
            # head/statistics updates are identical to the queued path.
            if self.max_queue_seen < 1:
                self.max_queue_seen = 1
            self._busy = True
            self._start_attempt(req, self.env.now, 0)
            return req
        req._queued = True
        self._live += 1
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (priority, seq, req))
        depth = self._live + (1 if self._busy else 0)
        if depth > self.max_queue_seen:
            self.max_queue_seen = depth
        if not self._busy:
            self._busy = True
            if _fastpath.ENABLED:
                self._dispatch_next()
            else:
                self.env.process(self._serve())
        return req

    @property
    def queue_length(self) -> int:
        """Live (non-cancelled) queued requests, excluding one in service."""
        return self._live

    @property
    def busy(self) -> bool:
        return self._busy

    def service_time(self, request: DiskRequest) -> tuple[float, int]:
        """Compute (duration, seeks) for ``request`` given head state."""
        return self.service_time_for(request.slots, request.op)

    def service_time_for(self, slots: np.ndarray, op: str) -> tuple[float, int]:
        """(duration, seeks) for a transfer of ``slots`` starting now.

        Pure function of the current head position / direction; used by
        the dispatcher, the batch-advance tier and directly
        unit-testable.  Runs once per disk request, so the run
        decomposition stays on plain Python ints — per-element numpy
        indexing here showed up in profiles.
        """
        params = self.params
        coef = params.seek_distance_coef_s
        first = int(slots[0])
        last = int(slots[-1])
        if last - first == slots.size - 1:
            # single contiguous run — the dominant case for swap-cluster
            # writes and block page-ins (slots are sorted and unique, so
            # span == size-1 implies consecutive).  Computed without the
            # run walk: one compare decides whether the head streams
            # straight into this transfer.
            pos = self._head
            if first == pos and self._last_op == op:
                seeks = 0
                positioning = 0.0
            else:
                seeks = 1
                positioning = params.positioning_s
                if coef > 0.0:
                    positioning += coef * math.sqrt(abs(first - pos))
            return (
                params.overhead_s
                + positioning
                + slots.size * params.page_transfer_s
            ), seeks

        seeks, positioning = _run_positioning(
            slots.tolist(), self._head, self._last_op == op,
            params.positioning_s, coef,
        )
        duration = (
            params.overhead_s
            + positioning
            + slots.size * params.page_transfer_s
        )
        return duration, seeks

    # -- dispatcher --------------------------------------------------------
    def _service_one(self, req: DiskRequest):
        """Process fragment: position, transfer and complete ``req``.

        Each attempt may be hit by an injected latency spike or
        transient error; errors retry with exponential backoff until
        ``max_retries`` (or the device-wide retry budget) is exhausted,
        at which point the request fails with :class:`DiskFailure`.
        """
        start = self.env.now
        attempt = 0
        while True:
            duration, seeks = self.service_time(req)
            if self.faults is not None:
                spike = self.faults.disk_latency_factor(self.name)
                if spike > 1.0:
                    self.latency_spikes += 1
                    self._c_spikes.inc()
                    duration *= spike
            yield self.env.timeout(duration)
            self.total_busy_s += duration
            if self.faults is not None and self.faults.disk_error(self.name):
                self.error_count += 1
                self._c_errors.inc()
                budget_out = self.retry_budget_left == 0
                if attempt >= self.max_retries or budget_out:
                    self.failed_requests += 1
                    self._c_failed.inc()
                    why = ("device retry budget exhausted" if budget_out
                           else f"failed after {attempt} retries")
                    req.fail(DiskFailure(
                        f"{self.name}: {req.op} of {req.npages} pages {why}"
                    ))
                    return
                if self.retry_budget_left is not None:
                    self.retry_budget_left -= 1
                attempt += 1
                self.retry_count += 1
                self._c_retries.inc()
                yield self.env.timeout(
                    self.params.positioning_s * (2 ** attempt)
                )
                continue
            break
        # update head state
        self._head = int(req.slots[-1]) + 1
        self._last_op = req.op
        # statistics
        npages = req.npages
        self.total_requests += 1
        self.total_pages[req.op] += npages
        self.total_seeks += seeks
        if self._obs_on:
            self._c_requests.inc()
            (self._c_pages_read if req.op == "read"
             else self._c_pages_write).inc(npages)
            self._c_seeks.inc(seeks)
            self._h_service.observe(duration)
        req.service_time = duration
        req.seeks = seeks
        req.completed_at = self.env.now
        extra = req._extra_delay
        if extra > 0.0:
            # deferred trigger (see submit): the device frees now, the
            # waiter wakes `extra` later
            req._ok = True
            req._value = duration
            self.env._schedule(req, NORMAL, extra)
        else:
            req.succeed(duration)
        if self.on_complete is not None:
            self.on_complete(req, start, self.env.now)

    def _serve(self):
        while self._queue:
            _, _, req = heapq.heappop(self._queue)
            if req.cancelled:
                continue  # its _live slot was returned by cancel()
            req._queued = False
            self._live -= 1
            yield from self._service_one(req)
        self._busy = False

    # -- fast dispatcher ---------------------------------------------------
    # A callback-chained rewrite of _serve/_service_one, used when the
    # steady-state fast path is on.  Per request it schedules exactly one
    # service Timeout (whose callback performs the completion) instead of
    # spinning up a coroutine process per idle-disk submit — removing the
    # Initialize and process-termination events while computing the same
    # service times, head state, statistics and fault (RNG) draws in the
    # same order.  Simulated timing is bit-for-bit identical; only
    # events_processed drops.

    def _dispatch_next(self) -> None:
        queue = self._queue
        while queue:
            _, _, req = heapq.heappop(queue)
            if req.cancelled:
                continue  # its _live slot was returned by cancel()
            req._queued = False
            self._live -= 1
            self._start_attempt(req, self.env.now, 0)
            return
        self._busy = False

    def _start_attempt(self, req: DiskRequest, start: float,
                       attempt: int) -> None:
        duration, seeks = self.service_time(req)
        if self.faults is not None:
            spike = self.faults.disk_latency_factor(self.name)
            if spike > 1.0:
                self.latency_spikes += 1
                self._c_spikes.inc()
                duration *= spike
        # bare pre-triggered event scheduled `duration` out: what
        # Timeout() builds, minus the subclass ceremony — this runs once
        # per disk request, the single most allocated event of a
        # paging-heavy run
        ev = Event(self.env)
        ev._value = None
        self.env._schedule(ev, NORMAL, duration)
        ev.callbacks.append(
            lambda _e, req=req, start=start, attempt=attempt,
            duration=duration, seeks=seeks:
            self._finish_attempt(req, start, attempt, duration, seeks)
        )

    def _finish_attempt(self, req: DiskRequest, start: float, attempt: int,
                        duration: float, seeks: int) -> None:
        self.total_busy_s += duration
        if self.faults is not None and self.faults.disk_error(self.name):
            self.error_count += 1
            self._c_errors.inc()
            budget_out = self.retry_budget_left == 0
            if attempt >= self.max_retries or budget_out:
                self.failed_requests += 1
                self._c_failed.inc()
                why = ("device retry budget exhausted" if budget_out
                       else f"failed after {attempt} retries")
                req.fail(DiskFailure(
                    f"{self.name}: {req.op} of {req.npages} pages {why}"
                ))
                self._dispatch_next()
                return
            if self.retry_budget_left is not None:
                self.retry_budget_left -= 1
            attempt += 1
            self.retry_count += 1
            self._c_retries.inc()
            backoff = self.env.timeout(
                self.params.positioning_s * (2 ** attempt)
            )
            backoff.callbacks.append(
                lambda _e, req=req, start=start, attempt=attempt:
                self._start_attempt(req, start, attempt)
            )
            return
        # update head state
        self._head = int(req.slots[-1]) + 1
        self._last_op = req.op
        # statistics
        npages = req.npages
        self.total_requests += 1
        self.total_pages[req.op] += npages
        self.total_seeks += seeks
        if self._obs_on:
            self._c_requests.inc()
            (self._c_pages_read if req.op == "read"
             else self._c_pages_write).inc(npages)
            self._c_seeks.inc(seeks)
            self._h_service.observe(duration)
        req.service_time = duration
        req.seeks = seeks
        req.completed_at = self.env.now
        extra = req._extra_delay
        if extra > 0.0:
            # fused major-fault CPU charge: trigger fires `extra` later,
            # but the device frees (and the next request starts) now
            req._ok = True
            req._value = duration
            self.env._schedule(req, NORMAL, extra)
        else:
            req.succeed(duration)
        if self.on_complete is not None:
            self.on_complete(req, start, self.env.now)
        self._dispatch_next()

    # -- batch-advance (eager) service -------------------------------------
    # Used by the batch-advance tier (repro.sim.fastpath.BATCH_ENABLED):
    # while the VMM holds a quiescence proof for the node (idle disk, no
    # competing demand, deadline slack, no fault plan), requests are
    # serviced synchronously under a caller-maintained local clock.
    # Every head-model computation, statistic, telemetry update and
    # completion-hook timestamp matches what the dispatcher would have
    # produced at the same virtual times; the service/trigger events that
    # would have existed are tallied on ``env.events_absorbed``.

    def eager_ready(self) -> bool:
        """Whether the batch-advance tier may bypass the dispatcher.

        Requires an idle device with an empty queue (so eager service
        cannot reorder against queued work), no fault plan (injection
        points are interaction boundaries), FIFO discipline (the
        elevator disciplines queue through their own pending list), and
        the flat-seek model (the reclaim-bound arithmetic in the VMM
        assumes one ``positioning_s`` upper-bounds any seek).
        """
        return (
            not self._busy
            and not self._queue
            and self.faults is None
            and getattr(self, "discipline", "fifo") == "fifo"
            and self.params.seek_distance_coef_s == 0.0
        )

    def service_eager(
        self,
        slots: np.ndarray,
        op: str,
        t: float,
        priority: int = PRIO_FOREGROUND,
        pid: Optional[int] = None,
    ) -> _EagerRequest:
        """Service one transfer synchronously, starting at local time ``t``.

        Mirrors ``_start_attempt`` + ``_finish_attempt`` for a
        fault-free device: same service-time arithmetic against the
        current head state, same statistics, and the completion hook
        fires with the exact (start, end) window the dispatcher would
        have used.  Absorbs the service timeout and completion trigger
        (two events).
        """
        slots = np.sort(np.asarray(slots, dtype=np.int64))
        req = _EagerRequest(slots, op, priority, pid, t)
        duration, seeks = self.service_time_for(slots, op)
        if self.max_queue_seen < 1:
            self.max_queue_seen = 1
        self.total_busy_s += duration
        self._head = int(slots[-1]) + 1
        self._last_op = op
        npages = req.npages
        self.total_requests += 1
        self.total_pages[op] += npages
        self.total_seeks += seeks
        if self._obs_on:
            self._c_requests.inc()
            (self._c_pages_read if op == "read"
             else self._c_pages_write).inc(npages)
            self._c_seeks.inc(seeks)
            self._h_service.observe(duration)
        req.service_time = duration
        req.seeks = seeks
        completed = t + duration
        req.completed_at = completed
        self.env.events_absorbed += 2
        if self.on_complete is not None:
            self.on_complete(req, t, completed)
        return req

    def eager_run_times(
        self, firsts: np.ndarray, sizes: np.ndarray, op: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Head-model (durations, seeks) for back-to-back contiguous runs.

        Vectorized equivalent of calling :meth:`service_time_for` once
        per group with the head advancing in between: group ``i``
        streams free of positioning cost iff it starts exactly where
        group ``i-1`` ended (group 0 compares against the current head
        position *and* last direction).  Only valid under
        :meth:`eager_ready` (flat-seek model) and for single-run groups.
        """
        params = self.params
        pos = np.empty(firsts.size, dtype=np.int64)
        pos[0] = self._head
        if firsts.size > 1:
            np.add(firsts[:-1], sizes[:-1], out=pos[1:])
        continues = firsts == pos
        if self._last_op != op:
            continues[0] = False
        seeks = np.where(continues, 0, 1)
        positioning = np.where(continues, 0.0, params.positioning_s)
        durations = (
            (params.overhead_s + positioning)
            + sizes * params.page_transfer_s
        )
        return durations, seeks

    def eager_times_list(
        self, slots_list: list, op: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """Head-model (durations, seeks) for back-to-back transfers of
        arbitrary shape.

        General-shape companion of :meth:`eager_run_times`: each entry
        of ``slots_list`` is one request's *sorted* slot array,
        serviced in order with the head advancing in between.
        Discontiguous slot sets pay the same per-run positioning walk
        as :meth:`service_time_for`.  Flat-seek model only — valid
        under :meth:`eager_ready`.
        """
        params = self.params
        n = len(slots_list)
        durations = np.empty(n)
        seeks = np.empty(n, dtype=np.int64)
        head = self._head
        last_same = self._last_op == op
        for i, slots in enumerate(slots_list):
            sk, positioning = _run_positioning(
                slots.tolist(), head, last_same, params.positioning_s,
                params.seek_distance_coef_s,
            )
            durations[i] = (
                params.overhead_s
                + positioning
                + slots.size * params.page_transfer_s
            )
            seeks[i] = sk
            head = int(slots[-1]) + 1
            last_same = True
        return durations, seeks

    def commit_eager_run(
        self,
        slots_list: list,
        sizes: np.ndarray,
        durations: np.ndarray,
        seeks: np.ndarray,
        starts: np.ndarray,
        completions: np.ndarray,
        op: str,
        priority: int = PRIO_FOREGROUND,
        pid: Optional[int] = None,
    ) -> None:
        """Apply the bookkeeping of a whole eager run in one pass.

        ``starts``/``completions`` are the per-group service windows the
        caller derived from :meth:`eager_run_times` (waiter-visible
        fused CPU charges excluded — the device frees at service
        completion, exactly as the dispatcher's deferred trigger does).
        """
        n = len(slots_list)
        if self.max_queue_seen < 1:
            self.max_queue_seen = 1
        # strict left-fold accumulation: bit-identical to n scalar adds
        self.total_busy_s = float(np.add.accumulate(
            np.concatenate(([self.total_busy_s], durations)))[-1])
        last = slots_list[-1]
        self._head = int(last[-1]) + 1
        self._last_op = op
        npages = int(sizes.sum())
        nseeks = int(seeks.sum())
        self.total_requests += n
        self.total_pages[op] += npages
        self.total_seeks += nseeks
        if self._obs_on:
            self._c_requests.inc(n)
            (self._c_pages_read if op == "read"
             else self._c_pages_write).inc(npages)
            self._c_seeks.inc(nseeks)
            self._h_service.observe_many(durations)
        self.env.events_absorbed += 2 * n
        run_hook = self.on_complete_run
        if run_hook is not None:
            # run-aware observer: one call for the whole run (the
            # per-request facts it needs, without request objects)
            run_hook(op, sizes.tolist(), starts.tolist(),
                     completions.tolist(), pid)
            return
        hook = self.on_complete
        if hook is not None:
            st = durations.tolist()
            sk = seeks.tolist()
            t0 = starts.tolist()
            t1 = completions.tolist()
            for i in range(n):
                req = _EagerRequest(slots_list[i], op, priority, pid, t0[i])
                req.service_time = st[i]
                req.seeks = sk[i]
                req.completed_at = t1[i]
                hook(req, t0[i], t1[i])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Disk({self.name}, queued={self.queue_length}, busy={self._busy}, "
            f"served={self.total_requests})"
        )


__all__ = [
    "Disk",
    "DiskParams",
    "DiskRequest",
    "ERA_DISK",
    "PRIO_BACKGROUND",
    "PRIO_FOREGROUND",
]
