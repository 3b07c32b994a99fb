"""Parallel jobs and their per-node processes.

A :class:`Job` is one application instance: one :class:`JobProcess` per
node (SPMD), coupled by a barrier for parallel runs.  Each process
executes its workload's phase list against its node's VMM: fault the
phase's pages in, burn CPU (interruptible by the gang scheduler), and
synchronise at barrier phases.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

import numpy as np

from repro.cluster.mpi import Barrier
from repro.cluster.network import NetworkParams
from repro.cluster.node import Node
from repro.faults.errors import DiskFailure
from repro.gang.signals import ProcessControl
from repro.sim import fastpath as _fastpath
from repro.sim.engine import Environment, Event
from repro.sim.rng import RngStreams
from repro.workloads.base import Workload, expand_phase

#: most chunks one coalesced resident run may span (bounds the rollback
#: bookkeeping kept alive across a burst)
_MAX_RUN_CHUNKS = 256


class JobProcess:
    """One rank of a job, pinned to one node."""

    def __init__(
        self,
        job: "Job",
        rank: int,
        node: Node,
        workload: Workload,
        rng: np.random.Generator,
    ) -> None:
        self.job = job
        self.rank = rank
        self.node = node
        self.workload = workload
        self.rng = rng
        self.pid = job.jid
        self.control = ProcessControl(node.env, start_stopped=True)
        self.finished_at: Optional[float] = None
        node.vmm.register_process(self.pid, workload.footprint_pages)
        self.proc = node.env.process(self._run())
        self.control.bind(self.proc)

    def _run(self):
        env = self.node.env
        vmm = self.node.vmm
        barrier = self.job.barrier
        control = self.control
        phases = self.workload.phases(self.rng)
        # chunks pulled off the phase generator by the run builder's
        # lookahead but not yet executed (the workload's RNG stream is
        # private to this rank, so drawing phases early yields the same
        # sequence the per-chunk loop would see)
        pending: deque = deque()
        try:
            while True:
                if pending:
                    phase, pages, dirty = pending.popleft()
                else:
                    try:
                        phase = next(phases)
                    except StopIteration:
                        break
                    pages, dirty = expand_phase(phase)
                yield from control.wait_runnable()
                if _fastpath.ENABLED:
                    # one residency probe decides everything: a fully-
                    # resident chunk is consumed by _resident_run
                    # (batched or single-chunk), a faulting one falls
                    # straight through to the generator fault path
                    ran = yield from self._resident_run(
                        phase, pages, dirty, phases, pending
                    )
                    if ran:
                        continue
                if pages.size:
                    yield from vmm.touch(self.pid, pages, dirty)
                if phase.cpu_s > 0:
                    # a straggling node burns CPU slower this quantum
                    yield from control.cpu(
                        phase.cpu_s * self.node.slowdown
                    )
                if phase.barrier and barrier is not None:
                    yield from barrier.wait(self.rank, payload_s=phase.comm_s)
        except DiskFailure as exc:
            # Unrecoverable paging I/O (the device exhausted its retry
            # budget): this rank dies and takes the job with it, so the
            # rest of the schedule proceeds instead of deadlocking at
            # the gang's next barrier.
            self.job._rank_failed(self, exc)
            return
        self.finished_at = env.now
        # process exit: free memory and swap, drop estimator state
        vmm.unregister_process(self.pid)
        ap = self.node.adaptive
        ap.ws.forget(self.pid)
        if ap.recorder is not None:
            ap.recorder.clear(self.pid)
        self.job._rank_done(self)

    def _resident_run(self, phase, pages, dirty, phases, pending):
        """Process fragment: try to execute a coalesced resident run.

        Starting from ``(phase, pages, dirty)``, greedily accumulates
        consecutive fully-resident chunks and burns their summed CPU
        time in **one** timeout, then applies the page-reference stamps
        the per-chunk path would have written (same per-chunk start
        timestamps, one ``record_access_runs`` call).  Returns ``True``
        when the chunk was consumed, ``False`` when it is not fully
        resident (or oversized) — nothing touched, the caller falls back
        to the generator fault path.

        The chunk's residency is probed exactly once.  When batching is
        gated off (VMM busy, background writer active, or no room
        before a deadline) a fully-resident chunk is still executed
        here, immediately and un-deferred: reference stamp at the
        current time, the legacy CPU loop, the barrier — the per-chunk
        path's exact behaviour, since ``touch`` performs zero yields
        for a fully-resident chunk.

        Deferred stamping is only sound while no other process fragment
        can observe page state mid-run, so a run is attempted only when
        the VMM is quiescent and the background writer is off, and it
        must end strictly before both scheduler-published deadlines
        (background-writer arm time and quantum cap — the latter because
        a chunk starting after the quantum boundary re-reads the node
        slowdown in the per-chunk path).  A ``stop()`` landing mid-burst
        rolls the run back to the interrupt instant: chunks the
        per-chunk path would have started are stamped and charged
        (identical float expressions), the interrupted chunk's remainder
        is finished through the legacy CPU loop, and unstarted chunks
        are pushed back for the outer loop.
        """
        node = self.node
        vmm = node.vmm
        ap = node.adaptive
        env = node.env
        control = self.control
        barrier = self.job.barrier

        table = vmm.tables[self.pid]
        if pages.size:
            if (pages.size > vmm.params.total_frames
                    - vmm.params.freepages_high
                    or not table.present[pages].all()):
                # oversized chunks fall through so ``touch`` raises its
                # informative error exactly as the per-chunk path would
                return False

        t0 = env.now
        slowdown = node.slowdown
        d0 = phase.cpu_s * slowdown
        batch = vmm.fastpath_quiescent()
        if batch:
            bg = ap.bgwriter
            batch = bg is None or not bg.active
        if batch:
            deadline = ap.bg_arm_at if ap.bg_arm_at < ap.run_cap_at \
                else ap.run_cap_at
            t = t0 + d0
            batch = t < deadline
        if not batch:
            # single-chunk immediate path (always legacy-identical)
            if pages.size:
                table.record_access(pages, t0, dirty)
            if phase.cpu_s > 0:
                yield from control.cpu(phase.cpu_s * slowdown)
            if phase.barrier and barrier is not None:
                yield from barrier.wait(self.rank, payload_s=phase.comm_s)
            return True
        chunks = [(phase, pages, dirty)]
        starts = [t0]
        durs = [d0]
        # extend the run while the next chunk is fully resident and its
        # end stays strictly inside the deadline; a barrier chunk may
        # only close a run (the wait happens after the burst)
        if not (phase.barrier and barrier is not None):
            while len(chunks) < _MAX_RUN_CHUNKS:
                if not pending:
                    try:
                        p2 = next(phases)
                    except StopIteration:
                        break
                    pg2, dt2 = expand_phase(p2)
                    pending.append((p2, pg2, dt2))
                p2, pg2, dt2 = pending[0]
                d2 = p2.cpu_s * slowdown
                t2 = t + d2
                if not t2 < deadline:
                    break
                if pg2.size and not table.present[pg2].all():
                    break
                pending.popleft()
                chunks.append((p2, pg2, dt2))
                starts.append(t)
                durs.append(d2)
                t = t2
                if p2.barrier and barrier is not None:
                    break
        t_end = t

        t_int = None
        if t_end > t0:
            t_int = yield from control.cpu_until(t_end)

        if t_int is None:
            # run completed: charge and stamp every chunk exactly as
            # the per-chunk path would have (same floats, same order)
            for d in durs:
                if d > 0:
                    control.cpu_consumed_s += d
            runs = [(pg, starts[k], dt)
                    for k, (_p, pg, dt) in enumerate(chunks) if pg.size]
            if runs:
                table.record_access_runs(runs)
            last = chunks[-1][0]
            if last.barrier and barrier is not None:
                yield from barrier.wait(self.rank, payload_s=last.comm_s)
            return True

        # interrupted at t_int: the per-chunk path would have started
        # every chunk with start < t_int; at t_int == t0 it runs
        # synchronously through leading zero-CPU chunks and sleeps on
        # the first positive one (the URGENT interrupt beats the NORMAL
        # chunk timeout at equal times, so a chunk starting exactly at
        # t_int is never entered)
        if t_int == t0:
            j = 0
            while durs[j] == 0:
                j += 1
        else:
            j = len(chunks) - 1
            while starts[j] >= t_int:
                j -= 1
        runs = [(pg, starts[k], dt)
                for k, (_p, pg, dt) in enumerate(chunks[:j + 1])
                if pg.size]
        if runs:
            table.record_access_runs(runs)
        for k in range(j):
            if durs[k] > 0:
                control.cpu_consumed_s += durs[k]
        used = t_int - starts[j]
        control.cpu_consumed_s += used
        rem = durs[j] - used
        for k in range(len(chunks) - 1, j, -1):
            pending.appendleft(chunks[k])
        yield from control._cpu_loop(rem)
        pj = chunks[j][0]
        if pj.barrier and barrier is not None:
            yield from barrier.wait(self.rank, payload_s=pj.comm_s)
        return True


class Job:
    """A gang-scheduled application: one process per node."""

    _next_jid = 1

    def __init__(
        self,
        name: str,
        nodes: Sequence[Node],
        workloads: Sequence[Workload],
        rngs: RngStreams,
        network: Optional[NetworkParams] = None,
        jid: Optional[int] = None,
    ) -> None:
        if len(nodes) != len(workloads):
            raise ValueError("need exactly one workload per node")
        if not nodes:
            raise ValueError("job needs at least one node")
        envs = {n.env for n in nodes}
        if len(envs) != 1:
            raise ValueError("all nodes must share one environment")
        self.env: Environment = nodes[0].env
        self.name = name
        if jid is None:
            jid = Job._next_jid
            Job._next_jid += 1
        self.jid = jid
        self.nodes = list(nodes)
        self.barrier = (
            Barrier(self.env, len(nodes), network, name=f"{name}.barrier")
            if len(nodes) > 1
            else None
        )
        self.done: Event = self.env.event()
        self.completed_at: Optional[float] = None
        #: set when the job was evicted (node crash / rank I/O failure)
        self.failed = False
        self.failure: Optional[str] = None
        self.failed_at: Optional[float] = None
        self._remaining = len(nodes)
        self.processes = [
            JobProcess(self, rank, node, wl, rngs.stream(f"{name}.r{rank}"))
            for rank, (node, wl) in enumerate(zip(nodes, workloads))
        ]

    # -- gang control ------------------------------------------------------
    def stop(self) -> None:
        """SIGSTOP every rank."""
        for p in self.processes:
            p.control.stop()

    def cont(self) -> None:
        """SIGCONT every rank (a no-op once the job was evicted)."""
        if self.failed:
            return
        for p in self.processes:
            p.control.cont()

    def terminate(self, cause) -> None:
        """Evict the job: stop every rank and mark it failed.

        Used when a node dies or a rank hits a permanent I/O failure.
        Ranks blocked at the job's own barrier stay suspended forever
        (they hold no scheduled events, so they cannot stall the run);
        the ``done`` event fires so any waiting scheduler proceeds.
        """
        if self.finished:
            return
        self.failed = True
        self.failure = str(cause)
        self.failed_at = self.env.now
        self.stop()
        self.done.succeed(None)

    @property
    def finished(self) -> bool:
        """True once the job completed *or* was evicted."""
        return self.completed_at is not None or self.failed

    def process_on(self, node: Node) -> JobProcess:
        """The rank of this job running on ``node``."""
        for p in self.processes:
            if p.node is node:
                return p
        raise KeyError(f"{self.name} has no process on {node.name}")

    def _rank_done(self, proc: JobProcess) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self.failed:
            self.completed_at = self.env.now
            self.done.succeed(self.completed_at)

    def _rank_failed(self, proc: JobProcess, exc: BaseException) -> None:
        self.terminate(f"rank {proc.rank} on {proc.node.name}: {exc}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Job({self.name}, jid={self.jid}, nodes={len(self.nodes)})"


__all__ = ["Job", "JobProcess"]
