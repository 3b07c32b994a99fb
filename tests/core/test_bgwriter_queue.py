"""The background writer's oldest-first queue against a fresh sort.

Every burst the writer submits must equal what a full rescan of the page
table would pick at that moment: the ``batch_pages`` dirty resident
pages with the smallest ``(last_ref, page)``, ascending.  The property
test drives random interleavings of every ``PageTable`` mutator with
the running writer — some land while a burst's write is in flight — and
checks each burst as it is submitted.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import BackgroundWriter
from repro.disk import Disk, DiskParams
from repro.experiments.runner import GangConfig, run_experiment
from repro.faults import FaultPlan, FaultRates
from repro.mem import MemoryParams, VirtualMemoryManager
from repro.mem.index import index_enabled, set_index_enabled
from repro.mem.page_table import PageTable
from repro.obs import Registry
from repro.sim import Environment

NUM_PAGES = 48
BATCH = 6


def fresh_burst(table, n):
    """The burst a full rescan picks: oldest ``n`` dirty resident pages."""
    dirty = np.flatnonzero(
        table.present & (table.dirty | (table.swap_slot < 0))
    )
    return np.sort(dirty[np.argsort(table.last_ref[dirty], kind="stable")][:n])


class Mutator:
    """Applies one named ``PageTable`` mutation the way the VMM would:
    frames and swap slots stay accounted, pinned pages are not evicted."""

    def __init__(self, vmm, pid):
        self.vmm = vmm
        self.pid = pid
        self.table = vmm.tables[pid]
        self.pins = []

    def _pick(self, pages, mask):
        pages = np.unique(np.asarray(pages, dtype=np.int64))
        return pages[mask[pages]]

    def _give_slots(self, pages):
        no_slot = pages[self.table.swap_slot[pages] < 0]
        if no_slot.size:
            self.table.assign_slots(no_slot, self.vmm.swap.allocate(no_slot.size))

    def apply(self, op, pages, t):
        vmm, table = self.vmm, self.table
        resident = self._pick(pages, table.present)
        if op == "touch":  # re-dirties queued and already-cleaned pages
            table.record_access(resident, t, dirty=(resident % 2 == t % 2))
        elif op == "touch_runs":
            k = resident.size // 2
            table.record_access_runs(
                [(resident[:k], float(t), True),
                 (resident[k:], float(t + 1), False)])
        elif op == "stamp":
            table.set_last_ref(resident, float(t))
        elif op == "stamp_values":
            table.set_last_ref_values(
                resident, (t - np.arange(resident.size) % 3).astype(float))
        elif op == "fault_in":  # pages without a slot fault in zero-filled
            absent = self._pick(pages, ~table.present)
            vmm.frames.allocate(absent.size)
            table.make_resident(absent)  # "stamp" is a step of its own
        elif op == "evict":
            victims = resident[vmm._demand_counts[self.pid][resident] == 0]
            self._give_slots(victims)
            table.mark_clean(victims)
            table.evict(victims)
            vmm.frames.release(victims.size)
        elif op == "mark_clean":
            table.mark_clean(resident)
        elif op == "assign_slots":
            self._give_slots(resident)
        elif op == "release_slots":
            with_slot = resident[table.swap_slot[resident] >= 0]
            vmm.swap.free(table.release_slots(with_slot))
        elif op == "clear_referenced":
            table.clear_referenced(resident)
        elif op == "pin":  # an in-flight fault's demand set
            entry = (self.pid, resident)
            vmm._add_demand(entry)
            self.pins.append(entry)
        elif op == "unpin":
            if self.pins:
                vmm._remove_demand(self.pins.pop(0))
        else:
            raise AssertionError(op)

    def unpin_all(self):
        while self.pins:
            self.vmm._remove_demand(self.pins.pop())


OPS = ("touch", "touch_runs", "stamp", "stamp_values", "fault_in", "evict",
       "mark_clean", "assign_slots", "release_slots", "clear_referenced",
       "pin", "unpin", "probe")

steps = st.lists(
    st.tuples(
        st.sampled_from(OPS),
        st.lists(st.integers(0, NUM_PAGES - 1), min_size=1, max_size=12),
        st.integers(0, 5),  # few distinct stamps: many last_ref ties
        # 0 and 1 ms land inside a burst's write; 0.5 s outlasts a poll
        st.sampled_from([0.0, 0.001, 0.004, 0.02, 0.5]),
    ),
    max_size=40,
)


def make_node():
    env = Environment()
    vmm = VirtualMemoryManager(
        env, MemoryParams(total_frames=2 * NUM_PAGES), Disk(env, DiskParams())
    )
    vmm.register_process(1, NUM_PAGES)
    return env, vmm


def record_bursts(vmm, mut):
    """Spy on the writer's bursts: (submitted pages, fresh-scan pick).

    Pins last until the end of the burst they land in.  A burst whose
    every page is pinned writes nothing and takes no simulated time, so
    a pin that outlived it would spin the writer at one instant.
    """
    seen = []
    submit = vmm.evict_batch

    def spy(batch, **kw):
        seen.append((batch.pages.copy(), fresh_burst(mut.table, BATCH)))
        yield from submit(batch, **kw)
        mut.unpin_all()

    vmm.evict_batch = spy
    return seen


@pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "scan"])
@settings(max_examples=40, deadline=None)
@given(script=steps)
def test_every_burst_equals_a_fresh_stable_argsort(indexed, script):
    prev = index_enabled()
    set_index_enabled(indexed)
    try:
        env, vmm = make_node()
        table = vmm.tables[1]
        mut = Mutator(vmm, 1)
        # a dirty working set with tied stamps so the first bursts have work
        mut.apply("fault_in", np.arange(0, NUM_PAGES, 2), 0)
        mut.apply("touch", np.arange(0, NUM_PAGES, 2), 2)
        seen = record_bursts(vmm, mut)
        bw = BackgroundWriter(vmm, batch_pages=BATCH, poll_s=0.003)
        bw.start(1)
        probes = []

        def mutate():
            for op, pages, t, dt in script:
                if op == "probe":
                    probes.append((bw._dirty_left(),
                                   fresh_burst(table, 1).size > 0))
                else:
                    mut.apply(op, pages, t)
                yield env.timeout(dt)
            mut.unpin_all()

        env.run(until=env.process(mutate()))
        env.run(until=env.now + 0.1)
        bw.stop()
        env.run(until=env.now + 0.1)

        assert seen, "the writer submitted no burst"
        for got, want in seen:
            np.testing.assert_array_equal(got, want)
        for got, want in probes:
            assert got == want
        assert not bw.active and bw._queue is None
        vmm.check_invariants()
    finally:
        set_index_enabled(prev)


# ---------------------------------------------------------------------------
# lifetime: an idle writer pins no queue and no page table
# ---------------------------------------------------------------------------

def started_writer(**disk_kw):
    env = Environment()
    disk = Disk(env, DiskParams(), **disk_kw)
    vmm = VirtualMemoryManager(env, MemoryParams(total_frames=256), disk)
    vmm.register_process(1, 256)
    fill = env.process(vmm.touch(1, np.arange(200), dirty=True))
    env.run(until=fill)
    bw = BackgroundWriter(vmm, batch_pages=16, poll_s=0.1)
    bw.start(1)
    env.run(until=env.now + 1e-6)  # the first burst is in flight
    assert bw._queue is not None
    return env, vmm, bw, weakref.ref(bw._queue)


def test_stop_drops_the_queue():
    env, vmm, bw, queue = started_writer()
    bw.stop()
    assert bw._queue is None
    env.run(until=env.now + 1.0)  # the interrupt lands mid-write
    gc.collect()
    assert queue() is None


def test_process_exit_drops_the_queue_and_the_table():
    env, vmm, bw, queue = started_writer()
    table = weakref.ref(vmm.tables[1])
    vmm.unregister_process(1)
    env.run(until=env.now + 1.0)
    assert not bw.active and bw._queue is None
    gc.collect()
    assert queue() is None and table() is None


def test_failed_write_drops_the_queue():
    env, vmm, bw, queue = started_writer(max_retries=0)
    vmm.disk.faults = FaultPlan(FaultRates(disk_error_rate=1.0))
    env.run(until=env.now + 1.0)
    assert bw.write_failures >= 1 and not bw.active
    assert bw._queue is None
    gc.collect()
    assert queue() is None


# ---------------------------------------------------------------------------
# bg_deadline_misses answered from the queue
# ---------------------------------------------------------------------------

def test_stop_counts_a_miss_only_while_dirty_pages_are_left():
    """A drained queue answers "none left" while it is current; once it
    is stale, pages it never held must still count."""
    env = Environment()
    vmm = VirtualMemoryManager(
        env, MemoryParams(total_frames=256), Disk(env, DiskParams())
    )
    vmm.register_process(1, 256)
    env.run(until=env.process(vmm.touch(1, np.arange(32), dirty=True)))
    reg = Registry()
    bw = BackgroundWriter(vmm, batch_pages=16, poll_s=0.5, obs=reg)
    bw.start(1)
    env.run(until=env.now + 5.0)  # everything written; the writer polls
    bw.stop()
    assert reg.value("bg_deadline_misses") == 0
    bw.start(1)
    env.run(until=env.now + 5.0)
    # fresh zero-filled pages the drained queue never held
    env.run(until=env.process(vmm.touch(1, np.arange(40, 48), dirty=True)))
    bw.stop()
    assert reg.value("bg_deadline_misses") == 1


def test_deadline_misses_match_a_full_scan_on_fig6(monkeypatch):
    """The fig6 ``so/ao/bg`` cell counts the misses a full scan of the
    page table at every stop would count, mostly without that scan."""
    scans, fallbacks = [], []
    stop = BackgroundWriter.stop
    scan = PageTable.dirty_resident_pages

    def checked_stop(self):
        if self.active:
            table = self.vmm.tables.get(self.pid)
            scans.append(table is not None and fresh_burst(table, 1).size > 0)
        stop(self)

    def counted_scan(self):
        fallbacks.append(self.pid)
        return scan(self)

    monkeypatch.setattr(BackgroundWriter, "stop", checked_stop)
    monkeypatch.setattr(PageTable, "dirty_resident_pages", counted_scan)
    reg = Registry()
    run_experiment(GangConfig("LU", "C", nprocs=4, policy="so/ao/bg",
                              seed=1, scale=0.1), obs=reg)
    assert any(scans)
    assert reg.value("bg_deadline_misses") == sum(scans)
    assert len(fallbacks) < len(scans)
