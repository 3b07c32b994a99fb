"""Unit tests for the disk device service model and dispatcher."""

import numpy as np
import pytest

from repro.disk import (
    PRIO_BACKGROUND,
    PRIO_FOREGROUND,
    Disk,
    DiskParams,
    DiskRequest,
)
from repro.sim import Environment, fastpath

P = DiskParams()  # defaults: seek 8 ms, rot 4 ms, 20 MB/s, 4 KiB pages


def make_disk(env=None, **kw):
    env = env or Environment()
    return env, Disk(env, DiskParams(**kw) if kw else P)


def run_one(disk, env, slots, op="read", priority=PRIO_FOREGROUND):
    req = disk.submit(np.asarray(slots), op, priority)
    env.run(until=req)
    return req


def test_params_validation():
    with pytest.raises(ValueError):
        DiskParams(seek_s=-1)
    with pytest.raises(ValueError):
        DiskParams(transfer_bytes_s=0)


def test_page_transfer_time():
    assert P.page_transfer_s == pytest.approx(4096 / 20e6)


def test_single_page_read_cost():
    env, disk = make_disk()
    req = run_one(disk, env, [100])
    expected = P.overhead_s + P.positioning_s + P.page_transfer_s
    assert req.service_time == pytest.approx(expected)
    assert req.seeks == 1


def test_contiguous_run_costs_one_seek():
    env, disk = make_disk()
    req = run_one(disk, env, np.arange(100, 164))
    expected = P.overhead_s + P.positioning_s + 64 * P.page_transfer_s
    assert req.service_time == pytest.approx(expected)
    assert req.seeks == 1


def test_scattered_slots_cost_many_seeks():
    env, disk = make_disk()
    slots = np.array([10, 20, 30, 40])
    req = run_one(disk, env, slots)
    assert req.seeks == 4
    expected = P.overhead_s + 4 * P.positioning_s + 4 * P.page_transfer_s
    assert req.service_time == pytest.approx(expected)


def test_sequential_streaming_skips_seek():
    """A request continuing exactly where the last one ended is seekless."""
    env, disk = make_disk()
    run_one(disk, env, np.arange(0, 16))
    req2 = run_one(disk, env, np.arange(16, 32))
    assert req2.seeks == 0
    assert req2.service_time == pytest.approx(
        P.overhead_s + 16 * P.page_transfer_s
    )


def test_direction_change_forces_seek():
    """read -> write at the adjacent slot still seeks (different areas)."""
    env, disk = make_disk()
    run_one(disk, env, np.arange(0, 16), op="read")
    req2 = run_one(disk, env, np.arange(16, 32), op="write")
    assert req2.seeks == 1


def test_non_adjacent_followup_seeks():
    env, disk = make_disk()
    run_one(disk, env, np.arange(0, 16))
    req2 = run_one(disk, env, np.arange(100, 116))
    assert req2.seeks == 1


def test_interleaved_read_write_pay_double():
    """Alternating read/write bursts cost more than separated bursts —
    the effect aggressive page-out exploits (paper §3.2)."""
    def total_time(ops):
        env = Environment()
        disk = Disk(env, P)
        reqs = []
        for op, slots in ops:
            reqs.append(disk.submit(slots, op))
        env.run()
        return env.now

    reads = [("read", np.arange(i * 16, i * 16 + 16)) for i in range(8)]
    writes = [("write", np.arange(1000 + i * 16, 1000 + i * 16 + 16)) for i in range(8)]
    interleaved = [x for pair in zip(reads, writes) for x in pair]
    separated = writes + reads
    assert total_time(interleaved) > total_time(separated)


def test_fifo_service_within_priority():
    env, disk = make_disk()
    order = []
    reqs = [disk.submit(np.array([i * 50]), "read") for i in range(3)]
    for i, r in enumerate(reqs):
        r.callbacks.append(lambda ev, i=i: order.append(i))
    env.run()
    assert order == [0, 1, 2]


def test_background_request_yields_to_foreground():
    env, disk = make_disk()
    order = []
    # first request occupies the disk; then queue a background and a
    # foreground request — the foreground one must be served first.
    first = disk.submit(np.arange(0, 64), "read", PRIO_FOREGROUND)
    bg = disk.submit(np.array([500]), "write", PRIO_BACKGROUND)
    fg = disk.submit(np.array([600]), "read", PRIO_FOREGROUND)
    bg.callbacks.append(lambda ev: order.append("bg"))
    fg.callbacks.append(lambda ev: order.append("fg"))
    env.run()
    assert order == ["fg", "bg"]


def test_cancel_pending_request():
    env, disk = make_disk()
    first = disk.submit(np.arange(0, 64), "read")
    doomed = disk.submit(np.array([100]), "read")
    assert doomed.cancel()
    env.run()
    assert not doomed.triggered
    assert disk.total_requests == 1


def test_cancel_after_service_returns_false():
    env, disk = make_disk()
    req = run_one(disk, env, [5])
    assert not req.cancel()


def test_statistics_accumulate():
    env, disk = make_disk()
    run_one(disk, env, np.arange(0, 10), op="read")
    run_one(disk, env, np.arange(50, 55), op="write")
    assert disk.total_requests == 2
    assert disk.total_pages == {"read": 10, "write": 5}
    assert disk.total_busy_s == pytest.approx(env.now)


def test_on_complete_callback_fires():
    env = Environment()
    events = []
    disk = Disk(env, P, on_complete=lambda req, s, e: events.append((req.op, req.npages, s, e)))
    run_one(disk, env, np.arange(0, 4), op="write")
    assert len(events) == 1
    op, npages, start, end = events[0]
    assert (op, npages, start) == ("write", 4, 0.0)
    assert end == pytest.approx(env.now)


def test_empty_request_rejected():
    env, disk = make_disk()
    with pytest.raises(ValueError):
        disk.submit(np.array([], dtype=np.int64), "read")


def test_bad_op_rejected():
    env, disk = make_disk()
    with pytest.raises(ValueError):
        disk.submit(np.array([1]), "erase")


def test_slots_are_sorted_for_service():
    env, disk = make_disk()
    req = run_one(disk, env, np.array([30, 10, 20, 11, 21, 31]))
    # sorted -> [10,11,20,21,30,31] = 3 runs
    assert req.seeks == 3


def test_block_transfer_beats_scattered_per_page():
    """Core premise: per-page cost of one big contiguous transfer is far
    below per-page cost of scattered single-page I/Os."""
    env, disk = make_disk()
    block = run_one(disk, env, np.arange(0, 256))
    env2, disk2 = make_disk()
    total = 0.0
    for i in range(0, 256 * 7, 7):  # scattered singles
        r = run_one(disk2, env2, [i])
        total += r.service_time
    assert block.service_time < total / 10


def test_queue_length_tracks():
    env, disk = make_disk()
    disk.submit(np.arange(0, 64), "read")
    disk.submit(np.array([1000]), "read")
    disk.submit(np.array([2000]), "read")
    # the fast dispatcher pops the first request synchronously at submit;
    # the legacy coroutine server only starts at the next engine step
    assert disk.queue_length == (2 if fastpath.ENABLED else 3)
    assert disk.busy
    env.run()
    assert disk.queue_length == 0
    assert not disk.busy


@pytest.mark.parametrize("prior, op, slots_list", [
    # contiguous sets; the head already sits at the first slot
    ((np.arange(0, 10), "read"), "read",
     [np.arange(10, 18), np.arange(18, 26), np.arange(40, 48)]),
    # gapped sets after a write: the first run changes direction
    ((np.arange(0, 5), "write"), "read",
     [np.array([5, 6, 9, 10, 11, 30]), np.array([31, 33]),
      np.array([100])]),
    # gapped sets streaming on from the head in the same direction
    ((np.arange(0, 5), "write"), "write",
     [np.array([5, 6, 9]), np.array([10, 12, 13]), np.array([14])]),
    # fresh disk, no prior transfer
    (None, "write", [np.array([0, 2, 4]), np.arange(5, 9)]),
], ids=["contiguous-at-head", "gapped-direction-change", "gapped-streaming",
        "fresh-disk"])
def test_eager_times_list_equals_successive_service_times(
    prior, op, slots_list
):
    env, disk = make_disk()
    if prior is not None:
        run_one(disk, env, *prior)
    durations, seeks = disk.eager_times_list(slots_list, op)
    for i, slots in enumerate(slots_list):
        want_duration, want_seeks = disk.service_time_for(slots, op)
        assert durations[i] == want_duration  # bit-equal, not approx
        assert seeks[i] == want_seeks
        req = run_one(disk, env, slots, op)  # advances the head
        assert req.service_time == want_duration
