"""Record loss/corruption and the adaptive page-in fallback (§3.3)."""

import numpy as np
import pytest

from repro.cluster import Node
from repro.core.recorder import PageRecorder
from repro.faults import RecordCorrupted
from repro.sim import Environment


class ScriptedRecordFaults:
    """Duck-typed plan that loses/corrupts a fixed number of batches."""

    def __init__(self, lose=0, corrupt=0):
        self.lose = lose
        self.corrupt = corrupt

    def record_lost(self, owner):
        if self.lose > 0:
            self.lose -= 1
            return True
        return False

    def record_corrupt(self, owner):
        if self.corrupt > 0:
            self.corrupt -= 1
            return True
        return False


def test_clean_recorder_round_trips_with_checksum():
    rec = PageRecorder()
    rec.record(1, np.arange(10, 20))
    rec.record(1, np.arange(50, 55))
    got = rec.take(1)
    assert got.tolist() == list(range(10, 20)) + list(range(50, 55))
    # record is consumed; a fresh take is empty and checksum-clean
    assert rec.take(1).size == 0


def test_lost_batch_simply_missing():
    rec = PageRecorder(faults=ScriptedRecordFaults(lose=1))
    rec.record(1, np.arange(10, 20))   # lost
    rec.record(1, np.arange(50, 55))   # survives
    assert rec.records_lost == 1
    got = rec.take(1)  # loss is silent: the record stays consistent
    assert got.tolist() == list(range(50, 55))


def test_corrupt_batch_detected_at_take():
    rec = PageRecorder(faults=ScriptedRecordFaults(corrupt=1),
                       owner="node0.vmm")
    rec.record(1, np.arange(10, 20))
    assert rec.records_corrupted == 1
    with pytest.raises(RecordCorrupted, match="node0.vmm"):
        rec.take(1)
    # the corrupt record was consumed: next take is clean and empty
    assert rec.take(1).size == 0


def test_corruption_isolated_per_pid():
    rec = PageRecorder(faults=ScriptedRecordFaults(corrupt=1))
    rec.record(1, np.arange(10, 20))   # corrupted
    rec.record(2, np.arange(30, 35))   # clean
    with pytest.raises(RecordCorrupted):
        rec.take(1)
    assert rec.take(2).tolist() == list(range(30, 35))


def test_clear_resets_checksum_state():
    rec = PageRecorder(faults=ScriptedRecordFaults(corrupt=1))
    rec.record(1, np.arange(10, 20))   # corrupted
    rec.clear(1)                       # process exit discards it
    rec.record(1, np.arange(30, 40))   # fresh, clean record
    assert rec.take(1).tolist() == list(range(30, 40))


def test_adaptive_page_in_falls_back_on_corruption():
    env = Environment()
    node = Node.build(env, "n0", 8.0, "ai")
    ap = node.adaptive
    node.vmm.register_process(1, 256)
    ap.recorder.faults = ScriptedRecordFaults(corrupt=1)
    ap.recorder.record(1, np.arange(0, 32))

    def driver():
        yield from ap.adaptive_page_in(1, -1, 64)

    env.process(driver())
    env.run()
    # the corrupt record was dropped, page-in degraded to demand paging
    assert ap.ai_fallbacks == 1
    assert node.vmm.tables[1].index.resident_pages().size == 0
