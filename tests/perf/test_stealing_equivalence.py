"""Permutation / work-stealing equivalence suite (PR 10, satellite 3).

The executor-backend contract says completion order is invisible: the
merged record, the journal and the cell store must come out identical
whether cells finished in declaration order, adversarially scrambled
order, under work stealing, or across injected worker crashes and
hangs.  These
tests engineer each of those orders and diff the artefacts byte by
byte (outside the reserved ``_perf`` quarantine)."""

import json

import pytest

from repro.experiments.report_io import _sanitise
from repro.faults.worker import WorkerFaultPlan
from repro.perf import (
    Cell,
    CellCache,
    Supervisor,
    SupervisorConfig,
    SweepJournal,
    fingerprint,
    run_cells,
    set_default_cache,
    set_default_supervisor,
    sweep_id,
)
from repro.perf.persistent import StealScheduler, get_default_executor

from tests.perf import _backend_cells as bc


@pytest.fixture(autouse=True)
def _no_process_defaults():
    set_default_cache(None)
    set_default_supervisor(None)
    yield
    set_default_cache(None)
    set_default_supervisor(None)


def canon(merged):
    strip = {
        k: ({kk: vv for kk, vv in v.items() if kk != "_perf"}
            if isinstance(v, dict) else v)
        for k, v in merged.items()
    }
    return json.dumps(_sanitise(strip), sort_keys=True)


def delay_cells(delays):
    return [Cell(("cell", i), bc.sq_delay, {"x": i, "delay_s": d})
            for i, d in enumerate(delays)]


def cfg(**kw):
    base = dict(backoff_base_s=0.0, backoff_max_s=0.0,
                poll_interval_s=0.02)
    base.update(kw)
    return SupervisorConfig(**base)


def find_plan(n_cells, max_retries, need, max_faulted=2, **rates):
    """Seed-search a plan whose attempt-0 schedule injects every kind
    in ``need`` while leaving every cell enough clean attempts (same
    idiom as tests/perf/test_supervisor.py)."""
    for seed in range(2000):
        plan = WorkerFaultPlan(seed=seed, **rates)
        sched = plan.injections(n_cells)
        if not need <= set(sched.values()):
            continue
        if all(sum(plan.decide(i, a) is not None
                   for a in range(max_retries + 1)) <= max_faulted
               for i in range(n_cells)):
            return plan
    raise AssertionError("no suitable fault seed in search window")


# ---------------------------------------------------------------------------
# adversarial completion orders
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("delays", [
    # descending: the first-declared cell finishes last
    [0.12, 0.10, 0.08, 0.06, 0.04, 0.02, 0.01, 0.01],
    # spike in the middle: neighbours of the slow cell race past it
    [0.01, 0.01, 0.15, 0.01, 0.01, 0.15, 0.01, 0.01],
], ids=["descending", "spikes"])
def test_scrambled_completion_order_is_invisible(delays):
    cells = delay_cells(delays)
    reference = canon(run_cells(cells, jobs=1))
    merged = run_cells(cells, jobs=3, backend="persistent")
    assert canon(merged) == reference
    assert list(merged) == [c.key for c in cells]


def test_steals_happen_and_leave_no_trace():
    """Drive the executor with a cost model that forces stealing, then
    prove the merged record matches the serial bytes anyway."""
    delays = [0.05, 0.10, 0.10, 0.10, 0.10, 0.10]
    cells = delay_cells(delays)
    reference = canon(run_cells(cells, jobs=1))

    costs = {0: 10.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0}
    executor = get_default_executor()
    gen, wids = executor.begin_sweep(cells, jobs=2)
    sched = StealScheduler(wids, cost=costs.get)
    sched.extend(range(len(cells)))
    results = [None] * len(cells)
    pending = set(range(len(cells)))
    idle = set(wids)
    inflight = {}
    try:
        while pending:
            for wid in sorted(idle):
                index = sched.next_for(wid)
                if index is None:
                    break
                executor.dispatch(wid, index, 0)
                inflight[wid] = index
                idle.discard(wid)
            for ev in executor.poll(0.05):
                assert ev.kind == "result" and ev.ok
                index = inflight.pop(ev.wid)
                idle.add(ev.wid)
                results[index] = ev.payload
                pending.discard(index)
    finally:
        executor.end_sweep()

    # the cost model put cell 0 alone on one worker and queued the
    # rest on the other: the early finisher *must* have stolen
    assert sched.steals >= 1
    merged = dict(zip([c.key for c in cells], results))
    assert canon(merged) == reference


# ---------------------------------------------------------------------------
# crash chaos: identical records, journals and stores to a serial run
# ---------------------------------------------------------------------------
def test_crash_chaos_identity_across_backends(tmp_path):
    cells = [Cell(("sq", i), bc.square, {"x": i}) for i in range(8)]
    prints = [fingerprint(c.fn, c.kwargs) for c in cells]
    serial_store = CellCache(root=tmp_path / "serial")
    reference = canon(run_cells(cells, jobs=1, backend="serial",
                                cache=serial_store))
    plan = find_plan(8, max_retries=3, need={"crash", "hang"},
                     crash_rate=0.2, hang_rate=0.2, hang_s=60.0)

    jdir = tmp_path / "persistent"
    sup = Supervisor(cfg(max_retries=3, cell_timeout_s=1.0, journal=True,
                         journal_dir=jdir, worker_faults=plan))
    merged = sup.run(cells, jobs=3)
    assert canon(merged) == reference
    assert sup.stats["quarantined"] == 0
    # every fault is answered surgically: one respawn per crashed or
    # killed worker, never a wholesale restart of its siblings
    assert sup.stats["timeouts"] >= 1
    assert sup.stats["respawns"] >= 2
    assert sup.stats["respawns"] == sup.stats["retries"]

    # journal: same sweep id, every fingerprint the serial run stored
    sid = sweep_id(prints)
    done = SweepJournal(sid, root=jdir).completed()
    assert done == {fp for fp in prints
                    if serial_store.get(fp) is not None} == set(prints)

    # journal-scoped store: identical result bytes per fingerprint
    store = CellCache(root=jdir / f"{sid}.store")
    for fp in prints:
        stored = [serial_store.get(fp), store.get(fp)]
        assert all(s is not None for s in stored)
        a, b = (json.dumps(_sanitise(s), sort_keys=True) for s in stored)
        assert a == b


def test_hung_worker_is_killed_alone_and_retried():
    cells = delay_cells([0.01] * 6)
    reference = canon(run_cells(cells, jobs=1))
    plan = find_plan(6, max_retries=3, need={"hang"}, hang_rate=0.2)
    sup = Supervisor(cfg(max_retries=3, cell_timeout_s=0.4,
                         grace_factor=0.0, worker_faults=plan))
    merged = sup.run(cells, jobs=2)
    assert canon(merged) == reference
    assert sup.stats["timeouts"] >= 1
    # killed alone: one respawn per hung worker, none for its sibling
    assert sup.stats["respawns"] == sup.stats["timeouts"]
    assert sup.stats["quarantined"] == 0


# ---------------------------------------------------------------------------
# quarantine + resume on the persistent backend
# ---------------------------------------------------------------------------
def test_resume_after_quarantine_on_persistent_backend(tmp_path):
    counter = tmp_path / "flaky.count"
    cells = [Cell(("sq", i), bc.square, {"x": i}) for i in range(7)]
    cells.append(Cell(("flaky",), bc.flaky_file,
                      {"counter": str(counter), "fail_times": 1}))

    jdir = tmp_path / "journal"
    first = Supervisor(cfg(max_retries=0, journal=True,
                           journal_dir=jdir))
    merged1 = first.run(cells, jobs=2)
    failed = merged1[("flaky",)]
    assert "_failed" in failed
    assert "flaky attempt 0" in failed["_failed"]["error"]
    assert first.stats["quarantined"] == 1

    # resume: the 7 settled cells come from the store, the quarantined
    # one re-executes (and succeeds this time)
    second = Supervisor(cfg(max_retries=0, journal=True, resume=True,
                            journal_dir=jdir))
    merged2 = second.run(cells, jobs=2)
    assert second.stats["resumed"] == 7
    assert second.stats["completed"] == 1
    assert merged2[("flaky",)] == {"ok": True}
    # resumed cells are annotated (cache hit) inside _perf only;
    # everything outside the quarantine is byte-identical
    for i in range(7):
        a = {k: v for k, v in merged2[("sq", i)].items() if k != "_perf"}
        assert a == merged1[("sq", i)]
