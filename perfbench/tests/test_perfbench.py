"""Tests of the benchmark's own code: the span wrappers, the per-layer
accounting on a real (tiny) cell, and the output check.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import itertools

import pytest

from perfbench import cells, layers, run
from perfbench.tracer import CELL, SpanStats, Tracer


def ticking_clock():
    """A clock that advances one unit per read: span maths is exact."""
    counter = itertools.count()
    return lambda: float(next(counter))


class Boom(Exception):
    pass


def toy(log):
    """A process-fragment-shaped generator: echoes what it is sent,
    survives one ``Boom``, cleans up on close, returns a value."""
    try:
        got = yield "a"
        log.append(("sent", got))
        try:
            yield "b"
        except Boom:
            log.append("caught")
        yield "c"
        return "done"
    finally:
        log.append("finally")


def traced_toy(tracer, log):
    return tracer.wrap(toy, "toy")(log)


def test_generator_wrapper_forwards_send_throw_and_return():
    tracer = Tracer(clock=ticking_clock())
    log = []
    tracer.begin_cell(0)
    gen = traced_toy(tracer, log)
    assert next(gen) == "a"
    assert gen.send(42) == "b"
    assert gen.throw(Boom()) == "c"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert log == [("sent", 42), "caught", "finally"]


def test_generator_wrapper_yield_from_sees_return_value():
    tracer = Tracer(clock=ticking_clock())

    def caller(log):
        result = yield from traced_toy(tracer, log)
        return result

    tracer.begin_cell(0)
    gen = caller([])
    items = [next(gen), gen.send(None), next(gen)]
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert items == ["a", "b", "c"]
    assert stop.value.value == "done"


def test_generator_wrapper_propagates_uncaught_throw():
    tracer = Tracer(clock=ticking_clock())
    log = []
    tracer.begin_cell(0)
    gen = traced_toy(tracer, log)
    next(gen)
    with pytest.raises(Boom):
        gen.throw(Boom())
    assert log == ["finally"]
    assert tracer._stack == [0]  # only the cell span is still open


def test_generator_wrapper_early_close_runs_cleanup_in_a_span():
    tracer = Tracer(clock=ticking_clock())
    log = []
    cell = tracer.begin_cell(0)
    gen = traced_toy(tracer, log)
    next(gen)
    gen.close()
    tracer.end_cell(cell)
    assert log == ["finally"]
    stats = SpanStats(tracer.arrays())
    toy_id = stats.names.index("toy")
    # one call: the first resumption plus the close, one span each
    assert stats.calls[toy_id] == 1
    assert (tracer.arrays()["name"] == toy_id).sum() == 2
    assert stats.containment_errors() == 0


def test_self_time_is_duration_minus_children():
    tracer = Tracer(clock=ticking_clock())

    def leaf():
        return 1

    outer_leaf = tracer.wrap(leaf, "leaf")

    def node():
        return outer_leaf() + outer_leaf()

    traced_node = tracer.wrap(node, "node")
    cell = tracer.begin_cell(0)          # t=0
    assert traced_node() == 2            # node 1..6, leaves 2..3, 4..5
    tracer.end_cell(cell)                # t=7
    stats = SpanStats(tracer.arrays())
    by_name = dict(zip(stats.names, stats.self_s))
    assert by_name == {CELL: 2.0, "node": 3.0, "leaf": 2.0}
    assert stats.cell_s == 7.0


def test_spans_outside_a_cell_are_not_recorded():
    tracer = Tracer(clock=ticking_clock())
    assert tracer.wrap(lambda: 3, "f")() == 3
    assert len(tracer.arrays()["name"]) == 0


def test_patch_is_undone():
    class Owner:
        def method(self):
            return "orig"

    original = Owner.__dict__["method"]
    with Tracer() as tracer:
        tracer.patch(Owner, "method", "m")
        assert Owner.__dict__["method"] is not original
        assert Owner().method() == "orig"
    assert Owner.__dict__["method"] is original


# -- a real tiny cell ------------------------------------------------------
def tiny_cell(seed=1, policy="so/ao/ai/bg"):
    from repro.experiments.runner import GangConfig, run_cell
    from repro.perf.pool import Cell

    cfg = GangConfig("CG", "B", policy=policy, seed=seed, scale=0.05)
    return Cell(cfg.label(), run_cell, {"cfg": cfg})


def traced_pass(cell):
    """``(tracer, record, missing targets, wall timed around the cell)``"""
    import time

    from repro.perf.pool import run_cells

    with Tracer() as tracer:
        writers, missing = layers.install(tracer)
        t0 = time.perf_counter()
        span = tracer.begin_cell(0)
        record = run_cells([cell])[cell.key]
        tracer.end_cell(span)
        wall = time.perf_counter() - t0
        writers.flush(tracer)
    return tracer, record, missing, wall


def test_traced_cell_matches_its_wall_and_changes_no_output():
    from repro.perf.pool import run_cells

    cell = tiny_cell()
    plain = run_cells([cell])[cell.key]
    tracer, record, missing, wall = traced_pass(cell)
    assert missing == []
    assert cells.digest(record) == cells.digest(plain)

    stats = SpanStats(tracer.arrays())
    assert run.trace_problems(stats, [wall]) == []
    metrics = layers.metrics(stats, tracer.counts, [record])
    assert metrics["core.bg.bursts"][0] > 0
    assert metrics["core.page_in.calls"][0] > 0
    assert metrics["sim.events_simulated"][0] == plain["events_simulated"]


def test_trace_problems_catch_open_and_misplaced_cell_spans():
    tracer = Tracer(clock=ticking_clock())
    cell = tracer.begin_cell(0)          # t=0
    tracer.wrap(lambda: 1, "f")()        # t=1..2
    tracer.end_cell(cell)                # t=3
    stats = SpanStats(tracer.arrays())
    assert run.trace_problems(stats, [3.0]) == []
    # the cell spans miss time the independent clock saw, or claim
    # more than it saw
    assert len(run.trace_problems(stats, [4.0])) == 1
    assert len(run.trace_problems(stats, [2.5])) == 1

    tracer.begin_cell(1)
    tracer.open(tracer.name_id("g"), 1)  # never closed
    stats = SpanStats(tracer.arrays())
    assert any("open" in p for p in run.trace_problems(stats, [3.0, 0.0]))


def test_batch_advance_work_is_booked_to_the_same_layers():
    """Reclaim and eviction counts do not depend on whether the
    batch-advance tier commits them in-line or the scalar path runs."""
    from repro.sim import set_batch_advance_enabled
    from repro.sim.fastpath import batch_advance_enabled

    cell = tiny_cell(policy="lru")
    keys = ("mem.reclaim.calls", "mem.evict_batch.calls",
            "mem.evict_batch.pages")
    got = {}
    was = batch_advance_enabled()
    try:
        for enabled in (True, False):
            set_batch_advance_enabled(enabled)
            tracer, record, _, _ = traced_pass(cell)
            metrics = layers.metrics(SpanStats(tracer.arrays()),
                                     tracer.counts, [record])
            episodes = sum(s["reclaim_episodes"]
                           for s in record["vmm_stats"])
            assert metrics["mem.reclaim.calls"][0] == episodes > 0
            got[enabled] = ({k: metrics[k][0] for k in keys},
                            record["events_simulated"]
                            - record["events_dispatched"])
    finally:
        set_batch_advance_enabled(was)
    assert got[True][1] > 0 and got[False][1] == 0  # both paths ran
    assert got[True][0] == got[False][0]


def test_traced_metrics_are_the_declared_per_layer_metrics():
    import json

    cell = tiny_cell()
    tracer, record, _, _ = traced_pass(cell)
    names = set(layers.metrics(SpanStats(tracer.arrays()), tracer.counts,
                               [record]))
    names |= {f"perf.{name}" for name, _ in run.PERF_METRICS}
    names.add("trace.overhead_frac")
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert names == {m["name"] for m in declared["per_layer"]}


def test_traced_counts_repeat_exactly():
    cell = tiny_cell()
    first, rec1, _, _ = traced_pass(cell)
    second, rec2, _, _ = traced_pass(cell)

    def count_metrics(tracer, record):
        out = layers.metrics(SpanStats(tracer.arrays()), tracer.counts,
                             [record])
        return {k: v for k, (v, unit) in out.items() if unit == "count"}

    assert count_metrics(first, rec1) == count_metrics(second, rec2)


# -- the output check ------------------------------------------------------
def test_digest_mismatch_fails_the_cell():
    from repro.perf.pool import run_cells

    cell = tiny_cell()
    record = run_cells([cell])[cell.key]
    good = cells.OutputCheck({cell.key: cells.digest(record)})
    assert good.record(cell.key, record) is not None
    assert good.ok

    bad = cells.OutputCheck({cell.key: "0" * 16})
    assert bad.record(cell.key, record) is None
    assert (bad.attempted, bad.failed, bad.ok) == (1, 1, False)


def test_cell_missing_from_the_committed_digests_fails():
    record = {"makespan": 1.0, "evicted": {}, "completions": {"j": 1.0},
              "events_simulated": 3, "events_dispatched": 2,
              "events_processed": 2}
    check = cells.OutputCheck({"other": cells.digest(record)})
    assert check.record("c", record) is None
    assert check.problems == ["c: no committed digest"]


def test_without_committed_digests_later_passes_must_match_the_first():
    record = {"makespan": 1.0, "evicted": {}, "completions": {"j": 1.0},
              "events_simulated": 3, "events_dispatched": 2,
              "events_processed": 2, "_perf": {"wall_s": 0.1}}
    check = cells.OutputCheck(None)
    assert check.record("c", record) is not None
    assert check.record("c", dict(record, _perf={"wall_s": 9.0}))
    assert check.record("c", dict(record, makespan=2.0)) is None
    assert check.record("c", None) is None
    assert (check.attempted, check.failed) == (4, 2)


def test_digest_ignores_perf_but_not_outputs():
    base = {"makespan": 1.5, "_perf": {"wall_s": 1.0}}
    assert cells.digest(base) == cells.digest(dict(base, _perf={}))
    assert cells.digest(base) != cells.digest(dict(base, makespan=1.25))


def test_simulator_toggles_are_refused(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BATCH_ADVANCE", "0")
    assert run.main(["--workload", "demand"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "REPRO_BATCH_ADVANCE" in captured.err


def test_workloads_have_the_declared_cells():
    assert len(cells.configs("adaptive", 1)) == 4
    assert len(cells.configs("demand", 1)) == 8
    sweep = cells.configs("sweep", 1)
    assert len(sweep) == 35
    assert len({c.label() for c in sweep}) == 35
