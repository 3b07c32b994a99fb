"""Paper-cell benchmark: host time of the simulator on the paper's
policies, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload adaptive --seed 1 --seconds 36 --trace 0

``--trace 0`` times repeated passes over the workload's cells with
tracing off and prints the end-to-end metrics; ``--trace 1`` runs a
warm-up, an untraced and a traced pass and prints the per-layer
metrics.  Every cell's output is checked (see ``cells.OutputCheck``).
The last line of standard output is one JSON object; the exit code is
0 only when every cell passed its check.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Worker processes re-import this file as ``__mp_main__``: everything
# below the imports must stay free of side effects.
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.cells import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, OutputCheck, load_expected, make_cells,
)

#: fresh processes timed for ``setup_s`` (reported as their median)
SETUP_SAMPLES = 5
#: worker processes of the ``sweep`` pool, at least two so the pool is
#: used on a one-CPU host, and capped to keep memory modest
MAX_JOBS = 4
OUT_DIR = Path(__file__).resolve().parent / "out"
#: share of the cells' wall time, timed around each cell apart from
#: the tracer, that their root spans may leave uncovered
SPAN_GAP = 0.01
#: sweep dispatch metrics of the traced run (0 on in-process workloads)
PERF_METRICS = (("busy_frac", "ratio"), ("dispatch_s", "s"),
                ("spawns", "count"), ("dispatches", "count"),
                ("spec_bytes", "bytes"))


def sweep_jobs() -> int:
    return min(MAX_JOBS, max(2, len(os.sched_getaffinity(0))))


def check_environment() -> str | None:
    """Why this process must not benchmark, or ``None``."""
    toggles = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if toggles:
        return ("refusing to run with simulator toggles set: "
                + ", ".join(toggles))
    if not (ROOT / "src" / "repro").is_dir():
        return f"no simulator sources under {ROOT / 'src'}"
    return None


class Bench:
    """One workload's cells plus the process state its passes share."""

    def __init__(self, workload: str, seed: int):
        from repro.perf.cache import get_default_cache
        from repro.perf.supervisor import get_default_supervisor

        # a cache hit would skip the simulation being timed, and a
        # supervisor would change the dispatch path
        if get_default_cache() is not None:
            raise RuntimeError("a cell cache is installed")
        if get_default_supervisor() is not None:
            raise RuntimeError("a sweep supervisor is installed")
        self.workload = workload
        self.parallel = workload == "sweep"
        self.jobs = sweep_jobs() if self.parallel else 1
        self.cells = make_cells(workload, seed)
        self.labels = [c.key for c in self.cells]
        self.check = OutputCheck(load_expected(workload, seed))
        if self.parallel:
            self.warm_pool()

    def warm_pool(self) -> None:
        """Spawn the persistent workers with one trivial cell each."""
        from repro.perf.pool import Cell, run_cells

        run_cells([Cell(f"warm{i}", dict, {"i": i})
                   for i in range(self.jobs)], jobs=self.jobs)

    # -- passes ----------------------------------------------------------
    def run_in_process(self, i: int, tracer=None, writers=None):
        """Cell ``i`` in this process: ``(wall, record)``; the record is
        ``None`` when the cell raised."""
        from repro.perf.pool import run_cells

        cell = self.cells[i]
        # the wall encloses the cell span: the traced run checks the
        # spans against this independent clock read
        t0 = time.perf_counter()
        span = tracer.begin_cell(i) if tracer is not None else -1
        try:
            record = run_cells([cell])[cell.key]
        except Exception as exc:  # the cell failed: counted, not fatal
            print(f"cell {cell.key} raised {exc!r}", file=sys.stderr)
            record = None
        if tracer is not None:
            tracer.end_cell(span)
        wall = time.perf_counter() - t0
        if tracer is not None:
            writers.flush(tracer)
        return wall, record

    def serial_pass(self, tracer=None, writers=None):
        """Every cell in-process, one at a time:
        ``(pass wall, per-cell walls, records)``."""
        t0 = time.perf_counter()
        runs = [self.run_in_process(i, tracer, writers)
                for i in range(len(self.cells))]
        return (time.perf_counter() - t0, [w for w, _ in runs],
                [r for _, r in runs])

    def units(self) -> list:
        """What the timed loop repeats: ``(labels, run)`` pairs, where
        ``run()`` returns ``(wall, per-cell walls, records)``.  In-process
        the unit is one cell, so a long pass cannot overrun the budget;
        ``sweep`` repeats whole ``run_cells`` calls."""
        if self.parallel:
            return [(self.labels, self.parallel_pass)]

        def one(i):
            wall, record = self.run_in_process(i)
            return wall, [wall], [record]

        return [([label], functools.partial(one, i))
                for i, label in enumerate(self.labels)]

    def parallel_pass(self):
        """Every cell through ``run_cells(jobs=N)`` on the default
        persistent backend; per-cell walls are the workers' own."""
        from repro.perf.pool import run_cells

        t0 = time.perf_counter()
        try:
            merged = run_cells(self.cells, jobs=self.jobs)
        except Exception as exc:
            print(f"sweep pass raised {exc!r}", file=sys.stderr)
            return time.perf_counter() - t0, [], None
        wall = time.perf_counter() - t0
        if list(merged) != self.labels:
            print("merged keys are not in declaration order",
                  file=sys.stderr)
            return wall, [], None
        records = [merged[k] for k in self.labels]
        return wall, [r["_perf"]["wall_s"] for r in records], records

    def verify(self, records, labels=None) -> None:
        """Check the records of one pass (or of ``labels`` only)."""
        labels = self.labels if labels is None else labels
        if records is None:
            self.check.fail_pass(labels, "the pass raised or lost its order")
            return
        for label, record in zip(labels, records):
            self.check.record(label, record)


def stop_pool() -> None:
    """Stop the persistent workers, the fork server behind them and the
    resource tracker the fork server starts, and wait for each to end.

    Safe to call when none of them is running.  The tracker goes last:
    it exits only once every process holding its pipe (the fork server
    and the workers forked from it) has ended.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    from repro.perf.persistent import shutdown_default_executor

    shutdown_default_executor()
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


def peak_rss_mb(records) -> float:
    """Peak RSS of this process and of every worker that ran a record."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = [r["_perf"]["peak_rss_mb"] for r in records if r is not None]
    return max([own] + workers)


# -- set-up time ------------------------------------------------------------
def probe_setup(workload: str, seed: int) -> int:
    """Child side of ``setup_s``: get ready to time the first cell."""
    Bench(workload, seed)
    print("ready", flush=True)
    return 0


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Process start to ready-for-the-first-cell, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=60)
            finally:
                if proc.poll() is None:
                    proc.kill()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(elapsed)
    return samples


# -- the two modes ------------------------------------------------------------
def timed(bench: Bench, seconds: float, seed: int) -> dict:
    """End-to-end metrics with tracing off.

    The workload's units run round-robin until the next one would
    overrun ``seconds``; the first round always completes.  Each unit's
    median wall time is taken over its repetitions, and ``wall_s`` is
    their sum: the median-based host time of one pass.
    """
    setup = setup_seconds(bench.workload, seed)
    units = bench.units()
    unit_walls: list[list[float]] = [[] for _ in units]
    per_cell: dict[str, list[float]] = {label: [] for label in bench.labels}
    first_round: list = []
    start = time.perf_counter()
    for n in itertools.count():
        k = n % len(units)
        labels, run_unit = units[k]
        if n >= len(units) and (time.perf_counter() - start
                                + statistics.median(unit_walls[k])
                                > seconds):
            break
        wall, cell_walls, recs = run_unit()
        unit_walls[k].append(wall)
        for label, cell_wall in zip(labels, cell_walls):
            per_cell[label].append(cell_wall)
        bench.verify(recs, labels)
        if n < len(units):
            first_round.extend(recs or [])
            if n == len(units) - 1:
                # caches keep growing over repeated passes; the peak of
                # one pass is what running the workload costs
                rss = peak_rss_mb(first_round)
    wall_s = sum(statistics.median(w) for w in unit_walls)
    events = sum(r["events_simulated"] for r in first_round if r is not None)
    # each cell's median over repetitions first: pooling all samples
    # would put the median at an extreme of one cluster of similar cells
    cell_medians = [statistics.median(v) for v in per_cell.values() if v]
    print(f"# cells={len(bench.cells)} repetitions per unit="
          f"{[len(w) for w in unit_walls]} setup samples={len(setup)}")
    return {
        "wall_s": (wall_s, "s"),
        "sim_events_per_s": (events / wall_s, "1/s"),
        "cell_wall_s.p50": (statistics.median(cell_medians)
                            if cell_medians else wall_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def trace_problems(stats, cell_walls: list[float]) -> list[str]:
    """What is wrong with a traced pass's spans, given the wall time
    of each cell measured around its span (empty when nothing is)."""
    problems = []
    bad = stats.containment_errors()
    if bad:
        problems.append(f"{bad} spans open, inverted or outside "
                        "their parent")
    walls = sum(cell_walls)
    if not 0.0 <= walls - stats.cell_s <= SPAN_GAP * walls:
        problems.append(f"cell spans cover {stats.cell_s:.6g} s of the "
                        f"{walls:.6g} s timed around the cells")
    return problems


def traced(bench: Bench) -> dict:
    """Per-layer metrics from one traced in-process pass."""
    from perfbench import layers
    from perfbench.tracer import SpanStats, Tracer

    out = {f"perf.{name}": (0, unit) for name, unit in PERF_METRICS}
    if bench.parallel:
        from repro.perf.persistent import get_default_executor

        wall, per_cell, recs = bench.parallel_pass()
        bench.verify(recs)
        stats = get_default_executor().stats
        busy = sum(per_cell)
        out.update({
            "perf.busy_frac": (busy / (bench.jobs * wall), "ratio"),
            "perf.dispatch_s": (bench.jobs * wall - busy, "s"),
            "perf.spawns": (stats["spawns"], "count"),
            "perf.dispatches": (stats["dispatches"], "count"),
            "perf.spec_bytes": (stats["spec_bytes"], "bytes"),
        })
        stop_pool()

    # the committed digests (or, for other seeds, the first pass) are
    # what the traced pass is checked against.  A warm-up pass first,
    # so that the untraced and the traced pass both run warm and
    # trace.overhead_frac compares like with like.
    bench.verify(bench.serial_pass()[2])
    plain_wall, _, plain = bench.serial_pass()
    bench.verify(plain)
    with Tracer() as tracer:
        writers, missing = layers.install(tracer)
        traced_wall, cell_walls, recs = bench.serial_pass(tracer, writers)
    bench.verify(recs)

    for target in missing:
        print(f"# not traced (absent): {target}")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"spans-{bench.workload}.npz")
    stats = SpanStats(tracer.arrays())
    for problem in trace_problems(stats, cell_walls):
        bench.check.fail("traced run", problem)
    out.update(layers.metrics(stats, tracer.counts,
                              [r for r in recs if r is not None]))
    out["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "ratio")
    return out


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_1m": os.getloadavg()[0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    refusal = check_environment()
    if refusal is not None:
        print(f"perfbench: {refusal}", file=sys.stderr)
        return 2
    if args.probe_setup:
        try:
            return probe_setup(args.workload, args.seed)
        finally:
            stop_pool()

    env = environment()
    try:
        bench = Bench(args.workload, args.seed)
        if args.trace:
            metrics = traced(bench)
        else:
            metrics = timed(bench, args.seconds, args.seed)
    finally:
        stop_pool()

    check = bench.check
    if check.expected is None:
        print(f"# no committed digests for seed {args.seed}; this run's:")
        print("# digests " + json.dumps(check.first, sort_keys=True))
    for problem in check.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        shown = f"{value:>18d}" if isinstance(value, int) \
            else f"{value:>18.6f}"
        print(f"{name:32s} {shown} {unit}")
    print(json.dumps({
        "correct": check.ok,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if check.ok else 1


if __name__ == "__main__":
    sys.exit(main())
