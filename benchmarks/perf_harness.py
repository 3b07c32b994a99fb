"""Persistent performance harness: single-cell and sweep benchmarks.

Writes ``BENCH_PR2.json`` at the repo root with

* wall-clock and events/sec for the Figure-6 LRU cell (min of 3 runs),
  against the recorded pre-optimization baseline,
* serial vs ``jobs=4`` wall-clock for a small multi-seed sweep, with
  the host's CPU count (the speedup ceiling — on a single-core host the
  parallel path only proves correctness, not throughput),
* a serial-vs-parallel byte-identity verdict for the sweep.

``--obs`` (or the default full run) additionally writes
``BENCH_PR3.json``: instrumented vs uninstrumented wall clock on the
same Figure-6 LRU cell.  The telemetry subsystem promises bit-for-bit
identical simulation results at ≤5 % wall-clock overhead *or* ≤2 µs
per simulation event (the absolute bound keeps the budget meaningful
as the uninstrumented event loop gets faster); the report records both
the identity verdict and whether the measured overhead fits either
budget.

The run also writes ``BENCH_PR4.json`` (``--pr4-out``) covering the
cell result cache: a cold-vs-warm round trip on the multi-seed sweep.
The warm rerun must skip at least half its cells (it skips all of
them) and merge to byte-identical output.

``BENCH_PR5.json`` (``--pr5-out``) covers the steady-state execution
fast path:

* fast-path vs per-chunk (``repro.sim.set_fast_path_enabled``) wall
  clock on the Figure-6 LRU cell.  The identity verdict deliberately
  excludes ``events_processed`` — the fast path deletes bookkeeping
  events, so the count must *drop*, never match — while every
  simulation output (makespan, completions, page traffic, switch
  count, VMM stats) must stay bit-identical,
* the speedup against the recorded PR 4 baseline,
* the fast-mode wall clock of the CI smoke cell, stored as the floor
  for the perf-regression warning a later ``--smoke`` run emits.

``BENCH_PR6.json`` (``--pr6-out``) covers resilient sweep execution:
the chaos benchmark runs the multi-seed sweep twice — a fault-free
serial baseline, then supervised (``repro.perf.supervisor``) under a
seeded :class:`~repro.faults.worker.WorkerFaultPlan` that crashes
workers mid-sweep — and asserts the supervised run answered the crashes
with at least one worker respawn, quarantined nothing, and merged to
byte-identical output.

``BENCH_PR7.json`` (``--pr7-out``) covers the vectorized batch-advance
event core:

* batch-advance vs scalar-dispatch (``repro.sim
  .set_batch_advance_enabled``) wall clock on the Figure-6 LRU cell,
  with a bit-for-bit identity verdict that *includes*
  ``events_simulated`` — unlike the PR 5 fast path, batch-advance only
  absorbs dispatches, so the logical event count must match exactly
  while ``events_dispatched`` drops,
* per-PR target bookkeeping (``speedup_target`` / ``meets_target``
  against the recorded PR 5 baseline) plus the cumulative
  ``fig6_trajectory`` (seed → this PR) that every BENCH file now
  carries,
* the fig6 LRU floor for the *hard* smoke regression gate: a
  ``--smoke`` run re-measures the cell and exits non-zero when it
  exceeds the committed floor by more than
  :data:`SMOKE_REGRESSION_FACTOR`.

``BENCH_PR8.json`` (``--pr8-out``) covers sweep-scale observability:

* an instrumented (``repro.obs.sweep.SweepObserver``) vs plain
  multi-seed sweep, asserting the sweep-level ``summary()`` equals the
  elementwise sum of the per-cell summaries shipped through
  ``"_perf"``, the merged Chrome trace carries one distinct track
  group per cell, records stay byte-identical outside ``"_perf"``,
  and the capture overhead fits the PR 3 budget (≤5 % relative or
  ≤2 µs per simulated event),
* the chaos benchmark re-run with the supervisor event log on,
  asserting every retry and worker respawn the supervisor counted is
  named in the structured log (``--pr8-trace-out`` additionally
  writes the merged chaos-sweep Chrome trace for the CI artifact).

``BENCH_PR10.json`` (``--pr10-out``) covers the persistent warm-worker
sweep executor:

* the backend shoot-out: one ≥48-cell (16 seeds × 3 modes) sweep run
  serial and on the persistent executor (min-of-N each, after a
  warm-up sweep so worker spawn cost is amortised the way real
  multi-sweep sessions amortise it), with a serial-vs-persistent
  byte-identity verdict and the serial→persistent speedup against the
  ≥1.5× target.  On hosts with fewer than 4 CPUs the
  speedup target is *skipped honestly* — ``meets_target: null``,
  ``skipped_low_cpu: true`` and a ``::warning::`` annotation — instead
  of recording a meaningless sub-1× number as a failure; CI's 4-vCPU
  leg passes ``--require-speedup`` to turn the target into a hard
  gate,
* the chaos companion (the PR 6 chaos benchmark, run once when both
  sections are selected): injected worker crashes must be absorbed by
  respawning single workers (``respawns`` ≥ 1), quarantine nothing, and
  merge byte-identical to the fault-free serial run,
* the cumulative ``sweep_trajectory`` (PR 2 → PR 5 → PR 10 parallel
  sweep speedup) that ``repro obs bench-report`` renders alongside the
  fig6 single-cell trajectory.

Each benchmark section writes one BENCH file; ``--section`` selects
which sections run.  It defaults to the *current* PR's section so
routine full runs refresh only ``BENCH_PR10.json`` and stop rewriting
the historical reports; ``--section all`` reproduces everything.

Usage::

    PYTHONPATH=src python benchmarks/perf_harness.py                # full, current section
    PYTHONPATH=src python benchmarks/perf_harness.py --section all  # full, every section
    PYTHONPATH=src python benchmarks/perf_harness.py --smoke        # CI smoke, current section

``--smoke`` shrinks everything to seconds and exits non-zero if the
parallel sweep fails (pickling regression, worker crash), its output
diverges from serial, an instrumented run diverges from an
uninstrumented one, or a fast-path run diverges from a slow-mode run —
mostly without timing assertions, so it is load-tolerant.  Two timing
checks remain.  The PR 5 one is advisory: when the smoke cell's
fast-mode wall clock exceeds the floor recorded in the committed
``BENCH_PR5.json`` by more than :data:`SMOKE_REGRESSION_FACTOR`, it
prints a GitHub-actions ``::warning::`` line and still exits zero.
The PR 7 one is a hard gate: when the fig6 LRU cell exceeds the floor
recorded in the committed ``BENCH_PR7.json`` by more than the same
factor, it prints ``::error::`` and exits non-zero.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import multi_seed  # noqa: E402
from repro.experiments.report_io import _sanitise  # noqa: E402
from repro.experiments.runner import GangConfig, run_experiment  # noqa: E402
from repro.obs import Registry  # noqa: E402

#: maximum acceptable telemetry wall-clock overhead (fraction)
OBS_OVERHEAD_BUDGET = 0.05

#: absolute alternative to the relative budget: telemetry may cost up
#: to this much per simulation event.  The relative budget was set
#: against the PR 3 event-loop speed; the PR 4 index/reclaim work made
#: the *uninstrumented* run ~2× faster, which inflates the same
#: absolute instrument cost into a larger fraction.  The per-event
#: bound expresses "telemetry is cheap" in a way that survives
#: denominator speedups: either test passing satisfies the budget.
OBS_OVERHEAD_BUDGET_PER_EVENT_US = 2.0

#: sweep-level counterpart of the per-event budget, for
#: :func:`bench_sweep_obs`.  Looser than the single-cell bound because
#: the sweep observer also ships one registry snapshot + per-cell
#: summary per *cell* — a fixed per-cell cost the full-run sweep
#: cells (scale 0.1, ~1.5k events each) cannot amortise the way the
#: fig6 cell (hundreds of thousands of events) does.  Honest
#: re-baseline: the sweep budget previously appeared to pass only
#: through a ``-19%`` single-run noise artifact; measured honestly
#: (alternated min-of-N) the sweep path costs ~2.3 us/event at this
#: cell size.
OBS_SWEEP_OVERHEAD_PER_EVENT_US = 3.0

#: wall-clock of the single-cell benchmark on the pre-optimization
#: code, measured back-to-back with the optimized code on the same
#: host (git-stash round trip, min of 3) — re-measure when moving to
#: different hardware rather than trusting this absolute number
BASELINE_SINGLE_CELL_WALL_S = 2.947

#: the same cell on the PR 3 code (post engine/telemetry work, before
#: the PR 4 page-state index + reclaim fast path), min of 5 on the
#: same host — the denominator of the PR 4 speedup claim
BASELINE_PR3_SINGLE_CELL_WALL_S = 1.326

#: the same cell on the PR 4 code (post index/reclaim/cache work,
#: before the PR 5 resident-run batching), measured back-to-back with
#: the optimized code on the same host (git-stash round trip, min of
#: 5) — the denominator of the PR 5 speedup claim.  ``BENCH_PR4.json``
#: recorded 0.965 s for this cell, but that run happened under lighter
#: host load; as with the other baselines, re-measure rather than
#: trusting the absolute number when conditions change.
BASELINE_PR4_SINGLE_CELL_WALL_S = 1.1086018349997175

#: the same cell on the PR 5 code (post resident-run batching, before
#: the PR 7 batch-advance core) — the ``fast_wall_s_min`` recorded in
#: ``BENCH_PR5.json`` and the denominator of the PR 7 speedup claim
BASELINE_PR5_SINGLE_CELL_WALL_S = 0.958194470997114

#: the same cell on the PR 7 code (post batch-advance core) — the
#: ``fast_wall_s_min`` recorded in ``BENCH_PR7.json``
BASELINE_PR7_SINGLE_CELL_WALL_S = 0.7965931319995434

#: the Figure-6 LRU cell's wall-time trajectory across the perf PRs
#: (min-of-N on the same host lineage).  Every BENCH file carries this
#: forward — with the current PR's measurement appended — so a
#: regression is visible in any single report without diffing the
#: historical files.
FIG6_TRAJECTORY = (
    ("seed", BASELINE_SINGLE_CELL_WALL_S),
    ("PR3", BASELINE_PR3_SINGLE_CELL_WALL_S),
    ("PR4", BASELINE_PR4_SINGLE_CELL_WALL_S),
    ("PR5", BASELINE_PR5_SINGLE_CELL_WALL_S),
    ("PR7", BASELINE_PR7_SINGLE_CELL_WALL_S),
)


def fig6_trajectory(current_pr: str = None,
                    current_wall_s: float = None) -> list:
    """The recorded fig6 wall-time trajectory, optionally extended with
    the measurement the calling section just took.  A fresh measurement
    for a PR already in the recorded table replaces the recorded entry
    (a re-run of a historical section updates, never duplicates)."""
    traj = [
        {"pr": pr, "wall_s": wall,
         "speedup_vs_seed": BASELINE_SINGLE_CELL_WALL_S / wall}
        for pr, wall in FIG6_TRAJECTORY
        if pr != current_pr
    ]
    if current_wall_s is not None:
        traj.append({
            "pr": current_pr,
            "wall_s": current_wall_s,
            "speedup_vs_seed": BASELINE_SINGLE_CELL_WALL_S
            / current_wall_s,
        })
    return traj


#: the parallel-sweep speedup floor the persistent executor must hit
#: at 4 jobs (serial wall / persistent wall, after warm-up); only
#: meaningful on hosts with at least :data:`SPEEDUP_MIN_CPUS` cores
SWEEP_SPEEDUP_TARGET = 1.5

#: multi-core speedup floors mean nothing below this CPU count — a
#: 1-core host *cannot* beat serial, so the gate skips honestly there
#: (``::warning::`` + ``skipped_low_cpu``) instead of recording a
#: sub-1x "failure"
SPEEDUP_MIN_CPUS = 4

#: the parallel-sweep speedup trajectory across the perf PRs — the
#: sweep-axis mirror of :data:`FIG6_TRAJECTORY`.  Entries are
#: ``(pr, speedup, jobs, host_cpu_count)``.  PR2 is the committed
#: ``BENCH_PR2.json`` measurement on the 1-cpu reference host (the
#: spawn-per-sweep pool *loses* to serial with no cores to hide the
#: spawn cost behind); PR5 is the first >1x crossing once the
#: steady-state fast path shrank per-cell import-dominated overhead.
SWEEP_TRAJECTORY = (
    ("PR2", 0.742, 4, 1),
    ("PR5", 1.16, 4, 1),
)


def sweep_trajectory(current_speedup: float = None, jobs: int = None,
                     note: str = None) -> list:
    """The recorded sweep-speedup trajectory, extended with the
    measurement the pr10 section just took.  ``repro obs bench-report``
    renders this alongside the fig6 single-cell trajectory."""
    traj = [
        {"pr": pr, "speedup": speedup, "jobs": j, "host_cpu_count": cpus}
        for pr, speedup, j, cpus in SWEEP_TRAJECTORY
    ]
    if current_speedup is not None:
        entry = {"pr": "PR10", "speedup": current_speedup,
                 "jobs": jobs, "host_cpu_count": os.cpu_count()}
        if note:
            entry["note"] = note
        traj.append(entry)
    return traj


def _require_cpus(what: str, need: int = SPEEDUP_MIN_CPUS) -> bool:
    """CPU-count honesty gate for multi-core speedup floors.

    Returns True when the host can meaningfully run ``need``-way
    parallel work; otherwise prints a GitHub-actions ``::warning::``
    and returns False so the caller records its measurement with the
    verdict skipped (``meets_target: null``) instead of failing on
    hardware that cannot pass.
    """
    cpus = os.cpu_count() or 1
    if cpus >= need:
        return True
    print(
        f"::warning::{what} needs >= {need} CPUs but this host has "
        f"{cpus}; recording the measurement and skipping the speedup "
        f"verdict"
    )
    return False


#: warm-cache reruns must serve at least this fraction of cells from
#: the cache (they serve all of them; the slack absorbs future
#: experiments that opt out of caching)
CACHE_SKIP_TARGET = 0.5

#: a ``--smoke`` run warns (never fails) when its smoke-cell fast-path
#: wall clock exceeds the committed floor by more than this factor;
#: generous because CI runners are noisy
SMOKE_REGRESSION_FACTOR = 1.2

#: the Figure-6 LRU cell — the paper's headline trace configuration
FIG6_LRU = GangConfig("LU", "C", nprocs=4, policy="lru", seed=1, scale=0.5)

#: the tiny cell every ``--smoke`` section runs; also the subject of
#: the perf-regression floor stored in ``BENCH_PR5.json``
SMOKE_CELL = GangConfig("LU", "B", nprocs=1, policy="lru", seed=1,
                        scale=0.05)


def _strip_perf(obj):
    """Drop every ``"_perf"`` quarantine sub-dict (recursively)."""
    if isinstance(obj, dict):
        return {k: _strip_perf(v) for k, v in obj.items()
                if k != "_perf"}
    if isinstance(obj, list):
        return [_strip_perf(v) for v in obj]
    return obj


def _canon(record) -> str:
    """Canonical JSON of a record outside the ``"_perf"`` quarantine."""
    return json.dumps(_strip_perf(_sanitise(record)), sort_keys=True)


def bench_single_cell(cfg: GangConfig, repeats: int = 3) -> dict:
    """Min-of-N wall clock and events/sec for one cell, in-process."""
    walls, rates = [], []
    events = makespan = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = run_experiment(cfg)
        walls.append(time.perf_counter() - t0)
        rates.append(res.events_processed / walls[-1])
        events, makespan = res.events_processed, res.makespan
    best = min(walls)
    return {
        "label": cfg.label(),
        "scale": cfg.scale,
        "repeats": repeats,
        "wall_s_min": best,
        "wall_s_all": walls,
        "events_processed": events,
        "events_per_sec_best": max(rates),
        "makespan_s": makespan,
        "baseline_wall_s": BASELINE_SINGLE_CELL_WALL_S,
        "speedup_vs_baseline": BASELINE_SINGLE_CELL_WALL_S / best,
    }


def bench_sweep(scale: float, seeds, jobs: int = 4) -> dict:
    """Serial vs parallel wall clock for the multi-seed sweep grid."""
    base = GangConfig("LU", "B", nprocs=1, scale=scale)

    t0 = time.perf_counter()
    serial = multi_seed.replicate(base, seeds=seeds, jobs=1)
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = multi_seed.replicate(base, seeds=seeds, jobs=jobs)
    parallel_s = time.perf_counter() - t0

    identical = (
        json.dumps(_sanitise(serial), sort_keys=True)
        == json.dumps(_sanitise(parallel), sort_keys=True)
    )
    return {
        "label": f"multi_seed {base.label()} seeds={list(seeds)}",
        "cells": 3 * len(seeds),
        "jobs": jobs,
        "serial_wall_s": serial_s,
        "parallel_wall_s": parallel_s,
        "sweep_speedup": serial_s / parallel_s if parallel_s > 0 else None,
        "serial_parallel_identical": identical,
    }


def bench_obs_overhead(cfg: GangConfig, repeats: int = 3) -> dict:
    """Instrumented vs uninstrumented wall clock on one cell.

    Alternates the two variants within each repeat so drifting host
    load hits both equally; reports min-of-N for each, the overhead
    ratio, and the simulation-identity verdict.
    """
    plain_walls, obs_walls = [], []
    plain_res = obs_res = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        plain_res = run_experiment(cfg)
        plain_walls.append(time.perf_counter() - t0)

        reg = Registry()
        t0 = time.perf_counter()
        obs_res = run_experiment(cfg, obs=reg)
        obs_walls.append(time.perf_counter() - t0)

    identical = (
        plain_res.makespan == obs_res.makespan
        and plain_res.events_processed == obs_res.events_processed
        and plain_res.pages_read == obs_res.pages_read
        and plain_res.pages_written == obs_res.pages_written
    )
    plain_best, obs_best = min(plain_walls), min(obs_walls)
    overhead = obs_best / plain_best - 1.0 if plain_best > 0 else None
    events = plain_res.events_processed
    per_event_us = (
        (obs_best - plain_best) / events * 1e6 if events else None
    )
    return {
        "label": cfg.label(),
        "scale": cfg.scale,
        "repeats": repeats,
        "plain_wall_s_min": plain_best,
        "obs_wall_s_min": obs_best,
        "obs_overhead_frac": overhead,
        "overhead_budget_frac": OBS_OVERHEAD_BUDGET,
        "obs_overhead_per_event_us": per_event_us,
        "per_event_budget_us": OBS_OVERHEAD_BUDGET_PER_EVENT_US,
        "within_budget": overhead is not None
        and (overhead <= OBS_OVERHEAD_BUDGET
             or per_event_us <= OBS_OVERHEAD_BUDGET_PER_EVENT_US),
        "simulation_identical": identical,
        "events_processed": plain_res.events_processed,
        "spans_recorded": len(obs_res.obs.spans),
        "counters_recorded": len(obs_res.obs.counters()),
    }


def bench_cache(scale: float, seeds, jobs: int = 1) -> dict:
    """Cold vs warm cell-cache round trip on the multi-seed sweep.

    Runs the same sweep twice against a scratch cache directory: the
    cold pass simulates and stores every cell, the warm pass must serve
    them all back (skip fraction 1.0) and merge to byte-identical
    output outside the ``"_perf"`` quarantine.
    """
    import shutil
    import tempfile

    from repro.perf.cache import CellCache, set_default_cache

    base = GangConfig("LU", "B", nprocs=1, scale=scale)
    tmp = tempfile.mkdtemp(prefix="cellcache-bench-")
    try:
        cold_cache = CellCache(root=tmp)
        set_default_cache(cold_cache)
        t0 = time.perf_counter()
        cold = multi_seed.replicate(base, seeds=seeds, jobs=jobs)
        cold_s = time.perf_counter() - t0

        warm_cache = CellCache(root=tmp)
        set_default_cache(warm_cache)
        t0 = time.perf_counter()
        warm = multi_seed.replicate(base, seeds=seeds, jobs=jobs)
        warm_s = time.perf_counter() - t0
    finally:
        set_default_cache(None)
        shutil.rmtree(tmp, ignore_errors=True)

    identical = _canon(cold) == _canon(warm)
    warm_total = warm_cache.hits + warm_cache.misses
    skipped = warm_cache.hits / warm_total if warm_total else 0.0
    return {
        "label": f"multi_seed {base.label()} seeds={list(seeds)}",
        "cells": warm_total,
        "cold_wall_s": cold_s,
        "warm_wall_s": warm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else None,
        "cold_misses": cold_cache.misses,
        "cold_stores": cold_cache.stores,
        "warm_hits": warm_cache.hits,
        "warm_misses": warm_cache.misses,
        "cells_skipped_frac": skipped,
        "skip_target_frac": CACHE_SKIP_TARGET,
        "meets_skip_target": skipped >= CACHE_SKIP_TARGET,
        "cached_fresh_identical": identical,
    }


def bench_fastpath(cfg: GangConfig, repeats: int = 3) -> dict:
    """Fast-path vs per-chunk wall clock on one cell (identity checked).

    Slow mode (:func:`repro.sim.set_fast_path_enabled` off) restores
    the historical per-chunk execution on the same code, so the
    comparison isolates resident-run batching, coalesced CPU timeouts,
    and the dispatch shortcuts the fast path unlocks.  The variants
    alternate within each repeat so drifting host load hits both
    equally.  Identity deliberately excludes ``events_processed``: the
    fast path exists to delete bookkeeping events, so the count must
    *drop* — matching would mean it never engaged.
    """
    from repro.gang.job import Job
    from repro.sim import set_fast_path_enabled

    fast_walls, slow_walls = [], []
    fast_res = slow_res = None
    try:
        for _ in range(repeats):
            set_fast_path_enabled(True)
            Job._next_jid = 1
            t0 = time.perf_counter()
            fast_res = run_experiment(cfg)
            fast_walls.append(time.perf_counter() - t0)

            set_fast_path_enabled(False)
            Job._next_jid = 1
            t0 = time.perf_counter()
            slow_res = run_experiment(cfg)
            slow_walls.append(time.perf_counter() - t0)
    finally:
        set_fast_path_enabled(True)

    identical = (
        fast_res.makespan == slow_res.makespan
        and fast_res.completions == slow_res.completions
        and fast_res.pages_read == slow_res.pages_read
        and fast_res.pages_written == slow_res.pages_written
        and fast_res.switch_count == slow_res.switch_count
        and fast_res.vmm_stats == slow_res.vmm_stats
        and fast_res.evicted == slow_res.evicted
    )
    fast_best, slow_best = min(fast_walls), min(slow_walls)
    speedup_vs_pr4 = BASELINE_PR4_SINGLE_CELL_WALL_S / fast_best
    return {
        "label": cfg.label(),
        "scale": cfg.scale,
        "repeats": repeats,
        "fast_wall_s_min": fast_best,
        "slow_wall_s_min": slow_best,
        "fast_vs_slow_speedup": slow_best / fast_best,
        "baseline_pr4_wall_s": BASELINE_PR4_SINGLE_CELL_WALL_S,
        "speedup_vs_pr4_baseline": speedup_vs_pr4,
        "speedup_target": 1.5,
        "meets_target": speedup_vs_pr4 >= 1.5,
        "simulation_identical": identical,
        # two counters, two questions: *dispatched* (loop iterations)
        # legitimately drops when batching engages; *simulated*
        # (logical events, dispatched + absorbed) must stay identical
        # or events really were lost
        "events_fast": fast_res.events_dispatched,
        "events_slow": slow_res.events_dispatched,
        "events_dropped": fast_res.events_dispatched
        < slow_res.events_dispatched,
        "events_simulated_fast": fast_res.events_simulated,
        "events_simulated_slow": slow_res.events_simulated,
        "makespan_s": fast_res.makespan,
    }


def bench_batch_advance(cfg: GangConfig, repeats: int = 3) -> dict:
    """Batch-advance vs scalar-dispatch wall clock on one cell.

    Scalar mode (:func:`repro.sim.set_batch_advance_enabled` off) keeps
    the PR 5 fast path but dispatches every event through the heap loop,
    so the comparison isolates the batch-advance tier itself.  Identity
    covers every simulation output *plus* ``events_simulated`` — the
    logical count (dispatched + absorbed) must be mode-invariant, which
    is exactly the accounting that lets ``events_dispatched`` drop
    without reading as event loss.
    """
    from repro.gang.job import Job
    from repro.sim import set_batch_advance_enabled

    batch_walls, scalar_walls = [], []
    batch_res = scalar_res = None
    try:
        for _ in range(repeats):
            set_batch_advance_enabled(True)
            Job._next_jid = 1
            t0 = time.perf_counter()
            batch_res = run_experiment(cfg)
            batch_walls.append(time.perf_counter() - t0)

            set_batch_advance_enabled(False)
            Job._next_jid = 1
            t0 = time.perf_counter()
            scalar_res = run_experiment(cfg)
            scalar_walls.append(time.perf_counter() - t0)
    finally:
        set_batch_advance_enabled(True)

    identical = (
        batch_res.makespan == scalar_res.makespan
        and batch_res.completions == scalar_res.completions
        and batch_res.pages_read == scalar_res.pages_read
        and batch_res.pages_written == scalar_res.pages_written
        and batch_res.switch_count == scalar_res.switch_count
        and batch_res.vmm_stats == scalar_res.vmm_stats
        and batch_res.evicted == scalar_res.evicted
        and batch_res.fault_summary == scalar_res.fault_summary
        and batch_res.events_simulated == scalar_res.events_simulated
    )
    batch_best, scalar_best = min(batch_walls), min(scalar_walls)
    speedup_vs_pr5 = BASELINE_PR5_SINGLE_CELL_WALL_S / batch_best
    return {
        "label": cfg.label(),
        "scale": cfg.scale,
        "repeats": repeats,
        "fast_wall_s_min": batch_best,
        "scalar_wall_s_min": scalar_best,
        "batch_vs_scalar_speedup": scalar_best / batch_best,
        "baseline_pr5_wall_s": BASELINE_PR5_SINGLE_CELL_WALL_S,
        "speedup_vs_pr5_baseline": speedup_vs_pr5,
        "speedup_target": 5.0,
        "meets_target": speedup_vs_pr5 >= 5.0,
        "simulation_identical": identical,
        "events_simulated": batch_res.events_simulated,
        "events_dispatched_fast": batch_res.events_dispatched,
        "events_dispatched_scalar": scalar_res.events_dispatched,
        "events_batched": batch_res.events_dispatched
        < scalar_res.events_dispatched,
        "makespan_s": batch_res.makespan,
    }


def bench_fig6_smoke_floor(repeats: int = 3) -> dict:
    """Batch-advance wall clock of the fig6 LRU cell, min-of-N.

    Stored in ``BENCH_PR7.json`` by full runs; a ``--smoke --section
    pr7`` run re-measures the same cell and **fails** (unlike the
    advisory PR 5 gate) when it regresses past the floor by more than
    :data:`SMOKE_REGRESSION_FACTOR`.
    """
    from repro.gang.job import Job

    walls = []
    for _ in range(repeats):
        Job._next_jid = 1
        t0 = time.perf_counter()
        run_experiment(FIG6_LRU)
        walls.append(time.perf_counter() - t0)
    return {
        "label": FIG6_LRU.label(),
        "scale": FIG6_LRU.scale,
        "repeats": repeats,
        "floor_wall_s": min(walls),
        "regression_factor": SMOKE_REGRESSION_FACTOR,
    }


def check_fig6_regression(measured_wall_s: float) -> dict:
    """Hard perf gate: compare a fig6 measurement to the PR 7 floor.

    Reads the floor from the *committed* ``BENCH_PR7.json`` at the repo
    root and fails the smoke run (``::error::`` + non-zero exit in
    ``main``) on regression beyond :data:`SMOKE_REGRESSION_FACTOR`.
    Missing or malformed floors disarm the gate silently — a fresh
    checkout without a recorded floor must not fail CI.
    """
    ref = REPO_ROOT / "BENCH_PR7.json"
    try:
        floor = json.loads(ref.read_text())["smoke_floor"]["floor_wall_s"]
    except (OSError, KeyError, TypeError, ValueError):
        return {"fig6_wall_s": measured_wall_s, "floor_wall_s": None,
                "regressed": False}
    limit = floor * SMOKE_REGRESSION_FACTOR
    regressed = measured_wall_s > limit
    if regressed:
        print(
            f"::error::fig6 LRU cell took {measured_wall_s:.3f}s, above "
            f"the recorded floor {floor:.3f}s x{SMOKE_REGRESSION_FACTOR} "
            f"= {limit:.3f}s — performance regression"
        )
    return {
        "fig6_wall_s": measured_wall_s,
        "floor_wall_s": floor,
        "limit_wall_s": limit,
        "regressed": regressed,
    }


def _find_chaos_plan(n_cells: int):
    """Seed-search a crash plan that makes quarantine impossible.

    Returns ``(plan, schedule)``: 1–3 crashes at attempt 0 and **clean
    draws on every retry attempt any cell can reach**.  A crash charges
    only the cell its worker held, and draws through attempt 5 are
    clean by construction, so no cell is charged more than once and a
    retry budget of 8 is never exhausted.
    Crash-only by design: crash containment is timing-independent, so
    verdicts stay stable on noisy CI runners (hang cancellation is
    deadline-driven and covered by ``tests/perf/test_supervisor.py``).
    """
    from repro.faults.worker import WorkerFaultPlan

    for seed in range(50000):
        cand = WorkerFaultPlan(crash_rate=0.1, seed=seed)
        sched = cand.injections(n_cells)
        if not 1 <= len(sched) <= 3:
            continue
        if any(cand.decide(i, a) is not None
               for i in range(n_cells) for a in range(1, 6)):
            continue
        return cand, sched
    raise RuntimeError(  # pragma: no cover - search window is generous
        "no suitable chaos seed in search window")


def bench_chaos(scale: float, seeds, jobs: int = 2,
                max_retries: int = 8) -> dict:
    """Fault-free serial baseline vs supervised sweep under crashes.

    Uses the :func:`_find_chaos_plan` crash schedule, under which
    quarantine is provably impossible (see its docstring), so the
    supervised run must answer the crashes with at least one worker
    respawn, quarantine nothing, and merge to byte-identical output.
    """
    from repro.perf.supervisor import (
        Supervisor,
        SupervisorConfig,
        set_default_supervisor,
    )

    base = GangConfig("LU", "B", nprocs=1, scale=scale)
    n_cells = 3 * len(seeds)  # replicate runs 3 policies per seed
    plan, schedule = _find_chaos_plan(n_cells)

    t0 = time.perf_counter()
    baseline = multi_seed.replicate(base, seeds=seeds, jobs=1)
    baseline_s = time.perf_counter() - t0

    supervisor = Supervisor(SupervisorConfig(
        max_retries=max_retries, worker_faults=plan,
        backoff_base_s=0.0, backoff_max_s=0.0, poll_interval_s=0.02))
    set_default_supervisor(supervisor)
    try:
        t0 = time.perf_counter()
        chaos = multi_seed.replicate(base, seeds=seeds, jobs=jobs)
        chaos_s = time.perf_counter() - t0
    finally:
        set_default_supervisor(None)

    identical = (
        json.dumps(_sanitise(baseline), sort_keys=True)
        == json.dumps(_sanitise(chaos), sort_keys=True)
    )
    stats = dict(supervisor.stats)
    return {
        "label": f"multi_seed {base.label()} seeds={list(seeds)}",
        "cells": n_cells,
        "jobs": jobs,
        "fault_plan": {"crash_rate": plan.crash_rate, "seed": plan.seed},
        "injected_crashes": len(schedule),
        "max_retries": max_retries,
        "baseline_wall_s": baseline_s,
        "chaos_wall_s": chaos_s,
        "supervisor_stats": stats,
        "survived_respawns": stats["respawns"] >= 1,
        "zero_quarantined": stats["quarantined"] == 0,
        "chaos_identical": identical,
    }


def chaos_failure(chaos: dict):
    """The first failed :func:`bench_chaos` verdict as a message, or
    ``None`` when the supervised run survived as required."""
    for field, msg in (
        ("chaos_identical",
         "fault-injected supervised sweep diverged from the fault-free "
         "serial run"),
        ("zero_quarantined",
         f"supervised sweep quarantined "
         f"{chaos['supervisor_stats']['quarantined']} cells under the "
         f"injected crash plan"),
        ("survived_respawns",
         "no worker respawn happened — the crash plan never engaged"),
    ):
        if not chaos[field]:
            return msg
    return None


def bench_sweep_obs(scale: float, seeds, jobs: int = 4,
                    repeats: int = 3) -> dict:
    """Instrumented vs plain multi-seed sweep: identity + aggregation.

    Runs the (seed, mode) cell grid four ways — obs-off serial,
    obs-off ``jobs=N``, obs-on serial, obs-on ``jobs=N`` with a
    :class:`~repro.obs.sweep.SweepObserver` installed — and asserts:

    * all four merge byte-identically outside ``"_perf"``,
    * the sweep-level ``summary()`` equals the elementwise sum of the
      per-cell summaries shipped through ``"_perf"["obs"]``, exactly,
    * the merged registry's counters agree with the summed view
      (an independent cross-check through a different code path),
    * the merged Chrome trace carries one distinct track group
      (trace process) per cell,
    * the obs-on serial overhead against obs-off serial fits the
      sweep budget: ≤``OBS_OVERHEAD_BUDGET`` relative *or*
      ≤``OBS_SWEEP_OVERHEAD_PER_EVENT_US`` per simulated event
      (serial-vs-serial so pool scheduling noise stays out of the
      measurement; the parallel walls are reported alongside).

    The two serial walls the overhead ratio divides are min-of-N
    (``repeats`` runs per mode, the variants alternated within each
    repeat so host-load drift cannot land on one side), and the
    reported overhead is clamped
    at zero with a ``noise`` flag: a single-run ratio once recorded
    ``obs_overhead_frac = -0.19`` — the instrumented sweep "19% faster
    than uninstrumented", which is not a property telemetry can have,
    just host-load noise swamping a sub-percent effect.  The raw
    signed ratio is preserved in ``*_raw`` so the noise floor stays
    visible.
    """
    from repro.obs import SweepObserver, chrome_trace, set_default_sweep
    from repro.obs.export import summary as registry_summary
    from repro.obs.sweep import merge_summaries
    from repro.perf.pool import run_cells

    base = GangConfig("LU", "B", nprocs=1, scale=scale)
    cells = multi_seed.cell_grid(base, "so/ao/ai/bg", seeds)

    # alternate the two serial variants within each repeat (same idiom
    # as bench_obs_overhead) so drifting host load hits both equally,
    # then take min-of-N per mode
    off_serial_walls, on_serial_walls = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        off_serial = run_cells(cells, jobs=1)
        off_serial_walls.append(time.perf_counter() - t0)

        serial_obs = SweepObserver()
        set_default_sweep(serial_obs)
        try:
            t0 = time.perf_counter()
            on_serial = run_cells(cells, jobs=1)
            on_serial_walls.append(time.perf_counter() - t0)
        finally:
            set_default_sweep(None)
    off_serial_s = min(off_serial_walls)
    on_serial_s = min(on_serial_walls)

    t0 = time.perf_counter()
    off_par = run_cells(cells, jobs=jobs)
    off_par_s = time.perf_counter() - t0

    sweep = SweepObserver()
    set_default_sweep(sweep)
    try:
        t0 = time.perf_counter()
        on_par = run_cells(cells, jobs=jobs)
        on_par_s = time.perf_counter() - t0
    finally:
        set_default_sweep(None)

    identical = (_canon(off_serial) == _canon(off_par)
                 == _canon(on_serial) == _canon(on_par))

    per_cell = [
        r["_perf"]["obs"] for r in on_par.values()
        if isinstance(r, dict) and "obs" in r.get("_perf", {})
    ]
    summary_equals = (
        len(per_cell) == len(cells)
        and sweep.summary() == merge_summaries(per_cell)
    )
    counters_equal = (
        registry_summary(sweep.registry)["counters"]
        == sweep.summary()["counters"]
    )
    trace = chrome_trace(sweep.registry)
    tracks = sum(1 for e in trace["traceEvents"]
                 if e.get("name") == "process_name")

    events = sum(
        r["events_simulated"] for r in on_serial.values()
        if isinstance(r, dict) and "events_simulated" in r
    )
    raw_overhead = (on_serial_s / off_serial_s - 1.0
                    if off_serial_s > 0 else None)
    raw_per_event_us = ((on_serial_s - off_serial_s) / events * 1e6
                        if events else None)
    # a negative measured "overhead" is host noise, not speedup;
    # report 0 with the noise flag up and keep the signed raw value
    noise = raw_overhead is not None and raw_overhead < 0.0
    overhead = (max(raw_overhead, 0.0)
                if raw_overhead is not None else None)
    per_event_us = (max(raw_per_event_us, 0.0)
                    if raw_per_event_us is not None else None)
    return {
        "label": f"multi_seed {base.label()} seeds={list(seeds)}",
        "cells": len(cells),
        "jobs": jobs,
        "serial_repeats": repeats,
        "off_serial_wall_s": off_serial_s,
        "off_serial_wall_s_all": off_serial_walls,
        "off_parallel_wall_s": off_par_s,
        "on_serial_wall_s": on_serial_s,
        "on_serial_wall_s_all": on_serial_walls,
        "on_parallel_wall_s": on_par_s,
        "records_identical": identical,
        "cells_with_telemetry": sweep.cell_count,
        "summary_equals_cell_sum": summary_equals,
        "registry_counters_equal": counters_equal,
        "distinct_trace_tracks": tracks,
        "one_track_per_cell": tracks == len(cells),
        "events_simulated": events,
        "obs_overhead_frac": overhead,
        "obs_overhead_frac_raw": raw_overhead,
        "noise": noise,
        "overhead_budget_frac": OBS_OVERHEAD_BUDGET,
        "obs_overhead_per_event_us": per_event_us,
        "obs_overhead_per_event_us_raw": raw_per_event_us,
        "per_event_budget_us": OBS_SWEEP_OVERHEAD_PER_EVENT_US,
        "within_budget": overhead is not None
        and (overhead <= OBS_OVERHEAD_BUDGET
             or per_event_us <= OBS_SWEEP_OVERHEAD_PER_EVENT_US),
    }


def bench_chaos_events(scale: float, seeds, jobs: int = 2,
                       max_retries: int = 8,
                       trace_out: str = None) -> dict:
    """The chaos sweep with full sweep observability on.

    Re-runs the :func:`bench_chaos` scenario (injected worker crashes
    under supervision) with a sweep observer and the supervisor event
    log active, and asserts the *structured log names every fault the
    counters count*: one ``retry`` entry per counted retry (each
    naming its cell key and attempt), one ``worker_respawn`` entry per
    counted respawn.  ``trace_out`` additionally writes the merged
    cross-cell Chrome trace (the CI workflow uploads it as an
    artifact).
    """
    from repro.obs import SweepObserver, set_default_sweep, \
        write_chrome_trace
    from repro.perf.supervisor import (
        Supervisor,
        SupervisorConfig,
        set_default_supervisor,
    )

    base = GangConfig("LU", "B", nprocs=1, scale=scale)
    n_cells = 3 * len(seeds)
    plan, schedule = _find_chaos_plan(n_cells)

    baseline = multi_seed.replicate(base, seeds=seeds, jobs=1)

    supervisor = Supervisor(SupervisorConfig(
        max_retries=max_retries, worker_faults=plan, journal=True,
        backoff_base_s=0.0, backoff_max_s=0.0, poll_interval_s=0.02))
    sweep = SweepObserver()
    set_default_supervisor(supervisor)
    set_default_sweep(sweep)
    try:
        t0 = time.perf_counter()
        chaos = multi_seed.replicate(base, seeds=seeds, jobs=jobs)
        chaos_s = time.perf_counter() - t0
    finally:
        set_default_supervisor(None)
        set_default_sweep(None)

    stats = dict(supervisor.stats)
    counts = supervisor.events.counts()
    retries = supervisor.events.named("retry")
    report = {
        "label": f"multi_seed {base.label()} seeds={list(seeds)}",
        "cells": n_cells,
        "jobs": jobs,
        "fault_plan": {"crash_rate": plan.crash_rate, "seed": plan.seed},
        "injected_crashes": len(schedule),
        "chaos_wall_s": chaos_s,
        "supervisor_stats": stats,
        "event_counts": counts,
        "event_log_path": str(supervisor.events.path),
        "every_retry_logged": counts.get("retry", 0) == stats["retries"],
        "every_respawn_logged":
            counts.get("worker_respawn", 0) == stats["respawns"],
        "retries_name_cells": all(e.get("key") for e in retries),
        "cells_with_telemetry": sweep.cell_count,
        "survived_respawns": stats["respawns"] >= 1,
        "zero_quarantined": stats["quarantined"] == 0,
        "chaos_identical": _canon(baseline) == _canon(chaos),
    }
    if trace_out:
        path = write_chrome_trace(sweep.registry, trace_out)
        report["trace_out"] = str(path)
    return report


def bench_backends(scale: float, seeds, jobs: int = 4,
                   repeats: int = 2) -> dict:
    """Serial vs persistent executor on one sweep grid.

    Runs the (seed, mode) cell grid through both registered backends —
    serial in-process and the persistent warm-worker executor — min-of-N
    wall each, asserts byte-identity outside ``"_perf"`` plus
    declaration-order merging, and scores the persistent executor
    against the serial wall (``sweep_speedup``).

    A throwaway warm-up sweep runs first so worker spawn cost is
    amortised the way real multi-sweep sessions amortise it — the warm
    workers *are* the tentpole; the cold start is reported separately as
    ``warmup_wall_s``.  ``workers_stayed_warm`` proves the measured
    persistent sweeps were served by the pre-warmed processes (zero
    new spawns after warm-up).  The ≥4-CPU honesty verdict
    (``meets_target``) is the caller's job.
    """
    from repro.perf.backend import BACKENDS
    from repro.perf.persistent import get_default_executor
    from repro.perf.pool import run_cells

    base = GangConfig("LU", "B", nprocs=1, scale=scale)
    cells = multi_seed.cell_grid(base, "so/ao/ai/bg", seeds)

    executor = get_default_executor()
    t0 = time.perf_counter()
    run_cells(cells[:jobs], jobs=jobs, backend="persistent")
    warmup_s = time.perf_counter() - t0
    spawns_before = executor.stats["spawns"]

    walls, walls_all, canons = {}, {}, {}
    order_preserved = True
    for name, run_jobs in (("serial", 1), ("persistent", jobs)):
        runs = []
        merged = None
        for _ in range(repeats):
            t0 = time.perf_counter()
            merged = run_cells(cells, jobs=run_jobs, backend=name)
            runs.append(time.perf_counter() - t0)
        walls[name] = min(runs)
        walls_all[name] = runs
        canons[name] = _canon(merged)
        order_preserved = (order_preserved
                           and list(merged) == [c.key for c in cells])

    stats = dict(executor.stats)
    return {
        "label": f"multi_seed {base.label()} seeds={list(seeds)}",
        "cells": len(cells),
        "jobs": jobs,
        "repeats": repeats,
        "registered_backends": sorted(BACKENDS),
        "warmup_wall_s": warmup_s,
        "serial_wall_s": walls["serial"],
        "persistent_wall_s": walls["persistent"],
        "wall_s_all": walls_all,
        "sweep_speedup": (walls["serial"] / walls["persistent"]
                          if walls["persistent"] > 0 else None),
        "speedup_target": SWEEP_SPEEDUP_TARGET,
        "records_identical": canons["serial"] == canons["persistent"],
        "merge_order_preserved": order_preserved,
        "workers_stayed_warm": stats["spawns"] == spawns_before,
        "executor_stats": stats,
    }


def bench_fastpath_smoke_floor(repeats: int = 3) -> dict:
    """Fast-mode wall clock of the CI smoke cell, min-of-N.

    Stored in ``BENCH_PR5.json`` by full runs; a later ``--smoke`` run
    compares its own measurement against this committed floor and
    prints a GitHub-actions ``::warning::`` — never a failure, CI
    runners are too noisy for a hard gate — when it regresses by more
    than :data:`SMOKE_REGRESSION_FACTOR`.
    """
    from repro.gang.job import Job

    walls = []
    for _ in range(repeats):
        Job._next_jid = 1
        t0 = time.perf_counter()
        run_experiment(SMOKE_CELL)
        walls.append(time.perf_counter() - t0)
    return {
        "label": SMOKE_CELL.label(),
        "scale": SMOKE_CELL.scale,
        "repeats": repeats,
        "floor_wall_s": min(walls),
        "regression_factor": SMOKE_REGRESSION_FACTOR,
    }


def check_smoke_regression(measured_wall_s: float) -> dict:
    """Advisory perf gate: compare a smoke measurement to the floor.

    Reads the floor from the *committed* ``BENCH_PR5.json`` at the repo
    root (not ``--pr5-out``, which CI points at a scratch file) and
    emits a ``::warning::`` annotation on regression.  Missing or
    malformed floors disarm the gate silently — a fresh checkout
    without a recorded floor must not fail CI.
    """
    ref = REPO_ROOT / "BENCH_PR5.json"
    try:
        floor = json.loads(ref.read_text())["smoke_floor"]["floor_wall_s"]
    except (OSError, KeyError, TypeError, ValueError):
        return {"smoke_wall_s": measured_wall_s, "floor_wall_s": None,
                "regressed": False}
    limit = floor * SMOKE_REGRESSION_FACTOR
    regressed = measured_wall_s > limit
    if regressed:
        print(
            f"::warning::fast-path smoke cell took {measured_wall_s:.3f}s,"
            f" above the recorded floor {floor:.3f}s "
            f"x{SMOKE_REGRESSION_FACTOR} = {limit:.3f}s — possible "
            f"performance regression (advisory only)"
        )
    return {
        "smoke_wall_s": measured_wall_s,
        "floor_wall_s": floor,
        "limit_wall_s": limit,
        "regressed": regressed,
    }


def _jobs_arg(text: str) -> int:
    """``--jobs`` parser: a positive int or ``auto`` (host CPU count)."""
    from repro.perf.backend import resolve_jobs

    try:
        return resolve_jobs(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny scale, correctness only; for CI")
    ap.add_argument(
        "--section",
        choices=("pr2", "pr3", "pr4", "pr5", "pr6", "pr7", "pr8",
                 "pr10", "all"),
        default="pr10",
        help="benchmark section(s) to run; defaults to the current "
             "PR's section so routine runs refresh only its BENCH "
             "file instead of rewriting the historical reports")
    ap.add_argument("--out", default=str(REPO_ROOT / "BENCH_PR2.json"))
    ap.add_argument("--obs-out", default=str(REPO_ROOT / "BENCH_PR3.json"))
    ap.add_argument("--pr4-out", default=str(REPO_ROOT / "BENCH_PR4.json"))
    ap.add_argument("--pr5-out", default=str(REPO_ROOT / "BENCH_PR5.json"))
    ap.add_argument("--pr6-out", default=str(REPO_ROOT / "BENCH_PR6.json"))
    ap.add_argument("--pr7-out", default=str(REPO_ROOT / "BENCH_PR7.json"))
    ap.add_argument("--pr8-out", default=str(REPO_ROOT / "BENCH_PR8.json"))
    ap.add_argument("--pr8-trace-out", default=None,
                    help="also write the merged chaos-sweep Chrome "
                         "trace here (CI uploads it as an artifact)")
    ap.add_argument("--pr10-out",
                    default=str(REPO_ROOT / "BENCH_PR10.json"))
    ap.add_argument(
        "--require-speedup", action="store_true",
        help="treat the pr10 sweep-speedup floor as a hard gate even "
             "though it is advisory by default (the CI 4-vCPU leg "
             "sets this; pointless on hosts with fewer than "
             f"{SPEEDUP_MIN_CPUS} CPUs)")
    ap.add_argument(
        "--jobs", type=_jobs_arg, default=4,
        help="worker count for sweep benchmarks; 'auto' = host CPU "
             "count")
    ap.add_argument(
        "--repeats", type=int, default=3,
        help="repeat count for full-mode single-cell benchmarks; raise "
             "on noisy hosts so min-of-N approaches the quiet floor")
    args = ap.parse_args(argv)

    wanted = {s: args.section in (s, "all")
              for s in ("pr2", "pr3", "pr4", "pr5", "pr6", "pr7", "pr8",
                        "pr10")}
    mode = "smoke" if args.smoke else "full"

    def emit(report: dict, path: str) -> None:
        # every BENCH file carries the fig6 trajectory (see
        # fig6_trajectory) unless the section appended its own
        report.setdefault("fig6_trajectory", fig6_trajectory())
        out = Path(path)
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(json.dumps(report, indent=2))
        print(f"\nwritten to {out}")

    if wanted["pr2"]:
        if args.smoke:
            single = bench_single_cell(SMOKE_CELL, repeats=1)
            single.pop("baseline_wall_s")
            single.pop("speedup_vs_baseline")
            sweep = bench_sweep(scale=0.05, seeds=(1, 2), jobs=2)
        else:
            single = bench_single_cell(FIG6_LRU, repeats=args.repeats)
            sweep = bench_sweep(scale=0.1, seeds=(1, 2, 3, 4),
                                jobs=args.jobs)
        emit({
            "bench": "PR2 parallel execution + engine hot path",
            "mode": mode,
            "host_cpu_count": os.cpu_count(),
            "single_cell": single,
            "sweep": sweep,
        }, args.out)
        if not sweep["serial_parallel_identical"]:
            print("FAIL: parallel sweep output diverged from serial",
                  file=sys.stderr)
            return 1

    if wanted["pr3"]:
        obs_bench = bench_obs_overhead(
            SMOKE_CELL if args.smoke else FIG6_LRU,
            repeats=1 if args.smoke else args.repeats)
        emit({
            "bench": "PR3 telemetry subsystem overhead",
            "mode": mode,
            "host_cpu_count": os.cpu_count(),
            "obs_overhead": obs_bench,
        }, args.obs_out)
        if not obs_bench["simulation_identical"]:
            print("FAIL: instrumented run diverged from uninstrumented",
                  file=sys.stderr)
            return 1
        if not args.smoke and not obs_bench["within_budget"]:
            print(
                f"FAIL: telemetry overhead "
                f"{obs_bench['obs_overhead_frac']:.1%} "
                f"({obs_bench['obs_overhead_per_event_us']:.2f} us/event) "
                f"exceeds both the {OBS_OVERHEAD_BUDGET:.0%} relative and "
                f"{OBS_OVERHEAD_BUDGET_PER_EVENT_US:.1f} us/event budgets",
                file=sys.stderr,
            )
            return 1

    if wanted["pr4"]:
        if args.smoke:
            cache_bench = bench_cache(scale=0.05, seeds=(1, 2))
        else:
            cache_bench = bench_cache(scale=0.1, seeds=(1, 2, 3, 4))
        emit({
            "bench": "PR4 cell cache",
            "mode": mode,
            "host_cpu_count": os.cpu_count(),
            "cell_cache": cache_bench,
        }, args.pr4_out)
        if not cache_bench["cached_fresh_identical"]:
            print("FAIL: warm-cache sweep output diverged from cold",
                  file=sys.stderr)
            return 1
        if not cache_bench["meets_skip_target"]:
            print(
                f"FAIL: warm-cache rerun skipped only "
                f"{cache_bench['cells_skipped_frac']:.0%} of cells "
                f"(target {CACHE_SKIP_TARGET:.0%})",
                file=sys.stderr,
            )
            return 1

    if wanted["pr5"]:
        if args.smoke:
            fast_bench = bench_fastpath(SMOKE_CELL, repeats=1)
            fast_bench.pop("baseline_pr4_wall_s")
            fast_bench.pop("speedup_vs_pr4_baseline")
            fast_bench.pop("speedup_target")
            fast_bench.pop("meets_target")
            # advisory regression check against the committed floor,
            # before --pr5-out possibly overwrites it
            gate = check_smoke_regression(fast_bench["fast_wall_s_min"])
            report = {
                "bench": "PR5 steady-state execution fast path",
                "mode": mode,
                "host_cpu_count": os.cpu_count(),
                "fast_path": fast_bench,
                "regression_gate": gate,
            }
        else:
            fast_bench = bench_fastpath(FIG6_LRU, repeats=args.repeats)
            report = {
                "bench": "PR5 steady-state execution fast path",
                "mode": mode,
                "host_cpu_count": os.cpu_count(),
                "fast_path": fast_bench,
                "smoke_floor": bench_fastpath_smoke_floor(),
            }
        emit(report, args.pr5_out)
        if not fast_bench["simulation_identical"]:
            print("FAIL: fast-path run diverged from slow-mode run",
                  file=sys.stderr)
            return 1
        if not fast_bench["events_dropped"]:
            print("FAIL: fast path processed as many events as slow "
                  "mode — it never engaged", file=sys.stderr)
            return 1

    @functools.cache
    def chaos() -> dict:
        """The chaos scenario, run once and shared by pr6 and pr10."""
        if args.smoke:
            return bench_chaos(scale=0.05, seeds=(1, 2), jobs=2)
        return bench_chaos(scale=0.1, seeds=(1, 2, 3, 4), jobs=args.jobs)

    if wanted["pr6"]:
        chaos_bench = chaos()
        emit({
            "bench": "PR6 resilient sweep execution (supervisor)",
            "mode": mode,
            "host_cpu_count": os.cpu_count(),
            "chaos": chaos_bench,
        }, args.pr6_out)
        failure = chaos_failure(chaos_bench)
        if failure:
            print(f"FAIL: {failure}", file=sys.stderr)
            return 1

    if wanted["pr7"]:
        if args.smoke:
            # cheap identity check on the smoke cell, then a hard
            # regression gate on the real fig6 cell against the
            # committed floor (before --pr7-out possibly overwrites it)
            ba_bench = bench_batch_advance(SMOKE_CELL, repeats=1)
            ba_bench.pop("baseline_pr5_wall_s")
            ba_bench.pop("speedup_vs_pr5_baseline")
            ba_bench.pop("speedup_target")
            ba_bench.pop("meets_target")
            gate = check_fig6_regression(
                bench_fig6_smoke_floor(repeats=2)["floor_wall_s"])
            report = {
                "bench": "PR7 vectorized batch-advance event core",
                "mode": mode,
                "host_cpu_count": os.cpu_count(),
                "batch_advance": ba_bench,
                "regression_gate": gate,
            }
        else:
            ba_bench = bench_batch_advance(FIG6_LRU, repeats=args.repeats)
            gate = None
            report = {
                "bench": "PR7 vectorized batch-advance event core",
                "mode": mode,
                "host_cpu_count": os.cpu_count(),
                "batch_advance": ba_bench,
                "smoke_floor": bench_fig6_smoke_floor(),
                "fig6_trajectory": fig6_trajectory(
                    "PR7", ba_bench["fast_wall_s_min"]),
            }
        emit(report, args.pr7_out)
        if not ba_bench["simulation_identical"]:
            print("FAIL: batch-advance run diverged from scalar-dispatch "
                  "run", file=sys.stderr)
            return 1
        if ba_bench["events_batched"] <= 0:
            print("FAIL: batch-advance dispatched as many events as the "
                  "scalar loop — it never engaged", file=sys.stderr)
            return 1
        if gate is not None and gate["regressed"]:
            print(
                f"FAIL: fig6 LRU cell took {gate['fig6_wall_s']:.3f}s, "
                f"over the {gate['limit_wall_s']:.3f}s regression limit "
                f"({SMOKE_REGRESSION_FACTOR}x the committed floor)",
                file=sys.stderr,
            )
            return 1

    if wanted["pr8"]:
        if args.smoke:
            obs_sweep = bench_sweep_obs(scale=0.05, seeds=(1, 2), jobs=2,
                                        repeats=2)
            chaos_ev = bench_chaos_events(
                scale=0.05, seeds=(1, 2), jobs=2,
                trace_out=args.pr8_trace_out)
        else:
            obs_sweep = bench_sweep_obs(scale=0.1, seeds=(1, 2, 3, 4),
                                        jobs=args.jobs,
                                        repeats=args.repeats)
            chaos_ev = bench_chaos_events(
                scale=0.1, seeds=(1, 2, 3, 4), jobs=args.jobs,
                trace_out=args.pr8_trace_out)
        emit({
            "bench": "PR8 sweep-scale observability",
            "mode": mode,
            "host_cpu_count": os.cpu_count(),
            "sweep_obs": obs_sweep,
            "chaos_events": chaos_ev,
        }, args.pr8_out)
        for field, msg in (
            ("records_identical",
             "obs-on sweep records diverged from the obs-off serial "
             "run"),
            ("summary_equals_cell_sum",
             "sweep summary() != sum of per-cell summaries"),
            ("registry_counters_equal",
             "merged-registry counters disagree with the summed "
             "summaries"),
            ("one_track_per_cell",
             "merged Chrome trace does not carry one track per cell"),
        ):
            if not obs_sweep[field]:
                print(f"FAIL: {msg}", file=sys.stderr)
                return 1
        if not args.smoke and not obs_sweep["within_budget"]:
            print(
                f"FAIL: sweep telemetry overhead "
                f"{obs_sweep['obs_overhead_frac']:.1%} "
                f"({obs_sweep['obs_overhead_per_event_us']:.2f} "
                f"us/event) exceeds both the "
                f"{OBS_OVERHEAD_BUDGET:.0%} relative and "
                f"{OBS_SWEEP_OVERHEAD_PER_EVENT_US:.1f} us/event "
                f"budgets", file=sys.stderr)
            return 1
        for field, msg in (
            ("chaos_identical",
             "instrumented chaos sweep diverged from the fault-free "
             "serial run"),
            ("zero_quarantined",
             "instrumented chaos sweep quarantined cells"),
            ("survived_respawns",
             "no worker respawn happened — the crash plan never "
             "engaged"),
            ("every_retry_logged",
             "event log is missing retries the supervisor counted"),
            ("every_respawn_logged",
             "event log is missing worker respawns the supervisor "
             "counted"),
            ("retries_name_cells",
             "retry events do not all name their cell key"),
        ):
            if not chaos_ev[field]:
                print(f"FAIL: {msg}", file=sys.stderr)
                return 1

    if wanted["pr10"]:
        if args.smoke:
            backends_bench = bench_backends(
                scale=0.05, seeds=(1, 2, 3, 4), jobs=args.jobs,
                repeats=2)
        else:
            backends_bench = bench_backends(
                scale=0.1, seeds=tuple(range(1, 17)), jobs=args.jobs,
                repeats=max(2, args.repeats - 1))
        chaos_bench = chaos()

        speedup = backends_bench["sweep_speedup"]
        # the multi-core floor is judged only where it can be met
        # (>= 4 CPUs) or where CI explicitly demands it
        gate_armed = (_require_cpus("the pr10 sweep-speedup floor")
                      or args.require_speedup)
        meets = (speedup is not None
                 and speedup >= SWEEP_SPEEDUP_TARGET
                 if gate_armed else None)
        backends_bench["meets_target"] = meets
        backends_bench["skipped_low_cpu"] = not gate_armed
        note = None if gate_armed else (
            f"floor skipped: {os.cpu_count() or 1}-cpu host")
        emit({
            "bench": "PR10 persistent-worker sweep executor",
            "mode": mode,
            "host_cpu_count": os.cpu_count(),
            "backends": backends_bench,
            "chaos": chaos_bench,
            "sweep_trajectory": sweep_trajectory(
                speedup, jobs=args.jobs, note=note),
        }, args.pr10_out)
        for field, msg in (
            ("records_identical",
             "backend outputs diverged — serial and persistent must "
             "merge byte-identically"),
            ("merge_order_preserved",
             "a backend merged cells out of declaration order"),
            ("workers_stayed_warm",
             "persistent executor spawned workers after warm-up — the "
             "warm pool never engaged"),
        ):
            if not backends_bench[field]:
                print(f"FAIL: {msg}", file=sys.stderr)
                return 1
        failure = chaos_failure(chaos_bench)
        if failure:
            print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        if meets is False:
            msg = (f"sweep speedup {speedup:.2f}x is below the "
                   f"{SWEEP_SPEEDUP_TARGET}x floor at {args.jobs} jobs "
                   f"on a {os.cpu_count()}-cpu host")
            if args.require_speedup:
                print(f"FAIL: {msg}", file=sys.stderr)
                return 1
            print(f"::warning::{msg} (advisory here; the CI 4-vCPU "
                  f"leg passes --require-speedup)")

    return 0


if __name__ == "__main__":
    raise SystemExit(main())
