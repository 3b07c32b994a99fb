"""Which public functions of which layer the traced run wraps, and how
its spans become the per-layer metrics of ``BENCHMARK.json``.

Span names are ``<layer>.<what>``; the layer names follow the packages
under ``src/repro``.  Names imported into another module are patched at
the importing module, where the program looks them up.
"""

from __future__ import annotations

from perfbench.tracer import CELL, Probe, SpanStats, Tracer

WORKLOAD_SPANS = ("workloads.make_npb", "workloads.iteration_phases",
                  "workloads.expand_phase")
EVICT_SPANS = ("mem.evict_batch", "mem.evict_batch@bg")
DISK_SPANS = ("disk.submit", "disk.eager", "disk.service_time")
INDEX_VIEWS = ("resident_pages", "dirty_resident_pages",
               "clean_resident_pages", "candidates", "touched_pages",
               "touched_count")
EAGER_DISK = ("service_eager", "eager_run_times", "eager_times_list",
              "commit_eager_run")


def tally_batches(tracer: Tracer, batches) -> None:
    """Count victim batches and the pages in them, whichever path
    (scalar ``evict_batch`` or batch-advance) commits them."""
    if tracer.active:
        tracer.counts["mem.evict_batch.batches"] += len(batches)
        tracer.counts["mem.evict_batch.pages"] += sum(b.pages.size
                                                      for b in batches)


class EvictProbe(Probe):
    """Tallies the batch handed to ``evict_batch`` and names background
    cleaning (``keep_resident=True``) calls apart from evictions."""

    def __init__(self, tracer: Tracer):
        self.bg = tracer.name_id("mem.evict_batch@bg")

    def on_call(self, tracer, nid, args, kwargs):
        # evict_batch(self, batch, priority=..., keep_resident=False)
        batch = args[1] if len(args) > 1 else kwargs["batch"]
        keep = kwargs.get("keep_resident",
                          args[3] if len(args) > 3 else False)
        tally_batches(tracer, [batch])
        return self.bg if keep else nid


class EagerEvictProbe(Probe):
    """Tallies the batches of one selector call that batch-advance
    evicts in-line (``_eager_evict_batches(self, batches, t)``)."""

    def on_call(self, tracer, nid, args, kwargs):
        tally_batches(tracer, args[1])
        return nid


class HitProbe(Probe):
    """Counts calls that returned a true value."""

    def __init__(self, key: str):
        self.key = key

    def on_return(self, tracer, result):
        if result:
            tracer.counts[self.key] += 1


class WriterProbe(Probe):
    """Remembers every background writer started during a cell, so the
    writer's public ``bursts`` / ``pages_written`` can be read after."""

    def __init__(self):
        self.writers: dict[int, object] = {}

    def on_call(self, tracer, nid, args, kwargs):
        if tracer.active:
            self.writers[id(args[0])] = args[0]
        return nid

    def flush(self, tracer: Tracer) -> None:
        """Add the cell's writer totals to the tracer's counts."""
        for writer in self.writers.values():
            tracer.counts["core.bg.bursts"] += writer.bursts
            tracer.counts["core.bg.pages_written"] += writer.pages_written
        self.writers.clear()


#: (module, class or None, attribute, span name) of every traced
#: boundary.  ``VirtualMemoryManager.touch_fast`` has no caller: the
#: job's resident-run probe is the fast path's entry (True on a hit).
#: Batch-advance reclaims and evicts in-line, inside ``touch``; its
#: episode and batch walk are traced under the scalar paths' names, so
#: work moving between the two paths stays in one layer metric.
#: ``BackgroundWriter._run`` is the writer's process body: the dirty-set
#: scan and burst selection.
TARGETS = (
    ("repro.experiments.runner", None, "run_experiment",
     "runner.run_experiment"),
    ("repro.sim.engine", "Environment", "run", "sim.run"),
    ("repro.experiments.runner", None, "make_npb", "workloads.make_npb"),
    ("repro.workloads.npb", "NpbWorkload", "iteration_phases",
     "workloads.iteration_phases"),
    ("repro.gang.job", None, "expand_phase", "workloads.expand_phase"),
    ("repro.mem.vmm", "VirtualMemoryManager", "touch", "mem.touch"),
    ("repro.gang.job", "JobProcess", "_resident_run", "mem.touch_fast"),
    ("repro.mem.vmm", "VirtualMemoryManager", "swap_in_block",
     "mem.swap_in_block"),
    ("repro.mem.vmm", "VirtualMemoryManager", "reclaim", "mem.reclaim"),
    ("repro.mem.vmm", "VirtualMemoryManager", "_eager_reclaim_episode",
     "mem.reclaim"),
    ("repro.mem.vmm", "VirtualMemoryManager", "evict_batch",
     "mem.evict_batch"),
    ("repro.mem.vmm", "VirtualMemoryManager", "_eager_evict_batches",
     "mem.evict_batch"),
    ("repro.mem.vmm", None, "plan_swapins_fused", "mem.readahead"),
    ("repro.core.api", None, "plan_block_reads", "mem.readahead"),
    *(("repro.mem.replacement", policy, "select_victims",
       "mem.select_victims")
      for policy in ("GlobalLruPolicy", "LargestProcessClockPolicy",
                     "PageAgingPolicy")),
    ("repro.core.selective", "SelectivePageOut", "__call__",
     "mem.select_victims"),
    *(("repro.mem.index", "PageIndex", view, "mem.index")
      for view in INDEX_VIEWS),
    ("repro.core.api", "AdaptivePaging", "adaptive_page_out",
     "core.page_out"),
    ("repro.core.api", "AdaptivePaging", "adaptive_page_in",
     "core.page_in"),
    ("repro.core.background", "BackgroundWriter", "start", "core.bg.start"),
    ("repro.core.background", "BackgroundWriter", "_run", "core.bg.run"),
    ("repro.disk.device", "Disk", "submit", "disk.submit"),
    *(("repro.disk.device", "Disk", attr, "disk.eager")
      for attr in EAGER_DISK),
    ("repro.disk.device", "Disk", "service_time_for", "disk.service_time"),
)


def install(tracer: Tracer) -> tuple[WriterProbe, list[str]]:
    """Patch every traced boundary the program still has.

    Returns the writer probe and the targets that no longer exist (a
    change that deletes a layer leaves its metrics at zero instead of
    breaking the traced run).  Undone by ``tracer.unpatch()``.
    """
    import importlib

    writers = WriterProbe()
    probes = {
        ("JobProcess", "_resident_run"): HitProbe("mem.touch_fast.hits"),
        ("VirtualMemoryManager", "evict_batch"): EvictProbe(tracer),
        ("VirtualMemoryManager", "_eager_evict_batches"): EagerEvictProbe(),
        ("BackgroundWriter", "start"): writers,
    }
    missing = []
    for module, cls, attr, name in TARGETS:
        try:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{module}.{cls + '.' if cls else ''}{attr}")
            continue
        tracer.patch(owner, attr, name, probes.get((cls, attr)))
    return writers, missing


def metrics(stats: SpanStats, counts: dict, records: list[dict]) -> dict:
    """Per-layer metrics of one traced pass: ``{name: (value, unit)}``.

    ``records`` are the pass's ``run_cell`` results; simulated counts
    (events, disk pages) come from them, host time from the spans.
    """
    def calls(*names):
        return (int(stats.sum("calls", names)), "count")

    def count(key):
        return (int(counts.get(key, 0)), "count")

    def self_s(*names):
        return (stats.sum("self_s", names), "s")

    simulated = sum(r["events_simulated"] for r in records)
    dispatched = sum(r["events_dispatched"] for r in records)
    touch_fast = stats.sum("calls", ["mem.touch_fast"])
    out = {
        "runner.build_s": (stats.sum("total_s", ["runner.run_experiment"])
                           - stats.sum("total_s", ["sim.run"]), "s"),
        "runner.self_s": self_s("runner.run_experiment"),
        "sim.events_simulated": (simulated, "count"),
        "sim.events_dispatched": (dispatched, "count"),
        "sim.absorbed_frac": ((simulated - dispatched) / simulated
                              if simulated else 0.0, "ratio"),
        "sim.self_s": self_s("sim.run"),
        "workloads.calls": calls(*WORKLOAD_SPANS),
        "workloads.self_s": self_s(*WORKLOAD_SPANS),
    }
    for name in ("touch", "touch_fast", "swap_in_block", "reclaim"):
        out[f"mem.{name}.calls"] = calls(f"mem.{name}")
        out[f"mem.{name}.self_s"] = self_s(f"mem.{name}")
    out["mem.touch_fast.hit_frac"] = (
        counts.get("mem.touch_fast.hits", 0) / touch_fast
        if touch_fast else 0.0, "ratio")
    # victim batches, not calls: batch-advance commits a selector
    # call's whole list of batches in one call
    out["mem.evict_batch.calls"] = count("mem.evict_batch.batches")
    out["mem.evict_batch.self_s"] = self_s(*EVICT_SPANS)
    out["mem.evict_batch.pages"] = count("mem.evict_batch.pages")
    for name in ("readahead", "select_victims", "index"):
        out[f"mem.{name}.calls"] = calls(f"mem.{name}")
        out[f"mem.{name}.self_s"] = self_s(f"mem.{name}")
    for name in ("page_out", "page_in"):
        out[f"core.{name}.calls"] = calls(f"core.{name}")
        out[f"core.{name}.self_s"] = self_s(f"core.{name}")
    out["core.bg.starts"] = calls("core.bg.start")
    out["core.bg.self_s"] = self_s("core.bg.start", "core.bg.run")
    out["core.bg.bursts"] = count("core.bg.bursts")
    out["core.bg.pages_written"] = count("core.bg.pages_written")
    out["core.bg.write_s"] = (stats.sum("total_s", ["mem.evict_batch@bg"]),
                              "s")
    out["disk.submit.calls"] = calls("disk.submit")
    out["disk.eager.calls"] = calls("disk.eager")
    out["disk.self_s"] = self_s(*DISK_SPANS)
    out["disk.pages_read"] = (sum(r["pages_read"] for r in records), "count")
    out["disk.pages_written"] = (sum(r["pages_written"] for r in records),
                                 "count")
    out["trace.unattributed_frac"] = (
        stats.sum("self_s", [CELL]) / stats.cell_s if stats.cell_s else 0.0,
        "ratio")
    out["trace.spans"] = (stats.n_spans, "count")
    return out


__all__ = ["install", "metrics"]
