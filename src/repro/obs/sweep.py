"""Sweep-scale observability: cross-process telemetry aggregation.

PR 3's :class:`~repro.obs.registry.Registry` instruments one process;
since the sweep layer (:mod:`repro.perf.pool` /
:mod:`repro.perf.supervisor`) fans cells across worker processes, a
worker's counters and spans never reached the parent.  This module
closes the gap with four pieces:

* **Capture + absorb.**  When capture is on (:func:`set_capture`, or
  automatically via :func:`set_default_sweep`),
  :func:`repro.perf.pool._execute` runs every cell against a fresh
  default registry and attaches its
  :meth:`~repro.obs.registry.Registry.snapshot` (plus the flat
  :func:`~repro.obs.export.summary`) under the result's ``"_perf"``
  quarantine — the established nondeterminism channel, so obs-on and
  obs-off sweeps stay byte-identical outside it and cell cache
  fingerprints never change.  :class:`SweepObserver` folds the shipped
  snapshots into one sweep-level registry, one track group per cell,
  which is what makes ``--trace-out`` meaningful under ``--jobs N``.

* **Sweep summaries.**  :meth:`SweepObserver.summary` is the
  elementwise sum of the per-cell summaries (:func:`merge_summaries`),
  so it *equals* that sum by construction — including span totals,
  which would not survive re-aggregation from raw spans under floating
  point.  Counters, gauges and histograms in the merged registry agree
  with the summed view exactly (additive merges in the same order).

* **Supervisor event log.**  :class:`SweepEventLog` records every
  retry, grace extension, hung-kill, worker respawn and quarantine as a
  structured entry correlated by cell key + attempt; with journaling
  on it is mirrored to ``<sweep_id>.events.jsonl`` next to the sweep
  journal.  :func:`load_events` / :func:`render_event_table` read a
  log back for ``repro obs``.

* **Progress + bench trajectory.**  :class:`ProgressTicker` renders a
  single-line live done/running/quarantined + ETA + events/sec display
  to stderr (auto-disabled when not a TTY), driven by the supervisor's
  EMA cost estimates.  :func:`load_bench_reports` /
  :func:`render_bench_report` back ``repro obs bench-report``: the
  cumulative fig6 perf trajectory across every committed
  ``BENCH_PR*.json``, with consecutive-step regression flags.
"""

from __future__ import annotations

import json
import os
import re
import sys
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Hashable,
    IO,
    Iterable,
    Mapping,
    Optional,
    Union,
)

from repro.obs.export import summary as registry_summary
from repro.obs.registry import Registry, Span

#: environment flag that turns on worker-side telemetry capture.  An
#: env var rather than a module global because pool workers are child
#: processes: they inherit the environment, not the parent's globals.
CAPTURE_ENV = "REPRO_SWEEP_OBS"


def capture_enabled() -> bool:
    """Whether sweep telemetry capture is on in this process."""
    return os.environ.get(CAPTURE_ENV, "") not in ("", "0")


def set_capture(on: bool) -> None:
    """Raise or clear the capture flag (inherited by new workers)."""
    if on:
        os.environ[CAPTURE_ENV] = "1"
    else:
        os.environ.pop(CAPTURE_ENV, None)


# ---------------------------------------------------------------------------
# summary folding
# ---------------------------------------------------------------------------

def merge_summaries(summaries: Iterable[dict]) -> dict:
    """Elementwise sum of :func:`~repro.obs.export.summary` dicts.

    Counters, gauges, span counts/totals and histogram counts/sums
    add; histogram min/max combine; span ``max_s`` takes the maximum.
    Keys are sorted so the result is deterministic regardless of
    absorb order.
    """
    out: dict[str, dict] = {"counters": {}, "gauges": {},
                            "histograms": {}, "spans": {}}
    for s in summaries:
        for k, v in s.get("counters", {}).items():
            out["counters"][k] = out["counters"].get(k, 0.0) + v
        for k, v in s.get("gauges", {}).items():
            out["gauges"][k] = out["gauges"].get(k, 0.0) + v
        for k, h in s.get("histograms", {}).items():
            agg = out["histograms"].setdefault(
                k, {"count": 0, "sum": 0.0, "min": None, "max": None})
            agg["count"] += h["count"]
            agg["sum"] += h["sum"]
            if h.get("min") is not None and (
                    agg["min"] is None or h["min"] < agg["min"]):
                agg["min"] = h["min"]
            if h.get("max") is not None and (
                    agg["max"] is None or h["max"] > agg["max"]):
                agg["max"] = h["max"]
        for k, sp in s.get("spans", {}).items():
            agg = out["spans"].setdefault(
                k, {"count": 0, "total_s": 0.0, "max_s": 0.0})
            agg["count"] += sp["count"]
            agg["total_s"] += sp["total_s"]
            if sp["max_s"] > agg["max_s"]:
                agg["max_s"] = sp["max_s"]
    return {sec: dict(sorted(vals.items())) for sec, vals in out.items()}


def summary_of_snapshot(snap: dict) -> dict:
    """The flat summary a snapshot's source registry would produce."""
    reg = Registry()
    reg.merge(snap)
    return registry_summary(reg)


# ---------------------------------------------------------------------------
# the sweep observer
# ---------------------------------------------------------------------------

class SweepObserver:
    """Fold per-cell telemetry payloads into one sweep-level view.

    ``registry`` is the merged :class:`~repro.obs.registry.Registry`
    feeding the cross-cell Chrome trace: every absorbed cell's spans
    land under a track prefix built from its cell key (repeat keys are
    disambiguated with ``#n``), plus one ``cell`` marker span per cell
    covering ``[0, makespan)`` so cells without switch-phase spans
    (batch mode) still appear as a track of their own.

    :meth:`summary` is computed from the per-cell summaries, not from
    the merged registry — see :func:`merge_summaries`.
    """

    def __init__(self) -> None:
        #: the merged registry (spans prefixed per cell)
        self.registry = Registry()
        self._summaries: list[tuple[str, dict]] = []
        self._prefix_counts: dict[str, int] = {}
        #: results absorbed without a telemetry payload (e.g. cache
        #: hits stored by an obs-off run, or non-dict cell results)
        self.cells_skipped = 0
        #: cells per persistent-executor worker id, from the
        #: ``_perf["worker"]`` annotation (empty for serial / legacy
        #: pool sweeps, which have no stable worker identity); shows
        #: how evenly the work-stealing scheduler spread the sweep
        self.worker_cells: dict[int, int] = {}

    @property
    def cell_count(self) -> int:
        """Number of cells whose telemetry was absorbed."""
        return len(self._summaries)

    def cell_summaries(self) -> dict[str, dict]:
        """Per-cell flat summaries, keyed by the cell's track prefix."""
        return dict(self._summaries)

    def _prefix(self, key: Hashable) -> str:
        base = key if isinstance(key, str) else repr(key)
        n = self._prefix_counts.get(base, 0)
        self._prefix_counts[base] = n + 1
        return base if n == 0 else f"{base}#{n + 1}"

    def absorb(self, key: Hashable, result: Any) -> bool:
        """Fold one cell result's shipped telemetry; True if absorbed."""
        perf = result.get("_perf") if isinstance(result, dict) else None
        if isinstance(perf, dict) and isinstance(perf.get("worker"),
                                                 int):
            wid = perf["worker"]
            self.worker_cells[wid] = self.worker_cells.get(wid, 0) + 1
        snap = perf.get("obs_snapshot") if isinstance(perf, dict) else None
        if not isinstance(snap, dict):
            self.cells_skipped += 1
            return False
        prefix = self._prefix(key)
        self.registry.merge(snap, track_prefix=prefix)
        # one marker span per cell on the same trace process its own
        # spans map to (or the bare prefix when it recorded none), so
        # every cell — including span-free batch cells — gets exactly
        # one distinct track group in the merged trace
        proc = ""
        if snap.get("spans"):
            proc = snap["spans"][0][1].rpartition("/")[0]
        track = f"{prefix}/{proc}/sweep" if proc else f"{prefix}/sweep"
        end = result.get("makespan")
        end = float(end) if isinstance(end, (int, float)) else 0.0
        self.registry.spans.append(
            Span("cell", track, 0.0, end, {"key": prefix}))
        cell_summary = perf.get("obs")
        if not isinstance(cell_summary, dict):
            cell_summary = summary_of_snapshot(snap)
        self._summaries.append((prefix, cell_summary))
        return True

    def absorb_results(self, merged: Mapping[Hashable, Any]) -> int:
        """Absorb a merged sweep record; returns the absorbed count."""
        return sum(self.absorb(k, v) for k, v in merged.items())

    def summary(self) -> dict:
        """Elementwise sum of the absorbed per-cell summaries.

        Exact by construction: the fold happens on the per-cell
        aggregates themselves, so the result equals the sum of the
        cells' ``summary()`` dicts — including span totals, which a
        re-aggregation over the merged registry's raw spans could
        perturb in the last float ulp.
        """
        return merge_summaries(s for _, s in self._summaries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"SweepObserver(cells={self.cell_count}, "
                f"skipped={self.cells_skipped}, registry={self.registry!r})")


_default_sweep: Optional[SweepObserver] = None


def get_default_sweep() -> Optional[SweepObserver]:
    """The process-wide default sweep observer (``None`` = off)."""
    return _default_sweep


def set_default_sweep(obs: Optional[SweepObserver]) -> None:
    """Install (or with ``None`` remove) the default sweep observer.

    Installing also raises the worker capture flag so pool workers
    created afterwards ship their telemetry; removing clears it.
    """
    global _default_sweep
    _default_sweep = obs
    set_capture(obs is not None)


# ---------------------------------------------------------------------------
# supervisor event log
# ---------------------------------------------------------------------------

class SweepEventLog:
    """Structured supervision event log: in-memory, optionally JSONL.

    Every entry carries ``seq`` (monotonic), ``t`` (host epoch
    seconds), ``event``, and — for cell-scoped events — ``key`` (the
    cell key's repr) and ``attempt`` (failed attempts charged so far),
    plus event-specific detail fields.  Event names emitted by the
    supervisor: ``sweep_begin``, ``resumed``, ``persistent_begin``,
    ``retry``, ``grace_extension``, ``hung_kill``, ``worker_respawn``,
    ``requeued``, ``quarantine``, ``cell_done``.
    """

    def __init__(self, path: Union[str, Path, None] = None) -> None:
        self.entries: list[dict] = []
        self.path: Optional[Path] = None
        self._fh: Optional[IO[str]] = None
        if path is not None:
            self.attach(path)

    def attach(self, path: Union[str, Path]) -> Path:
        """Mirror subsequent entries to a JSONL file (append mode)."""
        self.close_file()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = self.path.open("a", encoding="utf-8")
        return self.path

    def log(self, event: str, key: Any = None,
            attempt: Optional[int] = None, **detail: Any) -> dict:
        """Record one event; returns the entry dict."""
        entry: dict = {"seq": len(self.entries), "t": time.time(),
                       "event": event}
        if key is not None:
            entry["key"] = key if isinstance(key, str) else repr(key)
        if attempt is not None:
            entry["attempt"] = int(attempt)
        entry.update(detail)
        self.entries.append(entry)
        if self._fh is not None:
            self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
            self._fh.flush()
        return entry

    def named(self, event: str) -> list[dict]:
        """All entries of one event type, in order."""
        return [e for e in self.entries if e["event"] == event]

    def counts(self) -> dict[str, int]:
        """``{event: occurrences}``, name-sorted."""
        out: dict[str, int] = {}
        for e in self.entries:
            out[e["event"]] = out.get(e["event"], 0) + 1
        return dict(sorted(out.items()))

    def close_file(self) -> None:
        """Stop mirroring to the file (entries stay in memory)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def load_events(path: Union[str, Path]) -> list[dict]:
    """Read a :class:`SweepEventLog` JSONL file back.

    Returns ``[]`` when the file is missing or is not an event log
    (any line that fails to parse as an ``{"event": ...}`` object
    disqualifies the whole file) — callers use that to sniff file
    types.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return []
    events: list[dict] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            return []
        if not isinstance(obj, dict) or "event" not in obj:
            return []
        events.append(obj)
    return events


def _fmt_detail(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.3f}"
    return str(v)


def render_event_table(events: list[dict],
                       title: str = "Supervisor events") -> str:
    """ASCII table of event-log entries (for ``repro obs``)."""
    if not events:
        return f"{title}\n<no events recorded>"
    rows = []
    for e in events:
        detail = {k: v for k, v in e.items()
                  if k not in ("seq", "t", "event", "key", "attempt")}
        rows.append((
            e.get("seq", ""),
            e.get("event", "?"),
            str(e.get("key", "")),
            "" if e.get("attempt") is None else e["attempt"],
            ", ".join(f"{k}={_fmt_detail(v)}"
                      for k, v in sorted(detail.items())),
        ))
    # Imported lazily: repro.metrics pulls in the scheduler stack, which
    # itself imports repro.obs — a module-level import would be circular.
    from repro.metrics.report import format_table

    return format_table(("#", "event", "cell", "attempt", "detail"),
                        rows, title=title)


# ---------------------------------------------------------------------------
# live progress / ETA ticker
# ---------------------------------------------------------------------------

def _fmt_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.1f}M"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k"
    return f"{rate:.0f}"


def _fmt_eta(eta_s: float) -> str:
    eta = max(0, int(round(eta_s)))
    h, rem = divmod(eta, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}h{m:02d}m"
    if m:
        return f"{m}m{s:02d}s"
    return f"{s}s"


class ProgressTicker:
    """Single-line live progress display for long sweeps.

    Renders ``sweep D/T done · R running [· Q quarantined] · X ev/s ·
    ETA E`` to ``stream`` (default stderr) with carriage-return
    rewriting, throttled to ``min_interval_s``.  ``enabled=None``
    auto-detects: on only when the stream is a TTY, so redirected and
    CI output is never polluted.  Rates use *events_dispatched* — the
    host-work counter — accumulated from settled cells.
    """

    def __init__(self, total: int, done: int = 0, stream=None,
                 enabled: Optional[bool] = None,
                 min_interval_s: float = 0.2,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            enabled = bool(getattr(self.stream, "isatty",
                                   lambda: False)())
        self.enabled = enabled
        self.total = total
        self.done = done
        self.running = 0
        self.quarantined = 0
        self.events = 0.0
        self._clock = clock
        self._t0 = clock()
        self._min_interval = min_interval_s
        self._last_render = float("-inf")
        self._last_len = 0
        self._rendered = False

    def add_events(self, n: float) -> None:
        """Credit dispatched events from one settled cell."""
        self.events += n

    def render_line(self, eta_s: Optional[float] = None) -> str:
        """The current status line (no terminal control characters)."""
        elapsed = max(1e-9, self._clock() - self._t0)
        rate = self.events / elapsed
        parts = [f"sweep {self.done}/{self.total} done",
                 f"{self.running} running"]
        if self.quarantined:
            parts.append(f"{self.quarantined} quarantined")
        if self.events > 0:
            parts.append(f"{_fmt_rate(rate)} ev/s")
        if eta_s is not None:
            parts.append(f"ETA {_fmt_eta(eta_s)}")
        return " · ".join(parts)

    def update(self, done: Optional[int] = None,
               running: Optional[int] = None,
               quarantined: Optional[int] = None,
               eta_s: Optional[float] = None,
               force: bool = False) -> None:
        """Refresh the state and (rate-limited) redraw the line."""
        if done is not None:
            self.done = done
        if running is not None:
            self.running = running
        if quarantined is not None:
            self.quarantined = quarantined
        if not self.enabled:
            return
        now = self._clock()
        if not force and now - self._last_render < self._min_interval:
            return
        self._last_render = now
        line = self.render_line(eta_s)
        pad = " " * max(0, self._last_len - len(line))
        self.stream.write("\r" + line + pad)
        self.stream.flush()
        self._last_len = len(line)
        self._rendered = True

    def close(self) -> None:
        """Terminate the live line with a newline (if anything drew)."""
        if self.enabled and self._rendered:
            self.stream.write("\n")
            self.stream.flush()


# ---------------------------------------------------------------------------
# bench-trajectory report
# ---------------------------------------------------------------------------

_BENCH_RE = re.compile(r"^BENCH_PR(\d+)\.json$")

#: a trajectory step is flagged when its fig6 wall time exceeds its
#: predecessor's by more than this factor (absorbs host noise between
#: the recorded measurements)
BENCH_REGRESSION_TOLERANCE = 1.1


def load_bench_reports(root: Union[str, Path] = ".") -> list[dict]:
    """Every committed ``BENCH_PR*.json`` under ``root``, PR-sorted.

    Returns ``[{"pr": n, "path": ..., "report": {...}}, ...]``;
    unreadable or malformed files are skipped silently (a fresh
    checkout must not fail on a partial set).
    """
    out = []
    for path in sorted(Path(root).glob("BENCH_PR*.json")):
        m = _BENCH_RE.match(path.name)
        if not m:
            continue
        try:
            report = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(report, dict):
            out.append({"pr": int(m.group(1)), "path": str(path),
                        "report": report})
    out.sort(key=lambda r: r["pr"])
    return out


def bench_trajectory(reports: list[dict]) -> list[dict]:
    """The fullest ``fig6_trajectory`` across the reports.

    Every BENCH file carries the cumulative trajectory forward, so the
    longest list is the complete history; rows without a wall time are
    dropped.
    """
    best: list = []
    for r in reports:
        traj = r["report"].get("fig6_trajectory")
        if isinstance(traj, list) and len(traj) > len(best):
            best = traj
    return [t for t in best
            if isinstance(t, dict) and isinstance(t.get("wall_s"),
                                                  (int, float))]


def sweep_speedup_trajectory(reports: list[dict]) -> list[dict]:
    """The fullest parallel-sweep speedup history across the reports.

    Mirrors :func:`bench_trajectory` for the second perf axis: PR 10
    reports carry a cumulative ``sweep_trajectory`` list
    (``[{"pr": "PR2", "speedup": 0.74}, ...]``); older reports that
    predate it contribute their recorded ``sweep.sweep_speedup``
    (BENCH_PR2) as a fallback so the history renders even on a
    checkout whose newest report is old.
    """
    best: list = []
    for r in reports:
        traj = r["report"].get("sweep_trajectory")
        if isinstance(traj, list) and len(traj) > len(best):
            best = traj
    if not best:
        for r in reports:
            sweep = r["report"].get("sweep")
            if isinstance(sweep, dict) and isinstance(
                    sweep.get("sweep_speedup"), (int, float)):
                best.append({"pr": f"PR{r['pr']}",
                             "speedup": sweep["sweep_speedup"],
                             "jobs": sweep.get("jobs"),
                             "host_cpu_count":
                                 r["report"].get("host_cpu_count")})
    return [t for t in best
            if isinstance(t, dict) and isinstance(t.get("speedup"),
                                                  (int, float))]


def flag_regressions(traj: list[dict],
                     tolerance: float = BENCH_REGRESSION_TOLERANCE
                     ) -> list[dict]:
    """Consecutive trajectory steps whose wall time grew past
    ``tolerance``× the previous PR's — each PR's committed measurement
    is the floor its successor is judged against."""
    flags = []
    for prev, cur in zip(traj, traj[1:]):
        if prev["wall_s"] > 0 and cur["wall_s"] > prev["wall_s"] * tolerance:
            flags.append({
                "pr": cur.get("pr"),
                "wall_s": cur["wall_s"],
                "prev_pr": prev.get("pr"),
                "prev_wall_s": prev["wall_s"],
                "factor": cur["wall_s"] / prev["wall_s"],
            })
    return flags


def render_bench_report(reports: list[dict],
                        tolerance: float = BENCH_REGRESSION_TOLERANCE
                        ) -> tuple[str, list[dict]]:
    """(report text, regression flags) for ``repro obs bench-report``."""
    from repro.metrics.report import format_table  # lazy: circular

    traj = bench_trajectory(reports)
    lines = []
    if traj:
        base = traj[0]["wall_s"]
        rows = []
        prev: Optional[float] = None
        for t in traj:
            step = "" if prev is None or prev <= 0 \
                else f"{prev / t['wall_s']:.2f}x"
            rows.append((
                t.get("pr", "?"),
                f"{t['wall_s']:.3f}",
                f"{base / t['wall_s']:.2f}x" if t["wall_s"] > 0 else "?",
                step,
            ))
            prev = t["wall_s"]
        lines.append(format_table(
            ("pr", "fig6 wall s", "vs seed", "vs prev"),
            rows, title="Figure-6 LRU cell perf trajectory"))
    else:
        lines.append("no fig6 trajectory found in BENCH reports")
    sweep_traj = sweep_speedup_trajectory(reports)
    if sweep_traj:
        rows = []
        for t in sweep_traj:
            speedup = t["speedup"]
            jobs = t.get("jobs")
            cpus = t.get("host_cpu_count")
            note = t.get("note", "")
            if not note and isinstance(cpus, int) and cpus < 4:
                note = f"{cpus}-cpu host"
            rows.append((
                t.get("pr", "?"),
                f"{speedup:.2f}x",
                str(jobs) if jobs is not None else "?",
                str(cpus) if cpus is not None else "?",
                note,
            ))
        lines.append("")
        lines.append(format_table(
            ("pr", "sweep speedup", "jobs", "host cpus", "note"),
            rows, title="Parallel sweep speedup trajectory "
                        "(vs serial, target 1.50x)"))
    rows = [
        (f"PR{r['pr']}", r["report"].get("mode", "?"),
         str(r["report"].get("bench", "?")), r["path"])
        for r in reports
    ]
    if rows:
        lines.append("")
        lines.append(format_table(("report", "mode", "bench", "file"),
                                  rows, title="Committed BENCH reports"))
    regressions = flag_regressions(traj, tolerance)
    lines.append("")
    for f in regressions:
        lines.append(
            f"REGRESSION: {f['pr']} fig6 wall {f['wall_s']:.3f}s is "
            f"{f['factor']:.2f}x {f['prev_pr']} "
            f"({f['prev_wall_s']:.3f}s), beyond the {tolerance:.2f}x "
            f"tolerance")
    if not regressions and traj:
        lines.append(
            f"no regressions: every step within {tolerance:.2f}x of "
            f"its predecessor")
    return "\n".join(lines), regressions


__all__ = [
    "BENCH_REGRESSION_TOLERANCE",
    "CAPTURE_ENV",
    "ProgressTicker",
    "SweepEventLog",
    "SweepObserver",
    "bench_trajectory",
    "capture_enabled",
    "flag_regressions",
    "get_default_sweep",
    "load_bench_reports",
    "load_events",
    "merge_summaries",
    "render_bench_report",
    "render_event_table",
    "set_capture",
    "set_default_sweep",
    "summary_of_snapshot",
    "sweep_speedup_trajectory",
]
