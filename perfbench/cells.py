"""The benchmark's workloads: fixed lists of paper cells, and the
output check that every pass of them must pass.

A *cell* is one :class:`repro.experiments.GangConfig` run through
:func:`repro.experiments.runner.run_cell`.  The cell seed is the
benchmark's ``--seed``; nothing else varies between runs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Optional

#: the two paper configs of ``adaptive`` / ``demand``: fig6 LU.C x2 on 4
#: nodes (parallel, regular sweeps) and CG.B x2 serial (irregular
#: access, the non-monotone read-ahead branch)
PAIR_CONFIGS = (("LU", "C", 4), ("CG", "B", 1))
#: the paper's method: the policies with the background writer
ADAPTIVE_POLICIES = ("so/ao/bg", "so/ao/ai/bg")
#: the control: no background writer, demand faults + read-ahead
DEMAND_POLICIES = ("lru", "ai", "so", "so/ao")
#: every NPB class-B serial mix of Fig. 7
SWEEP_BENCHES = ("LU", "SP", "CG", "IS", "MG")
SWEEP_SCALE = 0.1

WORKLOADS = ("adaptive", "demand", "sweep")
DEFAULT_SEED = 1
DIGESTS_PATH = Path(__file__).with_name("digests.json")


def configs(workload: str, seed: int) -> list:
    """The workload's cells, in declaration order."""
    from repro.core.policies import PAPER_POLICIES
    from repro.experiments.runner import GangConfig

    if workload in ("adaptive", "demand"):
        policies = ADAPTIVE_POLICIES if workload == "adaptive" \
            else DEMAND_POLICIES
        return [
            GangConfig(bench, klass, nprocs=nprocs, policy=policy,
                       seed=seed, scale=1.0)
            for bench, klass, nprocs in PAIR_CONFIGS
            for policy in policies
        ]
    if workload == "sweep":
        out = []
        for bench in SWEEP_BENCHES:
            out.append(GangConfig(bench, "B", mode="batch", seed=seed,
                                  scale=SWEEP_SCALE))
            out.extend(
                GangConfig(bench, "B", policy=policy, seed=seed,
                           scale=SWEEP_SCALE)
                for policy in PAPER_POLICIES
            )
        return out
    raise ValueError(f"unknown workload {workload!r}; have {WORKLOADS}")


def make_cells(workload: str, seed: int) -> list:
    """:class:`repro.perf.Cell` list keyed by ``GangConfig.label()``."""
    from repro.experiments.runner import run_cell
    from repro.perf.pool import Cell

    return [Cell(cfg.label(), run_cell, {"cfg": cfg})
            for cfg in configs(workload, seed)]


def _plain(obj):
    """JSON fallback for numpy scalars inside a record."""
    import numpy as np

    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"unexpected {type(obj).__name__} in a cell record")


def digest(record: dict) -> str:
    """Hash of a ``run_cell`` record's deterministic part.

    ``"_perf"`` (host wall time, RSS) is excluded; everything else is a
    pure function of the config and must stay bit-identical across any
    change that only claims speed.
    """
    body = {k: v for k, v in record.items() if k != "_perf"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_expected(workload: str, seed: int,
                  path: Path = DIGESTS_PATH) -> Optional[dict]:
    """Committed ``{label: digest}`` for this workload and seed, if any."""
    try:
        table = json.loads(path.read_text())
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def sane(record: dict) -> bool:
    """Structural checks that hold for every correct cell record."""
    return (
        record["makespan"] > 0
        and not record["evicted"]
        and len(record["completions"]) > 0
        and record["events_simulated"] >= record["events_dispatched"] > 0
        and record["events_processed"] == record["events_dispatched"]
    )


class OutputCheck:
    """Per-cell verdicts for every pass of one workload.

    A cell fails when its run raised, when its record is not sane, or
    when its digest differs from the committed one for this seed (or
    the committed table for this seed has no entry for it) — or, for a
    seed with no committed digests, from the first pass of this run.
    """

    def __init__(self, expected: Optional[dict]):
        self.expected = expected
        self.first: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, record: Optional[dict]) -> Optional[str]:
        """Check one cell result (``None`` = it raised); returns its
        digest, or ``None`` when the cell failed."""
        self.attempted += 1
        if record is None:
            return self.fail(label, "raised")
        if not sane(record):
            return self.fail(label, "record fails the sanity checks")
        d = digest(record)
        if self.expected is not None:
            want = self.expected.get(label)
            if want is None:
                return self.fail(label, "no committed digest")
        else:
            want = self.first.get(label)
        if want is not None and want != d:
            return self.fail(label, f"digest {d} != expected {want}")
        self.first.setdefault(label, d)
        return d

    def fail(self, label: str, why: str) -> None:
        self.failed += 1
        self.problems.append(f"{label}: {why}")
        return None

    def fail_pass(self, labels: list[str], why: str) -> None:
        """A pass died before returning per-cell results."""
        for label in labels:
            self.attempted += 1
            self.fail(label, why)

    @property
    def ok(self) -> bool:
        return self.failed == 0 and self.attempted > 0


__all__ = ["DEFAULT_SEED", "OutputCheck", "WORKLOADS", "configs",
           "digest", "load_expected", "make_cells", "sane"]
