"""Parallel experiment execution (cell pool), pluggable executor
backends (serial / persistent warm workers), supervised resilient
sweeps, result caching and perf instrumentation."""

from repro.perf.backend import (
    BACKENDS,
    ExecutorBackend,
    PersistentBackend,
    SerialBackend,
    get_default_backend,
    resolve_backend,
    resolve_jobs,
    set_default_backend,
)
from repro.perf.cache import (
    CellCache,
    code_version,
    fingerprint,
    get_default_cache,
    set_default_cache,
)
from repro.perf.journal import SweepJournal, fsync_dir, sweep_id
from repro.perf.persistent import (
    PersistentExecutor,
    StealScheduler,
    get_default_executor,
    shutdown_default_executor,
)
from repro.perf.pool import Cell, run_cells
from repro.perf.spec import SpecTable, SpecView
from repro.perf.supervisor import (
    FAILED_KEY,
    QuarantinedCells,
    Supervisor,
    SupervisorConfig,
    get_default_supervisor,
    quarantined,
    require_ok,
    set_default_supervisor,
)

__all__ = [
    "BACKENDS",
    "Cell",
    "CellCache",
    "ExecutorBackend",
    "FAILED_KEY",
    "PersistentBackend",
    "PersistentExecutor",
    "QuarantinedCells",
    "SerialBackend",
    "SpecTable",
    "SpecView",
    "StealScheduler",
    "Supervisor",
    "SupervisorConfig",
    "SweepJournal",
    "code_version",
    "fingerprint",
    "fsync_dir",
    "get_default_backend",
    "get_default_cache",
    "get_default_executor",
    "get_default_supervisor",
    "quarantined",
    "require_ok",
    "resolve_backend",
    "resolve_jobs",
    "run_cells",
    "set_default_backend",
    "set_default_cache",
    "set_default_supervisor",
    "shutdown_default_executor",
    "sweep_id",
]
