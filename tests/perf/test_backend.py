"""The pluggable executor-backend seam (repro.perf.backend): registry,
resolution chain, jobs parsing, and the cross-backend identity and
fail-fast contracts."""

import json
import os

import pytest

from repro.experiments.report_io import _sanitise
from repro.perf import Cell, Supervisor, SupervisorConfig, run_cells
from repro.perf.backend import (
    BACKEND_ENV,
    BACKENDS,
    ExecutorBackend,
    PersistentBackend,
    SerialBackend,
    get_default_backend,
    resolve_backend,
    resolve_jobs,
    set_default_backend,
)
from repro.perf.worker import CRASH_EXIT_CODE

from tests.perf import _backend_cells as bc


@pytest.fixture(autouse=True)
def _clean_backend_state(monkeypatch):
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    set_default_backend(None)
    yield
    set_default_backend(None)


def canon(merged):
    """Byte-identity form: JSON with the ``_perf`` quarantine stripped."""
    strip = {
        k: ({kk: vv for kk, vv in v.items() if kk != "_perf"}
            if isinstance(v, dict) else v)
        for k, v in merged.items()
    }
    return json.dumps(_sanitise(strip), sort_keys=True)


def make_grid(n=8):
    return [Cell(("sq", i), bc.square, {"x": i}) for i in range(n)]


# ---------------------------------------------------------------------------
# registry + resolution
# ---------------------------------------------------------------------------
def test_registry_holds_serial_and_persistent():
    assert set(BACKENDS) == {"serial", "persistent"}
    assert isinstance(BACKENDS["serial"], SerialBackend)
    assert isinstance(BACKENDS["persistent"], PersistentBackend)
    for name, be in BACKENDS.items():
        assert be.name == name


def test_resolve_explicit_instance_passes_through():
    class Custom(ExecutorBackend):
        name = "custom"

    be = Custom()
    assert resolve_backend(be) is be


def test_resolve_by_name_and_unknown():
    assert resolve_backend("serial") is BACKENDS["serial"]
    assert resolve_backend("persistent") is BACKENDS["persistent"]
    for gone in ("bogus", "pool"):
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend(gone)


def test_builtin_defaults():
    # the bare path defaults to the warm executor
    assert resolve_backend(None).name == "persistent"
    assert resolve_backend("auto").name == "persistent"
    # supervision requires process isolation: even with serial
    # installed as the default, supervised cells run in a worker
    set_default_backend("serial")
    cells = [Cell(("who", i), bc.whoami, {"x": i}) for i in range(2)]
    merged = Supervisor(SupervisorConfig()).run(cells, jobs=1)
    assert os.getpid() not in {r["pid"] for r in merged.values()}


def test_process_default_beats_env(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "persistent")
    set_default_backend("serial")
    assert get_default_backend() == "serial"
    assert resolve_backend(None).name == "serial"
    # explicit spec still wins over the installed default
    assert resolve_backend("persistent").name == "persistent"
    set_default_backend(None)
    assert resolve_backend(None).name == "persistent"  # env takes over


def test_env_fallback(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "serial")
    assert resolve_backend(None).name == "serial"
    monkeypatch.setenv(BACKEND_ENV, "auto")
    assert resolve_backend(None).name == "persistent"


def test_set_default_backend_validates():
    with pytest.raises(ValueError, match="unknown backend"):
        set_default_backend("bogus")
    set_default_backend("auto")  # alias for "unset"
    assert get_default_backend() is None


def test_resolve_jobs():
    assert resolve_jobs(3) == 3
    assert resolve_jobs("3") == 3
    assert resolve_jobs("auto") == (os.cpu_count() or 1)
    with pytest.raises(ValueError, match="jobs"):
        resolve_jobs(0)


# ---------------------------------------------------------------------------
# execution contracts
# ---------------------------------------------------------------------------
def test_serial_backend_ignores_jobs_and_stays_in_process():
    cells = [Cell(("who", i), bc.whoami, {"x": i}) for i in range(4)]
    merged = run_cells(cells, jobs=4, backend="serial")
    assert {r["pid"] for r in merged.values()} == {os.getpid()}


def test_cross_backend_identity():
    cells = make_grid(8)
    reference = canon(run_cells(cells, jobs=1))
    for name in ("serial", "persistent"):
        merged = run_cells(cells, jobs=3, backend=name)
        assert canon(merged) == reference, name
        assert list(merged) == [c.key for c in cells], name


def test_persistent_failure_is_fail_fast_and_deterministic():
    cells = make_grid(8)
    cells[2] = Cell(("boom", 2), bc.boom, {"msg": "first bad cell"})
    cells[5] = Cell(("boom", 5), bc.boom, {"msg": "second bad cell"})
    # the earliest-declared failing cell wins no matter which worker
    # finished first, and the original exception type/message survive
    # the pipe
    with pytest.raises(ValueError, match="first bad cell"):
        run_cells(cells, jobs=3, backend="persistent")


def test_persistent_worker_death_names_its_exit_code():
    cells = make_grid(4)
    cells[1] = Cell(("crash", 1), bc.crash, {"code": CRASH_EXIT_CODE})
    with pytest.raises(RuntimeError,
                       match=rf"worker died \(exit {CRASH_EXIT_CODE}\)"):
        run_cells(cells, jobs=2, backend="persistent")


def test_env_selected_backend_reaches_run_cells(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "serial")
    cells = [Cell(("who", i), bc.whoami, {"x": i}) for i in range(3)]
    merged = run_cells(cells, jobs=3)  # no explicit backend anywhere
    assert {r["pid"] for r in merged.values()} == {os.getpid()}
