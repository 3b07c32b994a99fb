"""The zero-perturbation guarantee for the batch-advance event core.

Three modes are compared: the two execution tiers of DESIGN.md
"Execution cores" — the scalar oracle (every event dispatched through
the heap) and the numpy batch-advance tier (runs of same-type
non-interacting events advanced as array ops) — plus ``dispatch``, the
fast path with batch-advance off.  Every simulation output must be
bit-for-bit identical across all three, for every paper policy, at two
workload scales.

Unlike the PR 5 fast path (which deletes bookkeeping events outright),
batch-advance only *absorbs* dispatches: each absorbed event is
counted in ``events_absorbed``, so the logical event count
``events_simulated`` is asserted *equal* across tiers while
``events_dispatched`` drops.

The fault-injection run checks the interaction-boundary rule: a disk
fault plan makes every request a potential injection point, so the
closed-system proof fails, batches split down to scalar dispatch, and
the fault responses (retries, spikes, fallbacks) land identically.
"""

import pytest

from repro.core.policies import PAPER_POLICIES
from repro.experiments.runner import GangConfig, run_experiment
from repro.faults import FaultRates
from repro.gang.job import Job
from repro.sim import set_batch_advance_enabled, set_fast_path_enabled

SCALES = (0.05, 0.1)

#: policies whose demand fills satisfy the closed-system entry proof.
#: The ``ai`` mechanism (adaptive page-in of recorded flush lists,
#: §3.3) issues its own block swap-ins around every switch, so demand
#: fills under ``ai`` overlap other in-flight work and the gate
#: correctly keeps them scalar — identity still holds, absorption does
#: not happen.
ABSORBING_POLICIES = frozenset(("lru", "so", "so/ao", "so/ao/bg"))


@pytest.fixture(autouse=True)
def _restore_tiers():
    yield
    set_fast_path_enabled(True)
    set_batch_advance_enabled(True)


def _signature(result):
    """Everything deterministic a run produces, minus the event counts."""
    return (
        result.makespan,
        result.completions,
        result.pages_read,
        result.pages_written,
        result.switch_count,
        result.vmm_stats,
        result.evicted,
        result.fault_summary,
        [
            (e.node, e.op, e.pages, e.start, e.end, e.pid)
            for e in result.collector.paging
        ],
    )


def _run(cfg, tier):
    """One run under a named execution tier.

    ``oracle`` is the full scalar loop (no PR 5 fast path either);
    ``dispatch`` keeps the fast path but dispatches every remaining
    event through the heap; ``batch`` adds the numpy batch-advance
    tier.
    """
    set_fast_path_enabled(tier != "oracle")
    set_batch_advance_enabled(tier == "batch")
    Job._next_jid = 1
    try:
        return run_experiment(cfg)
    finally:
        set_fast_path_enabled(True)
        set_batch_advance_enabled(True)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("policy", PAPER_POLICIES)
def test_tiers_identical(policy, scale):
    cfg = GangConfig("LU", "C", nprocs=2, policy=policy, seed=1, scale=scale)
    oracle = _run(cfg, "oracle")
    dispatch = _run(cfg, "dispatch")
    batch = _run(cfg, "batch")

    sig = _signature(oracle)
    assert _signature(dispatch) == sig
    assert _signature(batch) == sig

    # absorbing a dispatch is bookkeeping-neutral: the logical event
    # count matches the scalar dispatcher exactly...
    assert batch.events_simulated == dispatch.events_simulated
    # ...while the loop itself spins measurably fewer times — where
    # the closed-system entry proof can hold at all
    if policy in ABSORBING_POLICIES:
        assert batch.events_dispatched < dispatch.events_dispatched
    else:
        assert batch.events_dispatched == dispatch.events_dispatched


def test_faults_split_batches_at_injection_points():
    """A fault plan turns every disk request into a potential injection
    point, so the closed-system entry proof must fail and the run must
    degrade to scalar dispatch — same outputs, same fault responses,
    and *zero* absorbed events (every batch boundary splits)."""
    cfg = GangConfig(
        "LU", "C", nprocs=2, policy="so/ao/bg", seed=3, scale=0.05,
        faults=FaultRates(
            disk_error_rate=0.02, disk_latency_rate=0.05,
            straggler_rate=0.1,
        ),
    )
    dispatch = _run(cfg, "dispatch")
    batched = _run(cfg, "batch")
    assert _signature(batched) == _signature(dispatch)
    assert batched.fault_summary == dispatch.fault_summary
    assert batched.events_simulated == dispatch.events_simulated
    # no absorption: with injection points live, batch-advance may
    # never replay events under a local clock
    assert batched.events_dispatched == dispatch.events_dispatched


def test_fault_free_run_absorbs_events():
    """Control for the chaos test: the same cell without a fault plan
    must absorb events (the gate opens once injection points vanish)."""
    cfg = GangConfig(
        "LU", "C", nprocs=2, policy="so/ao/bg", seed=3, scale=0.05,
    )
    dispatch = _run(cfg, "dispatch")
    batched = _run(cfg, "batch")
    assert _signature(batched) == _signature(dispatch)
    assert batched.events_dispatched < dispatch.events_dispatched
