"""Host-level worker fault injection for the sweep supervisor.

:class:`~repro.faults.plan.FaultPlan` injects faults into the *simulated*
system (disks, nodes, page-in records).  :class:`WorkerFaultPlan` injects
faults into the *host* execution layer instead: the worker processes that
run sweep cells under :class:`repro.perf.supervisor.Supervisor`.  Three
kinds are supported:

* ``crash`` — the worker calls ``os._exit`` before running the cell,
  which surfaces in the parent as a dead worker (the supervisor must
  respawn it and retry the cell);
* ``hang`` — the worker sleeps for ``hang_s`` before running the cell,
  which trips the supervisor's per-cell deadline watchdog;
* ``slow`` — the worker sleeps for ``slow_start_s`` before running the
  cell (a straggler that should finish within the deadline grace).

Determinism
-----------
Decisions are pure functions of ``(seed, kind, cell index, attempt)``,
drawn by hashing rather than from a stateful RNG, so:

* the same plan always injects the identical fault schedule regardless
  of submission order, worker count, or code edits elsewhere (the draw
  deliberately does *not* involve the PR 4 content fingerprint, which
  changes with every source edit — CI chaos gates need a schedule that
  is stable across commits);
* each retry of the same cell re-draws with a fresh ``attempt`` value,
  so an injected crash does not deterministically recur on the retry —
  exactly the transient-fault shape the supervisor is built to absorb.

A plan is only consulted by the persistent worker
(:mod:`repro.perf.worker`) during supervised sweeps; ordinary
``run_cells`` execution never sees it.  It is injectable only from
tests and via the hidden ``--chaos`` CLI flag.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

_KINDS = ("crash", "hang", "slow")


@dataclass(frozen=True)
class WorkerFaultPlan:
    """Deterministic worker crash / hang / slow-start injection.

    All-zero rates (the default) make the plan inert; ``decide`` then
    answers ``None`` without drawing.  Rates are per-attempt
    probabilities, evaluated in priority order crash > hang > slow (at
    most one fault per attempt).
    """

    #: probability a cell attempt's worker fail-stops before executing
    crash_rate: float = 0.0
    #: probability a cell attempt's worker hangs for ``hang_s``
    hang_rate: float = 0.0
    #: probability a cell attempt's worker starts ``slow_start_s`` late
    slow_start_rate: float = 0.0
    #: sleep injected by a ``hang`` (long enough to trip any deadline)
    hang_s: float = 3600.0
    #: sleep injected by a ``slow`` start (short: a straggler, not a hang)
    slow_start_s: float = 0.05
    #: schedule seed; same seed = same schedule, forever
    seed: int = 0

    def __post_init__(self) -> None:
        for field_name in ("crash_rate", "hang_rate", "slow_start_rate"):
            rate = getattr(self, field_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"{field_name} must be a probability in [0, 1], "
                    f"got {rate!r}"
                )
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")
        if self.slow_start_s < 0:
            raise ValueError("slow_start_s must be >= 0")

    @property
    def active(self) -> bool:
        """True if any injection can ever fire."""
        return (self.crash_rate > 0.0 or self.hang_rate > 0.0
                or self.slow_start_rate > 0.0)

    # -- draws -------------------------------------------------------------
    def _draw(self, kind: str, index: int, attempt: int) -> float:
        """Uniform [0, 1) value for one (kind, cell, attempt) question."""
        token = f"{self.seed}|{kind}|{index}|{attempt}".encode()
        digest = hashlib.sha256(token).digest()
        return int.from_bytes(digest[:8], "big") / 2.0 ** 64

    def decide(self, index: int, attempt: int) -> str | None:
        """Fault injected for (cell ``index``, ``attempt``), if any.

        Returns ``"crash"``, ``"hang"``, ``"slow"`` or ``None``.
        ``attempt`` counts executions of this cell starting at 0, so a
        retried cell re-draws instead of deterministically re-failing.
        """
        if self.crash_rate > 0.0 and \
                self._draw("crash", index, attempt) < self.crash_rate:
            return "crash"
        if self.hang_rate > 0.0 and \
                self._draw("hang", index, attempt) < self.hang_rate:
            return "hang"
        if self.slow_start_rate > 0.0 and \
                self._draw("slow", index, attempt) < self.slow_start_rate:
            return "slow"
        return None

    def injections(self, n_cells: int, attempt: int = 0) -> dict[int, str]:
        """The full first-attempt schedule for an ``n_cells`` sweep.

        Benchmarks and tests use this to assert *a priori* that a chosen
        seed actually injects something (the schedule is deterministic,
        so the assertion is stable).
        """
        out: dict[int, str] = {}
        for i in range(n_cells):
            kind = self.decide(i, attempt)
            if kind is not None:
                out[i] = kind
        return out

    # -- CLI parsing -------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "WorkerFaultPlan":
        """Build a plan from a ``key=value`` spec string.

        Accepted keys: ``crash``, ``hang``, ``slow`` (rates),
        ``hang_s``, ``slow_s`` (durations), ``seed``.  Example::

            crash=0.3,hang=0.1,seed=7
        """
        names = {
            "crash": ("crash_rate", float),
            "hang": ("hang_rate", float),
            "slow": ("slow_start_rate", float),
            "hang_s": ("hang_s", float),
            "slow_s": ("slow_start_s", float),
            "seed": ("seed", int),
        }
        kwargs: dict = {}
        for part in filter(None, (p.strip() for p in spec.split(","))):
            key, sep, value = part.partition("=")
            if not sep or key not in names:
                raise ValueError(
                    f"bad chaos spec element {part!r}; expected "
                    f"key=value with key in {sorted(names)}"
                )
            field_name, cast = names[key]
            try:
                kwargs[field_name] = cast(value)
            except ValueError as exc:
                raise ValueError(
                    f"bad chaos spec value for {key!r}: {value!r}"
                ) from exc
        return cls(**kwargs)


__all__ = ["WorkerFaultPlan"]
