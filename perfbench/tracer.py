"""Host-time spans recorded from outside the program.

The traced run patches the public functions of each simulator layer
with thin wrappers that open a span on entry and close it on exit.
Spans live in flat in-memory arrays (name id, start, end, parent span,
cell id, first-resumption flag) and are written out once, when the run
ends.  Nothing inside ``src/`` knows it is being traced.

Generator functions (the simulator's *process fragments*: ``touch``,
``reclaim``, ``evict_batch``, ``adaptive_page_out`` ...) are wrapped by
a driver generator that times each resumption as its own span and
forwards ``send``, ``throw`` and ``close`` to the wrapped generator
unchanged, returning its return value.  Only the first resumption of a
call carries the ``first`` flag, so call counts do not depend on how
often the engine resumed the fragment.

Self time of a span is its duration minus the durations of its direct
children; summed over a cell's span tree it equals the cell span's
duration by construction, so the per-layer split adds up.  Whether the
cell spans themselves cover the cells is checked in ``run.py`` against
a clock read outside the tracer.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterable, Optional

import numpy as np

#: name of the benchmark's own root span around one cell
CELL = "cell"


class Tracer:
    """In-memory span store plus the patch/unpatch machinery."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.cell = array("i")
        self.first = array("b")
        #: open spans; empty means "outside any cell": nothing recorded
        self._stack: list[int] = []
        self._cell_id = -1
        #: exact per-cell tallies keyed by metric name (see ``Probe``)
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @property
    def active(self) -> bool:
        """True while a cell span is open."""
        return bool(self._stack)

    def open(self, nid: int, first: int) -> int:
        """Open a span; returns its index, or -1 outside any cell."""
        stack = self._stack
        if not stack:
            return -1
        return self._push(nid, first, stack[-1])

    def _push(self, nid: int, first: int, parent: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.cell.append(self._cell_id)
        self.first.append(first)
        self.end.append(0.0)
        self._stack.append(i)
        # the clock is read last so bookkeeping lands in the parent
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        if i >= 0:
            self.end[i] = self.clock()
            self._stack.pop()

    def begin_cell(self, cell_id: int) -> int:
        """Open the root span of one cell."""
        if self._stack:
            raise RuntimeError("cell spans do not nest")
        self._cell_id = cell_id
        return self._push(self.name_id(CELL), 1, -1)

    def end_cell(self, i: int) -> None:
        self.close(i)
        if self._stack:
            raise RuntimeError(f"unclosed spans at cell end: {self._stack}")
        self._cell_id = -1

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             probe: Optional["Probe"] = None) -> Callable:
        """A traced stand-in for ``fn`` (generator-aware)."""
        nid = self.name_id(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, nid, probe)
        return self._wrap_function(fn, nid, probe)

    def _wrap_function(self, fn, nid, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = nid if probe is None else probe.on_call(tracer, nid,
                                                           args, kwargs)
            i = tracer.open(span, 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if probe is not None and i >= 0:
                probe.on_return(tracer, result)
            return result

        return traced

    def _wrap_generator(self, fn, nid, probe):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = nid if probe is None else probe.on_call(tracer, nid,
                                                           args, kwargs)
            gen = fn(*args, **kwargs)
            first = 1
            value = None
            exc: Optional[BaseException] = None
            while True:
                i = tracer.open(span, first)
                first = 0
                try:
                    item = gen.send(value) if exc is None \
                        else gen.throw(exc)
                except StopIteration as stop:
                    result = stop.value
                    break
                finally:
                    tracer.close(i)
                exc = None
                try:
                    value = yield item
                except GeneratorExit:
                    i = tracer.open(span, 0)
                    try:
                        gen.close()
                    finally:
                        tracer.close(i)
                    raise
                except BaseException as e:  # forwarded into ``gen``
                    exc = e
                    value = None
            if probe is not None and i >= 0:
                probe.on_return(tracer, result)
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str,
              probe: Optional["Probe"] = None) -> None:
        """Replace ``owner.attr`` by a traced wrapper (undone by
        :meth:`unpatch`).  Only attributes defined on ``owner`` itself
        are patched, so subclasses are not shadowed by accident."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, probe))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.unpatch()

    # -- output ------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The span store as numpy arrays (what :meth:`save` writes)."""
        return {
            "name": np.array(self.name, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "cell": np.array(self.cell, dtype=np.int32),
            "first": np.array(self.first, dtype=np.int8),
            "names": np.array(self.names, dtype=str),
        }

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


class Probe:
    """Per-target hooks: pick the span name from the arguments and
    tally exact counts from arguments or return values."""

    def on_call(self, tracer: Tracer, nid: int, args, kwargs) -> int:
        return nid

    def on_return(self, tracer: Tracer, result) -> None:
        pass


class SpanStats:
    """Per-name call counts, inclusive and self time of a span store."""

    def __init__(self, arrays: dict[str, np.ndarray]):
        names = [str(n) for n in arrays["names"]]
        name = arrays["name"]
        dur = arrays["end"] - arrays["start"]
        parent = arrays["parent"]
        n = len(names)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_t = dur - child
        self.names = names
        self.n_spans = int(dur.size)
        self.calls = np.bincount(name, weights=arrays["first"], minlength=n)
        self.total_s = np.bincount(name, weights=dur, minlength=n)
        self.self_s = np.bincount(name, weights=self_t, minlength=n)
        self.cell_s = float(dur[name == names.index(CELL)].sum()) \
            if CELL in names else 0.0
        self._arrays = arrays

    def _idx(self, names: Iterable[str]) -> list[int]:
        wanted = set(names)
        return [i for i, n in enumerate(self.names) if n in wanted]

    def sum(self, field: str, names: Iterable[str]) -> float:
        return float(getattr(self, field)[self._idx(names)].sum())

    def containment_errors(self) -> int:
        """Spans that are open, inverted or outside their parent."""
        a = self._arrays
        start, end, parent = a["start"], a["end"], a["parent"]
        bad = (end == 0.0) | (end < start)
        has_parent = parent >= 0
        p = parent[has_parent]
        bad[has_parent] |= (start[has_parent] < start[p]) \
            | (end[has_parent] > end[p])
        return int(bad.sum())


__all__ = ["CELL", "Probe", "SpanStats", "Tracer"]
