"""Host-time tracer for the benchmark's traced run.

The tracer wraps public functions and methods of the simulator stack at
module and class level while it is installed, so nothing under ``src/``
changes.  It never attaches an ``Observer`` or ``KernelProfiler``:
those switch ``Simulator.run`` to its general loop, which production
never runs.  Install it before the ``Accelerator`` is built, so that
objects which hoist bound methods pick up the wrappers.

Two kinds of record, both kept in memory and written out at the end:

* **spans** at coarse boundaries (load, IR, compile, simulate, each
  ``Simulator.run``, each sweep, each DSE, each cache get/put), each
  with a run id, a parent link and start/end host times;
* **counters** for per-message calls (NoC delivery, memory requests):
  a call count plus summed host time, because a span per call would
  dominate the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import uuid
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterator

#: (module, class or None, attribute, span name) of every span boundary.
SPANS = (
    ("repro.models.registry", None, "load_benchmark", "load"),
    ("repro.models.registry", None, "benchmark_ir", "ir"),
    ("repro.runtime.compiler", None, "compile_model", "compile"),
    ("repro.runtime.engine", None, "simulate_detailed", "simulate"),
    ("repro.sim.kernel", "Simulator", "run", "sim.run"),
    ("repro.exp.runner", None, "run_sweep_detailed", "sweep"),
    ("repro.dse.drivers", None, "run_dse", "dse"),
    ("repro.exp.cache", "ResultCache", "get", "cache.get"),
    ("repro.exp.cache", "ResultCache", "put", "cache.put"),
)

#: (module, class, method, counter name) of every per-message boundary.
COUNTERS = (
    ("repro.noc.fastmodel", "PacketNetwork", "delivery_time", "noc.delivery"),
    ("repro.noc.analytical", "AnalyticalNetwork", "delivery_time",
     "noc.delivery"),
    ("repro.noc.fastmodel", "PacketNetwork", "reserve_link", "noc.reserve"),
    ("repro.noc.analytical", "AnalyticalNetwork", "reserve_link",
     "noc.reserve"),
    ("repro.accel.memory", "MemoryController", "request",
     "accel.memory.request"),
    ("repro.accel.memory", "MemoryController", "request_scatter",
     "accel.memory.request"),
    # Guard, not a timing: the traced run must stay on the production
    # loop, so any call here fails the run.
    ("repro.sim.kernel", "Simulator", "_run_general", "sim.general_loop"),
)


def _begin_simulate(span: dict, args: tuple) -> None:
    span["layers"] = [layer.name for layer in args[0].layers]


def _begin_run(span: dict, args: tuple) -> None:
    span["events"] = -args[0].events_fired


def _end_run(span: dict, args: tuple, result: Any) -> None:
    span["events"] += args[0].events_fired


def _end_compile(span: dict, args: tuple, result: Any) -> None:
    span["tasks"] = sum(len(layer.tasks) for layer in result.layers)


def _end_sweep(span: dict, args: tuple, result: Any) -> None:
    span["points"] = len(result.results)
    span["attempts"] = sum(r.attempts for r in result.results)


def _end_get(span: dict, args: tuple, result: Any) -> None:
    span["hit"] = result is not None


#: Span name -> (begin hook, end hook) adding attributes to the span.
HOOKS: dict[str, tuple[Callable | None, Callable | None]] = {
    "simulate": (_begin_simulate, None),
    "sim.run": (_begin_run, _end_run),
    "compile": (None, _end_compile),
    "sweep": (None, _end_sweep),
    "cache.get": (None, _end_get),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex
        self.spans: list[dict] = []
        self.counters: dict[str, list] = {}  # name -> [calls, seconds]
        self._open: list[dict] = []
        self._undo: list[Callable[[], None]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[dict]:
        """Record the enclosed block as a span (children link to it)."""
        parent = self._open[-1]["id"] if self._open else None
        record = {"id": len(self.spans), "parent": parent, "name": name,
                  "start": perf_counter(), "end": None}
        self.spans.append(record)
        self._open.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def _spanned(self, fn: Callable, name: str) -> Callable:
        begin, end = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                if begin is not None:
                    begin(record, args)
                result = fn(*args, **kwargs)
                if end is not None:
                    end(record, args, result)
                return result

        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        cell = self.counters.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - start
                cell[0] += 1

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch(self, module_name: str, cls_name: str | None, attr: str,
               wrap: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        if cls_name is not None:
            cls = getattr(module, cls_name)
            own = cls.__dict__.get(attr)
            setattr(cls, attr, wrap(getattr(cls, attr)))
            if own is None:
                self._undo.append(lambda: delattr(cls, attr))
            else:
                self._undo.append(lambda: setattr(cls, attr, own))
            return
        # A module-level function is rebound wherever a loaded repro
        # module imported it by name, so every caller sees the wrapper.
        original = getattr(module, attr)
        wrapper = wrap(original)
        for name, loaded in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or loaded is None:
                continue
            if getattr(loaded, attr, None) is original:
                setattr(loaded, attr, wrapper)
                self._undo.append(
                    lambda m=loaded: setattr(m, attr, original)
                )

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the block."""
        try:
            for module, cls, attr, name in SPANS:
                self._patch(module, cls, attr,
                            lambda fn, n=name: self._spanned(fn, n))
            for module, cls, attr, name in COUNTERS:
                self._patch(module, cls, attr,
                            lambda fn, n=name: self._counted(fn, n))
            yield self
        finally:
            while self._undo:
                self._undo.pop()()

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[dict]:
        """A traced block: boundaries wrapped, one span around it, and
        the counter deltas of the block stored on that span."""
        with self.installed(), self.span(name) as record:
            before = {k: tuple(v) for k, v in self.counters.items()}
            try:
                yield record
            finally:
                record["counters"] = {
                    k: [v[0] - before[k][0], v[1] - before[k][1]]
                    for k, v in self.counters.items()
                }

    # -- queries ---------------------------------------------------------

    def named(self, name: str, under: str | None = None) -> list[dict]:
        """Finished spans called ``name``, optionally only those with an
        ancestor span called ``under``."""
        found = [s for s in self.spans if s["name"] == name]
        if under is not None:
            found = [s for s in found if self._has_ancestor(s, under)]
        return found

    def _has_ancestor(self, span: dict, name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor["name"] == name:
                return True
            parent = ancestor["parent"]
        return False

    def children(self, span: dict, name: str) -> list[dict]:
        return [s for s in self.spans
                if s["parent"] == span["id"] and s["name"] == name]

    @staticmethod
    def duration(spans: list[dict]) -> float:
        return sum(s["end"] - s["start"] for s in spans)

    @staticmethod
    def counter(spans: list[dict], name: str) -> tuple[int, float]:
        """Calls and seconds of one counter within the given phases."""
        calls = seconds = 0
        for span in spans:
            delta = span["counters"].get(name, (0, 0.0))
            calls += delta[0]
            seconds += delta[1]
        return calls, seconds

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        document = {
            "run_id": self.run_id,
            "spans": [{"run": self.run_id, **s} for s in self.spans],
            "counters": {k: {"calls": c, "seconds": s}
                         for k, (c, s) in self.counters.items()},
        }
        path.write_text(json.dumps(document), encoding="utf-8")
