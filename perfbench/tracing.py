"""Span tracing for the benchmark, installed from outside the package.

A traced run replaces the module attributes through which each layer of
``sapa_rrm`` is called with timing wrappers.  A caller looks the name up
in its own module's namespace at call time, so patching that namespace
times exactly the calls the layer above makes, and nothing in ``src/``
has to know about tracing.

Each wrapper records one span: id, name, start, end, parent span and
thread.  Worker threads of the sweep pool start with an empty stack;
their spans take the innermost open span of the main thread as parent,
so every cell hangs under the sweep that caused it.  Wrappers of calls
that return sized results also record exact counts taken from the
public return values.  Spans stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _count_setpoints(args, kwargs, out):
    util = out.utility
    return {"grid_points": out.grid.size, "feasible": len(out),
            "u_one": int(np.count_nonzero(util == 1.0)),
            "u_zero": int(np.count_nonzero(util == 0.0))}


def _count_majorant(args, kwargs, out):
    return {"in_points": len(args[0]), "vertices": len(out.points)}


def _count_grid(args, kwargs, out):
    return {"points": int(out.feasible.size)}


def _count_roots(args, kwargs, out):
    return {"roots": int(np.size(out))}


def _count_budgets(args, kwargs, out):
    return {"budgets": len(args[1])}


def _count_files(args, kwargs, out):
    return {"files": len(out),
            "bytes": sum(Path(p).stat().st_size for p in out)}


# (module, attribute its caller looks up, span name, counter)
TRACE_POINTS = (
    ("sapa_rrm.cli", "load_config", "config.load_config", None),
    ("sapa_rrm.cli", "sweep", "experiment.sweep", None),
    ("sapa_rrm.cli", "write_sweep_outputs", "experiment.write_sweep_outputs",
     _count_files),
    ("sapa_rrm.experiment", "generate_scene", "scenario.generate_scene", None),
    ("sapa_rrm.experiment", "evaluate_scene", "experiment.evaluate_scene",
     None),
    ("sapa_rrm.experiment", "enumerate_setpoints", "qram.enumerate_setpoints",
     _count_setpoints),
    ("sapa_rrm.experiment", "build_majorant", "qram.build_majorant",
     _count_majorant),
    ("sapa_rrm.experiment", "allocate_many", "qram.allocate_many",
     _count_budgets),
    ("sapa_rrm.experiment", "aggregate_runs", "experiment.aggregate_runs",
     None),
    ("sapa_rrm.experiment", "read_runs", "experiment.read_runs", None),
    ("sapa_rrm.qram", "evaluate_grid", "radar_model.evaluate_grid",
     _count_grid),
    ("sapa_rrm.qram", "allocate", "qram.allocate", None),
    ("sapa_rrm.radar_model", "evaluate", "radar_model.evaluate", None),
    ("sapa_rrm.radar_model", "track_sharpness_batch",
     "radar_model.track_sharpness_batch", _count_roots),
    ("sapa_rrm.radar_model", "track_sharpness", "radar_model.track_sharpness",
     None),
)


class Tracer:
    """Records spans around the layer calls listed in TRACE_POINTS.

    A trace point whose attribute no longer exists is skipped, so the
    layers it measured report zero instead of breaking the run.
    """

    def __init__(self, modules: dict) -> None:
        # (id, name, t0, t1, parent, thread, counts)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []
        for mod_name, attr, span_name, counter in TRACE_POINTS:
            module = modules[mod_name]
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._patches.append((module, attr, original,
                                  self._wrap(span_name, original, counter)))

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        main = self._main_stack
        return main[-1] if main else None

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            counts = counter(args, kwargs, out) if counter else None
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident(), counts))
            return out
        return traced

    def install(self) -> None:
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self._patches:
            setattr(module, attr, original)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, in the calling thread."""
        stack = self._stack()
        parent = self._parent(stack)
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent,
                               threading.get_ident(), None))

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its same-thread children cover.

        Calls within one thread nest without overlap, so the covered
        time is the sum of the children's durations.  Children running
        in pool threads overlap the parent and each other; they are not
        subtracted.
        """
        thread_of = {s[0]: s[5] for s in self.spans}
        covered: dict[int, float] = defaultdict(float)
        for sid, _name, t0, t1, parent, thread, _counts in self.spans:
            if parent is not None and thread_of.get(parent) == thread:
                covered[parent] += t1 - t0
        return {s[0]: (s[3] - s[2]) - covered[s[0]] for s in self.spans}

    def write(self, path: Path) -> None:
        """Write all spans as gzipped JSON, times relative to the first."""
        origin = min((s[2] for s in self.spans), default=0.0)
        doc = {
            "columns": ["id", "name", "start_s", "end_s", "parent",
                        "thread", "counts"],
            "spans": [[sid, name, t0 - origin, t1 - origin, parent, thread,
                       counts]
                      for sid, name, t0, t1, parent, thread, counts
                      in sorted(self.spans, key=lambda s: s[2])],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
