"""Spans around feasik's public layer functions, recorded from outside the
package by replacing each function at every module attribute it is reached
through (``solve`` is imported by name into ``certificates`` and ``cli``,
``evaluate_cutter`` into ``engine``, ``controls`` and ``certificates``).

A span is (id, parent id, name, start ns, end ns).  Self time is a span's
duration minus the time its direct children cover; spans of one thread
nest, so the children never overlap.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter_ns


def feasik_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "feasik" or name.startswith("feasik.")) and m is not None]


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def everywhere(self, old, new) -> int:
        """Replace ``old`` by ``new`` at every feasik module attribute that
        holds it; returns how many attributes changed."""
        hits = 0
        for mod in feasik_modules():
            for attr, value in list(vars(mod).items()):
                if value is old:
                    self.set(mod, attr, new)
                    hits += 1
        return hits

    def set(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class Tracer:
    """Collects spans in memory and aggregates self time per span name."""

    def __init__(self):
        self.spans = []
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # [span id, child ns]

    def _open(self):
        frame = [len(self.spans), 0]  # span id, time covered by children
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _close(self, frame, label, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.spans[frame[0]] = (frame[0], parent[0] if parent else -1,
                                label, t0, t1)
        self.self_ns[label] += dur - frame[1]
        self.total_ns[label] += dur
        self.calls[label] += 1

    def wrap(self, fn, name, after=None):
        """A stand-in for ``fn`` that records one span per call.  ``name`` is
        a string or a function of the call's arguments; ``after(counts,
        result, *args)`` may add counters at the same boundary."""
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            label = fixed or name(*args)
            frame = self._open()
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, label, t0, _clock())
            if after is not None:
                after(self.counts, result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """A span around the benchmark's own code."""
        frame = self._open()
        t0 = _clock()
        try:
            yield
        finally:
            self._close(frame, name, t0, _clock())

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{sid},{parent},{name},{t0},{t1}\n")


def _kind_name(prefix):
    return lambda obj, *args: f"{prefix}.{getattr(obj, 'kind', type(obj).__name__)}"


def _count_moved(counts, ce, *args):
    counts["operators.evaluate_cutter.moved"] += ce.displacement_norm > 0.0


def _count_terms(counts, result, vectors, *args):
    counts["engine.compensated_sum.terms"] += len(vectors)


def _count_entries(counts, cert, *args, **kwargs):
    counts["certificates.check_descent.entries"] += len(cert.entries)


def _count_csv_bytes(counts, result, trace, dim, fh):
    counts["engine.write_trace_csv.bytes"] += len(fh.getvalue().encode())


def _methods(module, method):
    """(class, function) for every class of ``module`` that defines
    ``method`` itself."""
    out = []
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__ \
                and method in obj.__dict__:
            out.append((obj, obj.__dict__[method]))
    return out


def install(tracer: Tracer) -> Patches:
    """Wrap every layer boundary of the imported feasik package."""
    from feasik import (certificates, cli, config, controls, engine,
                        instances, model, operators, schedules)

    p = Patches()
    functions = [
        (engine.solve, "engine.solve", None),
        (engine.step, "engine.step", None),
        (engine.compensated_sum, "engine.compensated_sum", _count_terms),
        (engine.write_trace_csv, "engine.write_trace_csv", _count_csv_bytes),
        (model.feasible, "model.feasible", None),
        (operators.evaluate_cutter, "operators.evaluate_cutter", _count_moved),
        (certificates.check_descent, "certificates.check_descent", _count_entries),
        (certificates.reproduce_a1, "certificates.reproduce", None),
        (certificates.reproduce_a2, "certificates.reproduce", None),
        (certificates.reproduce_a1_bracketed, "certificates.reproduce", None),
        (certificates.reproduce_a2_bracketed, "certificates.reproduce", None),
        (instances.random_slater_polyhedron,
         "instances.random_slater_polyhedron", None),
        (config.build_run_config, "config.build_run_config", None),
        (cli.cmd_sweep, "cli.sweep", None),
    ]
    for fn, name, after in functions:
        if not p.everywhere(fn, tracer.wrap(fn, name, after)):
            raise RuntimeError(f"no module attribute holds {name}")

    p.set(controls.Control, "indices",
          tracer.wrap(controls.Control.indices, _kind_name("controls.indices")))
    p.set(model.OuterSet, "project",
          tracer.wrap(model.OuterSet.project, "model.outer_project"))
    p.set(engine.RunConfig, "__init__",
          tracer.wrap(engine.RunConfig.__init__, "engine.run_config"))
    for method, name in (("alpha", "schedules.alpha"), ("r", "schedules.r"),
                         ("value", "schedules.phi"),
                         ("weights", "schedules.weights")):
        for cls, fn in _methods(schedules, method):
            p.set(cls, method, tracer.wrap(fn, name))
    return p
