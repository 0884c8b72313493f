"""Layer tracing from outside the program.

``Recorder.install`` replaces public dtlocus functions by timing wrappers in
every dtlocus module namespace that holds them, which is where the program
looks them up; methods are replaced on their class.  Private names are never
wrapped, so a refactor that deletes a private helper leaves the harness
working.  A target whose public name is missing is skipped and its metrics
read zero.

Coarse calls (one per layer stage) record a span: name, start, end, parent
span and job id.  Hot calls (the corrector, log_eval, phi, ...) only add to
per-name totals, so a traced run keeps a bounded amount of memory.  Every
wrapper, span or not, subtracts its duration from its caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass(frozen=True)
class Target:
    name: str          # layer.function, as used in metric names
    module: str        # dtlocus module that defines it
    attr: str          # public function name, or Class.method
    span: bool         # record a span per call (coarse) or totals only (hot)
    observe: Callable | None = None  # counts taken from each return value


def _crossings(rec, out):
    rec.counts["boundary.crossings"] += len(out.inward) + len(out.outward)


def _correct(rec, out):
    rec.counts["continuation.newton_iters"] += out.iterations
    rec.counts["continuation.correct.converged"] += bool(out.converged)


def _step_update(rec, out):
    rec.counts["continuation.step_update.accepted"] += not out[1]


def _trace(rec, out):
    origin = sys.modules["dtlocus.tracer"].__dict__.get("BranchOrigin")
    rec.counts["tracer.branch_respawns"] += origin is not None and isinstance(out.origin, origin)


def _text_bytes(key):
    def observe(rec, out):
        rec.counts[key] += len(out.encode("utf-8"))
    return observe


TARGETS = (
    Target("tracer.run", "dtlocus.tracer", "run", True),
    Target("tracer.seed_points", "dtlocus.tracer", "seed_points", True),
    Target("tracer.trace", "dtlocus.tracer", "trace", True, _trace),
    Target("boundary.boundary_functions", "dtlocus.boundary", "boundary_functions", True),
    Target("boundary.boundary_crossings", "dtlocus.boundary", "boundary_crossings", True, _crossings),
    Target("boundary.magnitude_intervals", "dtlocus.boundary", "magnitude_intervals", True),
    Target("branch.branch_points", "dtlocus.branch", "branch_points", True),
    Target("poly.complex_roots", "dtlocus.poly", "complex_roots", True),
    Target("poly.nonneg_real_roots", "dtlocus.poly", "nonneg_real_roots", True),
    Target("cli.parse_input", "dtlocus.cli", "parse_input", True),
    Target("cli.result_to_json", "dtlocus.cli", "result_to_json", True, _text_bytes("cli.json_bytes")),
    Target("cli.result_to_csv", "dtlocus.cli", "result_to_csv", True),
    Target("svgplot.render_svg", "dtlocus.svgplot", "render_svg", True, _text_bytes("svgplot.svg_bytes")),
    Target("continuation.correct", "dtlocus.continuation", "correct", False, _correct),
    Target("continuation.step_update", "dtlocus.continuation", "step_update", False, _step_update),
    Target("continuation.solve3", "dtlocus.continuation", "solve3", False),
    Target("plant.log_eval", "dtlocus.plant", "log_eval", False),
    Target("boundary.phi", "dtlocus.boundary", "BoundaryFunctions.phi", False),
    Target("boundary.K", "dtlocus.boundary", "BoundaryFunctions.K", False),
    Target("poly.mul", "dtlocus.poly", "RealPolynomial.__mul__", False),
)


def _lookup(target: Target):
    """(owner, attribute, function) of a target; function None when missing."""
    owner = importlib.import_module(target.module)
    cls_name, _, attr = target.attr.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name, None)
    return owner, attr, getattr(owner, attr, None) if owner is not None else None


def missing_targets() -> list[str]:
    return [t.name for t in TARGETS if _lookup(t)[2] is None]


class Recorder:
    """Spans and per-name totals of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.job: int | None = None
        self.passes = 0  # traced jobs that finished
        self._stack: list[list] = [[0.0, None]]  # frames: [child seconds, span id]
        self._undo: list[tuple[object, str, object]] = []

    def calls(self, name: str) -> int:
        return self.totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.totals.get(name, [0, 0.0, 0.0])[2]

    def _wrap(self, target: Target, fn):
        totals = self.totals.setdefault(target.name, [0, 0.0, 0.0])
        stack, spans, name, span, observe = self._stack, self.spans, target.name, target.span, target.observe
        rec = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1]]
            if span:
                frame[1] = len(spans)
                spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                totals[0] += 1
                totals[1] += d
                totals[2] += d - frame[0]
                if span:
                    spans[frame[1]] = (name, t0, t1, parent[1], rec.job)
            if observe is not None:
                observe(rec, out)
            return out

        return functools.update_wrapper(wrapper, fn)

    def install(self) -> None:
        """Wrap every target that exists."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "dtlocus" or n.startswith("dtlocus.")) and m is not None]
        for target in TARGETS:
            owner, _, fn = _lookup(target)
            if fn is None:
                continue
            wrapper = self._wrap(target, fn)
            for home in modules if isinstance(owner, types.ModuleType) else [owner]:
                for key, value in list(vars(home).items()):
                    if value is fn:
                        self._undo.append((home, key, value))
                        setattr(home, key, wrapper)

    def snapshot(self):
        return ({k: list(v) for k, v in self.totals.items()}, Counter(self.counts), len(self.spans),
                self.passes)

    def restore(self, snap) -> None:
        """Forget everything recorded since the snapshot, e.g. a stopped job."""
        totals, counts, n_spans, self.passes = snap
        for name, row in self.totals.items():
            row[:] = totals.get(name, [0, 0.0, 0.0])  # wrappers hold these lists
        self.counts.clear()
        self.counts.update(counts)
        del self.spans[n_spans:]
        del self._stack[1:]

    def uninstall(self) -> None:
        for home, key, value in reversed(self._undo):
            setattr(home, key, value)
        self._undo.clear()
