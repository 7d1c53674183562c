"""In-memory span tracer that wraps the library's public functions.

Each layer function is replaced, in every ``fvariety`` module that binds
it (e.g. ``experiments.draw_samples``, ``estimation.f_variety``), by a
wrapper that records a span (name, start, end, parent, count) through a
stack.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts
the original objects back.  Counts are exact amounts of work done by the
call: observations drawn, trials run, quadrature panels, kinks, rows.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Any, Callable

# Quadrature rule width: one panel evaluates the integrand at 15 nodes.
GK_NODES = 15


def _len(args, kwargs, result) -> int:
    return len(result)


def _trials(args, kwargs, result) -> int:
    return result.trials


def _rows(args, kwargs, result) -> int:
    return len(result.responses)


# (span name, defining module, attribute, count of work done by one call)
LAYERS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("experiments.run_sweep", "fvariety.experiments", "run_sweep", None),
    ("experiments.write_sweep", "fvariety.experiments", "write_sweep", None),
    ("synthesis.draw_samples", "fvariety.synthesis", "draw_samples", _len),
    ("estimation.empirical_f_variety", "fvariety.estimation", "empirical_f_variety", None),
    ("estimation.empirical_joint", "fvariety.estimation", "empirical_joint", None),
    ("estimation.compare_groups_equalized", "fvariety.estimation",
     "compare_groups_equalized", _trials),
    ("divergence.f_variety", "fvariety.divergence", "f_variety", None),
    ("synthesis.continuous_f_variety", "fvariety.synthesis", "continuous_f_variety", None),
    ("synthesis.exact_discretized_joint", "fvariety.synthesis", "exact_discretized_joint", None),
    ("quadrature.adaptive_quadrature", "fvariety.quadrature", "adaptive_quadrature", None),
    ("quadrature.find_sign_changes", "fvariety.quadrature", "find_sign_changes", _len),
    ("special.regularized_incomplete_beta", "fvariety.special",
     "regularized_incomplete_beta", None),
    ("survey.load_survey", "fvariety.survey", "load_survey", _rows),
    ("survey.extract_samples", "fvariety.survey", "extract_samples", None),
    ("survey.analyze", "fvariety.survey", "analyze", None),
)
SPAWN = "sampling.spawn"
ROOT = "cli.main"


class Tracer:
    def __init__(self) -> None:
        # finished spans: (name, start, end, parent index or -1, count)
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self.quadrature_points = 0

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                work = count(args, kwargs, result) if count and result is not None else 0
                spans[index] = (name, start, end, parent, work)

        return traced

    def _count_points(self, quad: Callable) -> Callable:
        """``adaptive_quadrature`` with its integrand counting abscissae."""

        def counted(func, *args, **kwargs):
            def integrand(x):
                self.quadrature_points += len(x)
                return func(x)

            return quad(integrand, *args, **kwargs)

        return counted

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every layer function wherever an ``fvariety`` module binds it."""
        for module in {layer[1] for layer in LAYERS}:
            importlib.import_module(module)
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("fvariety") and m]
        for name, module, attr, count in LAYERS:
            original = getattr(sys.modules[module], attr)
            if name == "quadrature.adaptive_quadrature":
                wrapper = self.wrap(name, self._count_points(original))
            else:
                wrapper = self.wrap(name, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        stream_cls = sys.modules["fvariety.sampling"].RandomStream
        self._patch(stream_cls, "spawn", self.wrap(SPAWN, stream_cls.spawn))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def root(self, fn: Callable, *args):
        """Run ``fn`` under a top-level ``cli.main`` span."""
        return self.wrap(ROOT, fn)(*args)

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per span name: calls, inclusive seconds, self seconds, work count
        and per-call durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, Any]] = {}
        for i, (name, start, end, parent, work) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0,
                                        "durations": []})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["work"] += work
            row["durations"].append(end - start)
        return out
