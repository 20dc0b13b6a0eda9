"""Call counting and span tracing of zerocert, done from outside the library.

Each traced public function is replaced, in every zerocert module that binds
it, by a wrapper. The wrapper of ``mapspec.evaluate`` always counts calls and
points, because the timed runs report them. The other wrappers do nothing
but forward the call until ``tracing`` is set; then every wrapper records a
span: name, start, end, parent span and task id. Spans stay in memory until
the run ends.
"""
from __future__ import annotations

import contextlib
import importlib
import math
import sys
import time
from collections import Counter

import numpy as np

EVALUATE = ("mapspec", "evaluate")

# (module, function) pairs whose calls are spans; the span is "module.function"
TARGETS = (
    ("mapspec", "parse_map"),
    ("mapspec", "lipschitz_estimate"),
    ("geometry", "sample_sphere"),
    ("degree", "winding_number"),
    ("homotopy", "null_homotopy"),
    ("homotopy", "radial_extension"),
    ("criteria", "certify_existence"),
    ("criteria", "poincare_bohl"),
    ("locator", "locate_zero"),
    ("locator", "box_winding"),
    ("locator", "brouwer_fixed_point"),
)

# Every per-module metric the traced report prints, with its unit. The
# "stat" after the last dot picks the rule in Tracer.layer_metric.
LAYER_METRICS = {
    "mapspec.evaluate.calls": "count",
    "mapspec.evaluate.points": "count",
    "mapspec.evaluate.self_ms": "ms",
    "mapspec.evaluate.us_per_call": "us",
    "mapspec.parse_map.self_ms": "ms",
    "mapspec.lipschitz_estimate.calls": "count",
    "mapspec.lipschitz_estimate.self_ms": "ms",
    "geometry.sample_sphere.calls": "count",
    "geometry.sample_sphere.points": "count",
    "geometry.sample_sphere.self_ms": "ms",
    "degree.winding_number.calls": "count",
    "degree.winding_number.self_ms": "ms",
    "degree.winding_number.refinements": "count",
    "homotopy.null_homotopy.self_ms": "ms",
    "homotopy.radial_extension.self_ms": "ms",
    "homotopy.witness.points": "count",
    "homotopy.witness.self_ms": "ms",
    "criteria.certify_existence.self_ms": "ms",
    "criteria.poincare_bohl.calls": "count",
    "criteria.poincare_bohl.self_ms": "ms",
    "criteria.poincare_bohl.points": "count",
    "locator.locate_zero.self_ms": "ms",
    "locator.box_winding.calls": "count",
    "locator.box_winding.self_ms": "ms",
    "locator.box_winding.points": "count",
    "locator.box_winding.useful_ratio": "ratio",
    "locator.box_winding.vanishing": "count",
    "locator.evals_per_digit": "count",
    "locator.brouwer_fixed_point.self_ms": "ms",
}


class Tracer:
    def __init__(self):
        self.tracing = False
        self.eval_calls = 0          # counted traced or not
        self.eval_points = 0
        self.spans = []              # [name, start, end, parent, task]
        self.calls = Counter()       # per span name
        self.points = Counter()      # points evaluated inside spans of a name
        self.inner_evals = Counter()  # evaluate calls inside spans of a name
        self.events = Counter()      # refinements, raises, digits, ...
        self.absent = []             # targets the library does not define
        self._stack = []
        self._task = -1
        self._bindings = []          # (module, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self, traced: bool):
        """Wrap evaluate, and with ``traced`` every function in TARGETS."""
        self._wrap(EVALUATE, self._evaluate_wrapper)
        if traced:
            for target in TARGETS:
                self._wrap(target, self._span_wrapper)

    def restore(self):
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, target, make_wrapper):
        module_name, func_name = target
        name = f"{module_name}.{func_name}"
        try:
            module = importlib.import_module(f"zerocert.{module_name}")
        except ImportError:
            module = None
        original = getattr(module, func_name, None)
        if not callable(original):
            self.absent.append(name)
            return
        wrapper = make_wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "zerocert" and not mod_name.startswith("zerocert."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._bindings.append((mod, attr, original))

    def _evaluate_wrapper(self, name, original):
        def evaluate(*args, **kwargs):
            x = args[1] if len(args) > 1 else kwargs.get("x")
            shape = np.shape(x)
            k = shape[0] if len(shape) == 2 else 1
            self.eval_calls += 1
            self.eval_points += k
            if not self.tracing:
                return original(*args, **kwargs)
            for outer in {self.spans[i][0] for i in self._stack}:
                self.inner_evals[outer] += 1
                self.points[outer] += k
            self.points[name] += k
            return self._call(name, original, args, kwargs)
        return evaluate

    def _span_wrapper(self, name, original):
        def wrapper(*args, **kwargs):
            if not self.tracing:
                return original(*args, **kwargs)
            result = self._call(name, original, args, kwargs)
            self._observe(name, args, kwargs, result)
            return result
        return wrapper

    # -- spans ------------------------------------------------------------

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, parent, self._task]
        self.spans.append(span)
        self.calls[name] += 1
        return span

    def _close(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def _call(self, name, original, args, kwargs):
        span = self._open(name)
        try:
            return original(*args, **kwargs)
        except Exception as exc:
            self.events[f"{name}.raised.{type(exc).__name__}"] += 1
            raise
        finally:
            self._close(span)

    @contextlib.contextmanager
    def span(self, name, points=0):
        """A span opened by the benchmark itself, around its own call."""
        if not self.tracing:
            yield
            return
        span = self._open(name)
        self.points[name] += points
        try:
            yield
        finally:
            self._close(span)

    def begin_task(self, task_id, kind):
        self._task = task_id
        if self.tracing:
            self._open(f"task.{kind}")

    def end_task(self):
        if self.tracing:
            self._close(self.spans[self._stack[0]])
        self._task = -1

    def _observe(self, name, args, kwargs, result):
        """Counts read from a traced call's arguments and result."""
        if name == "geometry.sample_sphere":
            self.points[name] += len(getattr(result, "points", ()))
        elif name == "degree.winding_number":
            self.events["degree.winding_number.refinements"] += getattr(
                result, "total_refinements", 0)
        elif name == "locator.box_winding":
            self.events["locator.box_winding.nonzero"] += int(result != 0)
        elif name == "locator.locate_zero":
            box = args[1] if len(args) > 1 else kwargs.get("box")
            start = getattr(box, "diameter", 0.0)
            end = getattr(result, "cell_diameter", 0.0)
            if start > 0.0 and end > 0.0:
                self.events["locator.locate_zero.digits"] += math.log10(start / end)

    # -- per-layer metrics ------------------------------------------------

    def self_ms(self):
        """Per span name: total duration minus the time its children cover."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += 1e3 * (end - start - child[i])
        return out

    def layer_metric(self, metric, self_ms):
        """Value of one per-layer metric named like 'module.function.stat'."""
        span, _, stat = metric.rpartition(".")
        if metric == "locator.evals_per_digit":
            digits = self.events["locator.locate_zero.digits"]
            return self.inner_evals["locator.locate_zero"] / digits if digits else 0.0
        if stat == "calls":
            return self.calls[span]
        if stat == "points":
            return self.points[span]
        if stat == "self_ms":
            return self_ms[span]
        if stat == "us_per_call":
            return 1e3 * self_ms[span] / self.calls[span] if self.calls[span] else 0.0
        if stat == "refinements":
            return self.events[metric]
        if stat == "useful_ratio":
            calls = self.calls[span]
            return self.events[f"{span}.nonzero"] / calls if calls else 0.0
        if stat == "vanishing":
            return self.events[f"{span}.raised.VanishingOnBoundary"]
        raise KeyError(f"no rule for per-layer metric {metric!r}")
