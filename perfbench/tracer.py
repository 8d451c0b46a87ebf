"""Spans and counters recorded from outside the package.

The tracer wraps the package's public functions where the package looks them
up at call time (module attributes), plus the per-chart field callables of
each scenario (``scenario.metric.blocks``, ``GaugeField.components``).
Nothing under ``src/`` changes.

Two kinds of wrapper:

* a *span* records (id, name, parent, op, start, end, self time). Self time
  is the span's duration minus the time covered by its child spans and
  leaves; calls are properly nested in one thread, so children never overlap
  and the covered time is the sum of their durations.
* a *leaf* (a field evaluation: about 2,800 per orbit, so several hundred
  thousand per traced run) only adds to a call count and a time total, and
  to the covered time of the enclosing span. Recording each as a span would
  take tens of MB more.

Each span also carries the calls of every name made beneath it, so ratios
such as block evaluations per oracle call are measured where the work
happens. Spans stay in memory and are written once, by ``dump``.
"""

from __future__ import annotations

import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# span name -> (module, attribute) of the original function
SPAN_TARGETS = {
    "scenarios.load": ("carrollgeo.scenarios", "load"),
    "fd.partials": ("carrollgeo._fd", "partials"),
    "connection.curvature": ("carrollgeo.connection", "curvature"),
    "kaluza.christoffel_numeric": ("carrollgeo.kaluza", "christoffel_numeric"),
    "kaluza.christoffel_closed": ("carrollgeo.kaluza", "christoffel_closed"),
    "geodesics.integrate": ("carrollgeo.geodesics", "integrate"),
    "suites.kernel": ("carrollgeo.suites", "kernel_suite"),
    "suites.killing": ("carrollgeo.suites", "killing_suite"),
    "suites.connection": ("carrollgeo.suites", "connection_suite"),
    "suites.determinant": ("carrollgeo.suites", "determinant_suite"),
    "suites.christoffel": ("carrollgeo.suites", "christoffel_suite"),
    "suites.overlap_metric": ("carrollgeo.suites", "overlap_metric_suite"),
    "linearize.shift_transitions": ("carrollgeo.linearize", "shift_transitions"),
    "linearize.linearize": ("carrollgeo.linearize", "linearize"),
}
METRIC_BLOCK = "geometry.metric_block"
GAUGE = "connection.gauge"
SETUP_OP = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.columns = {
            "id": array("q"), "name": array("i"), "parent": array("q"), "op": array("q"),
            "start": array("d"), "end": array("d"), "self_s": array("d"),
        }
        self.ops: dict[int, dict] = {}
        self.op = SETUP_OP
        self._next_id = 0
        # frame: [span id, name, start, covered time, Counter of calls beneath]
        self._stack: list[list] = []
        self.calls: Counter = Counter()
        self.total_s: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.beneath: defaultdict = defaultdict(Counter)
        self.steps_accepted = 0
        self.setup_load_s = 0.0

    # -- recording -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, perf_counter(), 0.0, Counter()]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = perf_counter()
        self._stack.pop()
        span_id, name, start, covered, under = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        cols = self.columns
        cols["id"].append(span_id)
        cols["name"].append(self._name_id(name))
        cols["parent"].append(parent[0] if parent else -1)
        cols["op"].append(self.op)
        cols["start"].append(start)
        cols["end"].append(end)
        cols["self_s"].append(duration - covered)
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        self.beneath[name].update(under)
        if parent is not None:
            parent[3] += duration
            parent[4].update(under)
            parent[4][name] += 1

    def span(self, name: str, fn, after=None):
        def wrapped(*args, **kwargs):
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(result)
            return result

        return wrapped

    def leaf(self, name: str, fn):
        stack, calls, total = self._stack, self.calls, self.total_s

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                calls[name] += 1
                total[name] += duration
                if stack:
                    stack[-1][3] += duration
                    stack[-1][4][name] += 1

        wrapped.traced = True
        return wrapped

    @contextmanager
    def op_span(self, op_id: int, tags: dict):
        self.op = op_id
        self.ops[op_id] = tags
        frame = self._enter("op")
        try:
            yield
        finally:
            self._exit(frame)
            self.op = SETUP_OP

    # -- instrumentation -------------------------------------------------------

    def install(self) -> None:
        """Wrap every package module attribute bound to a traced function."""
        targets = {name: importlib.import_module(mod) for name, (mod, _) in SPAN_TARGETS.items()}
        modules = [m for n, m in list(sys.modules.items()) if n == "carrollgeo" or n.startswith("carrollgeo.")]
        for name, (_, attr) in SPAN_TARGETS.items():
            original = getattr(targets[name], attr)
            after = None
            if name == "scenarios.load":
                after = self.instrument_scenario
            elif name == "geodesics.integrate":
                after = self._count_steps
            wrapped = self.span(name, original, after)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _count_steps(self, traj) -> None:
        self.steps_accepted += len(traj) - 1

    def _leaves(self, name: str, fns: dict) -> dict:
        return {k: fn if getattr(fn, "traced", False) else self.leaf(name, fn) for k, fn in fns.items()}

    def instrument_scenario(self, scenario) -> None:
        # in place: closures such as the sphere scenarios' t-derivative share this dict
        scenario.metric.blocks.update(self._leaves(METRIC_BLOCK, scenario.metric.blocks))
        self.instrument_gauge(scenario.gauge)

    def instrument_gauge(self, gauge) -> None:
        gauge.components = self._leaves(GAUGE, gauge.components)

    # -- results ---------------------------------------------------------------

    def end_setup(self) -> None:
        """Keep set-up spans (op -1) but restart the aggregates for timed ops."""
        self.setup_load_s = self.total_s["scenarios.load"]
        self.calls.clear()
        self.total_s.clear()
        self.self_s.clear()
        self.beneath.clear()
        self.steps_accepted = 0

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer figures per timed op, as (value, unit)."""
        ops = max(len(self.ops), 1)
        calls, total, self_s = self.calls, self.total_s, self.self_s
        out: dict[str, tuple[float, str]] = {}

        def per_op(key, value, unit):
            out[key] = (value / ops, unit)

        per_op("geometry.metric_block.evals", calls[METRIC_BLOCK], "count/op")
        per_op("geometry.metric_block.s", total[METRIC_BLOCK], "s/op")
        per_op("connection.gauge.evals", calls[GAUGE], "count/op")
        per_op("connection.gauge.s", total[GAUGE], "s/op")
        per_op("connection.curvature.calls", calls["connection.curvature"], "count/op")
        for name in ("fd.partials", "kaluza.christoffel_numeric", "kaluza.christoffel_closed",
                     "geodesics.integrate"):
            per_op(f"{name}.calls", calls[name], "count/op")
            per_op(f"{name}.self_s", self_s[name], "s/op")
        out["kaluza.block_evals_per_numeric"] = (
            _ratio(self.beneath["kaluza.christoffel_numeric"][METRIC_BLOCK], calls["kaluza.christoffel_numeric"]),
            "ratio",
        )
        stepper = self.beneath["geodesics.integrate"]
        symbols = stepper["kaluza.christoffel_numeric"] + stepper["kaluza.christoffel_closed"]
        per_op("geodesics.steps_accepted", self.steps_accepted, "count/op")
        per_op("geodesics.symbol_calls", symbols, "count/op")
        out["geodesics.symbol_calls_per_accepted_step"] = (_ratio(symbols, self.steps_accepted), "ratio")
        per_op("scenarios.load.calls", calls["scenarios.load"], "count/op")
        per_op("scenarios.load.s", total["scenarios.load"], "s/op")
        out["setup.scenarios.load.s"] = (self.setup_load_s, "s")
        for suite in ("kernel", "killing", "connection", "determinant", "christoffel", "overlap_metric"):
            per_op(f"suites.{suite}.s", total[f"suites.{suite}"], "s/op")
        per_op("linearize.shift_transitions.s", total["linearize.shift_transitions"], "s/op")
        per_op("linearize.linearize.s", total["linearize.linearize"], "s/op")
        out["trace.ops"] = (float(len(self.ops)), "count")
        return out

    def dump(self, path, env: dict) -> None:
        payload = {
            "env": env,
            "names": self.names,
            "ops": {str(k): v for k, v in self.ops.items()},
            "columns": list(self.columns),
            "spans": [list(row) for row in zip(*self.columns.values())],
            "leaves": {name: {"calls": self.calls[name], "s": self.total_s[name]} for name in (METRIC_BLOCK, GAUGE)},
        }
        with open(path, "w") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def _ratio(a: float, b: float) -> float:
    return float(a) / b if b else 0.0
