"""Spans around the public functions of each mtjsnn layer.

The benchmark wraps the functions at their module attributes, including
every module that imported a function by name (``cli.simulate_network``,
``trainer.simulate_network`` and so on), so no file under ``src/`` changes.
Wrappers are installed only around traced operations; untraced operations
run the program's own functions.

A span is ``[id, parent id, op id, layer name, start, end, counts]``.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import csv
import json
import os
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer name, counts taken from (args, result))
LAYERS = (
    ("tlr", "run_tlr", "tlr.run_tlr", lambda a, r: {"spikes": len(r.onsets)}),
    ("network", "simulate_network", "network.simulate_network", None),
    ("network", "Trace.to_csv", "network.Trace.to_csv",
     lambda a, r: {"bytes": os.path.getsize(a[1])}),
    ("trainer", "train", "trainer.train", lambda a, r: {"epochs": r[1].epochs}),
    ("xorbench", "run_xor_eval", "xorbench.run_xor_eval", None),
    ("xorbench", "write_row_traces", "xorbench.write_row_traces", None),
    ("config", "load_config", "config.load_config", None),
    ("macrospin", "integrate_macrospin", "macrospin.integrate_macrospin",
     lambda a, r: {"steps": r.time.size - 1}),
    ("macrospin", "llgs_derivative", "macrospin.llgs_derivative", None),
    ("macrospin", "solve_node", "macrospin.solve_node", None),
    ("macrospin", "fit_latency_law", "macrospin.fit_latency_law", None),
    ("macrospin", "measure_latency", "macrospin.measure_latency",
     lambda a, r: {"switched": int(r is not None)}),
)

# Every module whose namespace may hold a reference to a wrapped function.
MODULES = ("cli", "config", "network", "tlr", "trainer", "xorbench", "macrospin")

# Per-layer metrics in report order: (name, unit).
PER_LAYER = (
    ("tlr.run_tlr.calls", "count"),
    ("tlr.run_tlr.busy_s", "s"),
    ("tlr.run_tlr.spikes", "count"),
    ("network.simulate_network.calls", "count"),
    ("network.simulate_network.busy_s", "s"),
    ("network.simulate_network.self_s", "s"),
    ("trainer.train.busy_s", "s"),
    ("trainer.train.epochs", "count"),
    ("trainer.train.sims_per_epoch", "count"),
    ("trainer.train.epochs_per_s", "1/s"),
    ("xorbench.run_xor_eval.busy_s", "s"),
    ("xorbench.write_row_traces.busy_s", "s"),
    ("xorbench.write_row_traces.self_s", "s"),
    ("network.Trace.to_csv.calls", "count"),
    ("network.Trace.to_csv.busy_s", "s"),
    ("network.Trace.to_csv.bytes", "B"),
    ("config.load_config.busy_s", "s"),
    ("macrospin.integrate_macrospin.calls", "count"),
    ("macrospin.integrate_macrospin.busy_s", "s"),
    ("macrospin.integrate_macrospin.steps", "count"),
    ("macrospin.integrate_macrospin.steps_per_s", "1/s"),
    ("macrospin.llgs_derivative.calls", "count"),
    ("macrospin.llgs_derivative.busy_s", "s"),
    ("macrospin.solve_node.calls", "count"),
    ("macrospin.solve_node.busy_s", "s"),
    ("macrospin.fit_latency_law.busy_s", "s"),
    ("macrospin.measure_latency.calls", "count"),
    ("macrospin.measure_latency.switched_ratio", "ratio"),
    ("trace.overhead_s", "s"),
)

OP_SPAN = "op"


class Tracer:
    """Records spans for the operations run between ``begin`` and ``end``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple] = []
        self._wrappers = [self._wrapper_for(*layer) for layer in LAYERS]

    def _wrapper_for(self, module, attr, name, count):
        owner = getattr(self.package, module)
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, self._op, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if count is not None:
                span[6] = count(args, result)
            return result

        return owner, fn, traced

    def begin(self, op_id: int) -> None:
        """Install the wrappers and open the root span of one operation."""
        self._op = op_id
        modules = [self.package] + [getattr(self.package, m) for m in MODULES]
        for owner, fn, traced in self._wrappers:
            for target in ([owner] if isinstance(owner, type) else modules):
                for key, value in list(vars(target).items()):
                    if value is fn:
                        setattr(target, key, traced)
                        self._patches.append((target, key, fn))
        root = [len(self.spans), None, op_id, OP_SPAN, 0.0, 0.0, None]
        self.spans.append(root)
        self._stack.append(root[0])
        root[4] = perf_counter()

    def end(self) -> None:
        """Close the root span and restore the program's functions."""
        self.spans[self._stack.pop()][5] = perf_counter()
        for target, key, fn in reversed(self._patches):
            setattr(target, key, fn)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "parent", "op", "name", "start_s", "end_s", "counts"])
            for sid, parent, op, name, start, end, counts in self.spans:
                out.writerow([sid, "" if parent is None else parent, op, name,
                              repr(start), repr(end), "" if counts is None else json.dumps(counts)])


def layer_metrics(spans: list[list], n_cycles: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: means per traced cycle, and rates over busy time.

    Self time is a span's duration minus the durations of its direct child
    spans; the program is single-threaded, so children never overlap.
    """
    busy = defaultdict(float)
    child_busy = defaultdict(float)
    total = defaultdict(float)
    names = {s[0]: s[3] for s in spans}
    sims_in_train = 0
    for _sid, parent, _op, name, start, end, counts in spans:
        busy[name] += end - start
        total[f"{name}.calls"] += 1
        for key, value in (counts or {}).items():
            total[f"{name}.{key}"] += value
        if parent is not None:
            child_busy[names[parent]] += end - start
            if name == "network.simulate_network" and names[parent] == "trainer.train":
                sims_in_train += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {key: value / n_cycles for key, value in total.items()}
    for name in busy:
        out[f"{name}.busy_s"] = busy[name] / n_cycles
        out[f"{name}.self_s"] = (busy[name] - child_busy[name]) / n_cycles
    epochs = total["trainer.train.epochs"]
    out["trainer.train.sims_per_epoch"] = ratio(sims_in_train, epochs)
    out["trainer.train.epochs_per_s"] = ratio(epochs, busy["trainer.train"])
    out["macrospin.integrate_macrospin.steps_per_s"] = ratio(
        total["macrospin.integrate_macrospin.steps"], busy["macrospin.integrate_macrospin"])
    out["macrospin.measure_latency.switched_ratio"] = ratio(
        total["macrospin.measure_latency.switched"], total["macrospin.measure_latency.calls"])
    out["trace.overhead_s"] = overhead_s
    return {name: out.get(name, 0.0) for name, _unit in PER_LAYER}
