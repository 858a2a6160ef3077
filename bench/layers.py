"""Outside-in per-layer timing.

``Tracer.install`` replaces each public function below with a timing
wrapper at the name its caller looks it up by, for example
``nsscale.simulator.evaluate_rules`` or the ``ResourceZone.allocate``
method, and ``Tracer.restore`` puts the originals back. A wrapper counts
calls and measures self time: its own duration minus the time of the
wrapped calls made inside it. Nothing in the program changes.

Self times of the spans inside one ``Simulator.run`` add up to that run's
wall time, because the run itself is the outermost span.
"""

from __future__ import annotations

import functools
import time

import nsscale.drpa
import nsscale.inventory
import nsscale.monitoring
import nsscale.rules
import nsscale.simulator

# (owner, attribute, layer). A layer may cover several names; every call
# site the simulator uses for it is listed.
TARGETS = (
    (nsscale.monitoring.MetricStore, "window_values",
     "monitoring.window_values"),
    (nsscale.monitoring.MetricStore, "ingest", "monitoring.ingest"),
    (nsscale.simulator, "evaluate_rules", "monitoring.evaluate_rules"),
    (nsscale.rules, "evaluate_expr", "rules.evaluate_expr"),
    (nsscale.inventory.ResourceZone, "check_conservation",
     "inventory.check_conservation"),
    (nsscale.inventory.ResourceZone, "reserve", "inventory.zone_ops"),
    (nsscale.inventory.ResourceZone, "allocate", "inventory.zone_ops"),
    (nsscale.inventory.ResourceZone, "release", "inventory.zone_ops"),
    (nsscale.inventory.ResourceZone, "cancel", "inventory.zone_ops"),
    (nsscale.simulator, "record_vnf_info_update",
     "inventory.record_vnf_info_update"),
    (nsscale.simulator, "capacity_report", "inventory.capacity_report"),
    (nsscale.simulator, "payload_digest", "trace.payload_digest"),
    (nsscale.drpa, "decide", "drpa.decide"),
    (nsscale.drpa, "estimate_demand", "drpa.estimate_demand"),
    (nsscale.drpa, "candidate_ns_ils", "drpa.candidate_ns_ils"),
    (nsscale.drpa, "select_optimum", "drpa.select_optimum"),
    (nsscale.drpa, "plan_placement", "drpa.plan_placement"),
    (nsscale.drpa, "ns_il_delta", "descriptors.ns_il_delta"),
    (nsscale.simulator, "ns_il_delta", "descriptors.ns_il_delta"),
    (nsscale.drpa, "aggregate_capacity", "descriptors.aggregate_capacity"),
    (nsscale.simulator, "validate_scenario", "scenario.validate_scenario"),
    (nsscale.simulator, "vim_placement", "simulator.vim_placement"),
    (nsscale.simulator.Simulator, "final_state", "simulator.final_state"),
    (nsscale.simulator.Simulator, "run", "simulator.run"),
)

# Spans the benchmark opens around its own emit calls.
EMIT_LAYERS = ("trace.trace_lines", "trace.canonical_json")


class Tracer:
    """Counts and self times per layer. `trace_lines` and `canonical_json`
    are the emit functions the benchmark itself calls; `emit` runs them
    under spans."""

    def __init__(self, trace_lines, canonical_json):
        self.calls = {}
        self.self_s = {}
        self.window_scanned = 0  # stream samples window_values looked at
        self.window_returned = 0  # samples it returned
        self.decide_errors = 0  # DrpaError raised out of decide
        self._stack = [0.0]  # child time accumulated per open span
        self._saved = []
        for layer in [t[2] for t in TARGETS] + list(EMIT_LAYERS):
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
        self._trace_lines = self.wrap("trace.trace_lines", trace_lines)
        self._canonical_json = self.wrap("trace.canonical_json",
                                         canonical_json)

    def wrap(self, layer: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[layer] += 1
                self_s[layer] += elapsed - child
        return traced

    def _wrap_window_values(self, fn):
        def counted(store, subject, name, window, now):
            values = fn(store, subject, name, window, now)
            self.window_scanned += len(store.streams().get((subject, name), ()))
            self.window_returned += len(values)
            return values
        return counted

    def _wrap_decide(self, fn):
        def counted(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except nsscale.drpa.DrpaError:
                self.decide_errors += 1
                raise
        return counted

    def emit(self, result) -> tuple:
        return (self._trace_lines(result.trace),
                self._canonical_json(result.final_state))

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, layer in TARGETS:
            original = owner.__dict__[attr]
            fn = original
            if layer == "monitoring.window_values":
                fn = self._wrap_window_values(fn)
            elif layer == "drpa.decide":
                fn = self._wrap_decide(fn)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, fn))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    def take(self) -> dict:
        """Counters accumulated since the last take, then zeroed."""
        out = {"calls": dict(self.calls), "self_s": dict(self.self_s),
               "window_scanned": self.window_scanned,
               "window_returned": self.window_returned,
               "decide_errors": self.decide_errors}
        for layer in self.calls:
            self.calls[layer] = 0
            self.self_s[layer] = 0.0
        self.window_scanned = self.window_returned = self.decide_errors = 0
        return out
