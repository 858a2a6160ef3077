#!/usr/bin/env python3
"""nsscale benchmark.

Runs one generated workload through the simulator's public API
(``scenario_from_dict``, ``Simulator(...)``, ``.run()``, ``trace_lines``,
``canonical_json``) in a closed loop: one caller hands the whole timeline
over in one call, waits for the result, checks it and repeats until
``--seconds`` have passed. Single process, single thread.

    python3 bench/run.py --workload scale-churn --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 10 --trace 1

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, ``--trace
1`` the per-layer metrics from a separate traced run (see layers.py).
The run's time is reported in units of a fixed reference loop timed just
before and just after it (see ``reference_s``), and in seconds on the
``#`` lines.
Every repetition's output is checked (checks.py), and its trace and
final-state digests must equal the first repetition's, traced or not. The
last line of standard output is one JSON object. Exit code 1 means a
check failed, 2 that the program's sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
import tracemalloc

import checks
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_REPETITIONS = 3
# A set-up takes about a millisecond, so each repetition times a batch of
# them and records the batch mean; the last set-up is the one run.
SETUP_REPEATS = 8
COVERAGE_TOLERANCE = 0.01  # layer self times vs. traced run_s
MIB = 1024 * 1024
# The reference loop is timed this many times on each side of a run; the
# median of each side's timings is kept.
REFERENCE_PROBES = 5


class _Row:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def reference_work() -> list:
    """Fixed pure-Python work that does not touch the program: string
    keys, dict updates, attribute reads and small objects, as the simulator
    does. It never changes, so its time measures only the host's speed."""
    table = {}
    for i in range(3000):
        row = _Row("z-%d" % (i % 97), i * 0.5)
        entry = table.setdefault(row.key, {"n": 0, "sum": 0.0})
        entry["n"] += 1
        entry["sum"] += row.value
    return sorted(table.items())


def reference_s() -> float:
    """Seconds the reference work takes now: the median of a few
    timings."""
    clock = time.perf_counter
    times = []
    for _ in range(REFERENCE_PROBES):
        start = clock()
        reference_work()
        times.append(clock() - start)
    return statistics.median(times)


def import_program():
    """Put the checkout's src/ first on the path and import nsscale from
    there, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "nsscale", "simulator.py")):
        print("bench: no nsscale sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import nsscale
    if not os.path.abspath(nsscale.__file__).startswith(SRC + os.sep):
        print("bench: nsscale imported from %s, not %s"
              % (nsscale.__file__, SRC), file=sys.stderr)
        sys.exit(2)


def load_units(trace: bool) -> dict:
    """Metric name -> unit, for the metric set BENCHMARK.json defines."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


class Program:
    """The public entry points the benchmark calls."""

    def __init__(self):
        from nsscale.scenario import scenario_from_dict
        from nsscale.simulator import Simulator
        from nsscale.trace import canonical_json, trace_lines
        self.scenario_from_dict = scenario_from_dict
        self.Simulator = Simulator
        self.trace_lines = trace_lines
        self.canonical_json = canonical_json

    def setup(self, data):
        return self.Simulator(self.scenario_from_dict(data))

    def emit(self, result) -> tuple:
        return (self.trace_lines(result.trace),
                self.canonical_json(result.final_state))


class Verifier:
    """Checks every output and compares its digests with the first one."""

    def __init__(self, levels: tuple):
        self.levels = levels
        self.reference = None
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def check(self, result, texts: tuple):
        self.attempted += 1
        problems = checks.check_output(result, self.levels)
        digests = {"trace_sha256": checks.sha256(texts[0]),
                   "state_sha256": checks.sha256(texts[1])}
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            problems.append("digests %s differ from the first run's %s"
                            % (digests, self.reference))
        self.fail(*problems)

    def fail(self, *problems):
        if problems:
            self.failed += 1
            self.problems.extend(p for p in problems
                                 if p not in self.problems)


def summary(result) -> dict:
    ops = result.operations
    return {
        "events": len(result.trace),
        "operations": len(ops),
        "failed_operations": sum(1 for op in ops if op.phase == "failed"),
        "decisions": len(result.decisions),
        "drpa_errors": sum(1 for _, d in result.decisions
                           if isinstance(d, str)),
        "status": result.status,
        "final_ns_il": result.final_state["ns_info"]["current_ns_il"],
    }


def repetitions(seconds: float):
    """Yield until `seconds` have passed, at least MIN_REPETITIONS times."""
    deadline = time.perf_counter() + seconds
    n = 0
    while n < MIN_REPETITIONS or time.perf_counter() < deadline:
        yield n
        n += 1


def warm_up(prog: Program, data: dict, verifier: Verifier) -> dict:
    """One untimed pass; its output is the reference the others match."""
    reference_s()
    result = prog.setup(data).run()
    verifier.check(result, prog.emit(result))
    info = summary(result)
    if not info["operations"]:
        verifier.fail("the workload attempted no scaling operation")
    return info


def timed_repetition(prog: Program, data: dict, verifier: Verifier) -> tuple:
    """One batch of set-ups and one run between two timings of the
    reference work, checked. Returns (setup, run, reference) seconds, the
    reference being the mean of the timings on either side. What the
    repetition built is freed when it returns, outside every timer."""
    clock = time.perf_counter
    gc.collect()
    start = clock()
    sims = [prog.setup(data) for _ in range(SETUP_REPEATS)]
    setup = (clock() - start) / SETUP_REPEATS
    before = reference_s()
    start = clock()
    result = sims[-1].run()
    run = clock() - start
    after = reference_s()
    verifier.check(result, prog.emit(result))
    return setup, run, (before + after) / 2


def measure(prog: Program, data: dict, verifier: Verifier,
            seconds: float) -> tuple:
    """End-to-end metrics with tracing off. Returns (metrics, summary)."""
    info = warm_up(prog, data, verifier)
    setup, run, reference = zip(*(timed_repetition(prog, data, verifier)
                                  for _ in repetitions(seconds)))

    gc.collect()
    tracemalloc.start()
    try:
        result = prog.setup(data).run()
        texts = prog.emit(result)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    verifier.check(result, texts)

    run_ref = statistics.median(r / ref for r, ref in zip(run, reference))
    run_s = statistics.median(run)
    ops = info["operations"]
    metrics = {
        "setup_s": statistics.median(setup),
        "run_ref": run_ref,
        "run_ref_per_kevent": run_ref / info["events"] * 1000,
        "peak_heap_mib": peak / MIB,
        "op_ok_ratio": (ops - info["failed_operations"]) / max(ops, 1),
    }
    info.update(repetitions=len(run), run_s=run_s,
                us_per_event=run_s / info["events"] * 1e6,
                reference_s=statistics.median(reference))
    return metrics, info


def untraced_run(prog: Program, data: dict, verifier: Verifier) -> tuple:
    """Returns (run, emit) seconds."""
    clock = time.perf_counter
    gc.collect()
    sim = prog.setup(data)
    start = clock()
    result = sim.run()
    run = clock() - start
    start = clock()
    texts = prog.emit(result)
    emit = clock() - start
    verifier.check(result, texts)
    return run, emit


def traced_run(prog: Program, data: dict, verifier: Verifier,
               tracer) -> tuple:
    """Returns (run seconds, set-up spans, run spans, emit spans)."""
    gc.collect()
    with tracer:
        tracer.take()
        sim = prog.setup(data)
        setup = tracer.take()
        start = time.perf_counter()
        result = sim.run()
        elapsed = time.perf_counter() - start
        spans = tracer.take()
        texts = tracer.emit(result)
        emit = tracer.take()
    verifier.check(result, texts)
    return elapsed, setup, spans, emit


def measure_traced(prog: Program, data: dict, verifier: Verifier,
                   seconds: float) -> tuple:
    """Per-layer metrics: untraced repetitions give the overhead baseline,
    traced ones the layer counts and self times. Returns (metrics,
    summary)."""
    from layers import EMIT_LAYERS, Tracer

    info = warm_up(prog, data, verifier)
    tracer = Tracer(prog.trace_lines, prog.canonical_json)
    untraced_reps, traced_reps = [], []
    # Untraced and traced repetitions alternate, so a change in machine
    # speed during the run shifts both alike.
    for _ in repetitions(seconds):
        untraced_reps.append(untraced_run(prog, data, verifier))
        traced_reps.append(traced_run(prog, data, verifier, tracer))
    untraced, untraced_emit = zip(*untraced_reps)
    traced, setups, runs, emits = zip(*traced_reps)

    coverage = []
    for run_s, spans in zip(traced, runs):
        coverage.append(sum(spans["self_s"].values()) / run_s)
        if spans["calls"] != runs[0]["calls"]:
            verifier.fail("layer call counts differ between repetitions")
        if min(spans["self_s"].values()) < 0:
            verifier.fail("a layer self time is negative")
        if abs(coverage[-1] - 1) > COVERAGE_TOLERANCE:
            verifier.fail("layer self times add up to %.4f of the traced "
                          "run_s" % coverage[-1])

    def self_s(phase, layer):
        return statistics.median(spans["self_s"][layer] for spans in phase)

    first = runs[0]
    calls = first["calls"]
    metrics = {}
    for layer in calls:
        metrics[layer + ".calls"] = calls[layer]
        metrics[layer + ".self_s"] = self_s(runs, layer)
    for layer in EMIT_LAYERS:
        metrics[layer + ".self_s"] = self_s(emits, layer)
    metrics["scenario.validate_scenario.self_s"] = self_s(
        setups, "scenario.validate_scenario")
    decisions = max(calls["drpa.decide"], 1)
    traced_s = statistics.median(traced)
    untraced_s = statistics.median(untraced)
    metrics.update({
        "emit_s": statistics.median(untraced_emit),
        "tracing.run_s": traced_s,
        "tracing.untraced_run_s": untraced_s,
        "tracing.overhead_s": traced_s - untraced_s,
        "tracing.self_time_coverage": statistics.median(coverage),
        "monitoring.window_scan_ratio":
            first["window_returned"] / max(first["window_scanned"], 1),
        "inventory.check_conservation.per_event":
            calls["inventory.check_conservation"] / info["events"],
        "drpa.decide.error_ratio": first["decide_errors"] / decisions,
        "descriptors.ns_il_delta.per_decision":
            calls["descriptors.ns_il_delta"] / decisions,
        "descriptors.aggregate_capacity.per_decision":
            calls["descriptors.aggregate_capacity"] / decisions,
        "workflow.events": info["events"],
        "workflow.ops_attempted": info["operations"],
        "workflow.ops_failed": info["failed_operations"],
        "workflow.decisions": info["decisions"],
    })
    info["repetitions"] = len(traced)
    return metrics, info


def run_workload(prog: Program, name: str, seed: int, seconds: float,
                 trace: bool, size: int | None = None) -> dict:
    units = load_units(trace)
    if size is None:
        size = workloads.DEFAULT_SIZE[name]
    data = workloads.GENERATORS[name](seed, size)
    verifier = Verifier(workloads.declared_levels(name))
    metrics, info = (measure_traced if trace else measure)(
        prog, data, verifier, seconds)
    info.update(workload=name, seed=seed, size=size, **verifier.reference)
    return {
        "info": info,
        "problems": verifier.problems,
        "result": {
            "correct": not verifier.problems,
            "attempted": verifier.attempted,
            "failed": verifier.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]}
                        for k in units},
        },
    }


def report(outcome: dict):
    for key, value in outcome["info"].items():
        print("# %s: %s" % (key, value))
    for problem in outcome["problems"]:
        print("# CHECK FAILED: %s" % problem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nsscale benchmark")
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_program()
    prog = Program()

    if args.workload != "all":
        outcome = run_workload(prog, args.workload, args.seed, args.seconds,
                               bool(args.trace))
        report(outcome)
        print(json.dumps(outcome["result"]))
        return 0 if outcome["result"]["correct"] else 1

    results = {}
    for name in workloads.WORKLOADS:
        outcome = run_workload(prog, name, args.seed, args.seconds,
                               bool(args.trace))
        report(outcome)
        for metric, entry in outcome["result"]["metrics"].items():
            print("%-15s %-44s %14.6g %s" % (name, metric, entry["value"],
                                             entry["unit"]))
        results[name] = outcome["result"]
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
