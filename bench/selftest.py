#!/usr/bin/env python3
"""Self-test of the benchmark at tiny workload sizes (a few seconds).

    python3 bench/selftest.py

Checks that every workload runs clean with tracing off and on, that the
reported metrics are exactly the ones BENCHMARK.json defines, that the
generators are deterministic in the seed, that the output checks catch
broken outputs, and that the tracer leaves the program as it found it.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import sys
from types import SimpleNamespace

import checks
import run
import workloads


def expect(condition, message):
    if not condition:
        raise SystemExit("selftest FAILED: %s" % message)


def test_workloads(prog):
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            outcome = run.run_workload(prog, name, seed=1, seconds=0,
                                       trace=trace,
                                       size=workloads.TINY_SIZE[name])
            result = outcome["result"]
            expect(result["correct"], "%s trace=%s: %s"
                   % (name, trace, outcome["problems"]))
            expect(set(result["metrics"]) == set(run.load_units(trace)),
                   "%s trace=%s: metric set differs from BENCHMARK.json"
                   % (name, trace))
            if not trace:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                expect(not zero, "%s: end-to-end metrics %s are not > 0"
                       % (name, zero))
            expect(outcome["info"]["operations"] > 0,
                   "%s: no scaling operation" % name)
        print("selftest: %s ok (%d events, %d operations)"
              % (name, outcome["info"]["events"],
                 outcome["info"]["operations"]))


def test_generators():
    for name in workloads.WORKLOADS:
        size = workloads.TINY_SIZE[name]
        one = workloads.GENERATORS[name](7, size)
        expect(one == workloads.GENERATORS[name](7, size),
               "%s: one seed gave two inputs" % name)
        other = workloads.GENERATORS[name](8, size)
        expect(one != other, "%s: two seeds gave one input" % name)
        expect(len(one["workload"]["metrics"])
               == len(other["workload"]["metrics"]),
               "%s: the seed changed the workload's shape" % name)


def test_checks_catch_faults(prog):
    data = workloads.scale_churn(1, 1)
    result = prog.setup(data).run()
    levels = workloads.declared_levels("scale-churn")
    expect(not checks.check_output(result, levels), "clean output flagged")

    state = copy.deepcopy(result.final_state)
    zone = next(iter(state["zones"].values()))
    zone["available"]["vcpu"] += 1
    expect(checks.zone_conservation(state), "broken zone sum not caught")
    zone["available"]["vcpu"] -= 1
    zone["reserved"]["memory"] -= 1
    zone["available"]["memory"] += 1
    expect(checks.zone_conservation(state), "negative part not caught")

    state = copy.deepcopy(result.final_state)
    state["ns_info"]["current_ns_il"] = "level-9"
    expect(checks.declared_level(state, levels), "unknown level not caught")

    op = SimpleNamespace(op_id="op-x", step_log=[(19, 5), (24, 5)])
    expect(checks.start_before_stop([op]), "stop before start not caught")


def test_tracer_restores(prog):
    import nsscale.inventory
    import nsscale.simulator
    from layers import TARGETS, Tracer
    before = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    with Tracer(prog.trace_lines, prog.canonical_json) as tracer:
        prog.setup(workloads.scale_churn(1, 1)).run()
        spans = tracer.take()
    after = [owner.__dict__[attr] for owner, attr, _ in TARGETS]
    expect(before == after, "tracer left wrappers installed")
    expect(spans["calls"]["simulator.run"] == 1, "run span not recorded")
    expect(spans["calls"]["inventory.zone_ops"] > 0, "zone ops not traced")
    expect(nsscale.simulator.evaluate_rules.__module__
           == "nsscale.monitoring", "evaluate_rules not restored")
    expect(nsscale.inventory.ResourceZone.allocate.__qualname__
           == "ResourceZone.allocate", "allocate not restored")


def main() -> int:
    run.import_program()
    prog = run.Program()
    test_generators()
    test_checks_catch_faults(prog)
    test_tracer_restores(prog)
    test_workloads(prog)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
