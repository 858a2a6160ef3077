"""The benchmark's self-test, run with the unit tests: renaming a function
the benchmark's tracer wraps (bench/layers.py) then fails here too, not
only under `python3 bench/run.py --trace 1`."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    out = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selftest: ok"


def test_rule_layers_count_calls_on_the_jump_scenario():
    """A refactor of the rule hot path, the decision's snapshot or the
    payload digest must leave the benchmark's per-layer metrics for them
    measuring something."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        import layers
    finally:
        sys.path.pop(0)
    import sample_catalog as sc
    from nsscale.scenario import scenario_from_dict
    from nsscale.simulator import Simulator
    from nsscale.trace import canonical_json, trace_lines

    tracer = layers.Tracer(trace_lines, canonical_json)
    # Set-up takes its own snapshot; the traced span is the run alone.
    sim = Simulator(scenario_from_dict(sc.sample_scenario(
        workload=sc.jump_workload())))
    with tracer:
        result = sim.run()
    calls = tracer.take()["calls"]
    # every event of the trace is digested through the traced name
    assert calls["trace.payload_digest"] == len(result.trace) > 0
    for layer in ("monitoring.evaluate_rules", "rules.evaluate_expr",
                  "monitoring.window_values"):
        assert calls[layer] > 0, layer
    # every decision plans on one capacity snapshot the simulator takes
    assert calls["inventory.capacity_report"] == calls["drpa.decide"] > 0
