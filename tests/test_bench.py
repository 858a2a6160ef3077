"""The benchmark's self-test, run with the unit tests: renaming a function
the benchmark's tracer wraps (bench/layers.py) then fails here too, not
only under `python3 bench/run.py --trace 1`."""

import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc

import pytest

from corpus import import_bench

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# SHA-256 of each workload's trace and final state at seed 0 and its
# default size; `bench/run.py` reports the same two digests.
WORKLOAD_DIGESTS = {
    "monitor-steady": (
        "ed512176049d4ff934874450afd53dc58638e731101ef9acf82624170de39c95",
        "6f77c6884921dd176cb5c2d88486b038230615a82dcc50e7d19d2d651c6d9537"),
    "scale-churn": (
        "27ac8e7d742356aeeb1236a004ca64007dd5f6cfdc2f1ca6e6aefe97d4cd1d3a",
        "8e8021984e667bbea6781d20d5a85c37dcb832890c22053ba2b3b1c75ffe2d34"),
    "wide-fabric": (
        "cd796b324ef6edd58a12ca7e7ef3bf24338b2784f1ffad6512ab389d057b33c7",
        "ab7d7e5ea4d238d6601511fafd52cb17e025a22d6ff8ce03c9c63a1ee1f96671"),
}


def test_benchmark_selftest_passes():
    out = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selftest: ok"


def test_rule_layers_count_calls_on_the_jump_scenario():
    """A refactor of the rule hot path, the decision's snapshot or the
    payload digest must leave the benchmark's per-layer metrics for them
    measuring something."""
    layers = import_bench("layers")
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


@pytest.mark.parametrize("name", sorted(WORKLOAD_DIGESTS))
def test_workload_digests_are_pinned(name):
    """A change to the program's hot path must leave every benchmark
    workload's trace and final state byte-identical."""
    workloads = import_bench("workloads")
    from nsscale.scenario import scenario_from_dict
    from nsscale.simulator import Simulator
    from nsscale.trace import canonical_json, trace_lines

    data = workloads.GENERATORS[name](0, workloads.DEFAULT_SIZE[name])
    result = Simulator(scenario_from_dict(data)).run()
    digests = tuple(hashlib.sha256(text.encode()).hexdigest() for text in
                    (trace_lines(result.trace),
                     canonical_json(result.final_state)))
    assert digests == WORKLOAD_DIGESTS[name]


def retained_after_run(data: dict, collect: bool = True) -> tuple:
    """(bytes a finished run of scenario `data` keeps allocated, with its
    result alive; the run's trace events). With `collect` false no
    `gc.collect()` runs after the run, so the blocks of dead objects parked
    on the interpreter's free lists count as kept."""
    from nsscale.scenario import scenario_from_dict
    from nsscale.simulator import Simulator

    gc.collect()
    tracemalloc.start()
    try:
        result = Simulator(scenario_from_dict(data)).run()
        if collect:
            gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained, len(result.trace)


RETAINED_PER_EVENT = 55  # bytes


def test_a_run_retains_little_per_trace_event():
    """The memory a finished run keeps grows by less than
    `RETAINED_PER_EVENT` (55) bytes per trace event. The growth is
    measured with `tracemalloc` between scale-churn sizes 10 and 40 (2,010
    and 8,040 events), so set-up's fixed cost drops out. Measured on
    CPython 3.11.7: 360 B/event while the trace kept one record per event
    and each operation its own (step, tick) list, 104 B/event with the
    trace held as columns, 90 with the workload read in place, 61 with
    the ticks held as jumps, each VNFC transition as a tuple, one verdict
    per missing set and one str per audit step, and 49 with each digest
    held as 8 raw bytes and each route id in an `array("B")`.
    Monitor-steady, between sizes 250 and 1,000, measured 249 and 33
    B/event."""
    workloads = import_bench("workloads")
    (small, small_events), (large, large_events) = (
        retained_after_run(workloads.GENERATORS["scale-churn"](0, size))
        for size in (10, 40))
    per_event = (large - small) / (large_events - small_events)
    assert per_event < RETAINED_PER_EVENT, "%.0f B/event" % per_event


RETAINED_UNCOLLECTED_PER_EVENT = 18  # bytes


def test_a_finished_run_parks_no_per_record_objects():
    """Without a `gc.collect()`, the memory a finished run keeps grows by
    less than `RETAINED_UNCOLLECTED_PER_EVENT` (18) bytes per trace event
    between monitor-steady sizes 250 and 1,000 (1,062 and 4,248 events;
    1,009 and 4,036 workload records). Measured with `tracemalloc` on
    CPython 3.11.7: 61 B/event while `workload_records` built a 6-tuple per
    record, whose dead blocks the tuple free list kept (up to 2,000 of
    them), 34 B/event with the records read in place by index (32 after a
    `gc.collect()`, which empties the free lists), 25 B/event with the
    trace's ticks held as jumps, and 14 B/event (12 collected) with each
    digest held as 8 raw bytes and each route id in an `array("B")`."""
    workloads = import_bench("workloads")
    (small, small_events), (large, large_events) = (
        retained_after_run(workloads.GENERATORS["monitor-steady"](0, size),
                           collect=False)
        for size in (250, 1000))
    per_event = (large - small) / (large_events - small_events)
    assert per_event < RETAINED_UNCOLLECTED_PER_EVENT, \
        "%.0f B/event" % per_event


def run_working_set(data: dict) -> tuple:
    """(the peak bytes a run of scenario `data` allocates above what its
    set-up left, the run's workload records)."""
    from nsscale.scenario import scenario_from_dict
    from nsscale.simulator import Simulator

    sim = Simulator(scenario_from_dict(data))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim.run()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak, sum(map(len, data["workload"].values()))


WORKING_SET_PER_RECORD = 50  # bytes


def test_a_run_works_in_little_per_workload_record():
    """The peak a run allocates grows by less than `WORKING_SET_PER_RECORD`
    (50) bytes per workload record between monitor-steady sizes 250 and
    1,000 (1,009 and 4,036 records), the trace and the metric store
    included. Measured with `tracemalloc` on CPython 3.11.7: 81 B/record
    while the delivery order was a list of indexes, an int object each,
    over one list of every record; 40 with the records in two lists
    sorted by tick, merged as they are delivered."""
    workloads = import_bench("workloads")
    (small, small_records), (large, large_records) = (
        run_working_set(workloads.GENERATORS["monitor-steady"](0, size))
        for size in (250, 1000))
    per_record = (large - small) / (large_records - small_records)
    assert per_record < WORKING_SET_PER_RECORD, "%.0f B/record" % per_record


def test_decisions_reuse_zone_reports_and_replace_no_record(monkeypatch):
    """On wide-fabric, `capacity_report` builds a zone's report again only
    after a write to the zone: across all decision snapshots there are at
    most as many distinct `ZoneReport`s as zones plus zone writes, where
    a report per zone per decision would be many more. And `Simulator.run`
    builds its records with constructors, never `dataclasses.replace`."""
    import dataclasses
    import nsscale.simulator
    from nsscale.inventory import ResourceZone, capacity_report
    from nsscale.scenario import scenario_from_dict
    from nsscale.simulator import Simulator

    workloads = import_bench("workloads")
    sim = Simulator(scenario_from_dict(workloads.GENERATORS["wide-fabric"](
        0, workloads.TINY_SIZE["wide-fabric"])))
    snapshots = []

    def report(pops):
        snapshots.append(capacity_report(pops))
        return snapshots[-1]

    writes = []

    def counted(write):
        def call(zone, *args, **kwargs):
            writes.append(write.__name__)
            return write(zone, *args, **kwargs)
        return call

    replaced = []
    replace = dataclasses.replace

    def counted_replace(*args, **kwargs):
        replaced.append(args)
        return replace(*args, **kwargs)

    monkeypatch.setattr(nsscale.simulator, "capacity_report", report)
    for name in ("reserve", "cancel", "allocate", "release", "shrink"):
        monkeypatch.setattr(ResourceZone, name,
                            counted(getattr(ResourceZone, name)))
    monkeypatch.setattr(dataclasses, "replace", counted_replace)
    for module in list(sys.modules.values()):
        if (module.__name__.startswith("nsscale")
                and getattr(module, "replace", None) is replace):
            monkeypatch.setattr(module, "replace", counted_replace)
    result = sim.run()
    zones = sum(len(pop.zones) for pop in sim.pops)
    distinct = {id(zone) for snapshot in snapshots for zone in snapshot}
    assert len(snapshots) == len(result.decisions) > 0
    assert len(distinct) <= zones + len(writes) < len(snapshots) * zones
    assert replaced == []


@pytest.mark.parametrize("name, evaluations", [
    ("monitor-steady", 312), ("scale-churn", 68), ("wide-fabric", 112)])
def test_rule_verdicts_are_reused_exactly_and_built_once(monkeypatch, name,
                                                         evaluations):
    """At `TINY_SIZE` and seed 0, each workload evaluates a rule exactly
    as often as a key of the tick, the cooldown entry and the sample count
    of every stream read does (a looser key evaluates less, a stale one
    more). Every verdict that reports no missing stream is, by identity,
    one of the three its rule state built when it was bound, and every
    one that does is the one its rule state built for that missing set."""
    import nsscale.monitoring as monitoring
    from nsscale.scenario import scenario_from_dict
    from nsscale.simulator import Simulator

    workloads = import_bench("workloads")
    evaluate = monitoring._evaluate_rule
    seen = []

    def recorded(rule, state, now, cooldown_state):
        verdict = evaluate(rule, state, now, cooldown_state)
        seen.append((rule, state, verdict))
        return verdict

    monkeypatch.setattr(monitoring, "_evaluate_rule", recorded)
    Simulator(scenario_from_dict(workloads.GENERATORS[name](
        0, workloads.TINY_SIZE[name]))).run()
    assert len(seen) == evaluations
    assert any(verdict.missing_streams for _, _, verdict in seen)
    for rule, state, verdict in seen:
        assert verdict.rule_id == rule.id
        if verdict.missing_streams:
            [built] = [built for built in state.verdicts_missing.values()
                       if built.missing_streams == verdict.missing_streams]
            assert built is verdict
        else:
            assert any(verdict is built for built in (
                state.verdict_satisfied, state.verdict_cooling,
                state.verdict_violated))
