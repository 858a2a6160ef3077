import ast
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import nsscale.simulator
import nsscale.trace
import sample_catalog as sc
import scenario_gen
from nsscale.scenario import ScenarioValidationError, scenario_from_dict
from nsscale.simulator import Simulator
from nsscale.trace import (
    EventRecord, canonical_json, payload_digest, payload_text, trace_lines)
from test_bench import import_bench
from test_rollback import fail_kth_zone_write, zone_writes
from test_sample_digests import sample_digests, sample_scenarios


def reference_json(obj) -> str:
    """Canonical JSON as it was written before the fast path: every value
    copied through `_normalize`, then a fresh encoder."""
    return json.dumps(nsscale.trace._normalize(obj), sort_keys=True,
                      separators=(",", ":"))


class Tag(str):
    """A str subclass, which the fast path must hand to `_normalize`."""


floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from((0.0, -0.0, 1.0, -3.0, 1e16, 1e300, 2.5, float("nan"),
                     float("inf"), float("-inf"))))
leaves = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                   floats, st.text(max_size=4),
                   st.builds(Tag, st.text(max_size=3)))
keys = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.booleans(),
                 st.none(), st.builds(Tag, st.text(max_size=2)))
# Sorting a set needs comparable members, as it always did.
sets = st.one_of(st.sets(st.integers(-5, 5), max_size=4),
                 st.frozensets(st.text(max_size=3), max_size=4),
                 st.sets(st.floats(-1e6, 1e6), max_size=4))
json_like = st.recursive(
    st.one_of(leaves, sets),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
        st.dictionaries(keys, children, max_size=4)),
    max_leaves=16)
# What `_is_canonical` accepts: the payloads `payload_text` is given.
canonical_like = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
              floats.filter(lambda f: not f.is_integer()),
              st.text(max_size=4)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=4)),
    max_leaves=16)


def sha16(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(json_like)
def test_canonical_json_equals_the_normalized_encoding(obj):
    expected = reference_json(obj)
    assert canonical_json(obj) == expected
    if nsscale.trace._is_canonical(obj):
        assert payload_text(obj) == expected


@settings(max_examples=150, derandomize=True, deadline=None)
@given(canonical_like)
def test_digest_of_a_canonical_payload_is_that_of_its_canonical_json(obj):
    assert nsscale.trace._is_canonical(obj)
    assert payload_digest(payload_text(obj)) == sha16(reference_json(obj))


def test_integral_floats_and_foreign_keys_take_the_normalizing_path():
    assert canonical_json({"a": 1.0, "b": -0.0, "c": 1e16}) == \
        '{"a":1,"b":0,"c":10000000000000000}'
    assert canonical_json({2: "x", "10": "y", True: None}) == \
        '{"10":"y","2":"x","True":null}'
    assert canonical_json([(1, 2), {3, 1}]) == "[[1,2],[1,3]]"
    assert canonical_json({"b": [0.5, float("nan")], "a": None}) == \
        '{"a":null,"b":[0.5,NaN]}'


def test_every_sent_payload_is_canonical(monkeypatch):
    """Every payload reaches `payload_digest` as text: the canonical JSON
    of what it parses to, since a workflow payload is encoded as it
    stands and a notification is built as text. Its digest is that of the
    text. Covers the sample scenarios with their fault sweeps, random
    scenarios, and free-form indicator values, integral or nested."""
    digest = nsscale.simulator.payload_digest
    sent = []
    bad = []

    def checking(text):
        sent.append(1)
        if canonical_json(json.loads(text)) != text \
                or digest(text) != sha16(text):
            bad.append(text)
        return digest(text)

    monkeypatch.setattr(nsscale.simulator, "payload_digest", checking)
    sample_digests()
    for seed in range(200):
        Simulator(scenario_from_dict(
            scenario_gen.random_scenario(random.Random(seed)))).run()
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["workload"]["indicators"] = [
        [11, "vnfd-b", "congestion", 2.0],
        [12, "vnfd-b", "congestion", {"level": [1.0, 0.5], "note": "x"}]]
    Simulator(scenario_from_dict(scenario)).run()
    assert len(sent) > 100_000
    assert bad == []


def test_only_the_trace_module_writes_json():
    """The canonical encoding lives in `trace.py`: the modules that build
    payloads ask it for their text and import no JSON encoder."""
    package = Path(nsscale.trace.__file__).parent
    for module in ("monitoring.py", "simulator.py"):
        tree = ast.parse((package / module).read_text())
        imported = [alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names]
        imported += [node.module for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module]
        assert not [name for name in imported
                    if name == "json" or name.startswith("json.")], module


def reference_line(record) -> str:
    """A trace line as written when the trace was a list of records."""
    return "%d %d %s %s %s %s %s\n" % (
        record.seq, record.tick, "-" if record.step is None else record.step,
        record.src, record.dst, record.message, record.digest)


# Slices a trace must read as a list does, on traces long and short.
SLICES = (slice(None), slice(3, 17), slice(-10, None), slice(None, None, -1),
          slice(1, None, 7), slice(-5, -50, -3), slice(100, 5), slice(0, 0))


def assert_reads_as(trace, reference: list):
    n = len(reference)
    assert len(trace) == n
    assert list(trace) == reference
    assert [trace[i] for i in range(n)] == reference
    assert [trace[-k] for k in range(1, n + 1)] == reference[::-1]
    for cut in SLICES:
        assert trace[cut] == reference[cut], cut
    for index in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[index]
    assert trace_lines(trace) == "".join(map(reference_line, reference))


def check_traces(monkeypatch) -> list:
    """From now on, keep beside each simulator's trace a plain list of the
    `EventRecord(len + 1, clock, ...)` its events make, and the bounds of
    each operation's events in it. As a run ends, its trace must read as
    that list, and each operation's step log as the `(step, tick)` of its
    events that carry a step. Returns the event count of each run
    checked."""
    checked = []
    emit, execute, run = (Simulator._emit, Simulator._execute_decision,
                          Simulator.run)

    def emitting(sim, src, dst, arrow, text):
        emit(sim, src, dst, arrow, text)
        reference = sim.__dict__.setdefault("reference", [])
        reference.append(EventRecord(len(reference) + 1, sim._clock,
                                     arrow.step, src, dst, arrow.message,
                                     sha16(text)))

    def executing(sim, decision):
        begun = len(sim.__dict__.setdefault("reference", []))
        execute(sim, decision)
        sim.__dict__.setdefault("spans", []).append(
            (begun, len(sim.reference)))

    def running(sim, *args):
        result = run(sim, *args)
        reference = sim.__dict__.get("reference", [])
        assert_reads_as(result.trace, reference)
        assert [op.step_log for op in result.operations] == [
            [(event.step, event.tick) for event in reference[begun:end]
             if event.step is not None]
            for begun, end in sim.__dict__.get("spans", [])]
        checked.append(len(reference))
        return result

    monkeypatch.setattr(Simulator, "_emit", emitting)
    monkeypatch.setattr(Simulator, "_execute_decision", executing)
    monkeypatch.setattr(Simulator, "run", running)
    return checked


def test_the_trace_reads_as_the_list_of_its_records(monkeypatch):
    """The trace's columns read back, by index, slice, iteration and as
    text, as the list of records the simulator once kept, and each step
    log as the comprehension over it. Covers the 24 sample scenarios, one
    sweep of zone-write faults, random scenarios and a trace longer than
    one batch of `trace_lines`."""
    checked = check_traces(monkeypatch)
    for scenario in sample_scenarios().values():
        Simulator(scenario_from_dict(scenario)).run()
    scenario = sample_scenarios()["level-2/jump/reserve"]
    for k in range(1, zone_writes(scenario) + 1):
        with pytest.MonkeyPatch.context() as mp:
            sim = Simulator(scenario_from_dict(scenario))
            fail_kth_zone_write(mp, k)
            assert sim.run().operations[0].failed_step is not None
    for seed in range(60):
        try:
            sim = Simulator(scenario_from_dict(
                scenario_gen.random_scenario(random.Random(seed))))
        except ScenarioValidationError:  # the initial level does not fit
            continue
        sim.run()
    workloads = import_bench("workloads")
    Simulator(scenario_from_dict(workloads.GENERATORS["scale-churn"](0, 3))
              ).run()
    assert len(checked) > 24 + 60 // 2
    assert checked[-1] > nsscale.trace.LINES_PER_JOIN
    assert min(checked) > 0
