import ast
import gc
import hashlib
import json
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import nsscale.simulator
import nsscale.trace
from corpus import import_bench
from nsscale.scenario import scenario_from_dict
from nsscale.simulator import Arrow, Simulator
from nsscale.capacity import CapacityVector
from nsscale.trace import (
    EventRecord, Trace, canonical_json, capacity_text, object_form,
    payload_digest, string_text, strings_text, trace_chunks, trace_lines)


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
# What `_is_canonical` accepts: what `canonical_json` encodes as it stands.
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
    assert canonical_json(obj) == reference_json(obj)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(canonical_like)
@example({"\u00e9": [[], {}], "": [[1.5, []], [{"\u03b2": {}}]],
          "a": {"b": [None, True, "\u00fc", -0.25]}})
@example([[[]], [{}], [], {"k": [[2.5]]}])
def test_a_canonical_value_is_written_as_the_encoder_writes_it(obj):
    """Whether it is walked member by member, as a value that holds a dict
    or a list is, or encoded in one call, a canonical value's text is the
    encoder's: empty containers, lists of lists, non-ASCII keys and
    non-integral floats included."""
    assert canonical_json(obj) == json.dumps(obj, sort_keys=True,
                                             separators=(",", ":"))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(canonical_like)
def test_digest_of_a_canonical_payload_is_that_of_its_canonical_json(obj):
    assert nsscale.trace._is_canonical(obj)
    assert payload_digest(canonical_json(obj)).hex() == \
        sha16(reference_json(obj))


# Any text: non-ASCII, quotes, backslashes and control characters.
texts = st.one_of(st.text(), st.text(alphabet='"\\\x00\x1f\x7f\u00e9\u2028'
                                     '\U0001f600/%'))
components = st.one_of(
    st.integers(-10**20, 10**20),
    st.integers(-2**53, 2**53).map(float),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(texts, st.lists(texts, max_size=4),
       st.tuples(components, components, components, components))
def test_value_texts_are_the_canonical_json_of_their_values(text, items,
                                                           components):
    assert string_text(text) == canonical_json(text)
    assert strings_text(items) == canonical_json(items)
    vector = CapacityVector(*components)
    assert capacity_text(vector) == canonical_json(vector.as_dict())


def test_an_object_form_is_the_canonical_json_of_its_object():
    form = object_form("a", "b%", "\u00e9")
    assert form % ("1", '"x"', "[]") == canonical_json(
        {"\u00e9": [], "b%": "x", "a": 1})
    assert object_form() == "{}"


@pytest.mark.parametrize("keys", [
    ("b", "a"), ("a", "a"), ("op_id", "kind"), ("a", 1), (None,),
    (Tag("a"),)])
def test_an_object_form_refuses_keys_out_of_order_repeated_or_not_str(keys):
    with pytest.raises(ValueError):
        object_form(*keys)


def form_keys(form: str) -> tuple:
    """The keys of an `object_form`, in its order."""
    return tuple(json.loads(form % (("null",) * form.count(":%s"))))


def object_keys(value, found: set):
    """Add the key tuple of every object in the JSON `value` to `found`."""
    if type(value) is dict:
        found.add(tuple(value))
        for item in value.values():
            object_keys(item, found)
    elif type(value) is list:
        for item in value:
            object_keys(item, found)


def test_every_form_of_the_step_table_is_reached(corpus):
    """Every payload form of the step table, nested ones too, is the shape
    of some recorded payload, over the 24 samples, a sweep of zone-write
    faults, the walk of a VL alone and random scenarios; among them the
    ReserveResponse error, the DrpaDecision error and OperationFailed."""
    forms = {name: form_keys(value)
             for name, value in vars(nsscale.simulator).items()
             if name.endswith("_FORM")}
    records = [*corpus["sample"].values(), *corpus["sweep"].values(),
               *(record for seed, record in corpus["random"].items()
                 if seed < 60)]
    reached = set()
    for text in {text for record in records
                 for *_, text, _ in record.events}:
        object_keys(json.loads(text), reached)
    assert {"RESERVE_ERROR_FORM", "DECISION_ERROR_FORM", "FAILED_FORM",
            "RESERVE_ITEM_FORM", "PLACEMENT_ZONE_FORM"} < set(forms)
    assert {name for name, keys in forms.items() if keys not in reached} \
        == set()


def test_integral_floats_and_foreign_keys_take_the_normalizing_path():
    assert canonical_json({"a": 1.0, "b": -0.0, "c": 1e16}) == \
        '{"a":1,"b":0,"c":10000000000000000}'
    assert canonical_json({2: "x", "10": "y", True: None}) == \
        '{"10":"y","2":"x","True":null}'
    assert canonical_json([(1, 2), {3, 1}]) == "[[1,2],[1,3]]"
    assert canonical_json({"b": [0.5, float("nan")], "a": None}) == \
        '{"a":null,"b":[0.5,NaN]}'


def test_every_sent_payload_is_canonical(corpus):
    """Every payload reaches `_emit` as text: the canonical JSON of what it
    parses to, since a workflow payload is formatted from its shape's form
    and a notification is built as text. Its digest is that of the text.
    Covers the sample scenarios with their fault sweeps, random scenarios,
    and free-form indicator values, integral or nested. A text sent twice
    is checked once."""
    records = [record for family in ("sample", "sample-fault", "random",
                                     "indicator")
               for record in corpus[family].values()]
    sent = [text for record in records for *_, text, _ in record.events]
    bad = [text for text in set(sent)
           if canonical_json(json.loads(text)) != text
           or payload_digest(text).hex() != sha16(text)]
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


def test_the_trace_reads_as_the_list_of_its_records(corpus):
    """The trace's columns read back, by index, slice, iteration and as
    text, as the list of records the simulator once kept, and each step
    log as the comprehension over it. Covers the 24 sample scenarios, one
    sweep of zone-write faults, random scenarios and a trace longer than
    one batch of `trace_lines`."""
    sweep = {k: record for (name, k), record in corpus["sweep"].items()
             if name == "level-2/jump/reserve"}
    assert all(record.result.operations[0].failed_step is not None
               for k, record in sweep.items() if k)
    checked = []
    for record in (*corpus["sample"].values(), *sweep.values(),
                   *(record for seed, record in corpus["random"].items()
                     if seed < 60),
                   corpus["churn"]["scale-churn"]):
        reference = [EventRecord(i, clock, step, src, dst, message,
                                 sha16(text))
                     for i, (src, dst, step, message, text, clock)
                     in enumerate(record.events, 1)]
        result = record.result
        assert_reads_as(result.trace, reference)
        assert [op.step_log for op in result.operations] == [
            [(event.step, event.tick) for event in reference[begun:end]
             if event.step is not None]
            for begun, end in record.spans]
        checked.append(len(reference))
    assert len(checked) > 24 + 60 // 2
    assert checked[-1] > nsscale.trace.LINES_PER_JOIN
    assert min(checked) > 0


# Each event's tick as a step from the previous event's: mostly one, as in
# a run, but also none, back, a little or far ahead and far back.
tick_steps = st.one_of(st.just(1), st.sampled_from((0, -1, 2)),
                       st.integers(-10**12, 10**12))
# Routes with and without a step, the same arrow from another sender.
ROUTES = ((Arrow(5, "Request"), "NFVO-0", "VNFM-0"),
          (Arrow(None, "OperationFailed"), "NFVO-0", "NFVO-0"),
          (Arrow(5, "Request"), "VNFM-0", "NFVO-0"))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.integers(-10**12, 10**12),
       st.lists(st.tuples(tick_steps, st.sampled_from(ROUTES)), max_size=40),
       st.sampled_from((1, 3, 256)))
def test_any_ticks_read_back_as_from_a_list(first, events, per_join):
    """Whatever ticks the events carry, equal, decreasing or sparse, the
    trace reads back by index, slice, iteration, step log and text, in
    chunks of any size, as the plain list of its records."""
    trace, reference = Trace(), []
    tick = first
    for i, (step, (arrow, src, dst)) in enumerate(events):
        if i:
            tick += step
        digest = (7919 * i).to_bytes(8, "big")
        trace.append(tick, arrow, src, dst, digest)
        reference.append(EventRecord(i + 1, tick, arrow.step, src, dst,
                                     arrow.message, digest.hex()))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nsscale.trace, "LINES_PER_JOIN", per_join)
        assert_reads_as(trace, reference)
    for begun in range(len(reference) + 1):
        for end in (*range(begun, len(reference) + 1), None):
            assert trace.step_log(begun, end) == [
                (event.step, event.tick) for event in reference[begun:end]
                if event.step is not None], (begun, end)


def test_route_ids_widen_only_as_a_route_outgrows_them():
    """Route ids sit in an `array("B")` up to route 255, in "H" up to route
    65,535 and in "I" beyond: the narrowest typecode that holds every id,
    widened as the route that needs it is made. Every event appended
    before a widening, with its 8-byte digest and its tick, jumps among
    them, reads back unchanged after it by index, slice, iteration, text
    and step log, as does every event that reuses an old route after it."""
    trace, reference = Trace(), []
    tick = 0

    def add(route: int):
        nonlocal tick
        tick += 1 if route % 1000 else 5
        arrow = Arrow(None if route % 3 == 0 else route % 29,
                      "M%d" % (route % 7))
        src, dst = "NFVO-%d" % route, "VIM-%d" % (route % 5)
        digest = (0x9E3779B97F4A7C15 * len(reference) % 2**64).to_bytes(
            8, "big")
        trace.append(tick, arrow, src, dst, digest)
        reference.append(EventRecord(len(reference) + 1, tick, arrow.step,
                                     src, dst, arrow.message, digest.hex()))

    widths = {}
    # The test holds some 66,000 reference records to its end: the cyclic
    # collector, which would walk them over and over, waits till then.
    gc.disable()
    try:
        for route in range(65_538):
            add(route)
            if route % 97 == 0:
                add(route // 2)  # an old route, whose id may be narrower
            widths[trace._routes.typecode] = max(
                widths.get(trace._routes.typecode, 0), route)
            if route in (255, 256, 1000):
                assert_reads_as(trace, reference)
        assert widths == {"B": 255, "H": 65_535, "I": 65_537}
        assert_reads_as(trace, reference)
        n = len(reference)
        for begun, end in ((0, None), (250, 300), (n - 400, n - 100),
                           (n, None)):
            assert trace.step_log(begun, end) == [
                (event.step, event.tick) for event in reference[begun:end]
                if event.step is not None], (begun, end)
    finally:
        gc.enable()


# The most the trace's columns may hold per event, in bytes, on a trace of
# one tick jump.
COLUMN_BYTES = 10.5


def test_a_trace_holds_nine_bytes_per_event():
    """A 10,000-event trace of one tick jump and a few routes holds less
    than `COLUMN_BYTES` (10.5) bytes per event in its four columns, their
    over-allocation included: 8 per raw digest and 1 per route id. Measured
    on CPython 3.11.7: 21.7 B/event with route ids in an `array("I")` and
    16 hex digits per digest, 9.8 with 8 raw bytes and an `array("B")`."""
    trace = Trace()
    for i in range(10_000):
        arrow, src, dst = ROUTES[i % len(ROUTES)]
        trace.append(1000 + i, arrow, src, dst, payload_digest(str(i)))
    assert list(trace._jump_at) == [0]
    columns = (trace._routes, trace._digests, trace._jump_at,
               trace._jump_tick)
    per_event = sum(map(sys.getsizeof, columns)) / len(trace)
    assert per_event < COLUMN_BYTES, "%.1f B/event" % per_event


@pytest.mark.parametrize("name", ["monitor-steady", "scale-churn",
                                  "wide-fabric"])
def test_a_workload_records_one_tick_jump(name):
    """Every workload's ticks go up by one per event after the first, so
    its trace records the first event's tick alone."""
    workloads = import_bench("workloads")
    trace = Simulator(scenario_from_dict(workloads.GENERATORS[name](
        0, workloads.TINY_SIZE[name]))).run().trace
    assert len(trace) > 0
    assert list(trace._jump_at) == [0]
    assert list(trace._jump_tick) == [trace[0].tick]


# The most `trace_lines` may allocate at its peak, as a multiple of the
# text's length.
TEXT_COST = 1.3


def test_the_trace_text_costs_little_beyond_itself():
    """Formatting scale-churn's trace at its default size (8,040 events,
    a 0.45 MiB text) peaks at most `TEXT_COST` (1.3) times the text's
    length above what was allocated before. The text grows in place one
    chunk at a time, and each chunk writes only its own digests as hex.
    Measured under `tracemalloc` on CPython 3.11.7: 2.28 while the text
    was joined from a list of every chunk with the whole digest column
    decoded, 1.11 built in place 256 lines at a time, 1.03 at 64 lines a
    time. The chunks `trace_chunks` yields hold `LINES_PER_JOIN` lines
    each, the last one the rest, and join to the same text."""
    workloads = import_bench("workloads")
    trace = Simulator(scenario_from_dict(workloads.GENERATORS["scale-churn"](
        0, workloads.DEFAULT_SIZE["scale-churn"]))).run().trace
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = trace_lines(trace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 8040
    assert peak <= TEXT_COST * len(text), "%.2f x" % (peak / len(text))
    chunks = list(trace_chunks(trace))
    assert "".join(chunks) == text
    per_join = nsscale.trace.LINES_PER_JOIN
    assert [chunk.count("\n") for chunk in chunks] == \
        [per_join] * (len(trace) // per_join) + [len(trace) % per_join]


# The most `canonical_json` may allocate at its peak, as a multiple of the
# text's length.
STATE_COST = 2


@pytest.mark.parametrize("name", ["monitor-steady", "scale-churn",
                                  "wide-fabric"])
def test_a_final_state_is_written_in_little_beyond_its_text(name):
    """Writing a workload's final state at its default size peaks at most
    `STATE_COST` (2) times its text's length above what was allocated
    before. Measured under `tracemalloc` on CPython 3.11.7, for
    monitor-steady, scale-churn and wide-fabric (texts of 1,499, 6,056 and
    8,373 bytes): 10.7, 13.3 and 11.4 times while the encoder wrote it in
    one call, keeping each token as its own str until it joined them;
    1.95, 1.23 and 1.19 walked member by member."""
    workloads = import_bench("workloads")
    state = Simulator(scenario_from_dict(workloads.GENERATORS[name](
        0, workloads.DEFAULT_SIZE[name]))).run().final_state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = canonical_json(state)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert text == json.dumps(state, sort_keys=True, separators=(",", ":"))
    assert peak <= STATE_COST * len(text), "%.2f x" % (peak / len(text))
