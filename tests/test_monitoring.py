import json

import pytest
from hypothesis import example, given, settings, strategies as st

from nsscale.capacity import _num
from nsscale.descriptors import AutoScalingRule, MonitoredInfoItem, load_catalog
from nsscale.monitoring import (
    PERF_INFO_AVAILABLE, THRESHOLD_CROSSED, VNF_INDICATOR_CHANGE,
    MetricSample, MetricStore, Notification, ThresholdSpec,
    TimeRegressionError, UndeclaredIndicatorError, evaluate_rules,
    indicator_change,
)
from nsscale.rules import evaluate_expr, parse_rule
from nsscale.trace import canonical_json
import sample_catalog as sc
from conftest import rule_state


def make_store(period=5, thresholds=()):
    catalog = load_catalog(sc.sample_documents())
    items = catalog.nsds["nsd-1"].monitored_info
    # override the cpu item's collection period for periodic-report tests
    from dataclasses import replace
    items = tuple(replace(i, collection_period=period)
                  if i.name == "cpu_load" else i for i in items)
    return MetricStore(items, thresholds)


def test_periodic_report_on_period_boundary():
    store = make_store(period=5)
    notes = store.ingest(MetricSample(0, "vnfd-b", "cpu_load", 0.1))
    assert [n.variant for n in notes] == [PERF_INFO_AVAILABLE]
    # within the same period: silent
    notes = store.ingest(MetricSample(3, "vnfd-b", "cpu_load", 0.2))
    assert notes == []
    # next period boundary crossed
    notes = store.ingest(MetricSample(5, "vnfd-b", "cpu_load", 0.3))
    assert [n.variant for n in notes] == [PERF_INFO_AVAILABLE]


def test_time_regression_rejected():
    """Samples arrive in tick order across streams, and rules are read at
    or after the newest tick; a call that goes back changes nothing."""
    catalog = load_catalog(sc.sample_documents())
    store = make_store()
    cooldowns, cache = {}, {}
    store.ingest(MetricSample(5, "vnfd-b", "cpu_load", 0.9))
    evaluate_rules(rules_of(catalog), store, 5, sc.DIMENSION_MAP,
                   cooldowns, cache)
    before = rule_state(store, cooldowns, cache)
    for sample in (MetricSample(4, "vnfd-b", "cpu_load", 0.2),
                   MetricSample(4, "vnfd-b", "mem_load", 0.2)):
        with pytest.raises(TimeRegressionError):
            store.ingest(sample)
    with pytest.raises(TimeRegressionError):
        evaluate_rules(rules_of(catalog), store, 4, sc.DIMENSION_MAP,
                       cooldowns, cache)
    assert cooldowns == {"r-out": 5}
    assert rule_state(store, cooldowns, cache) == before


def test_threshold_crossing_is_edge_triggered():
    spec = ThresholdSpec("t1", "vnfd-b", "cpu_load", 0.7, "above")
    store = make_store(period=0, thresholds=(spec,))
    # first sample above the bound: no previous value, so no edge
    assert store.ingest(MetricSample(0, "vnfd-b", "cpu_load", 0.9)) == []
    # stays above: no new edge
    assert store.ingest(MetricSample(1, "vnfd-b", "cpu_load", 0.95)) == []
    # drops below, then crosses again: exactly one notification
    assert store.ingest(MetricSample(2, "vnfd-b", "cpu_load", 0.5)) == []
    notes = store.ingest(MetricSample(3, "vnfd-b", "cpu_load", 0.8))
    assert [n.variant for n in notes] == [THRESHOLD_CROSSED]
    assert json.loads(notes[0].payload)["threshold_id"] == "t1"


def test_below_direction_threshold():
    spec = ThresholdSpec("t2", "vnfd-b", "cpu_load", 0.2, "below")
    store = make_store(period=0, thresholds=(spec,))
    store.ingest(MetricSample(0, "vnfd-b", "cpu_load", 0.5))
    notes = store.ingest(MetricSample(1, "vnfd-b", "cpu_load", 0.1))
    assert [n.variant for n in notes] == [THRESHOLD_CROSSED]


def test_thresholds_sharing_an_id_keep_their_own_last_values():
    """Each stream keeps its thresholds' last values: a mem sample below
    the bound is no edge of the cpu threshold. (`validate_scenario`
    rejects a scenario whose threshold ids repeat.)"""
    store = make_store(period=0, thresholds=(
        ThresholdSpec("t", "vnfd-b", "cpu_load", 0.7, "above"),
        ThresholdSpec("t", "vnfd-b", "mem_load", 0.7, "above")))

    def crossings(tick, name, value):
        return [json.loads(n.payload)["metric"] for n in store.ingest(
            MetricSample(tick, "vnfd-b", name, value))
            if n.variant == THRESHOLD_CROSSED]
    assert crossings(0, "cpu_load", 0.9) == []
    assert crossings(1, "mem_load", 0.1) == []
    assert crossings(2, "cpu_load", 0.95) == []
    assert crossings(3, "mem_load", 0.8) == ["mem_load"]


# Names the encoder escapes, and numbers whose canonical JSON is not their
# repr: integral floats, NaN and the infinities (a workload cannot carry
# the last three, but `indicator_change` formats any number it is given).
names = st.one_of(st.text(max_size=6), st.sampled_from(
    ('"', "\\", "\x00\n\x1f\x7f", "é€😀", 'a"b\\c', "\ud800")))
numbers = st.one_of(st.integers(), st.floats(), st.sampled_from(
    (0.0, -0.0, 2.0, -3.0, 1e16, 5e-324, 1e300, -1e300, 0.1,
     float("nan"), float("inf"), float("-inf"))))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(names, names, numbers)
@example('"q\\', "é\n", 2.0)
@example("s", "m", -0.0)
@example("s", "m", 5e-324)
@example("s", "m", 1e300)
@example("s", "m", float("nan"))
@example("s", "m", float("inf"))
@example("s", "m", float("-inf"))
@example("s", "m", -(10 ** 30))
def test_notification_text_is_the_canonical_json_of_its_payload(
        subject, name, value):
    """PerfInfoAvailable's text, the stream's prefix and the formatted
    value, is the canonical JSON of the payload as a dict; so is
    ThresholdCrossed's."""
    store = MetricStore(
        (MonitoredInfoItem("m", "vnf-metric", subject, name, 1),),
        (ThresholdSpec("t", subject, name, -1, "below"),))
    store.ingest(MetricSample(0, subject, name, 0))
    notes = store.ingest(MetricSample(1, subject, name, value))
    payload = {"subject": subject, "metric": name, "value": _num(value)}
    assert notes[0] == Notification(
        PERF_INFO_AVAILABLE, canonical_json(payload), 1)
    assert notes[1:] == ([Notification(
        THRESHOLD_CROSSED, canonical_json(dict(payload, threshold_id="t")),
        1)] if value < -1 else [])


def test_window_aggregates():
    store = make_store()
    for t, v in [(1, 1.0), (2, 3.0), (3, 5.0), (4, 7.0)]:
        store.ingest(MetricSample(t, "vnfd-b", "cpu_load", v))
    assert store.window_values("vnfd-b", "cpu_load", 2, 4) == [5.0, 7.0]
    assert aggregate_is(store, "avg", "vnfd-b", 2, 4, 6.0)
    assert aggregate_is(store, "max", "vnfd-b", 4, 4, 7.0)
    assert aggregate_is(store, "min", "vnfd-b", 4, 4, 1.0)
    # an empty window is a missing stream, never aggregated
    [verdict] = evaluate_rules(
        (_rule("r", "WHEN avg(cpu_load, 2) > 0 THEN scale_out"),), store, 100,
        {}, {}, {})
    assert verdict.missing_streams == frozenset({"cpu_load"})


def aggregate_is(store, func, subject, window, now, value) -> bool:
    """Whether the compiled comparison `func(subject.cpu_load, window) =
    value` holds at `now` over the store's window."""
    ast = parse_rule("WHEN %s(%s.cpu_load, %d) = %r THEN scale_out"
                     % (func, subject, window, value))
    return evaluate_expr(
        ast.plan, lambda i, w, t: store.window_values(subject, "cpu_load",
                                                       w, t), now)


def test_resolve_prefers_exact_subject():
    store = make_store()
    store.ingest(MetricSample(1, "vnfd-b", "cpu_load", 1.0))
    store.ingest(MetricSample(1, "vnfd-a", "cpu_load", 2.0))
    assert store.resolve("vnfd-b.cpu_load") == ("vnfd-b", "cpu_load")
    # bare name: lexicographically first subject
    assert store.resolve("cpu_load") == ("vnfd-a", "cpu_load")
    assert store.resolve("no_such") is None


def rules_of(catalog):
    return catalog.nsds["nsd-1"].auto_scaling_rules


def test_rule_violation_and_dimensions():
    catalog = load_catalog(sc.sample_documents())
    store = make_store()
    store.ingest(MetricSample(10, "vnfd-b", "cpu_load", 0.9))
    verdicts = {v.rule_id: v for v in evaluate_rules(
        rules_of(catalog), store, 10, sc.DIMENSION_MAP, {}, {})}
    assert not verdicts["r-out"].satisfied
    assert verdicts["r-out"].violated_dimensions == frozenset({"vcpu"})
    # the scale-in rule is missing three of its streams: satisfied
    assert verdicts["r-in"].satisfied
    assert verdicts["r-in"].missing_streams


def test_cooldown_suppresses_repeat_violations():
    catalog = load_catalog(sc.sample_documents())
    store = make_store()
    cooldowns = {}
    store.ingest(MetricSample(10, "vnfd-b", "cpu_load", 0.9))
    v1 = {v.rule_id: v for v in evaluate_rules(
        rules_of(catalog), store, 10, sc.DIMENSION_MAP, cooldowns, {})}
    assert not v1["r-out"].satisfied
    store.ingest(MetricSample(12, "vnfd-b", "cpu_load", 0.95))
    v2 = {v.rule_id: v for v in evaluate_rules(
        rules_of(catalog), store, 12, sc.DIMENSION_MAP, cooldowns, {})}
    assert v2["r-out"].satisfied and v2["r-out"].cooldown_active
    store.ingest(MetricSample(16, "vnfd-b", "cpu_load", 0.95))
    v3 = {v.rule_id: v for v in evaluate_rules(
        rules_of(catalog), store, 16, sc.DIMENSION_MAP, cooldowns, {})}
    assert not v3["r-out"].satisfied


def test_indicator_change_requires_declaration():
    catalog = load_catalog(sc.sample_documents())
    vnfd = catalog.vnfds["vnfd-b"]
    note = indicator_change(vnfd, "vnf-1", "congestion", 7, 42)
    assert note.variant == VNF_INDICATOR_CHANGE
    assert json.loads(note.payload)["value"] == 7
    with pytest.raises(UndeclaredIndicatorError):
        indicator_change(vnfd, "vnf-1", "drops", 1, 42)


def test_mixed_windows_report_missing_stream_instead_of_crashing():
    text = "WHEN avg(cpu_load, 1) > 0.7 OR max(cpu_load, 10) > 2 THEN scale_out"
    rule = AutoScalingRule("r-mixed", text, parse_rule(text), 0, "scale-out")
    store = make_store()
    store.ingest(MetricSample(5, "vnfd-b", "cpu_load", 3.0))
    # the 1-tick window ending at 8 is empty, the 10-tick one is not
    [verdict] = evaluate_rules((rule,), store, 8, {}, {}, {})
    assert verdict.satisfied
    assert verdict.missing_streams == frozenset({"cpu_load"})
    # both windows hold the sample: the rule evaluates and fires
    [verdict] = evaluate_rules((rule,), store, 5, {}, {}, {})
    assert not verdict.satisfied
    assert not verdict.missing_streams


# (subject, tick step, value): the store's one clock never goes back, and
# a step of 0 repeats the previous tick.
samples = st.lists(st.tuples(
    st.sampled_from(("vnfd-a", "vnfd-b")), st.integers(0, 3),
    st.floats(-1e6, 1e6, allow_nan=False)), max_size=60)


@given(samples, st.integers(1, 50), st.integers(1, 5))
def test_window_cut_matches_brute_force_definition(steps, window, regress_by):
    store = MetricStore()
    streams = {}  # subject -> [(tick, value)] as ingested
    clock = 0
    for subject, step, value in steps:
        clock += step
        store.ingest(MetricSample(clock, subject, "cpu_load", value))
        streams.setdefault(subject, []).append((clock, value))
    for subject, stream in streams.items():
        assert store.streams()[(subject, "cpu_load")].times == \
            [t for t, _ in stream]
    if streams:
        # older than the newest tick, in a stream of any subject
        for subject in ("vnfd-a", "vnfd-b", "vnfd-c"):
            before = rule_state(store, {}, {})
            with pytest.raises(TimeRegressionError):
                store.ingest(MetricSample(clock - regress_by, subject,
                                          "cpu_load", 0.0))
            assert rule_state(store, {}, {}) == before
    # every `now` from the newest tick to past the last window's end, so
    # each sample of the last `window` ticks sits on its lower edge once
    for now in range(clock, clock + window + 2):
        for subject in ("vnfd-a", "vnfd-b"):
            expected = [v for t, v in streams.get(subject, ())
                        if now - window < t <= now]
            assert store.window_values(subject, "cpu_load", window, now) \
                == expected
            if not expected:
                continue
            for func, reference in (("avg", lambda v: sum(v) / len(v)),
                                    ("max", max), ("min", min)):
                assert aggregate_is(store, func, subject, window, now,
                                    reference(expected))


def test_bare_name_resolves_again_when_an_earlier_subject_appears():
    store = make_store()
    store.ingest(MetricSample(1, "vnfd-b", "cpu_load", 1.0))
    assert store.resolve("cpu_load") == ("vnfd-b", "cpu_load")
    store.ingest(MetricSample(2, "vnfd-a", "cpu_load", 2.0))
    assert store.resolve("cpu_load") == ("vnfd-a", "cpu_load")


def test_qualified_name_resolves_once_its_stream_exists():
    store = make_store()
    store.ingest(MetricSample(1, "vnfd-b", "cpu_load", 1.0))
    assert store.resolve("vnfd-c.cpu_load") is None
    store.ingest(MetricSample(2, "vnfd-c", "cpu_load", 2.0))
    assert store.resolve("vnfd-c.cpu_load") == ("vnfd-c", "cpu_load")


def _rule(rule_id, text):
    ast = parse_rule(text)
    return AutoScalingRule(rule_id, text, ast, ast.cooldown, "scale-out")


# Bare names whose first subject changes when vnfd-a's stream appears,
# qualified names, mixed windows, and cooldowns 0 and > 0.
CACHED_RULES = (
    _rule("r-max", "WHEN max(cpu_load, 1) > 0.7 THEN scale_out"),
    _rule("r-cool", "WHEN max(cpu_load, 3) > 0.7 THEN scale_out COOLDOWN 5"),
    _rule("r-mixed", "WHEN avg(cpu_load, 1) > 0.7 OR max(cpu_load, 10) > 2 "
                     "THEN scale_out COOLDOWN 1"),
    _rule("r-in", "WHEN min(vnfd-b.mem_load, 4) < 0.3 AND "
                  "max(cpu_load, 2) > 0.5 THEN scale_in COOLDOWN 3"),
    _rule("r-a", "WHEN avg(vnfd-a.cpu_load, 2) > 0.5 THEN scale_out "
                 "COOLDOWN 2"),
)

# ("ingest", subject, metric, step from the latest tick, value): a step of
# 0 adds a sample to an evaluated tick, a negative one goes back and
# raises; ("evaluate", offset from the latest tick, times): a negative
# offset reads before the newest sample and raises.
rule_steps = st.lists(st.one_of(
    st.tuples(st.just("ingest"), st.sampled_from(("vnfd-b", "vnfd-a")),
              st.sampled_from(("cpu_load", "mem_load")),
              st.sampled_from((0, 1, 0, 2, -1)),
              st.sampled_from((0.1, 0.9, 0.6, 3.0))),
    st.tuples(st.just("evaluate"), st.sampled_from((0, -1, 0, -4, 1)),
              st.integers(1, 3))),
    max_size=40)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rule_steps)
# A sample at the evaluated tick, in the stream `r-max` read, flips its
# verdict: the reuse key must tell the two evaluations apart.
@example([("ingest", "vnfd-b", "cpu_load", 0, 0.1), ("evaluate", 0, 1),
          ("ingest", "vnfd-b", "cpu_load", 0, 0.9), ("evaluate", 0, 1)])
def test_reused_verdicts_equal_fresh_ones(steps):
    store = MetricStore()
    clock = 0  # the latest tick ingested
    newest = None  # the tick of the newest sample, None before the first
    cached_cooldowns, cache, fresh_cooldowns = {}, {}, {}
    for step in steps:
        if step[0] == "ingest":
            _, subject, name, tick_step, value = step
            tick = clock + tick_step
            if newest is not None and tick < newest:
                before = rule_state(store, cached_cooldowns, cache)
                with pytest.raises(TimeRegressionError):
                    store.ingest(MetricSample(tick, subject, name, value))
                assert rule_state(store, cached_cooldowns, cache) == before
                continue
            store.ingest(MetricSample(tick, subject, name, value))
            newest = tick
            clock = max(clock, tick)
            continue
        _, offset, times = step
        now = clock + offset
        if newest is not None and now < newest:
            before = rule_state(store, cached_cooldowns, cache)
            with pytest.raises(TimeRegressionError):
                evaluate_rules(CACHED_RULES, store, now, sc.DIMENSION_MAP,
                               cached_cooldowns, cache)
            assert rule_state(store, cached_cooldowns, cache) == before
            continue
        for _ in range(times):
            reused = evaluate_rules(CACHED_RULES, store, now,
                                    sc.DIMENSION_MAP, cached_cooldowns, cache)
            fresh = evaluate_rules(CACHED_RULES, store, now,
                                   sc.DIMENSION_MAP, fresh_cooldowns, {})
            assert reused == fresh
            assert cached_cooldowns == fresh_cooldowns


def test_a_verdict_is_reused_until_a_stream_it_read_changes(monkeypatch):
    """The AND stops at its cpu comparison, so only the cpu stream is
    read; a missing verdict reads every bound stream."""
    calls = []

    def counted(plan, cut, now):
        calls.append(now)
        return evaluate_expr(plan, cut, now)
    monkeypatch.setattr("nsscale.rules.evaluate_expr", counted)
    rules = (_rule("r", "WHEN max(vnfd-b.cpu_load, 2) > 0.5 AND "
                        "min(vnfd-b.mem_load, 4) < 0.3 THEN scale_in "
                        "COOLDOWN 3"),)
    store = MetricStore()
    cooldowns, cache = {}, {}

    def evaluations(now):
        before, fresh_cooldowns = len(calls), dict(cooldowns)
        reused = evaluate_rules(rules, store, now, sc.DIMENSION_MAP,
                                cooldowns, cache)
        fresh = evaluate_rules(rules, store, now, sc.DIMENSION_MAP,
                               fresh_cooldowns, {})
        assert (reused, cooldowns) == (fresh, fresh_cooldowns)
        return len(calls) - before - 1  # less the fresh evaluation

    store.ingest(MetricSample(1, "vnfd-b", "cpu_load", 0.1))
    store.ingest(MetricSample(1, "vnfd-b", "mem_load", 0.1))
    assert evaluations(1) == 1
    assert evaluations(1) == 0
    # a sample in the stream the AND did not reach
    store.ingest(MetricSample(1, "vnfd-b", "mem_load", 0.2))
    assert evaluations(1) == 0
    # a sample in the stream it read: the rule fires and writes its
    # cooldown entry, which the next evaluation reads
    store.ingest(MetricSample(1, "vnfd-b", "cpu_load", 0.9))
    assert evaluations(1) == 1
    assert cooldowns == {"r": 1}
    assert evaluations(1) == 1
    assert evaluations(1) == 0
    # a new tick
    assert evaluations(2) == 1
    # a cooldown write from outside
    cooldowns["r"] = -10
    assert evaluations(2) == 1
    assert cooldowns == {"r": 2}
    # a stream that appears rebinds the rule
    store.ingest(MetricSample(2, "vnfd-a", "cpu_load", 0.1))
    assert evaluations(2) == 1

    # mem_load's last sample is out of its window at tick 9: the verdict
    # reports it missing, reads both streams and evaluates no comparison
    store.ingest(MetricSample(9, "vnfd-b", "cpu_load", 0.9))
    before = len(calls)
    assert evaluate_rules(rules, store, 9, sc.DIMENSION_MAP, cooldowns,
                          cache)[0].missing_streams == {"vnfd-b.mem_load"}
    assert len(calls) == before
    store.ingest(MetricSample(9, "vnfd-b", "mem_load", 0.1))
    assert evaluations(9) == 1
