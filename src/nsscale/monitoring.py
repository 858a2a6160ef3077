"""Metric ingestion, threshold crossing detection, and auto-scaling rule
evaluation over windowed data."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

from . import rules as rules_mod
from .descriptors import Vnfd
from .trace import canonical_json, number_text, object_form, string_text

PERF_INFO_AVAILABLE = "PerfInfoAvailable"
THRESHOLD_CROSSED = "ThresholdCrossed"
VNF_INDICATOR_CHANGE = "VnfIndicatorChange"

_NO_DIMENSIONS = frozenset()

_PERF_INFO_FORM = object_form("metric", "subject", "value")


class TimeRegressionError(ValueError):
    pass


class UndeclaredIndicatorError(ValueError):
    pass


class MetricSample(NamedTuple):
    time: int
    subject: str
    name: str
    value: float


@dataclass(frozen=True)
class ThresholdSpec:
    id: str
    subject: str
    metric: str
    bound: float
    direction: str  # "above" or "below"


class Notification(NamedTuple):
    variant: str
    payload: str  # canonical JSON, as `canonical_json` writes it
    time: int


class RuleVerdict(NamedTuple):
    rule_id: str
    satisfied: bool
    violated_dimensions: frozenset
    cooldown_active: bool = False
    missing_streams: frozenset = frozenset()


class _Stream(list):
    """One metric stream, created on its first sample: the list of its
    values in arrival order, with their ticks (non-decreasing, so a window
    is cut by bisection); its collection period and `next_report`, the
    first tick of the next period, from which a sample is reported again
    (infinite without a period); the thresholds on it as [spec, last
    value] pairs; and its PerfInfoAvailable payload up to the value."""

    __slots__ = ("times", "period", "next_report", "thresholds", "prefix")

    def __init__(self, subject: str, name: str, period: int, thresholds):
        super().__init__()
        self.times = []
        self.period = period
        self.next_report = 0 if period else math.inf
        self.thresholds = [[spec, None] for spec in thresholds]
        # the form with an empty value, cut before its closing brace
        self.prefix = (_PERF_INFO_FORM % (string_text(name),
                                          string_text(subject), ""))[:-1]


class MetricStore:
    """Append-only store of metric streams keyed by (subject, name).

    `monitored_info` gives the collection periods and `thresholds` the
    ThresholdSpecs, which a stream takes when its first sample arrives.
    Samples arrive in tick order, the last at `newest_tick`, and windows
    are read at or after it, so a window is a suffix of its stream.
    """

    def __init__(self, monitored_info: tuple = (), thresholds: tuple = ()):
        self.newest_tick = -math.inf
        self._streams = {}  # (subject, name) -> _Stream
        # (subject, name) -> (period, thresholds) of a stream to be created
        self._settings = {}
        for item in monitored_info:
            if item.source != "vnf-indicator" and item.collection_period > 0:
                self._settings[(item.subject, item.name)] = (
                    item.collection_period, ())
        for spec in thresholds:
            key = (spec.subject, spec.metric)
            period, specs = self._settings.get(key, (0, ()))
            self._settings[key] = (period, specs + (spec,))

    def streams(self) -> dict:
        """Stream key -> the stream's values in arrival order."""
        return self._streams

    def resolve(self, metric_ref: str):
        """Map a rule metric reference to a (subject, name) stream key.

        "subject.name" selects exactly; a bare name matches the
        lexicographically first subject carrying that name. None when no
        stream matches. The answer can change only when a stream is added.
        """
        if "." in metric_ref:
            subject, name = metric_ref.split(".", 1)
            key = (subject, name)
            return key if key in self._streams else None
        matches = sorted(k for k in self._streams if k[1] == metric_ref)
        return matches[0] if matches else None

    def window_values(self, subject: str, name: str, window: int, now: int) -> list:
        """Values of samples in the last `window` ticks ending at `now`,
        at or after `newest_tick`: the suffix with `now - window < tick`."""
        stream = self._streams.get((subject, name))
        if not stream:
            return []
        return stream[bisect_right(stream.times, now - window):]

    def ingest(self, sample: MetricSample) -> list:
        """Append a sample, at or after `newest_tick` (an older one raises
        TimeRegressionError); emit PerfInfoAvailable on collection-period
        boundaries and ThresholdCrossed edge-triggered notifications."""
        time, subject, name, value = sample
        if time < self.newest_tick:
            raise TimeRegressionError("%r precedes tick %d"
                                      % (sample, self.newest_tick))
        self.newest_tick = time
        key = (subject, name)
        stream = self._streams.get(key)
        if stream is None:
            stream = self._streams[key] = _Stream(
                subject, name, *self._settings.get(key, (0, ())))
        stream.times.append(time)
        stream.append(value)

        notifications = []
        if time >= stream.next_report:
            period = stream.period
            stream.next_report = (time // period + 1) * period
            # built as a plain tuple, skipping the Python-level __new__
            notifications.append(tuple.__new__(Notification, (
                PERF_INFO_AVAILABLE,
                stream.prefix + number_text(value) + "}", time)))
        for state in stream.thresholds:
            spec, previous = state
            state[1] = value
            if previous is None:
                continue  # a first sample is never an edge
            if _crossed(value, spec) and not _crossed(previous, spec):
                notifications.append(Notification(
                    THRESHOLD_CROSSED,
                    canonical_json({"threshold_id": spec.id,
                                    "subject": subject, "metric": name,
                                    "value": value}),
                    time))
        return notifications


def _crossed(value: float, spec: ThresholdSpec) -> bool:
    if spec.direction == "above":
        return value > spec.bound
    return value < spec.bound


def evaluate_rules(rules: tuple, store: MetricStore, now: int,
                   dimension_map: dict, cooldown_state: dict,
                   verdict_cache: dict) -> list:
    """Evaluate each rule at logical tick `now`, at or after the store's
    `newest_tick`; an earlier `now` raises TimeRegressionError at once.

    A rule whose condition holds is reported as not satisfied (scaling is
    required), with the dimensions `dimension_map` (metric name ->
    dimension) gives its metrics. Missing streams leave the rule satisfied
    and are reported. `cooldown_state` (rule id -> tick of last violation)
    suppresses repeat violations inside the rule's cooldown and is updated
    in place.

    `verdict_cache` (rule id -> _RuleState), kept by the caller across
    calls with the same rules, store and dimension map, holds each rule's
    bound streams and verdicts. They are made once, and again only when
    the store's stream count changes: streams are only ever added, and
    only a new stream can change what `resolve` answers. A verdict that
    reports missing streams is built once per distinct missing set.

    The last verdict is reused while the tick, the rule's cooldown entry
    before that evaluation and the total sample count of the streams it
    read are unchanged. The streams read are those whose windows the
    evaluated comparisons cut (AND and OR stop at the first operand that
    settles them), or every bound stream when the verdict reported missing
    ones. This is exact because streams only grow, so an unchanged total
    is an unchanged count in each stream read, and at an unchanged tick a
    sample in a stream that was not read can neither make a present
    stream missing nor change a window the evaluated comparisons cut;
    those comparisons alone decide the expression. A reused verdict skips
    no cooldown write: a write of `now` changes the next key, unless the
    entry already held `now`.
    """
    if now < store.newest_tick:
        raise TimeRegressionError("rules read at tick %d precede tick %d"
                                  % (now, store.newest_tick))
    stream_count = len(store.streams())
    verdicts = []
    for rule in rules:
        state = verdict_cache.get(rule.id)
        if state is None or state.stream_count != stream_count:
            state = verdict_cache[rule.id] = _RuleState(
                rule, store, stream_count, dimension_map)
        cooldown = cooldown_state.get(rule.id)
        read = state.read
        if (now != state.key_tick or cooldown != state.key_cooldown
                or sum(map(len, read)) != state.key_samples):
            read.clear()
            state.verdict = _evaluate_rule(rule, state, now, cooldown_state)
            state.key_tick, state.key_cooldown, state.key_samples = (
                now, cooldown, sum(map(len, read)))
        verdicts.append(state.verdict)
    return verdicts


class _RuleState:
    """One rule's streams, bound while the store holds `stream_count`
    streams, as (ref, ticks, smallest window) triples; its verdicts, those
    reporting missing streams by the tuple of their refs; and its last
    verdict with its key. `read` holds the streams that evaluation read.

    `cut` appends each stream whose window it cuts to `read`, a list it
    shares with the state; it holds no reference to the state itself, so
    a state is freed by reference counting alone."""

    __slots__ = ("stream_count", "bound_streams", "values", "read", "cut",
                 "verdict_satisfied", "verdict_cooling", "verdict_violated",
                 "verdicts_missing", "key_tick", "key_cooldown", "key_samples",
                 "verdict")

    def __init__(self, rule, store: MetricStore, stream_count: int,
                 dimension_map: dict):
        ast = rule.ast
        refs = ast.metric_refs
        keys = [store.resolve(ref) for ref in refs]
        streams = store.streams()
        self.stream_count = stream_count
        # an unresolved ref binds an empty stream, which is always missing
        values = self.values = [streams[key] if key else () for key in keys]
        self.bound_streams = [
            (ref, stream.times if stream else (), window)
            for ref, stream, window in zip(refs, values, ast.min_windows)]
        read = self.read = []

        def cut(i, window, now):
            read.append(values[i])
            subject, name = keys[i]
            return store.window_values(subject, name, window, now)
        self.cut = cut
        names = [ref.split(".", 1)[-1] for ref in refs]
        self.verdict_satisfied = RuleVerdict(rule.id, True, _NO_DIMENSIONS)
        self.verdict_cooling = RuleVerdict(rule.id, True, _NO_DIMENSIONS,
                                           cooldown_active=True)
        self.verdict_violated = RuleVerdict(rule.id, False, frozenset(
            dimension_map[name] for name in names if name in dimension_map))
        self.verdicts_missing = {}
        self.key_tick = self.key_cooldown = self.key_samples = None
        self.verdict = None


def _evaluate_rule(rule, state: _RuleState, now: int,
                   cooldown_state: dict) -> RuleVerdict:
    """One rule's verdict at `now` over its bound streams."""
    # No tick follows `now`, where every window ends: a window is empty
    # when its stream's newest tick is not in it, and when a metric's
    # smallest window is not, no comparison cuts an empty one.
    missing = tuple([ref for ref, times, window in state.bound_streams
                     if not times or times[-1] <= now - window])
    if missing:
        state.read += state.values
        verdict = state.verdicts_missing.get(missing)
        if verdict is None:
            verdict = state.verdicts_missing[missing] = RuleVerdict(
                rule.id, True, _NO_DIMENSIONS,
                missing_streams=frozenset(missing))
        return verdict
    if not rules_mod.evaluate_expr(rule.ast.plan, state.cut, now):
        return state.verdict_satisfied
    last = cooldown_state.get(rule.id)
    if last is not None and now - last < rule.cooldown:
        return state.verdict_cooling
    cooldown_state[rule.id] = now
    return state.verdict_violated


def indicator_change(vnfd: Vnfd, vnf_instance_id: str, name: str, value,
                     time: int) -> Notification:
    """Build a VnfIndicatorChange notification; the indicator must be
    declared in the VNFD. Unchanged values still notify."""
    if name not in vnfd.vnf_indicators:
        raise UndeclaredIndicatorError(
            "indicator %r not declared in VNFD %r" % (name, vnfd.id))
    return Notification(
        VNF_INDICATOR_CHANGE,
        canonical_json({"vnf_instance": vnf_instance_id, "indicator": name,
                        "value": value}),
        time)
