"""Metric ingestion, threshold crossing detection, and auto-scaling rule
evaluation over windowed data."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import rules as rules_mod
from .descriptors import AutoScalingRule, MonitoredInfoItem, Vnfd

PERF_INFO_AVAILABLE = "PerfInfoAvailable"
THRESHOLD_CROSSED = "ThresholdCrossed"
VNF_INDICATOR_CHANGE = "VnfIndicatorChange"


class TimeRegressionError(ValueError):
    pass


class UndeclaredIndicatorError(ValueError):
    pass


class UnknownMetricError(KeyError):
    pass


@dataclass(frozen=True)
class MetricSample:
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


@dataclass(frozen=True)
class Notification:
    variant: str
    payload: dict
    origin: str
    time: int


@dataclass(frozen=True)
class RuleVerdict:
    rule_id: str
    satisfied: bool
    violated_dimensions: frozenset
    time: int
    cooldown_active: bool = False
    missing_streams: frozenset = frozenset()


class MetricStore:
    """Append-only store of metric streams keyed by (subject, name).

    Single-writer by contract; readers see a consistent snapshot between
    ingests.
    """

    def __init__(self, monitored_info: tuple = ()):
        self._streams = {}  # (subject, name) -> list[(time, value)]
        self._periods = {}
        self._last_report = {}
        self._last_threshold_value = {}
        for item in monitored_info:
            if item.source != "vnf-indicator" and item.collection_period > 0:
                self._periods[(item.subject, item.name)] = item.collection_period

    def streams(self) -> dict:
        return self._streams

    def has_stream(self, subject: str, name: str) -> bool:
        return (subject, name) in self._streams

    def resolve(self, metric_ref: str):
        """Map a rule metric reference to a (subject, name) stream key.

        "subject.name" selects exactly; a bare name matches the
        lexicographically first subject carrying that name.
        """
        if "." in metric_ref:
            subject, name = metric_ref.split(".", 1)
            key = (subject, name)
            return key if key in self._streams else None
        matches = sorted(k for k in self._streams if k[1] == metric_ref)
        return matches[0] if matches else None

    def latest(self, subject: str, name: str):
        stream = self._streams.get((subject, name))
        return stream[-1][1] if stream else None

    def window_values(self, subject: str, name: str, window: int, now: int) -> list:
        """Values of samples in the last `window` ticks ending at `now`."""
        stream = self._streams.get((subject, name), [])
        lo = now - window
        return [v for t, v in stream if lo < t <= now]

    def aggregate(self, func: str, subject: str, name: str, window: int, now: int):
        values = self.window_values(subject, name, window, now)
        if not values:
            return None
        if func == "avg":
            return sum(values) / len(values)
        if func == "max":
            return max(values)
        if func == "min":
            return min(values)
        raise ValueError(func)

    def ingest(self, sample: MetricSample, thresholds: tuple = (),
               origin: str = "monitor") -> list:
        """Append a sample; emit PerfInfoAvailable on collection-period
        boundaries and ThresholdCrossed edge-triggered notifications."""
        key = (sample.subject, sample.name)
        stream = self._streams.setdefault(key, [])
        if stream and sample.time < stream[-1][0]:
            raise TimeRegressionError(
                "sample at tick %d precedes tick %d for stream %s"
                % (sample.time, stream[-1][0], key))
        stream.append((sample.time, sample.value))

        notifications = []
        period = self._periods.get(key)
        if period:
            last = self._last_report.get(key, -1)
            if sample.time // period > last // period:
                self._last_report[key] = sample.time
                notifications.append(Notification(
                    PERF_INFO_AVAILABLE,
                    {"subject": sample.subject, "metric": sample.name,
                     "value": sample.value},
                    origin, sample.time))
        for spec in thresholds:
            if (spec.subject, spec.metric) != key:
                continue
            previous = self._last_threshold_value.get(spec.id)
            self._last_threshold_value[spec.id] = sample.value
            if previous is None:
                continue  # a first sample is never an edge
            was = _crossed(previous, spec)
            now = _crossed(sample.value, spec)
            if now and not was:
                notifications.append(Notification(
                    THRESHOLD_CROSSED,
                    {"threshold_id": spec.id, "subject": spec.subject,
                     "metric": spec.metric, "value": sample.value},
                    origin, sample.time))
        return notifications


def _crossed(value: float, spec: ThresholdSpec) -> bool:
    if spec.direction == "above":
        return value > spec.bound
    return value < spec.bound


def ingest_sample(store: MetricStore, sample: MetricSample,
                  thresholds: tuple = (), origin: str = "monitor") -> list:
    return store.ingest(sample, thresholds, origin)


def evaluate_rules(rules: tuple, store: MetricStore, now: int,
                   dimension_map: dict | None = None,
                   cooldown_state: dict | None = None) -> list:
    """Evaluate each rule at logical tick `now`.

    A rule whose condition holds is reported as not satisfied (scaling is
    required). Missing streams leave the rule satisfied and are reported.
    `cooldown_state` (rule id -> tick of last violation) suppresses repeat
    violations inside the rule's cooldown and is updated in place.
    """
    dimension_map = dimension_map or {}
    verdicts = []
    for rule in rules:
        missing = frozenset(
            ref for ref in rule.ast.metric_refs
            if store.resolve(ref) is None
            or not store.window_values(*store.resolve(ref),
                                       _window_of(rule.ast, ref), now))
        if missing:
            verdicts.append(RuleVerdict(rule.id, True, frozenset(), now,
                                        missing_streams=missing))
            continue

        def lookup(func, metric, window):
            subject, name = store.resolve(metric)
            return store.aggregate(func, subject, name, window, now)

        fired = rules_mod.evaluate_expr(rule.ast.expr, lookup)
        if not fired:
            verdicts.append(RuleVerdict(rule.id, True, frozenset(), now))
            continue
        if cooldown_state is not None:
            last = cooldown_state.get(rule.id)
            if last is not None and now - last < rule.cooldown:
                verdicts.append(RuleVerdict(rule.id, True, frozenset(), now,
                                            cooldown_active=True))
                continue
            cooldown_state[rule.id] = now
        dims = frozenset(
            dimension_map[ref.split(".", 1)[-1]]
            for ref in rule.ast.metric_refs
            if ref.split(".", 1)[-1] in dimension_map)
        verdicts.append(RuleVerdict(rule.id, False, dims, now))
    return verdicts


def _window_of(ast: rules_mod.RuleAst, metric_ref: str) -> int:
    """Smallest window any aggregate uses for the metric (for missing-stream
    detection). Every window ends at `now`, so when the smallest one holds a
    sample, so do all the others, and no aggregate comes back empty."""
    windows = []

    def walk(node):
        if isinstance(node, rules_mod.Comparison):
            if node.left.metric == metric_ref:
                windows.append(node.left.window)
        elif isinstance(node, (rules_mod.And, rules_mod.Or)):
            for op in node.operands:
                walk(op)
        elif isinstance(node, rules_mod.Not):
            walk(node.operand)

    walk(ast.expr)
    return min(windows) if windows else 1


def indicator_change(vnfd: Vnfd, vnf_instance_id: str, name: str, value,
                     time: int, origin: str = "em") -> Notification:
    """Build a VnfIndicatorChange notification; the indicator must be
    declared in the VNFD. Unchanged values still notify."""
    if name not in vnfd.vnf_indicators:
        raise UndeclaredIndicatorError(
            "indicator %r not declared in VNFD %r" % (name, vnfd.id))
    return Notification(
        VNF_INDICATOR_CHANGE,
        {"vnf_instance": vnf_instance_id, "indicator": name, "value": value},
        origin, time)
