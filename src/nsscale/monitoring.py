"""Metric ingestion, threshold crossing detection, and auto-scaling rule
evaluation over windowed data."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from . import rules as rules_mod
from .descriptors import Vnfd

PERF_INFO_AVAILABLE = "PerfInfoAvailable"
THRESHOLD_CROSSED = "ThresholdCrossed"
VNF_INDICATOR_CHANGE = "VnfIndicatorChange"

_UNRESOLVED = object()  # MetricStore.resolve memo miss; None is an answer


class TimeRegressionError(ValueError):
    pass


class UndeclaredIndicatorError(ValueError):
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

    Each stream is two parallel lists, its ticks and its values; ingest
    keeps the ticks non-decreasing, so a window is cut by bisection.
    Single-writer by contract; readers see a consistent snapshot between
    ingests.
    """

    def __init__(self, monitored_info: tuple = ()):
        self._times = {}  # (subject, name) -> [tick], non-decreasing
        self._values = {}  # (subject, name) -> [value], parallel to _times
        self._resolved = {}  # metric ref -> stream key or None
        self._periods = {}
        self._last_report = {}
        self._last_threshold_value = {}
        for item in monitored_info:
            if item.source != "vnf-indicator" and item.collection_period > 0:
                self._periods[(item.subject, item.name)] = item.collection_period

    def streams(self) -> dict:
        """Stream key -> the stream's values in arrival order."""
        return self._values

    def resolve(self, metric_ref: str):
        """Map a rule metric reference to a (subject, name) stream key.

        "subject.name" selects exactly; a bare name matches the
        lexicographically first subject carrying that name. Answers are
        memoized until a new stream appears.
        """
        key = self._resolved.get(metric_ref, _UNRESOLVED)
        if key is _UNRESOLVED:
            key = self._resolved[metric_ref] = self._resolve(metric_ref)
        return key

    def _resolve(self, metric_ref: str):
        if "." in metric_ref:
            subject, name = metric_ref.split(".", 1)
            key = (subject, name)
            return key if key in self._values else None
        matches = sorted(k for k in self._values if k[1] == metric_ref)
        return matches[0] if matches else None

    def latest(self, subject: str, name: str):
        values = self._values.get((subject, name))
        return values[-1] if values else None

    def window_values(self, subject: str, name: str, window: int, now: int) -> list:
        """Values of samples in the last `window` ticks ending at `now`,
        that is with `now - window < tick <= now`."""
        key = (subject, name)
        times = self._times.get(key)
        if not times:
            return []
        return self._values[key][bisect_right(times, now - window):
                                 bisect_right(times, now)]

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
        times = self._times.get(key)
        if times is None:
            times = self._times[key] = []
            self._values[key] = []
            self._resolved.clear()  # a bare name may now match this stream
        elif sample.time < times[-1]:
            raise TimeRegressionError(
                "sample at tick %d precedes tick %d for stream %s"
                % (sample.time, times[-1], key))
        times.append(sample.time)
        self._values[key].append(sample.value)

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


def evaluate_rules(rules: tuple, store: MetricStore, now: int,
                   dimension_map: dict | None = None,
                   cooldown_state: dict | None = None,
                   verdict_cache: dict | None = None) -> list:
    """Evaluate each rule at logical tick `now`.

    A rule whose condition holds is reported as not satisfied (scaling is
    required). Missing streams leave the rule satisfied and are reported.
    `cooldown_state` (rule id -> tick of last violation) suppresses repeat
    violations inside the rule's cooldown and is updated in place.

    `verdict_cache` (rule id -> (signature, verdict)), kept by the caller
    across calls with the same rules, store and dimension map, reuses a
    rule's last verdict while its inputs are unchanged: the tick, its
    cooldown entry, and each metric's stream and sample count. Streams
    only grow, so an unchanged count is an unchanged stream. A reused
    verdict skips no cooldown write: a write of `now` changes the next
    signature, unless the entry already held `now`.
    """
    dimension_map = dimension_map or {}
    if verdict_cache is None:
        verdict_cache = {}
    last_violation = {} if cooldown_state is None else cooldown_state
    streams = store.streams()
    verdicts = []
    for rule in rules:
        # A list, not a tuple: `tuple(map(...))` shrinks a larger tuple, so
        # the interpreter's free list for the small size fills with dead
        # blocks that the traced heap counts.
        keys = list(map(store.resolve, rule.ast.metric_refs))
        signature = (now, last_violation.get(rule.id), keys,
                     [len(streams.get(key, ())) for key in keys])
        cached = verdict_cache.get(rule.id)
        if cached is None or cached[0] != signature:
            cached = verdict_cache[rule.id] = (signature, _evaluate_rule(
                rule, keys, store, now, dimension_map, cooldown_state))
        verdicts.append(cached[1])
    return verdicts


def _evaluate_rule(rule, keys: list, store: MetricStore, now: int,
                   dimension_map: dict, cooldown_state: dict | None):
    """One rule's verdict at `now`; `keys` holds the resolved stream key
    of each of the rule's metric refs, in order."""
    # Every window ends at `now`, so when a metric's smallest window holds
    # a sample, so do its others, and no aggregate comes back empty.
    missing = [ref for ref, key, window
               in zip(rule.ast.metric_refs, keys, rule.ast.min_windows)
               if key is None
               or not store.window_values(key[0], key[1], window, now)]
    if missing:
        return RuleVerdict(rule.id, True, frozenset(), now,
                           missing_streams=frozenset(missing))
    key_of = dict(zip(rule.ast.metric_refs, keys))

    def lookup(func, metric, window):
        subject, name = key_of[metric]
        return store.aggregate(func, subject, name, window, now)

    if not rules_mod.evaluate_expr(rule.ast.expr, lookup):
        return RuleVerdict(rule.id, True, frozenset(), now)
    if cooldown_state is not None:
        last = cooldown_state.get(rule.id)
        if last is not None and now - last < rule.cooldown:
            return RuleVerdict(rule.id, True, frozenset(), now,
                               cooldown_active=True)
        cooldown_state[rule.id] = now
    dims = frozenset(
        dimension_map[ref.split(".", 1)[-1]]
        for ref in rule.ast.metric_refs
        if ref.split(".", 1)[-1] in dimension_map)
    return RuleVerdict(rule.id, False, dims, now)


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
