"""Scenario files: catalog references, infrastructure topology, the initial
NS instance, the workload timeline, thresholds, and run options."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from .capacity import DIMENSIONS, CapacityVector
from .descriptors import (Catalog, CatalogError, load_catalog, validate_catalog)
from .drpa import DEFAULT_TARGET_UTILIZATION, CostModel
from .inventory import NfviPop, ResourceZone
from .monitoring import ThresholdSpec


class ScenarioValidationError(ValueError):
    def __init__(self, problems: list):
        super().__init__("; ".join(problems))
        self.problems = problems


@dataclass
class Scenario:
    documents: list
    topology: dict
    initial_instance: dict
    workload: dict = field(default_factory=dict)
    rules: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    @property
    def reservation_enabled(self) -> bool:
        return bool(self.options.get("reservation_enabled", True))

    @property
    def target_utilization(self) -> float:
        return float(self.options.get("target_utilization",
                                      DEFAULT_TARGET_UTILIZATION))

    def cost_model(self) -> CostModel:
        return CostModel.from_dict(self.options.get("cost_weights", {}))

    def thresholds(self) -> tuple:
        specs = []
        for t in self.rules.get("thresholds", ()):
            specs.append(ThresholdSpec(t["id"], t["subject"], t["metric"],
                                       t["bound"], t["direction"]))
        return tuple(specs)

    def dimension_map(self) -> dict:
        return dict(self.rules.get("metric_dimensions", {}))

    def placement_constraints(self) -> dict:
        return dict(self.rules.get("placement_constraints", {}))


def scenario_from_dict(data: dict, base_dir: str = ".") -> Scenario:
    documents = list(data.get("catalog", ()))
    for ref in data.get("catalog_refs", ()):
        path = ref if os.path.isabs(ref) else os.path.join(base_dir, ref)
        with open(path) as fh:
            doc = json.load(fh)
        if isinstance(doc, list):
            documents.extend(doc)
        else:
            documents.append(doc)
    return Scenario(
        documents=documents,
        topology=data.get("topology", {}),
        initial_instance=data.get("initial_instance", {}),
        workload=data.get("workload", {}),
        rules=data.get("rules", {}),
        options=data.get("options", {}),
    )


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        data = json.load(fh)
    return scenario_from_dict(data, os.path.dirname(os.path.abspath(path)))


def build_topology(topology: dict) -> tuple:
    """Returns (vim ids, list of NfviPop with fresh zones)."""
    vims = [v["id"] for v in topology.get("vims", ())]
    pops = []
    for pop in topology.get("pops", ()):
        zones = [ResourceZone(z["id"], CapacityVector.from_dict(z["total"]))
                 for z in pop.get("zones", ())]
        pops.append(NfviPop(pop["id"], pop["vim_ref"], zones))
    return vims, pops


def validate_scenario(scenario: Scenario) -> tuple:
    """Returns (catalog, problems). The catalog is None when it cannot even
    be loaded."""
    problems = []
    try:
        catalog = load_catalog(scenario.documents)
    except CatalogError as exc:
        return None, ["catalog: %s" % exc]
    report = validate_catalog(catalog)
    problems.extend("catalog: " + line for line in report.sorted_lines())

    # VIM, PoP and zone ids are str: workflow payloads write them as JSON
    # strings.
    vim_ids = set()
    for i, vim in enumerate(scenario.topology.get("vims", ())):
        if type(vim["id"]) is not str:
            problems.append("topology: vims[%d] id %r is not a string"
                            % (i, vim["id"]))
        elif vim["id"] in vim_ids:
            problems.append("topology: duplicate VIM id %r" % vim["id"])
        else:
            vim_ids.add(vim["id"])
    pop_ids = set()
    pops = scenario.topology.get("pops", ())
    for i, pop in enumerate(pops):
        if type(pop["id"]) is not str:
            problems.append("topology: pops[%d] id %r is not a string"
                            % (i, pop["id"]))
        elif pop["id"] in pop_ids:
            problems.append("topology: duplicate PoP id %r" % pop["id"])
        else:
            pop_ids.add(pop["id"])
        if pop.get("vim_ref") not in vim_ids:
            problems.append("topology: PoP %r references unknown VIM %r"
                            % (pop["id"], pop.get("vim_ref")))
        zone_ids = set()
        for j, zone in enumerate(pop.get("zones", ())):
            if type(zone["id"]) is not str:
                problems.append("topology: PoP %r zones[%d] id %r is not a "
                                "string" % (pop["id"], j, zone["id"]))
            elif zone["id"] in zone_ids:
                problems.append("topology: duplicate zone id %r in PoP %r"
                                % (zone["id"], pop["id"]))
            else:
                zone_ids.add(zone["id"])
    if not pops:
        problems.append("topology: at least one PoP required")
    rules = scenario.rules
    if type(rules) is not dict:
        problems.append("rules: %r is not an object" % (rules,))
        rules = {}
    init = scenario.initial_instance
    nsd = catalog.nsds.get(init.get("nsd_ref"))
    problems.extend(_threshold_problems(rules.get("thresholds", ()), nsd))
    problems.extend(_dimension_problems(rules.get("metric_dimensions", {})))
    problems.extend(_option_problems(scenario.options))
    problems.extend(_constraint_problems(
        rules.get("placement_constraints", {}), catalog, nsd))
    if nsd is None:
        problems.append("initial_instance: unknown NSD %r" % init.get("nsd_ref"))
    else:
        try:
            flavor = nsd.flavor(init.get("flavor_ref"))
        except KeyError:
            problems.append("initial_instance: unknown flavor %r"
                            % init.get("flavor_ref"))
        else:
            if init.get("ns_il_ref") not in {il.id for il in flavor.ns_ils}:
                problems.append("initial_instance: unknown NS-IL %r"
                                % init.get("ns_il_ref"))
    return catalog, problems


def _finite_number(value) -> bool:
    """Whether `value` is an int or a finite float, never a bool."""
    return type(value) is int or type(value) is float and math.isfinite(value)


def _threshold_problems(thresholds, nsd) -> list:
    """One `rules: thresholds[i] ...` line per bad entry. An entry has a
    unique str id, str subject and metric, a finite number bound and an
    "above" or "below" direction, and its (subject, metric) is an item of
    `nsd`'s monitored info, of any source (any pair when the NSD is
    unknown): no other stream is ever fed."""
    if type(thresholds) not in (list, tuple):
        return ["rules: thresholds is not a list"]
    problems = []
    first = {}  # id -> index of the entry that first carries it
    monitored = None if nsd is None else {
        (item.subject, item.name) for item in nsd.monitored_info}
    for i, entry in enumerate(thresholds):
        if type(entry) is not dict:
            problems.append("rules: thresholds[%d] is not an object: %r"
                            % (i, entry))
            continue
        faults = []
        for name, kind, ok in (
                ("id", "a string", type(entry.get("id")) is str),
                ("subject", "a string", type(entry.get("subject")) is str),
                ("metric", "a string", type(entry.get("metric")) is str),
                ("bound", "a finite number",
                 _finite_number(entry.get("bound"))),
                ("direction", "'above' or 'below'",
                 entry.get("direction") in ("above", "below"))):
            if name not in entry:
                faults.append("%s is missing" % name)
            elif not ok:
                faults.append("%s %r is not %s" % (name, entry[name], kind))
        subject, metric = entry.get("subject"), entry.get("metric")
        if (monitored is not None and type(subject) is str
                and type(metric) is str
                and (subject, metric) not in monitored):
            faults.append("metric %r of subject %r is not monitored by NSD "
                          "%r" % (metric, subject, nsd.id))
        tid = entry.get("id")
        if type(tid) is str:
            if tid in first:
                faults.append("id %r repeats thresholds[%d]"
                              % (tid, first[tid]))
            else:
                first[tid] = i
        if faults:
            problems.append("rules: thresholds[%d] %s"
                            % (i, ", ".join(faults)))
    return problems


def _dimension_problems(dimensions) -> list:
    """One `rules: metric_dimensions ...` line per bad entry:
    `metric_dimensions` is an object from metric names to dimensions."""
    if type(dimensions) is not dict:
        return ["rules: metric_dimensions %r is not an object"
                % (dimensions,)]
    return ["rules: metric_dimensions %r maps to %r, not a dimension (%s)"
            % (name, dimension, ", ".join(DIMENSIONS))
            for name, dimension in dimensions.items()
            if dimension not in DIMENSIONS]


def _constraint_problems(constraints, catalog: Catalog, nsd) -> list:
    """One `rules: placement_constraints ...` line per bad entry. The one
    constraint, `anti_affinity`, is an object from a VNFC name or VNF
    profile id of `nsd` (any name when the NSD is unknown) to a str
    label."""
    if type(constraints) is not dict:
        return ["rules: placement_constraints %r is not an object"
                % (constraints,)]
    problems = ["rules: placement_constraints key %r is not a constraint"
                % (key,) for key in constraints if key != "anti_affinity"]
    anti = constraints.get("anti_affinity", {})
    if type(anti) is not dict:
        return problems + ["rules: placement_constraints anti_affinity %r "
                           "is not an object" % (anti,)]
    names = None
    if nsd is not None:
        names = {vdu.vnfc_name for ref in nsd.vnfd_refs
                 if ref in catalog.vnfds for vdu in catalog.vnfds[ref].vdus
                 if type(vdu.vnfc_name) is str}
        names.update(profile.id for flavor in nsd.flavors
                     for profile in flavor.vnf_profiles
                     if type(profile.id) is str)
    for name, label in anti.items():
        if names is not None and name not in names:
            problems.append("rules: placement_constraints anti_affinity %r "
                            "is neither a VNFC name nor a VNF profile id of "
                            "NSD %r" % (name, nsd.id))
        elif type(label) is not str:
            problems.append("rules: placement_constraints anti_affinity %r "
                            "label %r is not a string" % (name, label))
    return problems


def _option_problems(options) -> list:
    """One `options: ...` line per bad option. `target_utilization` is a
    finite number in (0, 1], `reservation_enabled` a bool, and
    `cost_weights` an object mapping dimensions, named with or without
    `w_`, to finite numbers >= 0."""
    if type(options) is not dict:
        return ["options: %r is not an object" % (options,)]
    problems = []
    target = options.get("target_utilization", DEFAULT_TARGET_UTILIZATION)
    if not (_finite_number(target) and 0 < target <= 1):
        problems.append("options: target_utilization %r is not a number in "
                        "(0, 1]" % (target,))
    if type(options.get("reservation_enabled", True)) is not bool:
        problems.append("options: reservation_enabled %r is not a bool"
                        % (options["reservation_enabled"],))
    weights = options.get("cost_weights", {})
    if type(weights) is not dict:
        return problems + ["options: cost_weights %r is not an object"
                           % (weights,)]
    for key, weight in weights.items():
        if key.removeprefix("w_") not in DIMENSIONS:
            problems.append("options: cost_weights key %r is not a dimension"
                            % key)
        elif not (_finite_number(weight) and weight >= 0):
            problems.append("options: cost_weights %r weight %r is not a "
                            "finite number >= 0" % (key, weight))
    return problems


# The largest |tick| a workload record may carry: the trace holds ticks as
# signed 64-bit integers, and the clock counts one tick per event past the
# last record's.
TICK_LIMIT = 2 ** 62


def workload_records(workload: dict) -> tuple:
    """The workload's metric and indicator records with their delivery
    order, as `(records, metric_count, order)`. `records` lists the given
    records themselves, the metrics first and then the indicators: index
    i is `metrics[i]` below `metric_count` and `indicators[i -
    metric_count]` from there on. `order` lists those indexes in delivery
    order: by tick, metrics before indicators, then file order. No record
    is copied or wrapped: a run holds each record once, as the workload
    gave it, and an index per record.

    Each record is `[tick, subject, name, value]` with an int tick of at
    most TICK_LIMIT in absolute value and str subject and name. A metric
    value is a finite int or float, never a bool; an indicator value is
    free-form, but a float must be finite: JSON has no NaN or Infinity,
    and a numeric indicator feeds the rule engine. Raises
    ScenarioValidationError with one `workload:` problem per bad record.

    The check runs here, in the one pass the run makes over the records,
    rather than in `validate_scenario`: a workload holds thousands of
    records, and checking them costs more than the rest of a simulator's
    set-up."""
    records = []
    metric_count = 0
    problems = []
    for indicator, field_name, shape in (
            (False, "metrics",
             "[int tick, str subject, str metric, finite number]"),
            (True, "indicators",
             "[int tick, str vnf, str indicator, value (finite if a float)]")):
        entries = workload.get(field_name, ())
        if type(entries) not in (list, tuple):
            problems.append("workload: %s is not a list" % field_name)
            continue
        for i, rec in enumerate(entries):
            if not (type(rec) in (list, tuple) and len(rec) == 4
                    and type(rec[0]) is int and type(rec[1]) is str
                    and type(rec[2]) is str
                    and (math.isfinite(rec[3]) if type(rec[3]) is float
                         else type(rec[3]) is int or indicator)):
                problems.append("workload: %s[%d] is not %s: %r"
                                % (field_name, i, shape, rec))
            elif abs(rec[0]) > TICK_LIMIT:
                problems.append("workload: %s[%d] tick %d is beyond the "
                                "limit of +/-2**62" % (field_name, i, rec[0]))
        records += entries
        if not indicator:
            metric_count = len(records)
    if problems:
        raise ScenarioValidationError(problems)
    ticks = [rec[0] for rec in records]
    # A stable sort by tick keeps the metrics, listed first, before the
    # indicators of their tick, and each kind in file order.
    order = sorted(range(len(records)), key=ticks.__getitem__)
    return records, metric_count, order
