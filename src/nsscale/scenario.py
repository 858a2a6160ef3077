"""Scenario files: catalog references, infrastructure topology, the initial
NS instance, the workload timeline, thresholds, and run options."""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from operator import itemgetter

from .capacity import DIMENSIONS, CapacityVector
from .descriptors import Catalog, check_catalog, read_documents
from .drpa import DEFAULT_TARGET_UTILIZATION, CostModel
from .inventory import NfviPop, ResourceZone
from .monitoring import ThresholdSpec
from .shapes import (
    ANY, BOOL, LIST, NUMBER, STR, List, Map, Obj, Refused, Scalar, at_least,
    finite, load, one_of,
)


class ScenarioValidationError(ValueError):
    def __init__(self, problems: list):
        super().__init__("; ".join(problems))
        self.problems = problems


# Every scenario section's shape. Each section is labelled by its name;
# the catalog's documents have the shapes of `descriptors`, and the
# workload's records are checked by `workload_records`.
_ZONE = Obj(("id", STR),
            ("total", Obj(*((name, NUMBER, 0) for name in DIMENSIONS),
                          build=CapacityVector, closed="a dimension")))
# A cost weight's key, a dimension named with or without `w_`, -> the
# CostModel field it sets.
_WEIGHT_FIELDS = {key: "w_" + dimension for dimension in DIMENSIONS
                  for key in (dimension, "w_" + dimension)}


def _cost_model(weights: dict) -> CostModel:
    """The CostModel of `cost_weights`, whose keys are of `_WEIGHT_FIELDS`;
    a dimension given a weight under both its names is refused."""
    fields = {}
    for key, weight in weights.items():
        field = _WEIGHT_FIELDS[key]
        if field in fields:
            raise Refused("%s is weighted both as %r and as %r"
                          % (field[2:], field[2:], field))
        fields[field] = weight
    return CostModel(**fields)


SCENARIO = Obj(
    ("catalog", LIST, ()),
    ("catalog_refs", List(STR), []),
    ("topology", Obj(
        ("vims", List(Obj(("id", STR)), unique="id"), []),
        # a VIM id, or the PoP's reference is reported as unknown
        ("pops", List(Obj(("id", STR), ("vim_ref", ANY),
                          ("zones", List(_ZONE, unique="id"), []),
                          noun="PoP"), unique="id"), []),
        label="topology:")),
    ("initial_instance", Obj(("nsd_ref", STR), ("flavor_ref", STR),
                             ("ns_il_ref", STR), label="initial_instance:")),
    ("workload", Obj(("metrics", LIST, ()), ("indicators", LIST, ()),
                     label="workload:"), {}),
    ("rules", Obj(
        ("thresholds", List(Obj(
            ("id", STR), ("subject", STR), ("metric", STR),
            ("bound", NUMBER),
            ("direction", one_of(("above", "below"), "'above' or 'below'")),
            build=ThresholdSpec), unique="id"), []),
        ("metric_dimensions", Map(one_of(DIMENSIONS, "a dimension (%s)"
                                         % ", ".join(DIMENSIONS)),
                                  says="maps to %(value)r, not %(kind)s"), {}),
        # items sharing an anti-affinity label take distinct PoPs
        ("placement_constraints", Obj(
            ("anti_affinity", Map(STR, says="label %(value)r is not "
                                  "%(kind)s"), {}),
            closed="a constraint"), {}),
        label="rules:"), {}),
    ("options", Obj(
        ("target_utilization", Scalar(
            "a number in (0, 1]", lambda v: finite(v) and 0 < v <= 1),
         DEFAULT_TARGET_UTILIZATION),
        ("reservation_enabled", BOOL, True),
        ("cost_weights", Map(at_least(0, "a finite number >= 0"),
                             _WEIGHT_FIELDS, "a dimension",
                             says="weight %(value)r is not %(kind)s",
                             build=_cost_model), {}),
        label="options:"), {}),
)


@dataclass
class Scenario:
    """A scenario's sections as their shapes build them. `faults` lists
    the shapes' faults, one line each, and a section with a fault of its
    own is None, as are the documents when their list or a ref is."""

    documents: list | None
    topology: dict | None
    initial_instance: dict | None
    workload: dict | None
    rules: dict | None
    options: dict | None
    faults: list = field(default_factory=list)


def scenario_from_dict(data: dict, base_dir: str = ".") -> Scenario:
    """The scenario of `data`; its catalog references, files holding a
    document or a list of them, are read when they are a list of str."""
    built, faults = load(SCENARIO, data, "scenario:")
    if built is None:  # `data` is not an object
        return Scenario(None, None, None, None, None, None, faults)
    refs = built["catalog_refs"]
    documents = None  # when the catalog or a ref is faulty, no file is read
    if built["catalog"] is not None and refs is not None and None not in refs:
        documents = list(built["catalog"]) + read_documents(
            [os.path.join(base_dir, ref) for ref in refs])
    return Scenario(documents, built["topology"], built["initial_instance"],
                    built["workload"], built["rules"], built["options"],
                    faults)


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        data = json.load(fh)
    return scenario_from_dict(data, os.path.dirname(os.path.abspath(path)))


def build_topology(topology: dict) -> tuple:
    """Returns (vim ids, list of NfviPop with fresh zones)."""
    vims = [v["id"] for v in topology["vims"]]
    pops = []
    for pop in topology["pops"]:
        zones = [ResourceZone(z["id"], z["total"]) for z in pop["zones"]]
        pops.append(NfviPop(pop["id"], pop["vim_ref"], zones))
    return vims, pops


def validate_scenario(scenario: Scenario) -> tuple:
    """Returns (catalog, problems): the catalog's and the sections' faults,
    then what refers to what, where the parts are sound. The catalog is
    None when it cannot even be loaded."""
    catalog, problems = check_catalog(scenario.documents) \
        if scenario.documents is not None else (None, [])
    problems = ["catalog: " + line for line in problems] + scenario.faults

    topology = scenario.topology
    if topology is not None:
        # a list, as a PoP's vim_ref may be any JSON value
        vim_ids = [vim["id"] for vim in topology["vims"] if vim is not None]
        for pop in topology["pops"]:
            if pop is not None and pop["vim_ref"] not in vim_ids:
                problems.append("topology: PoP %r references unknown VIM %r"
                                % (pop["id"], pop["vim_ref"]))
        if not topology["pops"]:
            problems.append("topology: at least one PoP required")
    init = scenario.initial_instance
    if catalog is None or init is None:
        return catalog, problems
    nsd = catalog.nsds.get(init["nsd_ref"])
    if scenario.rules is not None and nsd is not None:
        problems += _stream_problems(scenario.rules["thresholds"], nsd)
        problems += _constraint_problems(
            scenario.rules["placement_constraints"], catalog, nsd)
    if nsd is None:
        problems.append("initial_instance: unknown NSD %r" % init["nsd_ref"])
    else:
        try:
            flavor = nsd.flavor(init["flavor_ref"])
        except KeyError:
            problems.append("initial_instance: unknown flavor %r"
                            % init["flavor_ref"])
        else:
            if init["ns_il_ref"] not in {il.id for il in flavor.ns_ils}:
                problems.append("initial_instance: unknown NS-IL %r"
                                % init["ns_il_ref"])
    return catalog, problems


def _stream_problems(thresholds: tuple, nsd) -> list:
    """A line per threshold whose (subject, metric) is no item of `nsd`'s
    monitored info, of any source: no other stream is ever fed."""
    monitored = {(item.subject, item.name) for item in nsd.monitored_info}
    return ["rules: thresholds[%d] metric %r of subject %r is not monitored "
            "by NSD %r" % (i, t.metric, t.subject, nsd.id)
            for i, t in enumerate(thresholds)
            if t is not None and (t.subject, t.metric) not in monitored]


def _constraint_problems(constraints: dict, catalog: Catalog, nsd) -> list:
    """A line per anti-affinity name that is neither a VNFC name nor a VNF
    profile id of `nsd`."""
    anti = constraints["anti_affinity"]
    if not anti:
        return []
    names = {vdu.vnfc_name for ref in nsd.vnfd_refs
             if ref in catalog.vnfds for vdu in catalog.vnfds[ref].vdus}
    names.update(profile.id for flavor in nsd.flavors
                 for profile in flavor.vnf_profiles)
    return ["rules: placement_constraints anti_affinity %r is neither a VNFC "
            "name nor a VNF profile id of NSD %r" % (name, nsd.id)
            for name in anti if name not in names]


# The largest |tick| a workload record may carry: the trace holds ticks as
# signed 64-bit integers, and the clock counts one tick per event past the
# last record's.
TICK_LIMIT = 2 ** 62


def workload_records(workload: dict) -> tuple:
    """The workload's records in delivery order, as `(metrics,
    indicators)`: each list holds the given records themselves, sorted by
    tick, and a stable sort keeps the records of a tick in file order. A
    run delivers the metrics of a tick before its indicators. No record
    is copied or wrapped: a run holds each record once, as the workload
    gave it, and a reference to it in one of the two lists.

    Each record is `[tick, subject, name, value]` with an int tick of at
    most TICK_LIMIT in absolute value and str subject and name. A metric
    value is a finite int or float, never a bool; an indicator value is
    free-form, but a float must be finite: JSON has no NaN or Infinity,
    and a numeric indicator feeds the rule engine. Raises
    ScenarioValidationError with one `workload:` problem per bad record;
    that `metrics` and `indicators` are lists is the scenario's shape.

    The check runs here, in the one pass the run makes over the records,
    rather than in `validate_scenario`: a workload holds thousands of
    records, and checking them costs more than the rest of a simulator's
    set-up."""
    problems = []
    for indicator, field_name, shape in (
            (False, "metrics",
             "[int tick, str subject, str metric, finite number]"),
            (True, "indicators",
             "[int tick, str vnf, str indicator, value (finite if a float)]")):
        for i, rec in enumerate(workload[field_name]):
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
    if problems:
        raise ScenarioValidationError(problems)
    tick = itemgetter(0)
    return (sorted(workload["metrics"], key=tick),
            sorted(workload["indicators"], key=tick))
