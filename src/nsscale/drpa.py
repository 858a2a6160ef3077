"""Scaling decision pipeline: demand estimation, candidate level filtering,
cost-optimal level selection, and infrastructure-site placement.

Every function here is pure over its input snapshots; a `LevelGraph` only
keeps what the descriptors determine and the selections made on the
snapshots it was given.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import NamedTuple

from .capacity import DIMENSIONS, ZERO, CapacityVector
from .descriptors import (
    CLASS_NONE, Catalog, Nsd, NsDeploymentFlavor, NsIlDelta,
    aggregate_capacity, ns_il_delta, vdu_capacity,
)
from .inventory import NoZoneFitsError, vim_placement
from .monitoring import MetricStore

ACTION_SCALE = "scale"

DEFAULT_TARGET_UTILIZATION = 0.6


class DrpaError(RuntimeError):
    pass


class NoFeasibleLevelError(DrpaError):
    """No level in the flavor can satisfy the estimated demand."""


class UnplaceableError(DrpaError):
    def __init__(self, item_key: str, shortfall: list):
        super().__init__("no site fits %s (short on %s)" % (item_key, shortfall))
        self.item_key = item_key
        self.shortfall = shortfall


class NoPlaceableCandidateError(DrpaError):
    def __init__(self, reasons: dict):
        super().__init__("no placeable candidate: %s" % reasons)
        self.reasons = reasons


@dataclass(frozen=True)
class CostModel:
    w_vcpu: float = 1.0
    w_memory: float = 1.0
    w_storage: float = 1.0
    w_bandwidth: float = 1.0

    def cost(self, capacity: CapacityVector) -> float:
        return (self.w_vcpu * capacity.vcpu + self.w_memory * capacity.memory
                + self.w_storage * capacity.storage
                + self.w_bandwidth * capacity.bandwidth)


class DemandEstimate(NamedTuple):
    required: CapacityVector


class PlacementItem(NamedTuple):
    """One resource addition to place: a new VNFC instance or a VL bitrate
    increase."""

    key: str
    spec: CapacityVector
    kind: str  # "vnfc" or "vl"
    profile_id: str = ""
    vdu_ref: str = ""
    new_instance_index: int = -1  # >= 0 when part of a whole new VNF instance
    retained_instance_index: int = -1  # >= 0 when scaling an existing instance
    vl_profile_id: str = ""
    anti_affinity: str = ""


class CandidateEval(NamedTuple):
    ns_il_id: str
    cost: float
    total_instances: int
    feasible: bool
    reason: str = ""
    placement: dict | None = None  # a feasible candidate's plan


class DrpaDecision(NamedTuple):
    action = ACTION_SCALE  # a class constant: every decision scales
    target_ns_il: str = ""
    classification: str = CLASS_NONE
    placement: dict | None = None  # the move's plan
    rationale: tuple = ()
    estimate: DemandEstimate | None = None
    verdicts: tuple = ()


def estimate_demand(verdicts: tuple, store: MetricStore,
                    current_capacity: CapacityVector,
                    target_utilization: float,
                    dimension_map: dict) -> DemandEstimate:
    """Linear utilization scaling: a violated dimension must end up at the
    target utilization given its observed load; other dimensions keep their
    current capacity.

    A violated dimension's requirement, utilization * capacity / target, is
    computed exactly over the decimal values the three numbers print as and
    rounded to float once, so 1.1 * 12 / 0.6 is exactly 22 and a level of
    22 covers it. Non-finite operands keep float arithmetic."""
    violated = set()
    for verdict in verdicts:
        violated |= set(verdict.violated_dimensions)
    required = current_capacity._asdict()
    for dim in DIMENSIONS:
        if dim in violated:
            utilization = _observed_utilization(store, dim, dimension_map)
            if utilization is not None:
                required[dim] = _exact_ratio(utilization, required[dim],
                                             target_utilization)
    return DemandEstimate(CapacityVector(**required))


def _exact_ratio(utilization, capacity, target) -> float:
    try:
        (nu, du), (nc, dc), (nt, dt) = (
            Decimal(str(x)).as_integer_ratio()
            for x in (utilization, capacity, target))
        return nu * nc * dt / (du * dc * nt)  # int / int rounds once
    except (ArithmeticError, ValueError):  # a non-finite operand or result
        return utilization * capacity / target


def _observed_utilization(store: MetricStore, dimension: str,
                          dimension_map: dict):
    """The largest newest value of the streams of `dimension`'s metrics,
    None without one."""
    return max((stream[-1] for (_, name), stream in store.streams().items()
                if dimension_map.get(name) == dimension), default=None)


def candidate_ns_ils(levels: LevelGraph, estimate: DemandEstimate,
                     direction: str, current: str,
                     cost_model: CostModel) -> list:
    """Levels able to carry the estimated demand, in declaration order.

    Scale-out excludes the current level; scale-in additionally requires a
    cost strictly below the current level's."""
    flavor = levels.flavor
    flavor.ns_il(current)  # raises UnknownLevelError for a bad current
    current_cost = cost_model.cost(levels.capacity(current))
    candidates = []
    for ns_il in flavor.ns_ils:
        if ns_il.id == current:
            continue
        capacity = levels.capacity(ns_il.id)
        if not capacity.covers(estimate.required):
            continue
        if direction == "scale-in" and cost_model.cost(capacity) >= current_cost:
            continue
        candidates.append(ns_il.id)
    if not candidates:
        raise NoFeasibleLevelError(
            "no %s level in flavor %s satisfies demand %s"
            % (direction, flavor.id, estimate.required.as_dict()))
    return candidates


def delta_additions(catalog: Catalog, flavor: NsDeploymentFlavor,
                    delta: NsIlDelta, constraints: dict | None = None,
                    vdus: dict | None = None) -> list:
    """Expand a level delta into concrete placement items (new VNFC
    instances and VL bitrate increases), profiles in id order. A delta from
    the empty level yields the items that instantiate its target level.
    `vdus` keeps each (profile id, VDU id)'s spec and label across calls."""
    anti = (constraints or {}).get("anti_affinity", {})
    vdus = {} if vdus is None else vdus
    items = []
    for pd in delta.profile_deltas:
        profile = flavor.profile(pd.profile_id)
        vnfd = catalog.vnfds[profile.vnfd_ref]
        batches = []  # (key tag, VDU counts, instance index field)
        if pd.il_changed and pd.retained > 0:
            # Each retained instance moves level in place.
            batches += [("scale%d" % e, pd.vnfc_add,
                         {"retained_instance_index": e})
                        for e in range(pd.retained)]
        if pd.count_delta > 0:
            counts = vnfd.flavor(profile.vnf_flavor_ref).il(pd.to_il).counts
            batches += [("inst%d" % j, counts, {"new_instance_index": j})
                        for j in range(pd.count_delta)]
        for tag, counts, index in batches:
            for vdu_id in sorted(counts):
                vdu_key = (pd.profile_id, vdu_id)
                if vdu_key not in vdus:
                    vdus[vdu_key] = (vdu_capacity(vnfd, vdu_id), anti.get(
                        vnfd.vdu(vdu_id).vnfc_name, anti.get(pd.profile_id, "")))
                spec, label = vdus[vdu_key]
                for i in range(counts[vdu_id]):
                    items.append(PlacementItem(
                        key="%s/%s/vnfc/%s/%d" % (pd.profile_id, tag, vdu_id, i),
                        spec=spec, kind="vnfc", profile_id=pd.profile_id,
                        vdu_ref=vdu_id, anti_affinity=label, **index))
    for vl_profile_id, (before, after) in sorted(delta.vl_changes.items()):
        if after > before:
            items.append(PlacementItem(
                key="vl/%s" % vl_profile_id,
                spec=CapacityVector(bandwidth=after - before),
                kind="vl", vl_profile_id=vl_profile_id,
            ))
    return items


class LevelGraph:
    """The instantiation levels of one NS deployment flavor and the moves
    between them: each level's aggregate capacity, each ordered pair's
    `NsIlDelta` and the placement items that delta adds, and each
    selection made on a capacity snapshot.

    Capacities, deltas and items depend only on the descriptors and the
    placement constraints, which do not change during a run, so each entry
    is derived on first use and kept. `selections` keeps what
    `select_optimum` derives from a snapshot, the current level, the
    candidates and the cost model alone: the chosen level, the move's
    classification and plan and the tuple of `CandidateEval`s, or the
    reasons no candidate is placeable. A repeated decision builds no
    evaluation and makes no plan, and the decisions made from one
    selection share its rationale. Nothing is derived up front: a run
    visits only some of the ordered pairs. A move from None, the empty
    level, instantiates its target. Returned values are shared between
    callers, who must not mutate them (their count maps and plans are
    dicts)."""

    def __init__(self, catalog: Catalog, nsd: Nsd, flavor: NsDeploymentFlavor,
                 constraints: dict | None = None):
        self.catalog = catalog
        self.nsd = nsd
        self.flavor = flavor
        self.constraints = constraints
        self._capacity = {}  # level id -> CapacityVector
        self._delta = {}  # (from, to) -> NsIlDelta
        self._additions = {}  # (from, to) -> tuple of PlacementItem
        self._vdus = {}  # (profile id, VDU id) -> (spec, anti-affinity label)
        # (snapshot tuple, current, candidates tuple, cost model) ->
        # DrpaDecision with no estimate or verdicts | {level: reason}
        self.selections = {}

    @property
    def nodes(self) -> list:
        """Level ids in declaration order."""
        return [il.id for il in self.flavor.ns_ils]

    def capacity(self, ns_il_id: str) -> CapacityVector:
        capacity = self._capacity.get(ns_il_id)
        if capacity is None:
            capacity = self._capacity[ns_il_id] = aggregate_capacity(
                self.catalog, self.flavor, ns_il_id)
        return capacity

    def delta(self, from_il: str | None, to_il: str) -> NsIlDelta:
        delta = self._delta.get((from_il, to_il))
        if delta is None:
            delta = self._delta[from_il, to_il] = ns_il_delta(
                self.catalog, self.flavor, from_il, to_il)
        return delta

    def additions(self, from_il: str | None, to_il: str) -> tuple:
        items = self._additions.get((from_il, to_il))
        if items is None:
            items = self._additions[from_il, to_il] = tuple(delta_additions(
                self.catalog, self.flavor, self.delta(from_il, to_il),
                self.constraints, self._vdus))
        return items


def plan_placement(items, snapshot: list) -> dict:
    """Map each item's key to the `ZoneReport` of `snapshot`, a
    `capacity_report`, in which the VIM's own zone rule (`vim_placement`)
    counts it: a zone of the first PoP, in id order, that fits the item
    after the items placed before it. Items sharing an anti-affinity label
    land on distinct PoPs. The record names the item's PoP, VIM and zone:
    the only zone choice, in which the workflow then reserves and
    allocates the item. The snapshot is left unchanged."""
    zones_of = {}  # pop id -> its zones, in the snapshot's pop id order
    for zone in snapshot:
        zones_of.setdefault(zone.pop_id, []).append(zone)
    pending = {pop_id: {} for pop_id in zones_of}  # pop id -> zone id -> spec
    label_pops = {}  # anti-affinity label -> pop ids already used
    plan = {}
    for item in items:
        used = label_pops.get(item.anti_affinity, ())
        shortfalls = []
        for pop_id, zones in zones_of.items():
            if pop_id in used:
                continue
            placed = pending[pop_id]
            try:
                zone = vim_placement(zones, item.spec, pending=placed)
            except NoZoneFitsError as exc:
                shortfalls.append(exc.shortfall)
                continue
            placed[zone.id] = placed.get(zone.id, ZERO) + item.spec
            plan[item.key] = zone
            if item.anti_affinity:
                label_pops.setdefault(item.anti_affinity, set()).add(pop_id)
            break
        else:
            shortfall = min(shortfalls, key=len, default=())
            raise UnplaceableError(item.key, shortfall or ["anti-affinity"])
    return plan


def _total_instances(flavor: NsDeploymentFlavor, ns_il_id: str) -> int:
    ns_il = flavor.ns_il(ns_il_id)
    return sum(count for _, count in ns_il.vnf_entries.values())


def select_optimum(levels: LevelGraph, candidates: list,
                   cost_model: CostModel, snapshot: list, current: str,
                   estimate: DemandEstimate | None = None,
                   verdicts: tuple = ()) -> DrpaDecision:
    """Minimum weighted-capacity cost among placeable candidates for the
    move from `current`. Ties break on fewest total VNF instances, then
    declaration order.

    Every candidate is placed by `plan_placement` against `snapshot`, a
    `capacity_report` of the PoPs; `levels` keeps the selection, so the
    same choice asked again on an equal snapshot reuses it."""
    snapshot = tuple(snapshot)
    key = (snapshot, current, tuple(candidates), cost_model)
    selection = levels.selections.get(key)
    if selection is None:
        selection = levels.selections[key] = _select(
            levels, candidates, cost_model, snapshot, current)
    if isinstance(selection, dict):
        raise NoPlaceableCandidateError(selection)
    return with_estimate(selection, estimate, tuple(verdicts))


def with_estimate(decision: DrpaDecision, estimate: DemandEstimate | None,
                  verdicts: tuple) -> DrpaDecision:
    """`decision` with `estimate` and `verdicts`. Built by the constructor:
    `_replace` builds a plain tuple first, and each call leaves it on the
    interpreter's tuple free list."""
    return DrpaDecision(decision.target_ns_il, decision.classification,
                        decision.placement, decision.rationale, estimate,
                        verdicts)


def _select(levels: LevelGraph, candidates: list, cost_model: CostModel,
            snapshot: tuple, current: str):
    """`select_optimum`'s choice with no estimate or verdicts, or the
    reasons no candidate is placeable."""
    flavor = levels.flavor
    order = {il.id: i for i, il in enumerate(flavor.ns_ils)}
    evaluations = []
    for ns_il_id in candidates:
        cost = cost_model.cost(levels.capacity(ns_il_id))
        instances = _total_instances(flavor, ns_il_id)
        try:
            plan = plan_placement(levels.additions(current, ns_il_id),
                                  snapshot)
        except UnplaceableError as exc:
            evaluations.append(CandidateEval(ns_il_id, cost, instances, False,
                                             reason=str(exc)))
        else:
            evaluations.append(CandidateEval(ns_il_id, cost, instances, True,
                                             placement=plan))
    feasible = [e for e in evaluations if e.feasible]
    if not feasible:
        return {e.ns_il_id: e.reason for e in evaluations}
    best = min(feasible,
               key=lambda e: (e.cost, e.total_instances, order[e.ns_il_id]))
    return DrpaDecision(
        target_ns_il=best.ns_il_id,
        classification=levels.delta(current, best.ns_il_id).classification,
        placement=best.placement,
        rationale=tuple(evaluations),
    )


def decide(levels: LevelGraph, verdicts: tuple, current: str,
           store: MetricStore, cost_model: CostModel,
           target_utilization: float, snapshot: list,
           dimension_map: dict) -> DrpaDecision:
    """Full pipeline for an NS at level `current` of the flavor `levels`
    describes: rule verdicts -> demand -> candidates -> optimum, placed
    against `snapshot`, a `capacity_report` of the PoPs. It is called only
    once a rule fired: some verdict of `verdicts` is not satisfied."""
    hints = {rule.id: rule.direction_hint
             for rule in levels.nsd.auto_scaling_rules}
    fired = [v for v in verdicts if not v.satisfied]
    if any(hints.get(v.rule_id) == "scale-out" for v in fired):
        direction = "scale-out"
    else:
        direction = "scale-in"
    estimate = estimate_demand(tuple(fired), store, levels.capacity(current),
                               target_utilization, dimension_map)
    candidates = candidate_ns_ils(levels, estimate, direction, current,
                                  cost_model)
    return select_optimum(levels, candidates, cost_model, snapshot, current,
                          estimate=estimate, verdicts=tuple(verdicts))
