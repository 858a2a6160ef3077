"""Deterministic simulation of the MANO functional blocks (NFVO, VNFM, VIM,
EM) executing the VNF-scaling and add/remove-VNF procedures.

Logical time: every message delivery costs one tick; processing is
instantaneous. The run is strictly single-threaded, so identical
scenarios produce byte-identical traces.
"""

from __future__ import annotations

import itertools
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple

from . import drpa as drpa_mod
from .capacity import CapacityVector
from .descriptors import ns_il_delta  # unused here; the tracer wraps it
from .inventory import (
    ADD_INSTANCES_STOPPED, DELETE_INSTANCES, MARK_STARTED, MARK_STOPPED,
    SET_VNF_IL, STARTED, STOPPED, InventoryError,
    NS_INSTANTIATED, VnfcInstance, VnfInfo, capacity_report,
    record_vnf_info_update,
    vim_placement,  # unused here; the benchmark's tracer wraps this name
)
from .monitoring import (
    PERF_INFO_AVAILABLE, THRESHOLD_CROSSED, VNF_INDICATOR_CHANGE,
    MetricSample, MetricStore, RuleVerdict, UndeclaredIndicatorError,
    evaluate_rules, indicator_change,
)
from .scenario import (
    Scenario, ScenarioValidationError, build_topology,
    validate_scenario, workload_records,
)
from .shapes import by_id
from .trace import (
    Trace, capacity_text, object_form, payload_digest, string_text,
    strings_text,
)

STATUS_COMPLETED = "completed"
STATUS_OPERATION_FAILED = "operation-failed"

PHASE_COMPLETED = "completed"
PHASE_FAILED = "failed"

# a verdict's `satisfied` read by index, cheaper than the field's property
_SATISFIED = itemgetter(RuleVerdict._fields.index("satisfied"))


class Arrow(NamedTuple):
    """One message of the workflow: the paper's step number, None for a
    message outside the numbered steps, and the name the trace gives it."""
    step: int | None
    message: str


# The paper's scaling workflow, in step order: the one home of its step
# numbers and of its payloads' keys. After each message come the forms
# (`object_form`) of the payload shapes it is the first to send; a comment
# names an earlier form it reuses. Steps 15, 19, 24 and 28 are repository
# updates, VNF_INFO_CHANGES.
PERF_INFO = Arrow(1, PERF_INFO_AVAILABLE)
THRESHOLD = Arrow(2, THRESHOLD_CROSSED)
INDICATOR = Arrow(3, VNF_INDICATOR_CHANGE)
DRPA_DECISION = Arrow(4, "DrpaDecision")
DECISION_FORM = object_form("action", "classification", "target_ns_il")
DECISION_ERROR_FORM = object_form("action", "reason")
SCALE_REQUEST = Arrow(5, "ScaleVnfToLevelRequest")
SCALE_LEVEL_FORM = object_form("new_vnf_il", "op_id", "vnf_instance")
SCALE_NEW_FORM = object_form("new_instance", "new_vnf_il", "op_id",
                             "vnf_instance")
SCALE_REMOVE_FORM = object_form("op_id", "remove_instance", "vnf_instance")
SCALE_RESPONSE = Arrow(5, "ScaleVnfToLevelResponse")
OP_FORM = object_form("op_id")
GRANT_REQUEST = Arrow(6, "GrantRequest")
GRANT_FORM = object_form("intent", "internal_vl_ids", "op_id", "vdu_ids")
RESERVE_REQUEST = Arrow(7, "ReserveRequest")
RESERVE_FORM = object_form("items", "kind", "op_id")
RESERVE_ITEM_FORM = object_form("anti_affinity", "key", "pop", "spec")
VIM_PLACEMENT = Arrow(8, "VimPlacement")
PLACEMENT_FORM = object_form("kind", "op_id", "zones")
PLACEMENT_ZONE_FORM = object_form("key", "zone")
RESERVE_RESPONSE = Arrow(9, "ReserveResponse")
RESERVED_FORM = object_form("kind", "op_id", "reservation_ids")
RESERVE_ERROR_FORM = object_form("error", "kind", "op_id")
GRANT_RESPONSE = Arrow(10, "GrantResponse")
GRANTED_FORM = object_form("granted", "op_id", "vim_connectivity")
GRANTED_RESERVED_FORM = object_form("granted", "op_id", "reservation_ids",
                                    "vim_connectivity")
ALLOCATE_REQUEST = Arrow(11, "AllocateRequest")
ALLOCATE_RESERVED_FORM = object_form("kind", "op_id", "reservation_id")
ALLOCATE_SPEC_FORM = object_form("anti_affinity", "kind", "op_id", "pop",
                                 "spec")
RESOURCE_ALLOCATION = Arrow(12, "ResourceAllocation")
ALLOCATION_FORM = object_form("handle", "kind", "op_id", "zone")
ALLOCATE_RESPONSE = Arrow(13, "AllocateResponse")
ALLOCATED_FORM = object_form("handles", "kind", "op_id")
CONFIGURE_VNFC = Arrow(14, "ConfigureVnfc")
INSTANCES_FORM = object_form("instance_ids")
START_REQUEST = Arrow(16, "OperateVnfRequest")
OPERATE_FORM = object_form("instance_ids", "op_id", "target_state")
START_GRANT = Arrow(17, "OperateVnfGrant")  # OP_FORM
START_CONFIGURE = Arrow(18, "AppConfigure")  # INSTANCES_FORM, and
RECONFIGURE_FORM = object_form("instance_ids", "reconfigure")
RELEASE_GRANT_REQUEST = Arrow(20, "GrantRequest")
RELEASE_GRANT_FORM = object_form("instance_ids", "intent", "op_id")
RELEASE_GRANT_RESPONSE = Arrow(20, "GrantResponse")
RELEASE_GRANTED_FORM = object_form("granted", "op_id")
STOP_REQUEST = Arrow(21, "OperateVnfRequest")  # OPERATE_FORM
STOP_GRANT = Arrow(22, "OperateVnfGrant")  # OP_FORM
STOP_CONFIGURE = Arrow(23, "AppConfigure")
SHUTDOWN_FORM = object_form("instance_ids", "shutdown")
RELEASE_REQUEST = Arrow(25, "ReleaseRequest")
HANDLES_FORM = object_form("handles", "op_id")
RESOURCE_DELETION = Arrow(26, "ResourceDeletion")  # HANDLES_FORM
RESOURCE_UPDATE = Arrow(26, "ResourceUpdate")  # a VL handle shrunk in place
UPDATE_FORM = object_form("handle", "op_id", "spec")
RELEASE_RESPONSE = Arrow(27, "ReleaseResponse")  # HANDLES_FORM
OPERATION_FAILED = Arrow(None, "OperationFailed")
FAILED_FORM = object_form("op_id", "reason", "step")

# VnfInfo change -> the event of its repository update.
VNF_INFO_CHANGES = {
    ADD_INSTANCES_STOPPED: Arrow(15, "VnfInfoUpdate"),
    MARK_STARTED: Arrow(19, "VnfInfoUpdate"),
    SET_VNF_IL: Arrow(19, "VnfInfoUpdate"),
    MARK_STOPPED: Arrow(24, "VnfInfoUpdate"),
    DELETE_INSTANCES: Arrow(28, "VnfInfoUpdate"),
}
VNF_INFO_FORM = object_form("change", "step", "vnf_instance")

# The text `final_state` writes for an audit step, shared by its entries.
_AUDIT_STEP_TEXTS = {step: str(step) for step in (
    "instantiation", *(arrow.step for arrow in VNF_INFO_CHANGES.values()))}


class OperationFailure(RuntimeError):
    def __init__(self, step: int, reason: str):
        super().__init__("step %d: %s" % (step, reason))
        self.step = step
        self.reason = reason


def _write(arrow: Arrow, write, *args):
    """Make one zone write of an operation, the write that `arrow`'s event
    announces; a zone's refusal fails the operation at that step."""
    try:
        return write(*args)
    except InventoryError as exc:
        raise OperationFailure(arrow.step, str(exc))


@dataclass(slots=True)
class ScalingOperation:
    """One scaling operation: the events of `trace` from position `begun`
    up to `end`, which is None while it runs."""
    op_id: str
    kind: str
    trace: Trace = field(repr=False)
    begun: int
    end: int | None = None
    failed_step: int | None = None
    error: str = ""

    @property
    def phase(self) -> str:
        return PHASE_COMPLETED if self.failed_step is None else PHASE_FAILED

    @property
    def step_log(self) -> list:
        """The (step, tick) of every numbered event the operation sent,
        read from the trace."""
        return self.trace.step_log(self.begun, self.end)


# A demand estimate's parts, as a `DecisionLog` holds them: the required
# capacity's components.
_ESTIMATE_PARTS = len(CapacityVector._fields)
_KEPT = 255  # the kind of an estimate a `DecisionLog` keeps as its object


def _parts_kind(parts: tuple) -> int:
    """Which of a demand estimate's `parts` are ints, bit j for part j,
    when each reads back from a float as itself: a float other than NaN,
    or an int of at most 53 bits. Else, and for no parts (an error has no
    estimate), `_KEPT`."""
    kind = 0 if parts else _KEPT
    for j, part in enumerate(parts):
        if type(part) is int and -2 ** 53 <= part <= 2 ** 53:
            kind |= 1 << j
        elif type(part) is not float or part != part:
            return _KEPT
    return kind


class DecisionLog:
    """A run's DRPA decisions, held as columns as `Trace` holds events:
    the tick of each, in an `array("q")`; its row, in an `array("I")`, in
    the table of the distinct decisions less their estimate (a scaling
    decision with its verdicts, whose selection the `LevelGraph` shares
    between decisions, or a DRPA error's text); and its `DemandEstimate`,
    as the four components of its required capacity in an `array("d")`
    with, in an `array("B")`, a bit for each that is an int. An estimate
    that a float would not give back, and an error's None, is kept as its
    object. That is 45 bytes per decision. `append` takes a `(tick,
    DrpaDecision | str)` pair, as a list's does; iterating the log yields
    each pair appended, in order, equal to it and each estimate part of
    its type."""

    __slots__ = ("_ticks", "_rows", "_parts", "_kinds", "_kept", "_row_ids",
                 "_row_table")

    def __init__(self):
        self._ticks = array("q")
        self._rows = array("I")
        self._parts = array("d")  # _ESTIMATE_PARTS per decision
        self._kinds = array("B")
        self._kept = {}  # position -> estimate, where its kind is _KEPT
        # a decision's fields but its estimate, its placement and rationale
        # by identity (the table keeps them alive) -> its row
        self._row_ids = {}
        self._row_table = []  # [DrpaDecision with no estimate | error text]

    def append(self, entry: tuple):
        tick, decision = entry
        if isinstance(decision, str):
            key, estimate = decision, None
        else:
            key = (*decision[:2], id(decision.placement),
                   id(decision.rationale), decision.verdicts)
            estimate = decision.estimate
        row = self._row_ids.get(key)
        if row is None:
            row = self._row_ids[key] = len(self._row_table)
            self._row_table.append(decision if estimate is None else
                                   drpa_mod.with_estimate(
                                       decision, None, decision.verdicts))
        parts = () if estimate is None else tuple(estimate.required)
        kind = _parts_kind(parts)
        if kind == _KEPT:
            self._kept[len(self)] = estimate
            parts = (0.0,) * _ESTIMATE_PARTS
        self._parts.extend(parts)
        self._ticks.append(tick)
        self._rows.append(row)
        self._kinds.append(kind)

    def __len__(self) -> int:
        return len(self._ticks)

    def _estimate(self, i: int):
        kind = self._kinds[i]
        if kind == _KEPT:
            return self._kept[i]
        at = _ESTIMATE_PARTS * i
        parts = [int(part) if kind >> j & 1 else part for j, part in
                 enumerate(self._parts[at:at + _ESTIMATE_PARTS])]
        return drpa_mod.DemandEstimate(CapacityVector(*parts))

    def __iter__(self):
        for i, row in enumerate(self._rows):
            decision = self._row_table[row]
            if not isinstance(decision, str):
                decision = drpa_mod.with_estimate(
                    decision, self._estimate(i), decision.verdicts)
            yield self._ticks[i], decision


@dataclass
class RunResult:
    """A finished run. Each VNFC lifecycle transition is the VnfInfo
    update that made it: its trace event and its entry in the VNF's
    audit. Each decision the DRPA returned, or the text of the error it
    raised, is a `(tick, DrpaDecision | str)` pair of `decisions`."""
    trace: Trace
    final_state: dict
    operations: list
    decisions: DecisionLog
    failure_reason: str = ""  # the last failed operation's failure

    @property
    def status(self) -> str:
        return STATUS_OPERATION_FAILED if self.failure_reason \
            else STATUS_COMPLETED


class Simulator:
    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        catalog, problems = validate_scenario(scenario)
        if problems:
            raise ScenarioValidationError(problems)
        self.catalog = catalog
        init = scenario.initial_instance
        self.nsd = catalog.nsds[init["nsd_ref"]]
        self.flavor = self.nsd.flavor(init["flavor_ref"])

        vim_ids, self.pops = build_topology(scenario.topology)
        self.vim_actor = {vid: "VIM-%d" % i for i, vid in enumerate(vim_ids)}
        self.vnfm_actor = {}
        self.em_actor = {}
        for i, vnfd_ref in enumerate(self.nsd.vnfd_refs):
            self.vnfm_actor[vnfd_ref] = "VNFM-%d" % i
            self.em_actor[vnfd_ref] = "EM-%d" % i
        self.nfvo = "NFVO-0"
        # monitored (subject, name) -> the actor that sends its samples: the
        # subject's VNFM, else the first VIM
        vim = next(iter(self.vim_actor.values()), "VIM-0")
        self._metric_senders = {
            (item.subject, item.name): self.vnfm_actor.get(item.subject, vim)
            for item in self.nsd.monitored_info}

        rules, options = scenario.rules, scenario.options
        self.store = MetricStore(self.nsd.monitored_info, rules["thresholds"])
        self.dimension_map = rules["metric_dimensions"]
        self.cost_model = options["cost_weights"]
        # Filled as decisions need it; building it derives nothing.
        self.levels = drpa_mod.LevelGraph(catalog, self.nsd, self.flavor,
                                          rules["placement_constraints"])
        self.target_utilization = float(options["target_utilization"])
        self.reservation_enabled = options["reservation_enabled"]

        self.current_ns_il = init["ns_il_ref"]
        # vnf instance id -> VnfInfo, the one registry of VNF instances; in
        # creation order, so a profile's newest instance is its last entry
        self.vnf_infos = {}
        self.vl_handles = {}  # vl profile id -> [(pop_id, zone, handle)]

        self.trace = Trace()
        self.operations = []
        self.decisions = DecisionLog()
        self._clock = 0
        self._instance_counter = itertools.count(1)
        self._cooldown_state = {}
        self._verdict_cache = {}  # evaluate_rules' reuse of unchanged verdicts
        self._failure = ""
        # vnf instance id -> VNFC id suffixes; removals leave holes, so an
        # instance count is not a safe suffix
        self._vnfc_counters = defaultdict(lambda: itertools.count(1))

        self._instantiate_initial()

    # -- low-level event machinery -----------------------------------------

    def _emit(self, src: str, dst: str, arrow: Arrow, text: str):
        """Record the event of a message, a notification or a workflow
        message alike, whose payload is the canonical JSON `text`. Every
        event is recorded here."""
        self._clock += 1
        self.trace.append(self._clock, arrow, src, dst, payload_digest(text))

    _pop = by_id("pops")

    # -- initial instantiation ---------------------------------------------

    def _instantiate_initial(self):
        """Allocate the initial NS level. Pre-run setup: consumes capacity
        and populates repositories but emits no workflow messages. The
        level is planned as the move from the empty level, like every
        decision's move, and each item is then allocated in the zone the
        plan counted it in. New VNF instances are created, and their VNFCs
        allocated, in the flavor's profile order; the plan lists profiles
        by id."""
        level = self.current_ns_il
        deltas = {pd.profile_id: pd
                  for pd in self.levels.delta(None, level).profile_deltas}
        items = self.levels.additions(None, level)
        vnfc_items = defaultdict(list)  # (profile id, new instance) -> items
        for item in items:
            if item.kind == "vnfc":
                vnfc_items[item.profile_id, item.new_instance_index].append(
                    item)
        try:
            plan = drpa_mod.plan_placement(items, capacity_report(self.pops))
            for profile in self.flavor.vnf_profiles:
                pd = deltas.get(profile.id)
                for j in range(pd.count_delta if pd else 0):
                    vnf_id = self._new_vnf(profile, plan,
                                           vnfc_items[profile.id, j])
                    instances = []
                    for item in vnfc_items[profile.id, j]:
                        pop, zone = self._planned_zone(plan, item)
                        compute = zone.allocate(
                            item.spec.restricted("compute"), "compute")
                        storage = item.spec.restricted("storage")
                        instances.append(VnfcInstance(
                            self._new_vnfc_id(vnf_id), item.vdu_ref, STARTED,
                            compute, () if storage.is_zero()
                            else (zone.allocate(storage, "storage"),),
                            zone.id, pop.id))
                    info = self.vnf_infos[vnf_id]
                    self.vnf_infos[vnf_id] = VnfInfo(
                        info.vnfd_ref, info.vnf_flavor_ref, tuple(instances),
                        info.vim_ref, info.audit, info.profile_ref)
            for item in items:
                if item.kind == "vl":
                    pop, zone = self._planned_zone(plan, item)
                    self.vl_handles.setdefault(item.vl_profile_id, []).append(
                        (pop.id, zone, zone.allocate(item.spec, "network")))
        except (drpa_mod.UnplaceableError, InventoryError) as exc:
            raise ScenarioValidationError(
                ["initial instantiation: %s" % exc])

    def _planned_zone(self, plan, item) -> tuple:
        """The PoP and the zone in which `plan` counted `item`."""
        site = plan[item.key]
        pop = self._pop(site.pop_id)
        return pop, pop.zone(site.id)

    # -- main loop ----------------------------------------------------------

    def run(self, workload: tuple | None = None) -> RunResult:
        """Deliver the workload and return the outcome. A malformed
        workload record raises ScenarioValidationError before any event; a
        metric record the NSD does not monitor, or an indicator record
        with an unknown subject or indicator, when it is delivered.
        `workload` is the scenario's `workload_records`, when the caller
        has already taken them. The two lists are merged as they are
        delivered, the metrics of a tick before its indicators: a run
        holds no list or tuple per record beyond them.

        The delivery order may be given in pieces: `run((metrics[:m],
        indicators[:i]))` and then `run((metrics[m:], indicators[i:]))`,
        where `m` and `i` count the metrics and the indicators delivered
        before the cut, end with the trace, final state, operations and
        decisions of one whole run. Each call returns the run so far."""
        if workload is None:
            workload = workload_records(self.scenario.workload)
        metrics, indicators = workload
        pending = iter(indicators)
        waiting = next(pending, None)  # the next indicator to deliver
        for record in metrics:
            while waiting is not None and waiting[0] < record[0]:
                self._deliver_indicator(waiting)
                waiting = next(pending, None)
            self._deliver_metric(record)
        while waiting is not None:
            self._deliver_indicator(waiting)
            waiting = next(pending, None)
        return RunResult(self.trace, self.final_state(), self.operations,
                         self.decisions, failure_reason=self._failure)

    def _where(self, kind: str, record) -> str:
        """The head of an error in `record`, one of the workload's `kind`
        records: its place in the file, found by identity, and its tick."""
        index = next(i for i, given in enumerate(self.scenario.workload[kind])
                     if given is record)
        return "workload: %s[%d] at tick %d: " % (kind, index, record[0])

    def _deliver_metric(self, record):
        """`record`'s `(subject, metric)` is an item of the NSD's
        monitored info."""
        tick, subject, metric, value = record
        src = self._metric_senders.get((subject, metric))
        if src is None:
            raise ScenarioValidationError(
                [self._where("metrics", record) + "metric %r of subject %r "
                 "is not monitored by NSD %r" % (metric, subject,
                                                 self.nsd.id)])
        if tick > self._clock:
            self._clock = tick
        for note in self.store.ingest(tuple.__new__(
                MetricSample, (tick, subject, metric, value))):
            arrow = PERF_INFO if note.variant == PERF_INFO_AVAILABLE \
                else THRESHOLD
            self._emit(src, self.nfvo, arrow, note.payload)
            self._on_notification(note)

    def _deliver_indicator(self, record):
        """`record`'s subject is a VNFD of the NSD or a VNF instance that
        exists at its tick."""
        tick, subject, indicator, value = record
        self._clock = max(self._clock, tick)
        info = self.vnf_infos.get(subject)
        vnfd_ref = subject if subject in self.em_actor else \
            info.vnfd_ref if info is not None else None
        if vnfd_ref is None:
            raise ScenarioValidationError(
                [self._where("indicators", record) + "subject %r is neither "
                 "a VNFD of the NSD nor a VNF instance" % subject])
        em = self.em_actor[vnfd_ref]
        try:
            note = indicator_change(self.catalog.vnfds[vnfd_ref], subject,
                                    indicator, value, tick)
        except UndeclaredIndicatorError as exc:
            raise ScenarioValidationError(
                [self._where("indicators", record) + str(exc)])
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            # numeric indicators feed the rule engine like any metric
            self.store.ingest(tuple.__new__(
                MetricSample, (tick, vnfd_ref, indicator, value)))
        vnfm = self.vnfm_actor[vnfd_ref]
        self._emit(em, vnfm, INDICATOR, note.payload)
        self._emit(vnfm, self.nfvo, INDICATOR, note.payload)
        self._on_notification(note)

    def _on_notification(self, note):
        now = note.time
        verdicts = evaluate_rules(self.nsd.auto_scaling_rules, self.store, now,
                                  self.dimension_map, self._cooldown_state,
                                  self._verdict_cache)
        if all(map(_SATISFIED, verdicts)):
            return
        try:
            decision = drpa_mod.decide(
                self.levels, verdicts, self.current_ns_il, self.store,
                self.cost_model, self.target_utilization,
                capacity_report(self.pops), self.dimension_map)
        except drpa_mod.DrpaError as exc:
            self._emit(self.nfvo, self.nfvo, DRPA_DECISION,
                       DECISION_ERROR_FORM % ('"error"',
                                              string_text(str(exc))))
            self.decisions.append((now, str(exc)))
            return
        self._emit(self.nfvo, self.nfvo, DRPA_DECISION, DECISION_FORM % (
            string_text(decision.action), string_text(decision.classification),
            string_text(decision.target_ns_il)))
        self.decisions.append((now, decision))
        self._execute_decision(decision)

    # -- procedure execution -------------------------------------------------

    def _execute_decision(self, decision):
        move = (self.current_ns_il, decision.target_ns_il)
        delta = self.levels.delta(*move)
        # Every VNFC and VL addition of the operation, each placed by `plan`.
        items = self.levels.additions(*move)
        plan = decision.placement
        # Operations are only ever appended, so their count numbers them.
        op = ScalingOperation("op-%d" % (len(self.operations) + 1),
                              delta.classification, self.trace,
                              len(self.trace))
        self.operations.append(op)
        saved = self._checkpoint()
        try:
            # VL increases ride the first sub-procedure that can allocate,
            # decreases the first that can release; NS-level VLs are the
            # NFVO's, so it exchanges a leftover with the VIMs itself.
            vl_inc = [i for i in items if i.kind == "vl"]
            vl_dec = {k: v for k, v in delta.vl_changes.items() if v[1] < v[0]}

            def take(pool):
                taken = pool.copy()
                pool.clear()
                return taken

            op_id = string_text(op.op_id)
            for pd in delta.profile_deltas:
                profile = self.flavor.profile(pd.profile_id)
                vnf_ids = [vnf_id for vnf_id, info in self.vnf_infos.items()
                           if info.profile_ref == profile.id]
                # A profile the target level leaves out has no `to_il`; it
                # only loses instances.
                for e in range(pd.retained if pd.il_changed else 0):
                    # A retained instance changes level in place.
                    self._vnf_procedure(
                        op, plan, vnf_ids[e], SCALE_LEVEL_FORM % (
                            string_text(pd.to_il), op_id,
                            string_text(vnf_ids[e])),
                        [i for i in items if i.profile_id == profile.id
                         and i.retained_instance_index == e],
                        take(vl_inc), take(vl_dec), pd.vnfc_remove)
                for j in range(pd.count_delta):
                    vnfc_items = [i for i in items
                                  if i.profile_id == profile.id
                                  and i.new_instance_index == j]
                    vnf_id = self._new_vnf(profile, plan, vnfc_items)
                    self._vnf_procedure(
                        op, plan, vnf_id, SCALE_NEW_FORM % (
                            "true", string_text(pd.to_il), op_id,
                            string_text(vnf_id)),
                        vnfc_items, take(vl_inc), {}, {})
                for _ in range(-pd.count_delta):
                    # A shrinking profile loses its newest instances.
                    vnf_id = vnf_ids.pop()
                    self._vnf_procedure(
                        op, plan, vnf_id, SCALE_REMOVE_FORM % (
                            op_id, "true", string_text(vnf_id)),
                        [], [], take(vl_dec), None)
            reservations = {}
            if vl_inc and self.reservation_enabled:
                reservations = self._reservation_subphase(op, plan, vl_inc)
            self._creation_subphase(op, plan, self.nfvo, vl_inc, reservations)
            self._release(op, self.nfvo, [], vl_dec)
            self.current_ns_il = decision.target_ns_il
        except OperationFailure as exc:
            self._restore(saved)
            op.failed_step = exc.step
            op.error = exc.reason
            self._failure = str(exc)
            self._emit(self.nfvo, self.nfvo, OPERATION_FAILED, FAILED_FORM % (
                string_text(op.op_id), string_text(op.error), op.failed_step))
        finally:
            op.end = len(self.trace)

    def _checkpoint(self) -> tuple:
        """What an operation may change, apart from id counters and the
        run's history: zone accounting, the VNF instances and the VL
        handles. VnfInfo and handle entries are immutable, so copying the
        containers is enough."""
        return (
            [(zone, zone.checkpoint()) for pop in self.pops
             for zone in pop.zones],
            dict(self.vnf_infos),
            {pid: list(entries) for pid, entries in self.vl_handles.items()},
        )

    def _restore(self, saved: tuple):
        """Undo a failed operation: `final_state` reads as before it. Id
        counters are not rewound, and the trace keeps the failed
        operation's history."""
        zones, self.vnf_infos, self.vl_handles = saved
        for zone, checkpoint in zones:
            zone.restore(checkpoint)

    def _vnf_procedure(self, op, plan, vnf_id, request, items,
                       vl_increases, vl_decreases, drop):
        """One VNF instance's part of an operation: allocation of its VNFC
        `items` and of `vl_increases` before release of the VNFCs `drop`
        counts per VDU and of `vl_decreases`, so that new VNFCs run before
        old ones stop. `drop` None deletes the instance with all its VNFCs.
        `request` is the text of the ScaleVnfToLevelRequest that names the
        change."""
        vnfd_ref = self.vnf_infos[vnf_id].vnfd_ref
        vnfm = self.vnfm_actor[vnfd_ref]
        em = self.em_actor[vnfd_ref]
        self._emit(self.nfvo, vnfm, SCALE_REQUEST, request)
        self._emit(vnfm, self.nfvo, SCALE_RESPONSE,
                   OP_FORM % string_text(op.op_id))

        release = drop is None or bool(drop) or bool(vl_decreases)
        new_ids = []
        if items or vl_increases:
            new_ids = self._allocation_phase(op, plan, vnfm, em, vnf_id,
                                             items, vl_increases)
        if not (release or new_ids):
            # No VNFC starts or stops: the level changes by itself.
            self._update_vnf_info(vnf_id, SET_VNF_IL)
        if release:
            if drop is None:
                remove_ids = [inst.id for inst in
                              self.vnf_infos[vnf_id].vnfc_instances]
            else:
                remove_ids = self._select_removals(vnf_id, drop, new_ids)
            self._release_phase(op, vnfm, em, vnf_id, remove_ids,
                                vl_decreases, delete_vnf=drop is None)

    # -- allocation phase ----------------------------------------------------

    def _allocation_phase(self, op, plan, vnfm, em, vnf_id, vnfc_items,
                          vl_items) -> list:
        items = list(vnfc_items) + list(vl_items)
        op_id = string_text(op.op_id)
        self._emit(vnfm, self.nfvo, GRANT_REQUEST, GRANT_FORM % (
            '"allocate"',
            strings_text(sorted(i.vl_profile_id for i in vl_items)), op_id,
            strings_text(sorted(i.vdu_ref for i in vnfc_items))))

        vims = strings_text(sorted({site.vim_ref for site in plan.values()}))
        if self.reservation_enabled:
            # (item key, kind) -> reservation id
            reservations = self._reservation_subphase(op, plan, items)
            grant = GRANTED_RESERVED_FORM % ("true", op_id, strings_text(
                sorted(reservations.values())), vims)
        else:
            reservations = {}
            grant = GRANTED_FORM % ("true", op_id, vims)
        self._emit(self.nfvo, vnfm, GRANT_RESPONSE, grant)

        allocated = self._creation_subphase(op, plan, vnfm, items,
                                            reservations)

        new_instances = []
        for item in vnfc_items:
            compute, storage, zone, pop_id = allocated[item.key]
            new_instances.append(VnfcInstance(
                id=self._new_vnfc_id(vnf_id),
                vdu_ref=item.vdu_ref, state=STOPPED,
                compute_handle=compute, storage_handles=storage,
                zone_ref=zone.id, pop_ref=pop_id))
        new_ids = [inst.id for inst in new_instances]

        if new_instances:
            new_text = strings_text(new_ids)
            self._emit(vnfm, em, CONFIGURE_VNFC, INSTANCES_FORM % new_text)
            self._update_vnf_info(vnf_id, ADD_INSTANCES_STOPPED,
                                  instances=tuple(new_instances))

            self._emit(vnfm, self.nfvo, START_REQUEST, OPERATE_FORM % (
                new_text, op_id, string_text(STARTED)))
            self._emit(self.nfvo, vnfm, START_GRANT, OP_FORM % op_id)
            self._emit(vnfm, em, START_CONFIGURE, INSTANCES_FORM % new_text)
            peers = self._affected_peers(vnf_id, new_ids)
            if peers:
                self._emit(vnfm, em, START_CONFIGURE, RECONFIGURE_FORM % (
                    strings_text(peers), "true"))
            self._update_vnf_info(vnf_id, MARK_STARTED,
                                  instance_ids=tuple(new_ids))
        return new_ids

    def _reservation_subphase(self, op, plan, items) -> dict:
        """Three reservation requests (compute, storage, network) per VIM
        of the plan's sites; each item is reserved in its site's zone."""
        reservations = {}
        op_id = string_text(op.op_id)
        by_vim = defaultdict(list)
        for item in items:
            by_vim[plan[item.key].vim_ref].append(item)
        for vim_ref in sorted({site.vim_ref for site in plan.values()}):
            vim = self.vim_actor[vim_ref]
            for kind in ("compute", "storage", "network"):
                kind_text = string_text(kind)
                kind_items = [
                    (item, spec) for item in by_vim.get(vim_ref, ())
                    if not (spec := item.spec.restricted(kind)).is_zero()]
                self._emit(self.nfvo, vim, RESERVE_REQUEST, RESERVE_FORM % (
                    "[%s]" % ",".join([RESERVE_ITEM_FORM % (
                        string_text(i.anti_affinity), string_text(i.key),
                        string_text(plan[i.key].pop_id),
                        capacity_text(s)) for i, s in kind_items]),
                    kind_text, op_id))
                placed = []
                ids = []
                for item, spec in kind_items:
                    _, zone = self._planned_zone(plan, item)
                    try:
                        reservation_id = zone.reserve(spec, kind)
                    except InventoryError as exc:
                        self._emit(vim, self.nfvo, RESERVE_RESPONSE,
                                   RESERVE_ERROR_FORM % (
                                       string_text(str(exc)), kind_text,
                                       op_id))
                        raise OperationFailure(RESERVE_REQUEST.step, str(exc))
                    reservations[(item.key, kind)] = reservation_id
                    placed.append(PLACEMENT_ZONE_FORM % (
                        string_text(item.key), string_text(zone.id)))
                    ids.append(reservation_id)
                self._emit(vim, vim, VIM_PLACEMENT, PLACEMENT_FORM % (
                    kind_text, op_id, "[%s]" % ",".join(placed)))
                self._emit(vim, self.nfvo, RESERVE_RESPONSE, RESERVED_FORM % (
                    kind_text, op_id, strings_text(ids)))
        return reservations

    def _creation_subphase(self, op, plan, requester, items,
                           reservations) -> dict:
        """Allocate every item, at `requester`'s request, in the zone the
        plan names (steps 11-13); returns each VNFC item's handles, zone
        and PoP id by item key. A VL item's handle joins `vl_handles`."""
        allocated = {}
        op_id = string_text(op.op_id)
        for item in sorted(items, key=lambda i: i.key):
            pop, zone = self._planned_zone(plan, item)
            vim = self.vim_actor[pop.vim_ref]
            kinds = ["network"] if item.kind == "vl" else ["compute", "storage"]
            handles = {}
            for kind in kinds:
                spec = item.spec.restricted(kind)
                if spec.is_zero():
                    continue
                kind_text = string_text(kind)
                reservation_id = reservations.get((item.key, kind))
                if self.reservation_enabled:
                    request = ALLOCATE_RESERVED_FORM % (
                        kind_text, op_id, string_text(reservation_id))
                else:
                    request = ALLOCATE_SPEC_FORM % (
                        string_text(item.anti_affinity), kind_text, op_id,
                        string_text(pop.id), capacity_text(spec))
                self._emit(requester, vim, ALLOCATE_REQUEST, request)
                handle = _write(RESOURCE_ALLOCATION, zone.allocate, spec,
                                kind, reservation_id)
                handle_text = string_text(handle.id)
                self._emit(vim, vim, RESOURCE_ALLOCATION, ALLOCATION_FORM % (
                    handle_text, kind_text, op_id, string_text(zone.id)))
                handles[kind] = handle
                self._emit(vim, requester, ALLOCATE_RESPONSE,
                           ALLOCATED_FORM % ("[%s]" % handle_text, kind_text,
                                             op_id))
            if item.kind == "vl":
                self.vl_handles.setdefault(item.vl_profile_id, []).append(
                    (pop.id, zone, handles["network"]))
            else:
                storage = (handles["storage"],) if "storage" in handles else ()
                allocated[item.key] = (handles["compute"], storage, zone, pop.id)
        return allocated

    # -- release phase -------------------------------------------------------

    def _release_phase(self, op, vnfm, em, vnf_id, remove_ids, vl_decreases,
                       delete_vnf):
        op_id = string_text(op.op_id)
        removed = strings_text(sorted(remove_ids))
        self._emit(vnfm, self.nfvo, RELEASE_GRANT_REQUEST,
                   RELEASE_GRANT_FORM % (removed, '"release"', op_id))
        self._emit(self.nfvo, vnfm, RELEASE_GRANT_RESPONSE,
                   RELEASE_GRANTED_FORM % ("true", op_id))
        self._emit(vnfm, self.nfvo, STOP_REQUEST, OPERATE_FORM % (
            removed, op_id, string_text(STOPPED)))
        self._emit(self.nfvo, vnfm, STOP_GRANT, OP_FORM % op_id)
        peers = self._affected_peers(vnf_id, remove_ids)
        self._emit(vnfm, em, STOP_CONFIGURE, SHUTDOWN_FORM % (
            strings_text(peers), removed))
        self._update_vnf_info(vnf_id, MARK_STOPPED,
                              instance_ids=tuple(sorted(remove_ids)))

        entries = []
        for inst in map(self.vnf_infos[vnf_id].instance, sorted(remove_ids)):
            # Zone ids are unique only within a PoP, so look the zone up
            # in the instance's own PoP.
            zone = self._pop(inst.pop_ref).zone(inst.zone_ref)
            for handle in (inst.compute_handle, *inst.storage_handles):
                entries.append((inst.pop_ref, zone, handle))
        self._release(op, vnfm, entries, vl_decreases)
        self._update_vnf_info(vnf_id, DELETE_INSTANCES,
                              instance_ids=tuple(sorted(remove_ids)))
        if delete_vnf:
            del self.vnf_infos[vnf_id]

    def _release(self, op, requester, entries, vl_decreases):
        """Release `entries`, [(pop id, zone, handle)], and the VL decreases
        `vl_decreases` for `requester`: a VL's newest handles that fit in
        its decrease join `entries`, and the next is shrunk in place. One
        25/26/27 exchange per VIM in id order, then one ResourceUpdate per
        shrink."""
        shrinks = []  # (a VL's handles, the bandwidth its newest keeps)
        for pid, (before, after) in sorted(vl_decreases.items()):
            handles = self.vl_handles[pid]
            left = before - after
            while handles and handles[-1][2].spec.bandwidth <= left:
                left -= handles[-1][2].spec.bandwidth
                entries.append(handles.pop())
            if handles and left > 0:
                shrinks.append((handles, handles[-1][2].spec.bandwidth - left))
        op_id = string_text(op.op_id)
        by_vim = defaultdict(list)
        for pop_id, zone, handle in entries:
            by_vim[self._pop(pop_id).vim_ref].append((zone, handle))
        for vim_ref in sorted(by_vim):
            vim = self.vim_actor[vim_ref]
            released = HANDLES_FORM % (
                strings_text(sorted(h.id for _, h in by_vim[vim_ref])), op_id)
            self._emit(requester, vim, RELEASE_REQUEST, released)
            for zone, handle in by_vim[vim_ref]:
                _write(RESOURCE_DELETION, zone.release, handle)
            self._emit(vim, vim, RESOURCE_DELETION, released)
            self._emit(vim, requester, RELEASE_RESPONSE, released)
        for handles, bandwidth in shrinks:
            pop_id, zone, handle = handles[-1]
            spec = CapacityVector(bandwidth=bandwidth)
            handles[-1] = (pop_id, zone,
                           _write(RESOURCE_UPDATE, zone.shrink, handle, spec))
            vim = self.vim_actor[self._pop(pop_id).vim_ref]
            self._emit(vim, vim, RESOURCE_UPDATE, UPDATE_FORM % (
                string_text(handle.id), op_id, capacity_text(spec)))

    # -- helpers -------------------------------------------------------------

    def _new_vnf(self, profile, plan, vnfc_items) -> str:
        """Register a new VNF instance of `profile`, with none of its VNFC
        `vnfc_items` yet, and return its id. Its VIM is that of the site
        `plan` gives its first VNFC."""
        vnf_id = "vnf-%s-%d" % (profile.id, next(self._instance_counter))
        self.vnf_infos[vnf_id] = VnfInfo(
            profile.vnfd_ref, profile.vnf_flavor_ref, (),
            plan[vnfc_items[0].key].vim_ref,
            audit=(("instantiation", self._clock),), profile_ref=profile.id)
        return vnf_id

    def _new_vnfc_id(self, vnf_id: str) -> str:
        return "%s-c%d" % (vnf_id, next(self._vnfc_counters[vnf_id]))

    def _affected_peers(self, vnf_id: str, changed_ids) -> list:
        """Running VNFC instances of the same VNF whose connectivity changes
        with the new/removed members."""
        info = self.vnf_infos[vnf_id]
        changed = set(changed_ids)
        return sorted(inst.id for inst in info.vnfc_instances
                      if inst.state == STARTED and inst.id not in changed)

    def _select_removals(self, vnf_id: str, remove_counts: dict,
                         protected: list) -> list:
        info = self.vnf_infos[vnf_id]
        protected_set = set(protected)
        chosen = []
        for vdu_id in sorted(remove_counts):
            candidates = [inst for inst in info.vnfc_instances
                          if inst.vdu_ref == vdu_id
                          and inst.state == STARTED
                          and inst.id not in protected_set]
            chosen.extend(inst.id for inst in candidates[:remove_counts[vdu_id]])
        return chosen

    def _update_vnf_info(self, vnf_id: str, change: str, **kwargs):
        """Write `change` to the VNF's record at the step of the change's
        event in VNF_INFO_CHANGES, and report it to the NFVO."""
        arrow = VNF_INFO_CHANGES[change]
        info = record_vnf_info_update(self.vnf_infos[vnf_id], change,
                                      arrow.step, self._clock, **kwargs)
        self.vnf_infos[vnf_id] = info
        self._emit(self.vnfm_actor[info.vnfd_ref], self.nfvo, arrow,
                   VNF_INFO_FORM % (string_text(change), arrow.step,
                                    string_text(vnf_id)))

    def final_state(self) -> dict:
        # A VNF instance is at the level the NS level gives its profile.
        vnf_levels = self.flavor.ns_il(self.current_ns_il).vnf_entries
        zones = {}
        for pop in self.pops:
            for zone in pop.zones:
                zones["%s/%s" % (pop.id, zone.id)] = zone.snapshot()
        vnf_infos = {}
        for vnf_id, info in sorted(self.vnf_infos.items()):
            vnf_infos[vnf_id] = {
                "vnfd_ref": info.vnfd_ref,
                "vnf_flavor_ref": info.vnf_flavor_ref,
                "current_vnf_il": vnf_levels[info.profile_ref][0],
                "vim_ref": info.vim_ref,
                "vnfc_instances": [
                    {"id": inst.id, "vdu_ref": inst.vdu_ref,
                     "state": inst.state, "zone": inst.zone_ref,
                     "pop": inst.pop_ref}
                    for inst in info.vnfc_instances],
                "audit": [[_AUDIT_STEP_TEXTS[step], tick]
                          for step, tick in info.audit],
            }
        vl_bitrates = {
            pid: sum(h.spec.bandwidth for _, _, h in entries)
            for pid, entries in sorted(self.vl_handles.items())}
        return {
            "ns_info": {
                "ns_instance_id": "ns-1",
                "nsd_ref": self.nsd.id,
                "flavor_ref": self.flavor.id,
                "current_ns_il": self.current_ns_il,
                "state": NS_INSTANTIATED,
                "vnf_instance_refs": sorted(self.vnf_infos),
            },
            "vnf_infos": vnf_infos,
            "zones": zones,
            "vl_bitrates": vl_bitrates,
        }
