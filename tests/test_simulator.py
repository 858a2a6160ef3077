import dataclasses
import functools
import json
import random

import sample_catalog as sc
from conftest import (
    SEVEN_AND_SEVEN, audit_every_event, build_sim, record_decisions,
    refuse_large_vnfcs, run_dict, run_logged, trace_events, transitions,
)
from corpus import record, samples, small_zone_scenario
from scenario_gen import random_scenario
import pytest
from hypothesis import example, given, settings, strategies as st

from nsscale.capacity import ZERO, CapacityVector
from nsscale.drpa import DemandEstimate, DrpaDecision
from nsscale.inventory import (
    STARTED, STOPPED, ConservationError, ResourceZone, VnfInfo,
)
from nsscale.monitoring import TimeRegressionError
from nsscale.scenario import (
    ScenarioValidationError, scenario_from_dict, workload_records,
)
from nsscale.simulator import (
    PHASE_COMPLETED, PHASE_FAILED, STATUS_COMPLETED, STATUS_OPERATION_FAILED,
    Arrow, DecisionLog, Simulator,
)
from nsscale.trace import canonical_json, trace_lines


def scale_actions(result):
    return [(t, d.target_ns_il, d.classification)
            for t, d in result.decisions
            if not isinstance(d, str) and d.action == "scale"]


def test_a_new_vnf_takes_the_vim_of_its_first_vnfcs_pop():
    """After set-up, each VNF of the random and small-zone scenarios is
    under the VIM of its first VNFC's PoP, as one that scaling adds is,
    also where its VNFCs span two VIMs (three small-zone seeds)."""
    scenarios = [random_scenario(random.Random(seed)) for seed in range(200)]
    scenarios += map(small_zone_scenario, range(150))
    spanning = 0
    for scenario in scenarios:
        try:
            sim = Simulator(scenario_from_dict(scenario))
        except ScenarioValidationError:  # the initial level does not fit
            continue
        vims = {pop.id: pop.vim_ref for pop in sim.pops}
        for info in sim.vnf_infos.values():
            assert info.vim_ref == vims[info.vnfc_instances[0].pop_ref]
            spanning += len({vims[inst.pop_ref]
                             for inst in info.vnfc_instances}) > 1
    assert spanning == 3


def test_escalation_walks_the_level_ladder():
    result = run_dict(sc.sample_scenario(workload=sc.escalation_workload()))
    assert result.status == STATUS_COMPLETED
    assert scale_actions(result) == [
        (10, "level-2", "vnf-scaling"),
        (40, "level-3", "vnf-scaling"),
        (70, "level-4", "add-vnf"),
    ]
    assert result.final_state["ns_info"]["current_ns_il"] == "level-4"
    # the second VNF-B instance exists and is fully started
    b_infos = [v for v in result.final_state["vnf_infos"].values()
               if v["vnfd_ref"] == "vnfd-b"]
    assert len(b_infos) == 2
    assert all(i["state"] == STARTED
               for v in b_infos for i in v["vnfc_instances"])


def test_jump_scenario_covers_every_workflow_step():
    result = run_dict(sc.sample_scenario(workload=sc.jump_workload()))
    op = result.operations[0]
    assert op.phase == PHASE_COMPLETED
    steps = [s for s, _ in op.step_log]
    assert sorted(set(steps)) == list(range(5, 29))
    # allocation strictly precedes release
    alloc_ticks = [t for s, t in op.step_log if 5 <= s <= 19]
    release_ticks = [t for s, t in op.step_log if 20 <= s <= 28]
    assert max(alloc_ticks) < min(release_ticks)


def test_service_continuity_new_starts_before_old_stops():
    _, moves = run_logged(sc.sample_scenario(workload=sc.jump_workload()))
    started = [t for t in moves
               if t["to"] == STARTED and t["vdu_ref"] == "vdu-2"]
    stopped = [t for t in moves
               if t["to"] == STOPPED and t["vdu_ref"] == "vdu-1"]
    assert started and stopped
    assert started[0]["tick"] <= stopped[0]["tick"]


def test_transition_steps_are_exclusive():
    _, moves = run_logged(sc.sample_scenario(
        workload=sc.escalation_workload()))
    for t in moves:
        if t["to"] == STARTED:
            assert t["step"] == 19
        elif t["from"] is None:  # creation lands in the repository STOPPED
            assert t["step"] == 15
        else:
            assert (t["from"], t["to"], t["step"]) == (STARTED, STOPPED, 24)


def test_audit_steps_are_restricted():
    result = run_dict(sc.sample_scenario(workload=sc.escalation_workload()))
    allowed = {"15", "19", "24", "28", "instantiation"}
    for info in result.final_state["vnf_infos"].values():
        assert {step for step, _ in info["audit"]} <= allowed


def test_scale_in_removes_the_newest_instance():
    result = run_dict(sc.sample_scenario(workload=sc.scale_in_workload(),
                                         ns_il="level-4"))
    assert scale_actions(result) == [(10, "level-3", "remove-vnf")]
    b_infos = [v for v in result.final_state["vnf_infos"].values()
               if v["vnfd_ref"] == "vnfd-b"]
    assert len(b_infos) == 1
    assert result.final_state["vl_bitrates"] == {"vlp-1": 400}


def test_no_reservation_skips_reserve_messages_only():
    scenario = sc.sample_scenario(workload=sc.jump_workload(),
                                  options={"reservation_enabled": False})
    result = run_dict(scenario)
    messages = [r.message for r in trace_events(result.trace)]
    assert not any(m.startswith("Reserve") for m in messages)
    assert "GrantRequest" in messages and "GrantResponse" in messages
    assert result.status == STATUS_COMPLETED
    steps = {s for s, _ in result.operations[0].step_log}
    assert not steps & {7, 8, 9}
    assert {6, 10} <= steps


def test_reservation_sends_three_kinds_per_vim():
    result = run_dict(sc.sample_scenario(workload=sc.jump_workload()))
    reserves = [r for r in trace_events(result.trace)
                if r.message == "ReserveRequest"]
    assert len(reserves) == 3  # one VIM, one allocation phase
    assert all(r.dst == "VIM-0" for r in reserves)


def test_reservation_changes_only_the_messages(corpus):
    """Over a fixed sample of random scenarios, a run with reservation and
    one without have operations of the same kinds that fail at the same
    steps, and the same final state once each audit entry's tick, which
    the reservation messages move, is dropped."""
    runs, operations = 0, 0
    for seed in range(0, 200, 4):
        outcomes = []
        for reservation in (True, False):
            record = corpus["reservation"].get((seed, reservation))
            if record is None:  # the initial level does not fit
                break
            result = record.result
            state = dict(result.final_state, vnf_infos={
                vnf_id: dict(info, audit=[step for step, _ in info["audit"]])
                for vnf_id, info in result.final_state["vnf_infos"].items()})
            outcomes.append(([(op.kind, op.failed_step)
                              for op in result.operations], state))
        if outcomes:
            assert outcomes[0] == outcomes[1], seed
            runs += 1
            operations += len(outcomes[0][0])
    assert runs > 25 and operations > runs


def test_identical_runs_are_byte_identical():
    scenario = sc.sample_scenario(workload=sc.escalation_workload())
    a = run_dict(scenario)
    b = run_dict(scenario)
    assert trace_lines(a.trace) == trace_lines(b.trace)
    assert canonical_json(a.final_state) == canonical_json(b.final_state)


@pytest.mark.parametrize("value, samples", [
    (True, []), (False, []), ("high", []), (2, [2]), (0.5, [0.5])])
def test_only_a_numeric_indicator_value_feeds_the_rule_engine(value,
                                                              samples):
    # A bool is not a number here: True would average as 1 in a rule.
    scenario = sc.sample_scenario(workload=sc.jump_workload())
    scenario["workload"]["indicators"] = [[11, "vnfd-b", "congestion", value]]
    sim = build_sim(scenario)
    result = sim.run()
    assert sim.store.streams().get(("vnfd-b", "congestion"), []) == samples
    # every value is still notified, EM -> VNFM -> NFVO at step 3
    assert [(r.src, r.dst) for r in trace_events(result.trace)
            if r.message == "VnfIndicatorChange" and r.step == 3] == [
        ("EM-1", "VNFM-1"), ("VNFM-1", "NFVO-0")]


@pytest.mark.parametrize("indicator, crossings", [(0.9, 0), (0.6, 1)])
def test_a_numeric_indicator_is_the_previous_sample_of_a_threshold(
        indicator, crossings):
    """A threshold watches every sample of its stream; only a metric
    sample's crossing is sent."""
    scenario = sc.sample_scenario(workload={
        "metrics": [[10, "vnfd-b", "congestion", 0.5],
                    [12, "vnfd-b", "congestion", 0.95]],
        "indicators": [[11, "vnfd-b", "congestion", indicator]]})
    scenario["rules"]["thresholds"] = [
        {"id": "t-cong", "subject": "vnfd-b", "metric": "congestion",
         "bound": 0.7, "direction": "above"}]
    result = run_dict(scenario)
    assert [r.message for r in trace_events(result.trace)].count(
        "ThresholdCrossed") == crossings


def test_zone_exhaustion_fails_and_rolls_back(monkeypatch):
    refuse_large_vnfcs(monkeypatch)
    result = run_dict(sc.sample_scenario(workload=sc.jump_workload()))
    assert result.status == STATUS_OPERATION_FAILED
    op = result.operations[0]
    assert op.phase == PHASE_FAILED
    assert op.failed_step == 7
    # state rolled back: level unchanged, nothing reserved or leaked
    state = result.final_state
    assert state["ns_info"]["current_ns_il"] == "level-1"
    for zone in state["zones"].values():
        assert zone["reserved"] == {"vcpu": 0, "memory": 0, "storage": 0,
                                    "bandwidth": 0}
    b_info = [v for v in state["vnf_infos"].values()
              if v["vnfd_ref"] == "vnfd-b"][0]
    assert [i["vdu_ref"] for i in b_info["vnfc_instances"]] == \
        ["vdu-1", "vdu-3"]


def test_fragmented_zones_are_refused_by_the_drpa():
    # 7 + 7 vcpu cover level-3's 12 in aggregate, but its 8-vcpu VNFC fits
    # no zone: the decision fails and no operation starts
    sim = build_sim(sc.sample_scenario(workload=sc.jump_workload(),
                                       topology=SEVEN_AND_SEVEN))
    initial = canonical_json(sim.final_state())
    result = sim.run()
    assert result.status == STATUS_COMPLETED
    [(_, error)] = result.decisions
    assert error.startswith("no placeable candidate")
    assert "no site fits p-b/scale0/vnfc/vdu-2/0 (short on ['vcpu'])" in error
    assert result.operations == []
    assert canonical_json(result.final_state) == initial


def test_conservation_holds_at_every_event(monkeypatch):
    checked = []

    def audit(record, pops):
        for pop in pops:
            for zone in pop.zones:
                total = zone.total.as_dict()
                summed = (zone.allocated + zone.reserved +
                          zone.available).as_dict()
                assert summed == total
        checked.append(record)

    audit_every_event(monkeypatch, audit)
    result = run_dict(sc.sample_scenario(workload=sc.escalation_workload()))
    assert [record.seq for record in checked] == \
        list(range(1, len(result.trace) + 1))
    assert checked == trace_events(result.trace)


ZONE_WRITES = ("reserve", "cancel", "allocate", "release")


def test_every_zone_write_is_checked_once(monkeypatch):
    """Each completed reserve/cancel/allocate/release checks its zone once,
    the initial level's allocations included."""
    counts = {"checks": 0, "writes": 0}
    check = ResourceZone.check_conservation

    def counted_check(zone):
        counts["checks"] += 1
        return check(zone)

    monkeypatch.setattr(ResourceZone, "check_conservation", counted_check)
    for name in ZONE_WRITES:
        def counted(zone, *args, _write=getattr(ResourceZone, name),
                    **kwargs):
            result = _write(zone, *args, **kwargs)
            counts["writes"] += 1
            return result
        monkeypatch.setattr(ResourceZone, name, counted)

    sim = build_sim(sc.sample_scenario(workload=sc.escalation_workload()))
    initial = counts["writes"]
    assert initial > 0
    assert counts["checks"] == initial
    sim.run()
    assert counts["writes"] > initial
    assert counts["checks"] == counts["writes"]


def test_conservation_error_is_not_rolled_back_as_a_failed_operation(
        monkeypatch):
    sim = build_sim(sc.sample_scenario(workload=sc.jump_workload()))

    def broken(zone):
        raise ConservationError(zone.id, "available", "vcpu", -1)

    monkeypatch.setattr(ResourceZone, "check_conservation", broken)
    with pytest.raises(ConservationError):
        sim.run()
    assert not any(r.message == "OperationFailed"
                   for r in trace_events(sim.trace))


def test_initial_capacity_shortage_is_a_validation_error():
    import pytest
    from nsscale.scenario import ScenarioValidationError
    topology = sc.sample_topology(vcpu=4)
    with pytest.raises(ScenarioValidationError):
        build_sim(sc.sample_scenario(topology=topology))


def _twin_zone_topology(vcpu):
    """Two PoPs on one VIM, each with one zone called zone-a, so zone ids
    and handle ids (h-zone-a-<n>) repeat across PoPs."""
    def zone(v):
        return {"id": "zone-a", "total": {"vcpu": v, "memory": 2 * v + 20,
                                          "storage": 300, "bandwidth": 2000}}
    return {"vims": [{"id": "vim-1"}], "pops": [
        {"id": "pop-1", "vim_ref": "vim-1", "zones": [zone(vcpu)]},
        {"id": "pop-2", "vim_ref": "vim-1", "zones": [zone(64)]},
    ]}


@pytest.mark.parametrize("reservation", [True, False])
@pytest.mark.parametrize("vcpu", [6, 9, 14])
def test_release_hits_the_zone_of_the_instances_pop(vcpu, reservation):
    sim = build_sim(sc.sample_scenario(
        workload=sc.scale_in_workload(), ns_il="level-4",
        topology=_twin_zone_topology(vcpu),
        options={"reservation_enabled": reservation}))
    result = sim.run()
    assert result.status == STATUS_COMPLETED
    assert result.final_state["ns_info"]["current_ns_il"] == "level-3"
    for pop in sim.pops:
        for zone in pop.zones:
            _, _, outstanding, _ = zone.checkpoint()
            held = sum((h.spec for h in outstanding.values()), ZERO)
            assert zone.allocated == held, pop.id


def test_run_derives_each_level_and_move_once(monkeypatch):
    import nsscale.drpa as drpa
    real_capacity, real_delta = drpa.aggregate_capacity, drpa.ns_il_delta
    capacities, deltas = [], []

    def counted_capacity(catalog, flavor, level):
        capacities.append(level)
        return real_capacity(catalog, flavor, level)

    def counted_delta(catalog, flavor, a, b):
        deltas.append((a, b))
        return real_delta(catalog, flavor, a, b)

    monkeypatch.setattr(drpa, "aggregate_capacity", counted_capacity)
    monkeypatch.setattr(drpa, "ns_il_delta", counted_delta)
    scenario = sc.sample_scenario(workload=sc.escalation_workload())
    sim = build_sim(scenario)
    first = sim.run()
    assert len(first.decisions) == 3
    assert capacities and len(capacities) == len(set(capacities))
    assert deltas and len(deltas) == len(set(deltas))
    for a, b in deltas:  # the run changed no shared delta
        assert sim.levels.delta(a, b) == \
            real_delta(sim.catalog, sim.flavor, a, b)
    second = run_dict(scenario)
    assert trace_lines(first.trace) == trace_lines(second.trace)
    assert canonical_json(first.final_state) == \
        canonical_json(second.final_state)


def _zone(zone_id, vcpu, memory, storage, bandwidth):
    return {"id": zone_id, "total": {"vcpu": vcpu, "memory": memory,
                                     "storage": storage,
                                     "bandwidth": bandwidth}}


def test_anti_affinity_keeps_apart_zones_of_one_name_in_two_pops():
    # The new VNF-B's two VNFCs go to distinct PoPs, whose zones are both
    # called zone-1; each lands in its own PoP's zone-1.
    scenario = sc.sample_scenario(
        workload={"metrics": [[10, "vnfd-b", "cpu_load", 0.9]]},
        ns_il="level-3",
        topology={"vims": [{"id": "vim-1"}, {"id": "vim-2"}], "pops": [
            {"id": "pop-1", "vim_ref": "vim-1",
             "zones": [_zone("zone-1", 64, 128, 256, 2000)]},
            {"id": "pop-2", "vim_ref": "vim-2",
             "zones": [_zone("zone-1", 64, 128, 256, 2000)]}]})
    scenario["rules"]["placement_constraints"] = {
        "anti_affinity": {"p-b": "spread"}}
    result = run_dict(scenario)
    assert result.status == STATUS_COMPLETED, result.failure_reason
    assert result.final_state["ns_info"]["current_ns_il"] == "level-4"
    new = result.final_state["vnf_infos"]["vnf-p-b-4"]["vnfc_instances"]
    assert sorted(i["pop"] for i in new) == ["pop-1", "pop-2"]


def _equal_pops(count):
    return {"vims": [{"id": "vim-1"}], "pops": [
        {"id": "pop-%d" % n, "vim_ref": "vim-1",
         "zones": [_zone("zone-1", 64, 128, 256, 2000)]}
        for n in range(1, count + 1)]}


def test_anti_affinity_spreads_the_initial_level():
    # level-2 runs two B1 VNFCs in VNF-B; the initial level is planned like
    # any move, so they land on distinct PoPs.
    scenario = sc.sample_scenario(ns_il="level-2", topology=_equal_pops(2))
    scenario["rules"]["placement_constraints"] = {
        "anti_affinity": {"B1": "spread"}}
    state = build_sim(scenario).final_state()
    b1 = [i["pop"] for i in state["vnf_infos"]["vnf-p-b-2"]["vnfc_instances"]
          if i["vdu_ref"] == "vdu-1"]
    assert sorted(b1) == ["pop-1", "pop-2"]


def test_initial_vnf_ids_follow_the_flavor_profile_order():
    # The plan lists profiles by id; instance numbers follow declaration.
    documents = sc.sample_documents()
    flavor = documents[-1]["flavors"][0]
    flavor["vnf_profiles"].reverse()
    sim = build_sim(sc.with_documents(sc.sample_scenario(), documents))
    assert list(sim.vnf_infos) == ["vnf-p-c-1", "vnf-p-b-2", "vnf-p-a-3"]
    assert [info.profile_ref for info in sim.vnf_infos.values()] == \
        ["p-c", "p-b", "p-a"]


def test_initial_vnfcs_land_in_the_zones_the_plan_counted():
    # The plan lists profiles by id: p-a (6 vcpu) fills pop-1's zone-1,
    # p-b's two 2-vcpu VNFCs fill zone-2 and p-c (4 vcpu) goes to pop-2.
    # Set-up allocates in the flavor's order (p-c, p-b, p-a); picking each
    # zone afresh would put p-b in zone-1 and leave no zone in pop-1 for
    # p-a.
    documents = sc.sample_documents()
    documents[0]["vcds"][0]["vcpu"] = 6  # vnfd-a
    documents[2]["vcds"][0]["vcpu"] = 4  # vnfd-c
    documents[-1]["flavors"][0]["vnf_profiles"].reverse()
    topology = {"vims": [{"id": "vim-1"}], "pops": [
        {"id": "pop-1", "vim_ref": "vim-1",
         "zones": [_zone("zone-1", 6, 128, 256, 2000),
                   _zone("zone-2", 4, 128, 256, 2000)]},
        {"id": "pop-2", "vim_ref": "vim-1",
         "zones": [_zone("zone-1", 64, 128, 256, 2000)]}]}
    state = build_sim(sc.with_documents(
        sc.sample_scenario(topology=topology), documents)).final_state()
    sites = {vnf_id: [(i["pop"], i["zone"]) for i in info["vnfc_instances"]]
             for vnf_id, info in state["vnf_infos"].items()}
    assert sites == {"vnf-p-c-1": [("pop-2", "zone-1")],
                     "vnf-p-b-2": [("pop-1", "zone-2")] * 2,
                     "vnf-p-a-3": [("pop-1", "zone-1")]}


def test_pending_keeps_apart_zones_of_one_name_in_two_pops():
    # One VIM serves both PoPs; what the plan has counted in pop-1's zone-1
    # must not count against pop-2's zone-1.
    scenario = sc.sample_scenario(
        workload=sc.escalation_workload(),
        topology={"vims": [{"id": "vim-1"}], "pops": [
            {"id": "pop-1", "vim_ref": "vim-1",
             "zones": [_zone("zone-1", 20, 40, 50, 800)]},
            {"id": "pop-2", "vim_ref": "vim-1",
             "zones": [_zone("zone-1", 2, 4, 10, 0)]}]})
    result = run_dict(scenario)
    assert result.status == STATUS_COMPLETED, result.failure_reason
    assert result.final_state["ns_info"]["current_ns_il"] == "level-4"


def _one_pop(vcpu_a, vcpu_b):
    return {"vims": [{"id": "vim-1"}], "pops": [
        {"id": "pop-1", "vim_ref": "vim-1", "zones": [
            _zone("zone-a", vcpu_a, 128, 256, 2000),
            _zone("zone-b", vcpu_b, 128, 256, 2000)]}]}


@pytest.mark.parametrize("level, vcpus, vnf_il, bitrate", [
    ("level-3", (16, 7), "il-3", 400),  # once left a VNF with no VNFCs
    ("level-2", (19, 7), "il-2", 200),  # once left p-b and vlp-1 moved
])
def test_zone_infeasible_level_is_refused_before_any_change(
        level, vcpus, vnf_il, bitrate):
    # Full load needs level-4, whose new 8-vcpu VNFCs the PoP's aggregate
    # covers but its zones cannot all hold.
    sim = build_sim(sc.sample_scenario(
        workload=sc.jump_workload(), ns_il=level, topology=_one_pop(*vcpus)))
    initial = canonical_json(sim.final_state())
    result = sim.run()
    [(_, error)] = result.decisions
    assert error.startswith("no placeable candidate")
    assert result.operations == []
    state = result.final_state
    assert "vnf-p-b-4" not in state["vnf_infos"]
    assert state["vnf_infos"]["vnf-p-b-2"]["current_vnf_il"] == vnf_il
    assert state["vl_bitrates"]["vlp-1"] == bitrate
    assert canonical_json(state) == initial


def test_plans_the_drpa_accepts_execute(corpus):
    # Every operation runs, and puts each item in the zone of the
    # decision's plan: step 8 reports that zone, and each new VNFC sits in
    # the plan's PoP and zone.
    attempted = {"small-zone": 0, "random": 0}
    checked = reported = 0  # sites checked, of which step 8 reported
    for family in attempted:
        for seed, record in corpus[family].items():
            result = record.result
            # (op id, item key, pop id or None, zone id), as executed
            sites = [(payload["op_id"], z["key"], None, z["zone"])
                     for _, _, _, message, text, _ in record.events
                     if message == "VimPlacement"
                     for payload in [json.loads(text)]
                     for z in payload["zones"]]
            sites += record.vnfcs
            for op in result.operations:
                assert op.failed_step not in (6, 7, 12), \
                    (family, seed, op.error)
            attempted[family] += len(result.operations)
            plans = {op.op_id: decision.placement for op, decision in zip(
                result.operations, [d for _, d in result.decisions
                                    if not isinstance(d, str)
                                    and d.action == "scale"])}
            for op_id, key, pop_id, zone_id in sites:
                plan = plans[op_id]
                assert zone_id == plan[key].id, (family, seed, op_id, key)
                assert pop_id in (None, plan[key].pop_id), \
                    (family, seed, op_id, key)
            checked += len(sites)
            reported += sum(pop_id is None for _, _, pop_id, _ in sites)
    assert attempted["small-zone"] >= 100
    assert attempted["random"] >= 100
    assert checked >= 1000
    assert reported >= 1000


def _run_to_new_levels(reservation, levels, new_vnf_ils=(),
                       edit_flavor=None):
    """Run `sc.level_walk_scenario(levels, reservation, new_vnf_ils)`, which
    must reach each level in turn, after `edit_flavor`, if given, has
    changed its NSD's flavor in place. Returns the result, the (arrow,
    parsed payload) of every event recorded and the VNFC transitions."""
    scenario = sc.level_walk_scenario(levels, reservation, new_vnf_ils)
    if edit_flavor is not None:
        edit_flavor(scenario["catalog"][-1]["flavors"][0])
    run = record(scenario)
    result = run.result
    sent = [(Arrow(step, message), json.loads(text))
            for _, _, step, message, text, _ in run.events]
    assert result.status == STATUS_COMPLETED, result.failure_reason
    assert result.final_state["ns_info"]["current_ns_il"] == levels[-1][0]
    bitrate = levels[-1][1]
    assert result.final_state["vl_bitrates"] == {"vlp-1": bitrate}
    assert result.final_state["zones"]["pop-1/zone-a"]["allocated"][
        "bandwidth"] == bitrate
    return result, sent, transitions(run)


def _events(result, op) -> list:
    return [(e.step, e.src, e.dst, e.message)
            for e in trace_events(result.trace)[op.begun:op.end]]


@pytest.mark.parametrize("reservation", [True, False])
def test_a_vl_increase_no_vnf_carries_is_the_nfvos_exchange(reservation):
    # NS-level VLs are the NFVO's: it reserves and allocates the bitrate
    # itself when no VNF procedure carries the change.
    result, sent, _ = _run_to_new_levels(reservation, [("level-1v", 200)])
    [op] = result.operations
    assert op.kind == "none"
    reserve = [(7, "NFVO-0", "VIM-0", "ReserveRequest"),
               (8, "VIM-0", "VIM-0", "VimPlacement"),
               (9, "VIM-0", "NFVO-0", "ReserveResponse")]
    allocate = [(11, "NFVO-0", "VIM-0", "AllocateRequest"),
                (12, "VIM-0", "VIM-0", "ResourceAllocation"),
                (13, "VIM-0", "NFVO-0", "AllocateResponse")]
    assert _events(result, op) == \
        (reserve * 3 if reservation else []) + allocate
    [request] = [p for a, p in sent if a.message == "AllocateRequest"]
    assert request["kind"] == "network"


@pytest.mark.parametrize("reservation", [True, False])
def test_a_vl_decrease_no_vnf_carries_is_the_nfvos_exchange(reservation):
    # 100 -> 200 adds a second vlp-1 handle of 100; 200 -> 50 releases it
    # and shrinks set-up's handle, larger than the 50 left to release, in
    # place.
    result, sent, _ = _run_to_new_levels(
        reservation, [("level-1v", 200), ("level-1d", 50)])
    [_, op] = result.operations
    assert op.kind == "none"
    assert _events(result, op) == [
        (25, "NFVO-0", "VIM-0", "ReleaseRequest"),
        (26, "VIM-0", "VIM-0", "ResourceDeletion"),
        (27, "VIM-0", "NFVO-0", "ReleaseResponse"),
        (26, "VIM-0", "VIM-0", "ResourceUpdate")]
    [allocation] = [p for a, p in sent if a.message == "ResourceAllocation"]
    [release] = [p for a, p in sent if a.message == "ResourceDeletion"]
    assert release == {"op_id": "op-2", "handles": [allocation["handle"]]}
    [update] = [p for a, p in sent if a.message == "ResourceUpdate"]
    # set-up's seventh zone write: level-1's six VNFC handles come first
    assert update == {"op_id": "op-2", "handle": "h-zone-a-7",
                      "spec": {"vcpu": 0, "memory": 0, "storage": 0,
                               "bandwidth": 50}}


@pytest.mark.parametrize("reservation", [True, False])
def test_a_profile_the_target_level_leaves_out_loses_its_instances(
        reservation):
    # level-1o lists no p-a, whose minimum is 0, and puts p-b at il-2,
    # which makes it cheaper than level-2. p-a has no VNF level there, so
    # its one instance is removed by a request that names none.
    def leave_out_p_a(flavor):
        [p_a] = [p for p in flavor["vnf_profiles"] if p["id"] == "p-a"]
        p_a["min_instances"] = 0
        level = flavor["ns_ils"][-1]
        level["vnf_entries"] = {
            "p-b": {"vnf_il_ref": "il-2", "instance_count": 1},
            "p-c": level["vnf_entries"]["p-c"]}

    result, sent, _ = _run_to_new_levels(reservation, [("level-1o", 200)],
                                         edit_flavor=leave_out_p_a)
    [op] = result.operations
    requests = [p for a, p in sent if a.message == "ScaleVnfToLevelRequest"]
    assert requests == [
        {"op_id": "op-1", "remove_instance": True,
         "vnf_instance": "vnf-p-a-1"},
        {"new_vnf_il": "il-2", "op_id": "op-1", "vnf_instance": "vnf-p-b-2"}]
    assert sorted(result.final_state["vnf_infos"]) == \
        ["vnf-p-b-2", "vnf-p-c-3"]


@pytest.mark.parametrize("reservation", [True, False])
def test_a_vnf_level_change_without_vnfc_changes_is_one_update(reservation):
    result, sent, moves = _run_to_new_levels(
        reservation, [("level-1b", 200)],
        new_vnf_ils=[("p-b", "il-1b", {"vdu-1": 1, "vdu-3": 1})])
    [op] = result.operations
    assert op.kind == "vnf-scaling"
    [request] = [p for a, p in sent if a.message == "ScaleVnfToLevelRequest"]
    assert request["vnf_instance"] == "vnf-p-b-2"
    assert request["new_vnf_il"] == "il-1b"
    [grant] = [p for a, p in sent if a.message == "GrantRequest"]
    assert (grant["vdu_ids"], grant["internal_vl_ids"]) == ([], ["vlp-1"])
    allocated = [p["kind"] for a, p in sent if a.message == "AllocateRequest"]
    assert allocated == ["network"]
    updates = [p for a, p in sent if a.message == "VnfInfoUpdate"]
    assert updates == [{"vnf_instance": "vnf-p-b-2", "change": "set-vnf-il",
                        "step": 19}]
    assert sent[-1][0].message == "VnfInfoUpdate"
    assert [step for step, _ in op.step_log].count(19) == 1
    assert moves == []
    info = result.final_state["vnf_infos"]["vnf-p-b-2"]
    assert info["current_vnf_il"] == "il-1b"
    assert [step for step, _ in info["audit"]] == ["instantiation", "19"]
    assert [i["vdu_ref"] for i in info["vnfc_instances"]] == \
        ["vdu-1", "vdu-3"]


@pytest.mark.parametrize("reservation", [True, False])
def test_a_vnfc_without_storage_is_allocated_compute_only(reservation):
    result, sent, _ = _run_to_new_levels(
        reservation, [("level-1a", 200)],
        new_vnf_ils=[("p-a", "il-2", {"vdu-1": 2})])
    [op] = result.operations
    assert op.kind == "vnf-scaling"
    for message in ("AllocateRequest", "ResourceAllocation",
                    "AllocateResponse"):
        assert [p["kind"] for a, p in sent if a.message == message] == \
            ["compute", "network"], message
    if reservation:
        reserved = {p["kind"]: [i["key"] for i in p["items"]]
                    for a, p in sent if a.message == "ReserveRequest"}
        assert reserved == {"compute": ["p-a/scale0/vnfc/vdu-1/0"],
                            "storage": [], "network": ["vl/vlp-1"]}
    info = result.final_state["vnf_infos"]["vnf-p-a-1"]
    assert info["current_vnf_il"] == "il-2"
    assert [(i["vdu_ref"], i["state"]) for i in info["vnfc_instances"]] == \
        [("vdu-1", STARTED)] * 2
    assert result.final_state["zones"]["pop-1/zone-a"]["allocated"] == {
        "vcpu": 7, "memory": 14, "storage": 20, "bandwidth": 200}


def test_the_set_up_vnfc_write_keeps_every_other_field(monkeypatch):
    """The simulator's one VnfInfo write of its own, which gives a new
    instance its VNFCs at set-up, equals `dataclasses.replace` of the old
    record with only that field, compared over `dataclasses.fields`: a
    field added later cannot be lost by positional construction. A run
    writes VnfInfo only through `record_vnf_info_update`."""
    writes = []  # (at set-up, old record, new record)
    running = []

    class Recorded(dict):
        def __setitem__(self, key, value):
            if key in self:
                writes.append((not running, self[key], value))
            super().__setitem__(key, value)

    instantiate = Simulator._instantiate_initial

    def recorded(sim):
        sim.vnf_infos = Recorded()
        instantiate(sim)

    monkeypatch.setattr(Simulator, "_instantiate_initial", recorded)
    sim = build_sim(sc.sample_scenario(workload=sc.escalation_workload()))
    running.append(True)
    sim.run()
    seen = set()
    for at_setup, old, new in writes:
        if new.audit != old.audit:  # record_vnf_info_update's own write
            continue
        assert at_setup and old.vnfc_instances == () != new.vnfc_instances
        expected = dataclasses.replace(old, vnfc_instances=new.vnfc_instances)
        for f in dataclasses.fields(VnfInfo):
            assert getattr(new, f.name) == getattr(expected, f.name), f.name
        seen.add(at_setup)
    assert seen == {True}


class _DeliveryLog(Simulator):
    """Logs each record `run` delivers, as `(tick, kind, record)` with
    kind 0 for a metric and 1 for an indicator, and delivers none."""

    def _deliver_metric(self, record):
        self.delivered.append((record[0], 0, record))

    def _deliver_indicator(self, record):
        self.delivered.append((record[0], 1, record))


# The ticks of a workload's metric or indicator records, in file order;
# few distinct ticks, so that metrics and indicators share them.
record_ticks = st.lists(st.integers(0, 4), max_size=12)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(record_ticks, record_ticks)
@example([3, 1, 3, 2, 1], [3, 1, 2, 3])
def test_records_are_delivered_by_tick_then_kind_then_file_order(
        metric_ticks, indicator_ticks):
    """`run` delivers each record as the workload gave it, in the order of
    the key `(tick, kind, index)`: by tick, metrics before indicators,
    then file order. The values tell records of one tick apart."""
    metrics = [[tick, "vnfd-b", "cpu_load", i / 100]
               for i, tick in enumerate(metric_ticks)]
    indicators = [[tick, "vnfd-b", "congestion", "v%d" % i]
                  for i, tick in enumerate(indicator_ticks)]
    workload = {"metrics": metrics, "indicators": indicators}
    sim = _DeliveryLog(scenario_from_dict(sc.sample_scenario(
        workload=workload)))
    sim.delivered = []
    sim.run()
    oracle = sorted([(rec[0], 0, i, rec) for i, rec in enumerate(metrics)]
                    + [(rec[0], 1, i, rec) for i, rec in
                       enumerate(indicators)],
                    key=lambda entry: entry[:3])
    assert sim.delivered == [(tick, kind, rec)
                             for tick, kind, _, rec in oracle]
    # the records themselves, each once, not copies
    assert all(got[2] is want[3] for got, want in zip(sim.delivered, oracle))
    # each list holds exactly the given records, in tick order
    for got, given in zip(workload_records(workload), (metrics, indicators)):
        assert [rec[0] for rec in got] == sorted(rec[0] for rec in given)
        assert sorted(map(id, got)) == sorted(map(id, given))


@pytest.mark.parametrize("kind, record, problem", [
    ("metrics", [4, "vnfd-b", "cpu_lod", 0.5],
     "metric 'cpu_lod' of subject 'vnfd-b' is not monitored by NSD "
     "'nsd-1'"),
    ("indicators", [4, "vnf-nope", "congestion", "high"],
     "subject 'vnf-nope' is neither a VNFD of the NSD nor a VNF instance"),
])
def test_a_bad_record_is_named_by_its_file_index(kind, record, problem):
    """Third in its list in the file and first delivered, a bad record is
    named by its place in the file, 2, not by its place in delivery
    order, 0."""
    from nsscale.scenario import ScenarioValidationError

    workload = {"metrics": [[9, "vnfd-b", "cpu_load", 0.5],
                            [8, "vnfd-b", "cpu_load", 0.6]],
                "indicators": [[9, "vnfd-b", "congestion", "low"],
                               [8, "vnfd-b", "congestion", "high"]]}
    workload[kind].append(record)
    sim = Simulator(scenario_from_dict(sc.sample_scenario(
        workload=workload)))
    with pytest.raises(ScenarioValidationError) as raised:
        sim.run()
    assert raised.value.problems == [
        "workload: %s[2] at tick 4: %s" % (kind, problem)]


def _estimate_types(decision) -> list:
    estimate = decision.estimate
    return [type(part) for part in estimate.required]


def test_decisions_read_back_what_the_drpa_decided(monkeypatch):
    """Over the 24 samples and random seeds 0-49, a run's decisions read
    back, in order, each decision the DRPA returned, or the text of each
    error it raised, with its tick; each demand component keeps its type
    (an unviolated dimension keeps the level's int)."""
    recorded = record_decisions(monkeypatch)
    scenarios = list(samples().values()) + [
        random_scenario(random.Random(seed)) for seed in range(50)]
    errors = 0
    types = set()
    for scenario in scenarios:
        recorded.clear()
        decisions = run_dict(scenario).decisions
        assert list(decisions) == recorded
        for (_, read), (_, made) in zip(decisions, recorded):
            if isinstance(made, str):
                errors += 1
            else:
                assert _estimate_types(read) == _estimate_types(made)
                types.update(_estimate_types(made))
        assert len(decisions) == len(recorded)
    assert errors > 0
    assert types == {int, float}


@pytest.mark.parametrize("required", [
    (-2 ** 53, 12.5, 1e308, float("inf")),  # each read from a float
    (2 ** 53 + 1, 12, 20, 100),  # too wide for a float
    (7.5, float("nan"), 20, 100),
    (7.5, 12, True, 100),
])
def test_a_decision_log_gives_back_each_estimate_part(required):
    """Each part of a decision's demand estimate reads back as itself, of
    its type: the log keeps as its object an estimate with an int a
    float cannot hold, a NaN or a bool. An error reads back as its text,
    between two decisions."""
    estimate = DemandEstimate(CapacityVector(*required))
    decision = DrpaDecision("level-2", "vnf-scaling", estimate=estimate)
    log = DecisionLog()
    pairs = [(10, decision), (11, "no placeable candidate"), (12, decision)]
    for pair in pairs:
        log.append(pair)
    assert list(log) == pairs
    for (_, read), (_, made) in zip(log, pairs):
        if not isinstance(made, str):
            assert _estimate_types(read) == _estimate_types(made)


def _indicator_scenario() -> dict:
    """The escalation sample with indicator records between, before and at
    the ticks of its metric records."""
    scenario = sc.sample_scenario(workload=sc.escalation_workload())
    scenario["workload"]["indicators"] = [
        [5, "vnfd-b", "congestion", 0.5], [10, "vnfd-b", "congestion", 2.0],
        [25, "vnfd-b", "congestion", {"level": [1.0, 0.5]}],
        [40, "vnfd-b", "congestion", 1.5], [90, "vnfd-b", "congestion", 0.1]]
    return scenario


def _delivered_before(metrics, indicators, k) -> tuple:
    """(m, i): the metrics and indicators among the first `k` records
    `Simulator.run` delivers, a tick's metrics before its indicators."""
    m = i = 0
    while m + i < k:
        if i < len(indicators) and (m == len(metrics)
                                    or indicators[i][0] < metrics[m][0]):
            i += 1
        else:
            m += 1
    return m, i


def _outcome(result) -> tuple:
    return (trace_lines(result.trace), canonical_json(result.final_state),
            [(op.op_id, op.kind, op.begun, op.end, op.failed_step, op.error)
             for op in result.operations], list(result.decisions))


def _pieces_scenario(seed: int) -> dict:
    return _indicator_scenario() if seed < 0 else \
        random_scenario(random.Random(seed))


@functools.cache
def _whole_run(seed: int) -> tuple:
    """The outcome of `_pieces_scenario(seed)` run in one piece."""
    return _outcome(run_dict(_pieces_scenario(seed)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(-1, 19), st.data())
@example(-1, None)
def test_a_run_delivered_in_pieces_equals_one_run(seed, data):
    """A simulator that delivers its workload in two calls of `run`, cut
    anywhere in the delivery order, ends with the trace text, final state,
    operations and decisions of one whole run. Seed -1 is a scenario with
    indicator records; the random seeds have none. The explicit example
    cuts it after its tick-10 metric, before its tick-10 indicator."""
    scenario = _pieces_scenario(seed)
    sim = build_sim(scenario)
    metrics, indicators = workload_records(sim.scenario.workload)
    k = 2 if data is None else data.draw(
        st.integers(0, len(metrics) + len(indicators)))
    m, i = _delivered_before(metrics, indicators, k)
    sim.run((metrics[:m], indicators[:i]))
    assert _outcome(sim.run((metrics[m:], indicators[i:]))) == \
        _whole_run(seed)


def test_a_piece_that_goes_back_in_time_raises_before_any_event():
    """A second piece whose record is older than the newest sample
    delivered raises TimeRegressionError before that record emits an
    event: the trace and final state stay those of the first piece. The
    record is a metric, a numeric indicator, which the store ingests, and
    an indicator that it does not."""
    sim = build_sim(_indicator_scenario())
    metrics, indicators = workload_records(sim.scenario.workload)
    first = sim.run((metrics, indicators))
    events, state = len(first.trace), first.final_state
    numeric, other = indicators[0], indicators[2]
    assert isinstance(numeric[3], float) and isinstance(other[3], dict)
    for piece in ((metrics[:1], ()), ((), [numeric]), ((), [other])):
        assert [*piece[0], *piece[1]][0][0] < sim.store.newest_tick
        with pytest.raises(TimeRegressionError):
            sim.run(piece)
        assert len(sim.trace) == events
        assert sim.final_state() == state
