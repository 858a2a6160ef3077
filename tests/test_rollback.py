"""A failed scaling operation leaves `final_state()` byte-identical to its
value before the operation. Failures are reached by monkeypatching the zone
writes; nothing in the program injects faults."""

import json
import random
from collections import Counter

import sample_catalog as sc
import scenario_gen
from conftest import build_sim, refuse_large_vnfcs
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from nsscale.capacity import CapacityVector
from nsscale.inventory import InventoryError, ResourceZone
from nsscale.scenario import ScenarioValidationError, scenario_from_dict
from nsscale.simulator import (
    OPERATION_FAILED, PHASE_FAILED, RESOURCE_ALLOCATION, RESOURCE_DELETION,
    RESOURCE_UPDATE, STATUS_OPERATION_FAILED, VIM_PLACEMENT,
    OperationFailure, Simulator,
)
from nsscale.trace import canonical_json

WORKLOADS = {"escalation": sc.escalation_workload, "jump": sc.jump_workload,
             "scale-in": sc.scale_in_workload}


# vlp-1 alone moves 100 -> 200 -> 50, so the NFVO exchanges each change
# with the VIM itself: an allocation, then a release and a shrink.
VL_WALK = [("level-1v", 200), ("level-1d", 50)]


def sample(level, workload, reservation):
    return sc.sample_scenario(workload=WORKLOADS[workload](), ns_il=level,
                              options={"reservation_enabled": reservation})


def state(sim) -> str:
    return canonical_json(sim.final_state())


def check_failed_operations(monkeypatch) -> list:
    """Record (op id, state before, state after) of every operation that
    fails from now on, in the returned list."""
    failed = []
    execute = Simulator._execute_decision

    def checked(sim, decision):
        before = state(sim)
        execute(sim, decision)
        op = sim.operations[-1]
        if op.phase == PHASE_FAILED:
            failed.append((op.op_id, before, state(sim)))

    monkeypatch.setattr(Simulator, "_execute_decision", checked)
    return failed


ZONE_WRITES = ("allocate", "reserve", "release", "shrink")


def fail_kth_zone_write(monkeypatch, k) -> dict:
    """Make the k-th zone write (`allocate`, `reserve`, `release` or
    `shrink`) after this call raise InventoryError; k = 0 injects nothing.
    Returns the call count."""
    calls = {"n": 0}
    for name in ZONE_WRITES:
        def write(zone, *args, _real=getattr(ResourceZone, name), **kwargs):
            calls["n"] += 1
            if calls["n"] == k:
                raise InventoryError("injected fault")
            return _real(zone, *args, **kwargs)
        monkeypatch.setattr(ResourceZone, name, write)
    return calls


def zone_writes(scenario) -> int:
    """The number of zone writes in a clean run."""
    with pytest.MonkeyPatch.context() as mp:
        sim = build_sim(scenario)
        calls = fail_kth_zone_write(mp, 0)
        sim.run()
    return calls["n"]


def assert_fault_rolls_back(scenario, k):
    """Fail the k-th zone write of a run of `scenario`: exactly one
    operation fails, and it leaves the state as it found it."""
    with pytest.MonkeyPatch.context() as mp:
        sim = build_sim(scenario)
        failed = check_failed_operations(mp)
        fail_kth_zone_write(mp, k)
        sim.run()
    # a leftover of the failed operation could fail a later one as well
    assert len(failed) == 1, (k, [op_id for op_id, *_ in failed])
    [(op_id, before, after)] = failed
    assert after == before, (k, op_id)


@pytest.mark.parametrize("reservation", [True, False])
def test_failed_add_vnf_leaves_no_phantom_vnf(monkeypatch, reservation):
    # level-3 -> level-4 adds vnf-p-b-4, whose 8-vcpu VNFCs the VIM refuses
    sim = build_sim(sample("level-3", "jump", reservation))
    initial = state(sim)
    refuse_large_vnfcs(monkeypatch)  # level-3 itself holds one such VNFC
    result = sim.run()
    assert result.status == STATUS_OPERATION_FAILED
    assert result.operations[0].failed_step == (7 if reservation else 12)
    assert "vnf-p-b-4" not in result.final_state["vnf_infos"]
    assert "vnf-p-b-4" not in \
        result.final_state["ns_info"]["vnf_instance_refs"]
    assert canonical_json(result.final_state) == initial


@pytest.mark.parametrize("reservation", [True, False])
def test_failure_after_a_finished_sub_procedure_commits_nothing(
        monkeypatch, reservation):
    # level-2 -> level-4 first scales vnf-p-b-2 to il-3 and grows vlp-1,
    # then adds vnf-p-b-4; its zone refuses the first write for the third
    # item of the run, in the second sub-procedure.
    sim = build_sim(sample("level-2", "jump", reservation))
    initial = state(sim)
    keys = []  # items in the order the workflow looks up their zones
    planned_zone = Simulator._planned_zone

    def looked_up(simulator, plan, item):
        if item.key not in keys:
            keys.append(item.key)
        return planned_zone(simulator, plan, item)

    monkeypatch.setattr(Simulator, "_planned_zone", looked_up)
    for name in ("reserve", "allocate"):
        def write(zone, *args, _real=getattr(ResourceZone, name), **kwargs):
            if len(keys) == 3:
                raise InventoryError("injected fault")
            return _real(zone, *args, **kwargs)
        monkeypatch.setattr(ResourceZone, name, write)
    result = sim.run()
    assert result.status == STATUS_OPERATION_FAILED
    assert result.operations[0].failed_step == (7 if reservation else 12)
    assert keys[2].startswith("p-b/inst0/") and len(keys) == 3
    assert canonical_json(result.final_state) == initial


@pytest.mark.parametrize("reservation", [True, False])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("level", sc.LEVELS)
def test_every_zone_write_fault_rolls_back(level, workload, reservation):
    scenario = sample(level, workload, reservation)
    for k in range(1, zone_writes(scenario) + 1):
        assert_fault_rolls_back(scenario, k)


@pytest.mark.parametrize("reservation", [True, False])
def test_every_zone_write_fault_of_the_nfvos_vl_exchange_rolls_back(
        reservation):
    scenario = sc.level_walk_scenario(VL_WALK, reservation)
    for k in range(1, zone_writes(scenario) + 1):
        assert_fault_rolls_back(scenario, k)


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(0, 10**6), st.data())
def test_zone_write_faults_roll_back_in_random_scenarios(seed, data):
    # A random scenario makes about 100 zone writes, so each example fails
    # a few of them rather than every one.
    scenario = scenario_gen.random_scenario(random.Random(seed))
    try:
        writes = zone_writes(scenario)
    except ScenarioValidationError:  # the initial level does not fit
        assume(False)
    assume(writes > 0)
    for k in data.draw(st.lists(st.integers(1, writes), min_size=1,
                                max_size=4, unique=True)):
        assert_fault_rolls_back(scenario, k)


def test_reserve_fault_is_a_step_seven_failure(monkeypatch):
    # A zone refusing a reservation is answered at step 9 like a zone the
    # VIM cannot find, and the operation fails at step 7.
    sim = build_sim(sample("level-1", "jump", True))
    initial = state(sim)

    def reserve(zone, spec, kind):
        raise InventoryError("injected fault")

    monkeypatch.setattr(ResourceZone, "reserve", reserve)
    result = sim.run()
    assert result.status == STATUS_OPERATION_FAILED
    assert result.operations[0].failed_step == 7
    assert result.operations[0].error == "injected fault"
    assert [r.message for r in result.trace[-3:]] == [
        "ReserveRequest", "ReserveResponse", "OperationFailed"]
    assert canonical_json(result.final_state) == initial


@pytest.mark.parametrize("write, last", [
    ("release", "ReleaseRequest"), ("shrink", "ReleaseResponse")])
def test_release_fault_is_a_step_26_failure(monkeypatch, write, last):
    # level-4 -> level-3 removes vnf-p-b-4, releasing its handles at step
    # 26, then shrinks vlp-1's one handle from 800 to 400, also step 26.
    # A zone refusing either fails the operation at step 26.
    sim = build_sim(sample("level-4", "scale-in", True))
    initial = state(sim)

    def refused(zone, *args):
        raise InventoryError("injected fault")

    monkeypatch.setattr(ResourceZone, write, refused)
    result = sim.run()
    assert result.status == STATUS_OPERATION_FAILED
    assert result.operations[0].failed_step == 26
    assert result.operations[0].error == "injected fault"
    assert [r.message for r in result.trace[-2:]] == [last, "OperationFailed"]
    assert canonical_json(result.final_state) == initial


def check_step_logs(monkeypatch) -> list:
    """Check every operation from now on as it ends: its step log is the
    (step, tick) of the events sent during it, less OperationFailed, and it
    reads failed exactly when it has a failed step. Returns the operations
    checked."""
    checked = []
    execute = Simulator._execute_decision

    def logged(sim, decision):
        begun = len(sim.trace)
        execute(sim, decision)
        op = sim.operations[-1]
        assert op.step_log == [(event.step, event.tick)
                               for event in sim.trace[begun:]
                               if event.message != "OperationFailed"]
        assert (op.phase == PHASE_FAILED) == (op.failed_step is not None)
        checked.append(op)

    monkeypatch.setattr(Simulator, "_execute_decision", logged)
    return checked


def test_step_log_is_the_trace_of_its_operation(monkeypatch):
    checked = check_step_logs(monkeypatch)
    for level in sc.LEVELS:
        for workload in sorted(WORKLOADS):
            for reservation in (True, False):
                build_sim(sample(level, workload, reservation)).run()
    scenario = sample("level-2", "jump", True)
    writes = zone_writes(scenario)
    for k in range(1, writes + 1):
        with pytest.MonkeyPatch.context() as mp:
            sim = build_sim(scenario)
            fail_kth_zone_write(mp, k)
            sim.run()
    phases = [op.phase for op in checked]
    assert phases.count(PHASE_FAILED) == writes  # one failure per fault
    assert len(phases) - writes >= 24


class FailingAtEvent(Simulator):
    """A simulator whose `_emit` fails the n-th operation at its k-th event,
    raising `OperationFailure` at the event's step before recording it,
    unless that event is an OperationFailed; n = 0 fails nothing. It keeps
    the arrow it failed at, and each failed operation with (final state,
    NS level) before and after it."""

    def __init__(self, scenario: dict, n: int = 0, k: int = 0):
        self.fault = (n, k)
        self.failed_at = None
        self.failures = []
        super().__init__(scenario_from_dict(scenario))

    def _emit(self, src, dst, arrow, text):
        n, k = self.fault
        ops = self.operations
        if (len(ops) == n > 0 and ops[-1].end is None
                and len(self.trace) - ops[-1].begun == k - 1
                and arrow is not OPERATION_FAILED):
            self.failed_at = arrow
            raise OperationFailure(arrow.step, "injected fault")
        super()._emit(src, dst, arrow, text)

    def _execute_decision(self, decision):
        before = (state(self), self.current_ns_il)
        super()._execute_decision(decision)
        op = self.operations[-1]
        if op.phase == PHASE_FAILED:
            self.failures.append((op, before,
                                  (state(self), self.current_ns_il)))


def fail_at_every_message(scenario: dict, label) -> int:
    """Fail each operation of `scenario` at each of its events in turn, bar
    an OperationFailed: the run goes on, the injected operation fails at
    the step of the message it failed at, and every failed operation ends
    at its OperationFailed and leaves the final state and the NS level as
    they were before it. Returns the number of failing runs; `label` names
    the scenario in an assertion's message."""
    runs = 0
    clean = FailingAtEvent(scenario).run()
    for n, op in enumerate(clean.operations, 1):
        for k, event in enumerate(clean.trace[op.begun:op.end], 1):
            if event.message == OPERATION_FAILED.message:
                continue
            sim = FailingAtEvent(scenario, n, k)
            result = sim.run()
            runs += 1
            failed = result.operations[n - 1]
            assert failed.failed_step == sim.failed_at.step, (label, n, k)
            for any_op, before, after in sim.failures:
                messages = [e.message for e in result.trace[
                    any_op.begun:any_op.end]]
                assert messages.index(OPERATION_FAILED.message) \
                    == len(messages) - 1, (label, n, k, any_op.op_id)
                assert after == before, (label, n, k, any_op.op_id)
            assert failed in [op for op, _, _ in sim.failures]
    return runs


def test_a_failure_at_any_message_rolls_back():
    """`fail_at_every_message` over the 24 sample scenarios."""
    runs = 0
    for level in sc.LEVELS:
        for workload in sorted(WORKLOADS):
            for reservation in (True, False):
                runs += fail_at_every_message(
                    sample(level, workload, reservation),
                    (level, workload, reservation))
    assert runs > 700


# The `scenario_gen` seeds swept. Each fits its initial level and makes
# about 450 to 600 failing runs of some 7 ms each, so one seed is what
# tier-1 time allows; seeds 0 to 5 were swept once, and all held.
FAILURE_SWEEP_SEEDS = (0,)


def test_a_failure_at_any_message_rolls_back_in_random_scenarios():
    """`fail_at_every_message` over the random scenarios of seeds
    `FAILURE_SWEEP_SEEDS`."""
    runs = 0
    for seed in FAILURE_SWEEP_SEEDS:
        runs += fail_at_every_message(
            scenario_gen.random_scenario(random.Random(seed)), seed)
    assert runs > 400


# The event that announces each zone write -> the writes it announces, as
# (write, key) pairs: a reserve is keyed by its zone, the other writes by
# their handle and a shrink also by the handle's new spec.
ANNOUNCEMENTS = {
    VIM_PLACEMENT: lambda p: [("reserve", e["zone"]) for e in p["zones"]],
    RESOURCE_ALLOCATION: lambda p: [("allocate", p["handle"])],
    RESOURCE_DELETION: lambda p: [("release", h) for h in p["handles"]],
    RESOURCE_UPDATE: lambda p: [
        ("shrink", (p["handle"], CapacityVector.from_dict(p["spec"])))],
}


def write_key(name, zone, args, result):
    if name == "reserve":
        return zone.id
    if name == "allocate":
        return result.id
    if name == "release":
        return args[0].id
    return result.id, result.spec


def check_zone_writes_are_announced(monkeypatch) -> list:
    """Check every operation from now on as it ends: the zone writes it
    made equal the writes its events announce, each event sent by the
    written zone's VIM. A failed operation's writes are rolled back, and
    the write of a batch whose event it never sent goes unannounced, so of
    it only that every announced write was made is checked. A run makes
    no zone write outside its operations; set-up's writes precede it.
    Returns the (operation, writes made) checked."""
    made, announced, checked = [], [], []
    for name in ZONE_WRITES:
        def write(zone, *args, _name=name, _real=getattr(ResourceZone, name),
                  **kwargs):
            result = _real(zone, *args, **kwargs)
            made.append((_name, zone, write_key(_name, zone, args, result)))
            return result
        monkeypatch.setattr(ResourceZone, name, write)
    emit = Simulator._emit

    def emitted(sim, src, dst, arrow, text):
        emit(sim, src, dst, arrow, text)
        if arrow in ANNOUNCEMENTS:
            announced.extend(
                (name, src, key)
                for name, key in ANNOUNCEMENTS[arrow](json.loads(text)))

    execute = Simulator._execute_decision

    def audited(sim, decision):
        assert not made  # a write outside an operation
        execute(sim, decision)
        op = sim.operations[-1]
        vim = {id(zone): sim.vim_actor[pop.vim_ref]
               for pop in sim.pops for zone in pop.zones}
        writes = Counter((name, vim[id(zone)], key)
                         for name, zone, key in made)
        if op.phase == PHASE_FAILED:
            assert not Counter(announced) - writes, op
        else:
            assert writes == Counter(announced), op
        checked.append((op, len(made)))
        made.clear()
        announced.clear()

    run = Simulator.run

    def ran(sim, *args):
        made.clear()
        result = run(sim, *args)
        assert not made  # a write outside an operation
        return result

    monkeypatch.setattr(Simulator, "_emit", emitted)
    monkeypatch.setattr(Simulator, "_execute_decision", audited)
    monkeypatch.setattr(Simulator, "run", ran)
    return checked


def test_every_zone_write_is_announced(monkeypatch):
    checked = check_zone_writes_are_announced(monkeypatch)
    for level in sc.LEVELS:
        for workload in sorted(WORKLOADS):
            for reservation in (True, False):
                build_sim(sample(level, workload, reservation)).run()
    samples = len(checked)
    for seed in range(50):
        try:
            sim = build_sim(scenario_gen.random_scenario(random.Random(seed)))
        except ScenarioValidationError:  # the initial level does not fit
            continue
        sim.run()
    randoms = len(checked) - samples
    writes = 0
    for scenario in (sample("level-2", "jump", True),
                     sc.level_walk_scenario(VL_WALK, True),
                     sc.level_walk_scenario(VL_WALK, False)):
        faults = zone_writes(scenario)
        for k in range(1, faults + 1):
            with pytest.MonkeyPatch.context() as mp:
                sim = build_sim(scenario)
                fail_kth_zone_write(mp, k)
                sim.run()
        writes += faults
    failed = [op for op, _ in checked if op.phase == PHASE_FAILED]
    assert samples >= 24 and randoms >= 500
    assert len(failed) == writes
    assert sum(n for _, n in checked) >= 5000
