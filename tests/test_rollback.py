"""A failed scaling operation leaves `final_state()` byte-identical to its
value before the operation. Failures are reached by monkeypatching the zone
writes; nothing in the program injects faults."""

import random

import sample_catalog as sc
import scenario_gen
from conftest import build_sim, refuse_large_vnfcs
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from nsscale.inventory import InventoryError, ResourceZone
from nsscale.scenario import ScenarioValidationError
from nsscale.simulator import PHASE_FAILED, STATUS_OPERATION_FAILED, Simulator
from nsscale.trace import canonical_json

WORKLOADS = {"escalation": sc.escalation_workload, "jump": sc.jump_workload,
             "scale-in": sc.scale_in_workload}


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


def fail_kth_zone_write(monkeypatch, k) -> dict:
    """Make the k-th `allocate` or `reserve` after this call raise
    InventoryError; k = 0 injects nothing. Returns the call count."""
    calls = {"n": 0}
    for name in ("allocate", "reserve"):
        def write(zone, *args, _real=getattr(ResourceZone, name), **kwargs):
            calls["n"] += 1
            if calls["n"] == k:
                raise InventoryError("injected fault")
            return _real(zone, *args, **kwargs)
        monkeypatch.setattr(ResourceZone, name, write)
    return calls


def zone_writes(scenario) -> int:
    """The number of `allocate` and `reserve` calls in a clean run."""
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
