"""A failed scaling operation leaves `final_state()` byte-identical to its
value before the operation. Failures are reached by monkeypatching the zone
writes; nothing in the program injects faults. States are compared as
dicts, which are equal exactly when their canonical JSON is: they hold
lists, never tuples, and no NaN capacity."""

import json
import random
from collections import Counter

import sample_catalog as sc
import scenario_gen
from conftest import build_sim, refuse_large_vnfcs
from corpus import (
    VL_WALK, WORKLOADS, fail_kth_zone_write, sample, samples, zone_writes)
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
        before = (self.final_state(), self.current_ns_il)
        super()._execute_decision(decision)
        op = self.operations[-1]
        if op.phase == PHASE_FAILED:
            self.failures.append((op, before,
                                  (self.final_state(), self.current_ns_il)))


def assert_fault_rolls_back(scenario, k):
    """Fail the k-th zone write of a run of `scenario`: exactly one
    operation fails, and it leaves the state as it found it."""
    with pytest.MonkeyPatch.context() as mp:
        sim = FailingAtEvent(scenario)
        fail_kth_zone_write(mp, k)
        sim.run()
    # a leftover of the failed operation could fail a later one as well
    assert len(sim.failures) == 1, (k, [op.op_id for op, *_ in sim.failures])
    [(op, before, after)] = sim.failures
    assert after == before, (k, op.op_id)


@pytest.mark.parametrize("reservation", [True, False])
def test_failed_add_vnf_leaves_no_phantom_vnf(monkeypatch, reservation):
    # level-3 -> level-4 adds vnf-p-b-4, whose 8-vcpu VNFCs the VIM refuses
    sim = build_sim(sample("level-3", "jump", reservation))
    initial = sim.final_state()
    refuse_large_vnfcs(monkeypatch)  # level-3 itself holds one such VNFC
    result = sim.run()
    assert result.status == STATUS_OPERATION_FAILED
    assert result.operations[0].failed_step == (7 if reservation else 12)
    assert "vnf-p-b-4" not in result.final_state["vnf_infos"]
    assert "vnf-p-b-4" not in \
        result.final_state["ns_info"]["vnf_instance_refs"]
    assert result.final_state == initial


@pytest.mark.parametrize("reservation", [True, False])
def test_failure_after_a_finished_sub_procedure_commits_nothing(
        monkeypatch, reservation):
    # level-2 -> level-4 first scales vnf-p-b-2 to il-3 and grows vlp-1,
    # then adds vnf-p-b-4; its zone refuses the first write for the third
    # item of the run, in the second sub-procedure.
    sim = build_sim(sample("level-2", "jump", reservation))
    initial = sim.final_state()
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
    assert result.final_state == initial


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
    initial = sim.final_state()

    def reserve(zone, spec, kind):
        raise InventoryError("injected fault")

    monkeypatch.setattr(ResourceZone, "reserve", reserve)
    result = sim.run()
    assert result.status == STATUS_OPERATION_FAILED
    assert result.operations[0].failed_step == 7
    assert result.operations[0].error == "injected fault"
    assert [r.message for r in result.trace[-3:]] == [
        "ReserveRequest", "ReserveResponse", "OperationFailed"]
    assert result.final_state == initial


@pytest.mark.parametrize("write, last", [
    ("release", "ReleaseRequest"), ("shrink", "ReleaseResponse")])
def test_release_fault_is_a_step_26_failure(monkeypatch, write, last):
    # level-4 -> level-3 removes vnf-p-b-4, releasing its handles at step
    # 26, then shrinks vlp-1's one handle from 800 to 400, also step 26.
    # A zone refusing either fails the operation at step 26.
    sim = build_sim(sample("level-4", "scale-in", True))
    initial = sim.final_state()

    def refused(zone, *args):
        raise InventoryError("injected fault")

    monkeypatch.setattr(ResourceZone, write, refused)
    result = sim.run()
    assert result.status == STATUS_OPERATION_FAILED
    assert result.operations[0].failed_step == 26
    assert result.operations[0].error == "injected fault"
    assert [r.message for r in result.trace[-2:]] == [last, "OperationFailed"]
    assert result.final_state == initial


def test_step_log_is_the_trace_of_its_operation(corpus):
    """Each operation's step log is the (step, tick) of the events sent
    during it, less OperationFailed, and it reads failed exactly when it
    has a failed step: over the 24 samples and a sweep of zone-write
    faults, each of which fails one operation."""
    sweep = [record for (name, k), record in corpus["sweep"].items()
             if name == "level-2/jump/reserve"]
    writes = len(sweep) - 1  # less the clean run
    phases = []
    for record in (*corpus["sample"].values(), *sweep):
        trace = record.result.trace
        for op, (begun, end) in zip(record.result.operations, record.spans,
                                    strict=True):
            assert op.step_log == [(event.step, event.tick)
                                   for event in trace[begun:end]
                                   if event.message != "OperationFailed"]
            assert (op.phase == PHASE_FAILED) == (op.failed_step is not None)
            phases.append(op.phase)
    assert phases.count(PHASE_FAILED) == writes  # one failure per fault
    assert len(phases) - writes >= 24


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
    runs = sum(fail_at_every_message(scenario, name)
               for name, scenario in samples().items())
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


def announced_writes(record) -> list:
    """Check each operation of `record` as it ends: the zone writes it
    made equal the writes its events announce, each event sent by the
    written zone's VIM. A failed operation's writes are rolled back, and
    the write of a batch whose event it never sent goes unannounced, so of
    it only that every announced write was made is checked. The run makes
    no zone write outside its operations; set-up's writes precede it.
    Returns the (operation, writes made) checked."""
    assert all(at is not None for *_, at in record.writes)
    checked = []
    for index, (op, (begun, end)) in enumerate(zip(
            record.result.operations, record.spans, strict=True)):
        made = Counter((name, vim, key)
                       for name, vim, key, at in record.writes if at == index)
        announced = Counter(
            (name, src, key)
            for src, _, step, message, text, _ in record.events[begun:end]
            if (step, message) in ANNOUNCEMENTS
            for name, key in ANNOUNCEMENTS[step, message](json.loads(text)))
        if op.phase == PHASE_FAILED:
            assert not announced - made, op
        else:
            assert made == announced, op
        checked.append((op, sum(made.values())))
    return checked


def test_every_zone_write_is_announced(corpus):
    """`announced_writes` over the 24 samples, random scenarios and the
    sweeps of zone-write faults, each of which fails one operation."""
    samples, randoms, swept = (
        [checked for record in records for checked in announced_writes(record)]
        for records in (corpus["sample"].values(), [
            record for seed, record in corpus["random"].items() if seed < 50],
            corpus["sweep"].values()))
    checked = samples + randoms + swept
    failed = [op for op, _ in checked if op.phase == PHASE_FAILED]
    assert len(samples) >= 24 and len(randoms) >= 500
    assert len(failed) == sum(k > 0 for _, k in corpus["sweep"])
    assert sum(n for _, n in checked) >= 5000
