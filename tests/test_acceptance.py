"""End-to-end acceptance gate.

Each test covers one numbered acceptance criterion and prints a single
PASS/FAIL line so the suite output doubles as a checklist.
"""

import os
import random
from contextlib import contextmanager

import pytest

import broken_descriptors
import sample_catalog as sc
import scenario_gen
from conftest import audit_every_event, run_dict, run_logged, trace_events
from nsscale.capacity import CapacityVector
from nsscale.descriptors import (
    aggregate_capacity, load_catalog, validate_catalog,
)
from nsscale.drpa import (
    CostModel, LevelGraph, NoFeasibleLevelError, candidate_ns_ils,
    select_optimum,
)
from nsscale.inventory import STARTED, NfviPop, ResourceZone, capacity_report
from nsscale.simulator import STATUS_COMPLETED
from nsscale.trace import trace_lines
from selection_oracle import exhaustive_select

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "golden_jump_trace.txt")


@contextmanager
def acceptance(capsys, number, summary):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print("ACCEPTANCE %d: FAIL — %s" % (number, summary))
        raise
    with capsys.disabled():
        print("ACCEPTANCE %d: PASS — %s" % (number, summary))


def test_acceptance_1_escalation_ladder(capsys):
    with acceptance(capsys, 1, "escalating load walks level-1→2→3→4, with the "
                    "last transition classified add-vnf"):
        result = run_dict(sc.sample_scenario(
            workload=sc.escalation_workload()))
        actions = [(d.target_ns_il, d.classification)
                   for _, d in result.decisions
                   if not isinstance(d, str) and d.action == "scale"]
        assert actions == [("level-2", "vnf-scaling"),
                           ("level-3", "vnf-scaling"),
                           ("level-4", "add-vnf")]
        assert result.final_state["ns_info"]["current_ns_il"] == "level-4"


def test_acceptance_2_golden_trace(capsys):
    with acceptance(capsys, 2, "the level-1→level-3 run matches the golden "
                    "trace byte-for-byte and covers steps 5-28 in phase "
                    "order"):
        result = run_dict(sc.sample_scenario(workload=sc.jump_workload()))
        with open(GOLDEN) as fh:
            assert trace_lines(result.trace) == fh.read()
        op = result.operations[0]
        steps = [s for s, _ in op.step_log]
        assert sorted(set(steps)) == list(range(5, 29))
        alloc = [t for s, t in op.step_log if s <= 19]
        release = [t for s, t in op.step_log if s >= 20]
        assert max(alloc) < min(release)


def test_acceptance_3_service_continuity(capsys):
    with acceptance(capsys, 3, "the replacement VNFC starts (step 19) before "
                    "the replaced one stops (step 24)"):
        _, moves = run_logged(sc.sample_scenario(
            workload=sc.jump_workload()))
        started = [t["tick"] for t in moves
                   if t["step"] == 19 and t["vdu_ref"] == "vdu-2"]
        stopped = [t["tick"] for t in moves
                   if t["step"] == 24 and t["vdu_ref"] == "vdu-1"]
        assert started and stopped
        assert started[0] <= stopped[0]


def test_acceptance_4_reservation_toggle(capsys):
    with acceptance(capsys, 4, "disabling reservation removes every Reserve* "
                    "message but keeps the grant pair; enabling it sends "
                    "exactly three reservation kinds per selected VIM"):
        plain = run_dict(sc.sample_scenario(
            workload=sc.jump_workload(),
            options={"reservation_enabled": False}))
        messages = [r.message for r in trace_events(plain.trace)]
        assert not any(m.startswith("Reserve") for m in messages)
        assert "GrantRequest" in messages and "GrantResponse" in messages

        reserved = run_dict(sc.sample_scenario(workload=sc.jump_workload()))
        per_vim = {}
        for r in trace_events(reserved.trace):
            if r.message == "ReserveRequest":
                per_vim.setdefault(r.dst, []).append(r.digest)
        assert per_vim  # at least one VIM was selected
        for digests in per_vim.values():
            assert len(digests) == 3
            assert len(set(digests)) == 3  # compute, storage, network


def test_acceptance_5_conservation(capsys, monkeypatch):
    with acceptance(capsys, 5, "allocated + reserved + available = total in "
                    "every zone at every one of >= 10,000 audited events"):
        audited = [0]

        def audit(record, pops):
            for pop in pops:
                for zone in pop.zones:
                    combined = zone.allocated + zone.reserved + zone.available
                    assert combined == zone.total
                    for vec in (zone.allocated, zone.reserved,
                                zone.available):
                        assert all(v >= 0 for v in vec.as_dict().values())
            audited[0] += 1

        audit_every_event(monkeypatch, audit)
        for i in range(200):
            run_dict(scenario_gen.random_scenario(random.Random(50_001 + i)))
            if audited[0] >= 10_000:
                break
        assert audited[0] >= 10_000


def big_pop():
    zone = ResourceZone("z-big", CapacityVector(
        vcpu=10**6, memory=10**6, storage=10**6, bandwidth=10**6))
    return NfviPop("pop-big", "vim-1", [zone])


def check_oracle_agreement(catalog, nsd, flavor, rng, demands):
    snapshot = capacity_report([big_pop()])
    graph = LevelGraph(catalog, nsd, flavor)
    levels = [il.id for il in flavor.ns_ils]
    capacities = [aggregate_capacity(catalog, flavor, l) for l in levels]
    mismatches = 0
    for _ in range(demands):
        current = rng.choice(levels)
        demand = scenario_gen.random_demand(rng, capacities)
        oracle = exhaustive_select(catalog, flavor, demand, CostModel(),
                                   snapshot, current=current, exclude=(current,))
        try:
            candidates = candidate_ns_ils(graph, demand, "scale-out", current,
                                          CostModel())
        except NoFeasibleLevelError:
            if oracle is not None:
                mismatches += 1
            continue
        decision = select_optimum(graph, candidates, CostModel(), snapshot,
                                  current)
        if decision.target_ns_il != oracle:
            mismatches += 1
    return mismatches


def test_acceptance_6_oracle_equivalence(capsys, catalog, nsd, flavor):
    with acceptance(capsys, 6, "select_optimum matches the exhaustive oracle "
                    "on the sample flavor and 100 random flavors x 100 "
                    "random demands with zero mismatches"):
        rng = random.Random(60_001)
        mismatches = check_oracle_agreement(catalog, nsd, flavor, rng, 100)
        for _ in range(100):
            r_cat, r_nsd, r_flavor = scenario_gen.random_catalog(rng)
            mismatches += check_oracle_agreement(r_cat, r_nsd, r_flavor,
                                                 rng, 100)
        assert mismatches == 0


def test_acceptance_7_state_machine_soundness(capsys, catalog, nsd, flavor):
    with acceptance(capsys, 7, "STARTED only via step 19, STOPPED only via "
                    "step 24, no workflow messages outside operations, and "
                    "quiescent instance multisets match the current levels"):
        for i in range(25):
            result, moves = run_logged(scenario_gen.random_scenario(
                random.Random(70_001 + i)))
            for t in moves:
                if t["to"] == STARTED:
                    assert t["step"] == 19
                elif t["from"] is None:
                    assert t["step"] == 15  # created into the repository
                else:
                    assert (t["from"], t["step"]) == (STARTED, 24)
            spans = [(min(t for _, t in op.step_log),
                      max(t for _, t in op.step_log))
                     for op in result.operations if op.step_log]
            for record in trace_events(result.trace):
                if record.step is not None and record.step >= 5:
                    assert any(lo <= record.tick <= hi for lo, hi in spans)
            # quiescent per-VNF shape: VNFC multiset == current VNF-IL counts
            for info in result.final_state["vnf_infos"].values():
                il = catalog.vnfds[info["vnfd_ref"]] \
                    .flavor(info["vnf_flavor_ref"]).il(info["current_vnf_il"])
                got = {}
                for inst in info["vnfc_instances"]:
                    assert inst["state"] == STARTED
                    got[inst["vdu_ref"]] = got.get(inst["vdu_ref"], 0) + 1
                want = {k: v for k, v in il.counts.items() if v}
                assert got == want
            if result.status != STATUS_COMPLETED:
                continue
            # NS-level shape: per-profile VNF counts match the current NS-IL
            ns_il = flavor.ns_il(
                result.final_state["ns_info"]["current_ns_il"])
            by_vnfd = {}
            for info in result.final_state["vnf_infos"].values():
                by_vnfd[info["vnfd_ref"]] = \
                    by_vnfd.get(info["vnfd_ref"], 0) + 1
            want = {}
            for profile in flavor.vnf_profiles:
                _, count = ns_il.vnf_entries[profile.id]
                want[profile.vnfd_ref] = \
                    want.get(profile.vnfd_ref, 0) + count
            assert by_vnfd == want


def test_acceptance_8_determinism(capsys):
    with acceptance(capsys, 8, "20 randomized scenarios rerun byte-identical "
                    "traces and final states"):
        for i in range(20):
            scenario = scenario_gen.random_scenario(random.Random(80_001 + i))
            a = run_dict(scenario)
            b = run_dict(scenario)
            assert trace_lines(a.trace) == trace_lines(b.trace)
            from nsscale.trace import canonical_json
            assert canonical_json(a.final_state) == \
                canonical_json(b.final_state)


def test_acceptance_9_validation_coverage(capsys):
    with acceptance(capsys, 9, "every deliberately broken descriptor yields "
                    "exactly its expected report entry; the clean sample "
                    "yields none"):
        corpus = broken_descriptors.broken_corpus()
        assert len(corpus) >= 15
        for name, documents, kind, path, message in corpus:
            report = validate_catalog(load_catalog(documents))
            assert len(report.issues) == 1, name
            issue = report.issues[0]
            assert issue.kind == kind, name
            assert issue.path == path, name
            assert message in issue.message, name
        clean = validate_catalog(load_catalog(sc.sample_documents()))
        assert clean.issues == []
