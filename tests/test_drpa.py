import random

import pytest

import sample_catalog as sc
import scenario_gen
from conftest import build_sim, run_dict
from nsscale.capacity import CapacityVector
from nsscale.descriptors import load_catalog
from nsscale.drpa import (
    ACTION_SCALE, CostModel, DrpaError, LevelGraph,
    NoFeasibleLevelError, NoPlaceableCandidateError, PlacementItem,
    UnplaceableError, candidate_ns_ils, decide, delta_additions,
    estimate_demand, plan_placement, select_optimum,
)
from nsscale.descriptors import aggregate_capacity, ns_il_delta
from scenario_gen import random_catalog
from selection_oracle import exhaustive_select
from nsscale.inventory import NfviPop, ResourceZone, capacity_report
from nsscale.monitoring import RuleVerdict


def verdict(dims, rule_id="r-out"):
    """A fired rule's verdict."""
    return RuleVerdict(rule_id, False, frozenset(dims))


def make_pop(pop_id="pop-1", vim="vim-1", **totals):
    defaults = dict(vcpu=64, memory=128, storage=256, bandwidth=2000)
    defaults.update(totals)
    zone = ResourceZone("z-" + pop_id, CapacityVector(**defaults))
    return NfviPop(pop_id, vim, [zone])


def test_demand_linear_scaling():
    est = estimate_demand((verdict({"vcpu"}),), {"vcpu": 0.9},
                          CapacityVector(vcpu=8, memory=16), 0.6)
    assert est.vcpu == pytest.approx(12.0)
    # non-violated dimensions keep the current capacity
    assert est.memory == 16


def test_demand_fixed_point_at_target():
    est = estimate_demand((verdict({"vcpu"}),), {"vcpu": 0.6},
                          CapacityVector(vcpu=8), 0.6)
    assert est.vcpu == pytest.approx(8.0)


def test_demand_scale_in_path():
    est = estimate_demand((verdict({"vcpu"}, rule_id="r-in"),), {"vcpu": 0.2},
                          CapacityVector(vcpu=8), 0.6)
    assert est.vcpu == pytest.approx(0.2 * 8 / 0.6)


def test_demand_without_observation_keeps_capacity():
    est = estimate_demand((verdict({"vcpu"}),), {}, CapacityVector(vcpu=8),
                          0.6)
    assert est.vcpu == 8


@pytest.mark.parametrize("load, required", [(1.1, 22), (0.9, 18)])
def test_demand_has_no_float_drift(load, required):
    # As floats, load * 12 / 0.6 is 22.000000000000004 and
    # 18.000000000000004.
    est = estimate_demand((verdict({"vcpu"}),), {"vcpu": load},
                          CapacityVector(vcpu=12), 0.6)
    assert est.vcpu == required


def test_demand_equal_to_a_level_selects_that_level(catalog, nsd, flavor):
    # 1.1 at level-3 (12 vcpu) needs exactly level-4's 22 vcpu.
    est = estimate_demand((verdict({"vcpu"}),), {"vcpu": 1.1},
                          aggregate_capacity(catalog, flavor, "level-3"), 0.6)
    assert candidate_ns_ils(LevelGraph(catalog, nsd, flavor), est,
                            "scale-out", "level-3", CostModel()) == ["level-4"]
    assert exhaustive_select(catalog, flavor, est, CostModel(),
                             capacity_report([make_pop()]), current="level-3",
                             exclude=("level-3",)) == "level-4"


@pytest.fixture
def levels(catalog, nsd, flavor):
    return LevelGraph(catalog, nsd, flavor)


def test_candidates_scale_out_excludes_current(levels):
    got = candidate_ns_ils(levels, CapacityVector(vcpu=7.5), "scale-out",
                           "level-1", CostModel())
    assert got == ["level-2", "level-3", "level-4"]


def test_candidates_when_only_top_level_fits(levels):
    got = candidate_ns_ils(levels, CapacityVector(vcpu=18), "scale-out",
                           "level-3", CostModel())
    assert got == ["level-4"]


def test_candidates_empty_is_an_error(levels):
    with pytest.raises(NoFeasibleLevelError):
        candidate_ns_ils(levels, CapacityVector(vcpu=100), "scale-out",
                         "level-1", CostModel())


def test_candidates_scale_in_requires_cheaper(levels):
    got = candidate_ns_ils(levels,
                           CapacityVector(vcpu=9.2, memory=11, storage=20,
                                          bandwidth=267),
                           "scale-in", "level-4", CostModel())
    assert got == ["level-3"]


def test_delta_additions_scale_and_vl(catalog, flavor):
    delta = ns_il_delta(catalog, flavor, "level-1", "level-3")
    items = delta_additions(catalog, flavor, delta)
    keys = [i.key for i in items]
    assert keys == ["p-b/scale0/vnfc/vdu-2/0", "vl/vlp-1"]
    assert items[0].spec == CapacityVector(8, 16, 20, 0)
    assert items[1].spec == CapacityVector(bandwidth=300)


def test_delta_additions_whole_instance(catalog, flavor):
    delta = ns_il_delta(catalog, flavor, "level-3", "level-4")
    items = delta_additions(catalog, flavor, delta)
    vnfc_keys = [i.key for i in items if i.kind == "vnfc"]
    assert vnfc_keys == ["p-b/inst0/vnfc/vdu-2/0", "p-b/inst0/vnfc/vdu-3/0"]
    assert all(i.new_instance_index == 0 for i in items if i.kind == "vnfc")


def test_additions_from_the_empty_level_instantiate_it(catalog, nsd, flavor):
    levels = LevelGraph(catalog, nsd, flavor,
                        {"anti_affinity": {"B1": "spread"}})
    items = levels.additions(None, "level-2")
    assert [i.key for i in items] == [
        "p-a/inst0/vnfc/vdu-1/0", "p-b/inst0/vnfc/vdu-1/0",
        "p-b/inst0/vnfc/vdu-1/1", "p-b/inst0/vnfc/vdu-3/0",
        "p-c/inst0/vnfc/vdu-1/0", "vl/vlp-1"]
    assert [i.anti_affinity for i in items] == \
        ["", "spread", "spread", "", "", ""]
    assert items[-1].spec == CapacityVector(bandwidth=200)
    assert sum((i.spec for i in items), CapacityVector()) == \
        levels.capacity("level-2")


def plan(items, pops):
    return plan_placement(items, capacity_report(pops))


def pop_ids(placement) -> dict:
    return {key: site.pop_id for key, site in placement.items()}


def test_plan_placement_first_fit_by_pop_id():
    items = [PlacementItem("a", CapacityVector(vcpu=8), "vnfc")]
    pops = [make_pop("pop-2"), make_pop("pop-1", vcpu=10)]
    placement = plan(items, pops)
    assert pop_ids(placement) == {"a": "pop-1"}
    assert {site.vim_ref for site in placement.values()} == {"vim-1"}


def test_plan_placement_skips_full_pops():
    items = [PlacementItem("a", CapacityVector(vcpu=8), "vnfc")]
    pops = [make_pop("pop-1", vcpu=4), make_pop("pop-2")]
    assert pop_ids(plan(items, pops)) == {"a": "pop-2"}


def test_plan_placement_needs_one_zone_to_fit():
    # pop-1 holds 12 vcpu in all, but no zone of it holds 8
    split = NfviPop("pop-1", "vim-1", [
        ResourceZone("z-1", CapacityVector(vcpu=6, memory=64)),
        ResourceZone("z-2", CapacityVector(vcpu=6, memory=64))])
    items = [PlacementItem("a", CapacityVector(vcpu=8), "vnfc")]
    assert pop_ids(plan(items, [split, make_pop("pop-2")])) == {"a": "pop-2"}
    with pytest.raises(UnplaceableError) as err:
        plan(items, [split])
    assert err.value.shortfall == ["vcpu"]


def test_plan_placement_counts_the_items_placed_before():
    split = NfviPop("pop-1", "vim-1", [
        ResourceZone("z-1", CapacityVector(vcpu=6, memory=64)),
        ResourceZone("z-2", CapacityVector(vcpu=6, memory=64))])
    items = [PlacementItem(k, CapacityVector(vcpu=4), "vnfc")
             for k in ("a", "b", "c")]
    # a and b take a zone each; c fits neither remainder of 2
    snapshot = capacity_report([split, make_pop("pop-2")])
    placement = plan_placement(items, snapshot)
    assert pop_ids(placement) == {"a": "pop-1", "b": "pop-1", "c": "pop-2"}
    # each site is the snapshot's own record of its zone, not a copy
    assert all(any(site is zone for zone in snapshot)
               for site in placement.values())
    snapshot = capacity_report([split])
    with pytest.raises(UnplaceableError):
        plan_placement(items, snapshot)
    assert snapshot == capacity_report([split])  # left unchanged


def test_anti_affinity_forces_distinct_pops():
    items = [
        PlacementItem("a", CapacityVector(vcpu=2), "vnfc", anti_affinity="x"),
        PlacementItem("b", CapacityVector(vcpu=2), "vnfc", anti_affinity="x"),
    ]
    pops = [make_pop("pop-1"), make_pop("pop-2", vim="vim-2")]
    placement = plan(items, pops)
    assert set(pop_ids(placement).values()) == {"pop-1", "pop-2"}
    assert {site.vim_ref for site in placement.values()} == \
        {"vim-1", "vim-2"}
    with pytest.raises(UnplaceableError):
        plan(items, [make_pop("pop-1")])


def test_unplaceable_names_item_and_shortfall():
    items = [PlacementItem("big", CapacityVector(vcpu=100), "vnfc")]
    with pytest.raises(UnplaceableError) as err:
        plan(items, [make_pop("pop-1")])
    assert err.value.item_key == "big"
    assert err.value.shortfall == ["vcpu"]


def test_select_optimum_minimizes_cost(levels):
    decision = select_optimum(levels, ["level-2", "level-3", "level-4"],
                              CostModel(), capacity_report([make_pop()]),
                              "level-1")
    assert decision.action == ACTION_SCALE
    assert decision.target_ns_il == "level-2"
    assert [e.ns_il_id for e in decision.rationale] == \
        ["level-2", "level-3", "level-4"]
    assert all(e.feasible for e in decision.rationale)


def test_select_optimum_skips_unplaceable(levels):
    # level-2's extra VNFC fits nowhere, level-3's neither, level-4 neither:
    # a tiny pop fails everything
    with pytest.raises(NoPlaceableCandidateError):
        select_optimum(levels, ["level-2"], CostModel(),
                       capacity_report([make_pop(vcpu=1, memory=1, storage=1,
                                                 bandwidth=1)]),
                       "level-1")


def test_select_optimum_tie_breaks_on_instances(levels):
    # weight only storage: level-3 (30) and level-2 (30) tie on cost;
    # both carry 3 VNF instances, so declaration order decides
    cm = CostModel(w_vcpu=0, w_memory=0, w_storage=1, w_bandwidth=0)
    decision = select_optimum(levels, ["level-3", "level-2"], cm,
                              capacity_report([make_pop()]), "level-1")
    assert decision.target_ns_il == "level-2"


def test_decide_full_pipeline(levels):
    decision = decide(levels, (verdict({"vcpu"}),), "level-1", {"vcpu": 0.9},
                      CostModel(), 0.6, capacity_report([make_pop()]))
    # 0.9 * 6 / 0.6 = 9 vcpu: level-2 (8) is out, level-3 (12) is optimal
    assert decision.target_ns_il == "level-3"
    assert decision.classification == "vnf-scaling"
    assert decision.placement["p-b/scale0/vnfc/vdu-2/0"].pop_id == "pop-1"


def test_exhaustive_select_agrees_on_sample(catalog, flavor, levels):
    rng = random.Random(7)
    snapshot = capacity_report([make_pop()])
    for _ in range(200):
        current = rng.choice(list(sc.LEVELS))
        demand = CapacityVector(
            vcpu=rng.uniform(0, 30), memory=rng.uniform(0, 50),
            storage=rng.uniform(0, 70), bandwidth=rng.uniform(0, 900))
        oracle = exhaustive_select(catalog, flavor, demand, CostModel(),
                                   snapshot, current=current, exclude=(current,))
        try:
            candidates = candidate_ns_ils(levels, demand, "scale-out",
                                          current, CostModel())
        except NoFeasibleLevelError:
            assert oracle is None
            continue
        decision = select_optimum(levels, candidates, CostModel(), snapshot,
                                  current)
        assert decision.target_ns_il == oracle


def test_weight_increase_never_buys_more_of_that_dimension(catalog, nsd,
                                                           flavor, levels):
    snapshot = capacity_report([make_pop()])
    demand = CapacityVector(vcpu=7.5, memory=12, storage=20, bandwidth=100)
    candidates = candidate_ns_ils(levels, demand, "scale-out", "level-1",
                                  CostModel())
    base = select_optimum(levels, candidates, CostModel(), snapshot, "level-1")
    for dim, kw in [("vcpu", "w_vcpu"), ("bandwidth", "w_bandwidth")]:
        heavy = select_optimum(levels, candidates, CostModel(**{kw: 10.0}),
                               snapshot, "level-1")
        before = aggregate_capacity(catalog, flavor, base.target_ns_il)
        after = aggregate_capacity(catalog, flavor, heavy.target_ns_il)
        assert after.get(dim) <= before.get(dim)


def test_level_graph_equals_direct_derivation():
    rng = random.Random(5)
    for _ in range(25):
        catalog, nsd, flavor = random_catalog(rng)
        constraints = {"anti_affinity": {"C0": "spread"}}
        levels = LevelGraph(catalog, nsd, flavor, constraints)
        ids = [il.id for il in flavor.ns_ils]
        assert levels.nodes == ids
        for a in ids:
            assert levels.capacity(a) == \
                aggregate_capacity(catalog, flavor, a)
            for b in ids:
                delta = ns_il_delta(catalog, flavor, a, b)
                assert levels.delta(a, b) == delta
                assert levels.additions(a, b) == tuple(delta_additions(
                    catalog, flavor, delta, constraints))
                assert levels.additions(a, b) is levels.additions(a, b)


def test_exhaustive_select_asks_for_a_zone_per_item(catalog, flavor):
    # level-3 -> level-4 adds an 8-vcpu VNFC: 7 + 7 vcpu in two zones is
    # enough in aggregate, but no zone holds it
    def pop(*vcpus):
        return NfviPop("pop-1", "vim-1", [
            ResourceZone("z-%d" % i, CapacityVector(vcpu=v, memory=64,
                                                   storage=256,
                                                   bandwidth=2000))
            for i, v in enumerate(vcpus)])

    demand = CapacityVector(vcpu=18)
    assert exhaustive_select(catalog, flavor, demand, CostModel(),
                             capacity_report([pop(7, 7)]),
                             current="level-3") is None
    assert exhaustive_select(catalog, flavor, demand, CostModel(),
                             capacity_report([pop(2, 8)]),
                             current="level-3") == "level-4"


def _record_selections(monkeypatch) -> list:
    """Wrap the simulator's snapshot and the DRPA's selection: each
    selection is recorded with its arguments, the snapshot the simulator
    took for it, and its decision or the error it raised."""
    import nsscale.drpa
    import nsscale.simulator

    snapshots = []
    selections = []
    real_report = nsscale.simulator.capacity_report
    real_select = nsscale.drpa.select_optimum

    def report(pops):
        snapshots.append(real_report(pops))
        return snapshots[-1]

    def select(levels, candidates, cost_model, snapshot, current):
        entry = {"levels": levels, "candidates": list(candidates),
                 "cost_model": cost_model, "snapshot": snapshot,
                 "taken": snapshots[-1], "current": current}
        selections.append(entry)
        try:
            entry["decision"] = real_select(levels, candidates, cost_model,
                                            snapshot, current)
        except DrpaError as exc:
            entry["error"] = exc
            raise
        return entry["decision"]
    monkeypatch.setattr(nsscale.simulator, "capacity_report", report)
    monkeypatch.setattr(nsscale.drpa, "select_optimum", select)
    return selections


def _fresh(levels: LevelGraph) -> LevelGraph:
    return LevelGraph(levels.catalog, levels.nsd, levels.flavor,
                      levels.constraints)


def test_kept_selections_equal_fresh_ones(monkeypatch):
    """Every decision of 200 random runs, kept selections included, equals
    in every field one made on a fresh LevelGraph with the same snapshot
    and candidates. A selection repeated on a run's graph (same snapshot,
    level and candidates) shares the first one's rationale. On the fresh
    graph, a second selection under another cost model, a key of its own,
    costs the candidates by that model."""
    selections = _record_selections(monkeypatch)
    for seed in range(200):
        run_dict(scenario_gen.random_scenario(random.Random(seed)))
    seen = set()
    reused = 0
    first = {}  # (graph, snapshot, current, candidates) -> rationale
    repeated = 0
    for entry in selections:
        snapshot = entry["snapshot"]
        assert snapshot is entry["taken"]
        keys = {(entry["current"], c, tuple(snapshot))
                for c in entry["candidates"]}
        reused += keys <= seen
        seen |= keys
        levels = entry["levels"]
        fresh = _fresh(levels)
        try:
            decision = select_optimum(fresh, entry["candidates"],
                                      entry["cost_model"], snapshot,
                                      entry["current"])
        except NoPlaceableCandidateError as exc:
            assert exc.reasons == entry["error"].reasons
            continue
        assert decision == entry["decision"]
        rationale = entry["decision"].rationale
        key = (levels, tuple(snapshot), entry["current"],
               tuple(entry["candidates"]))
        repeated += key in first
        assert first.setdefault(key, rationale) is rationale
        other = CostModel(w_vcpu=entry["cost_model"].w_vcpu + 1)
        again = select_optimum(fresh, entry["candidates"], other, snapshot,
                               entry["current"])
        assert [e.cost for e in again.rationale] == [
            other.cost(fresh.capacity(e.ns_il_id)) for e in again.rationale]
    assert len(selections) > 200
    assert reused > 0
    assert repeated > 0


def test_a_move_is_planned_once_per_snapshot(monkeypatch):
    """A run that cycles level-1 -> 3 -> 1 three times makes each plan
    once: the second and third cycles meet the first cycle's snapshots and
    reuse its selections, and a plan is made once per kept selection."""
    import nsscale.drpa

    streams = (("vnfd-b", "cpu_load"), ("vnfd-b", "mem_load"),
               ("vnfd-b", "disk_load"), ("ns", "net_load"))
    metrics = []
    for base in (0, 100, 200):
        metrics.append([base + 10, "vnfd-b", "cpu_load", 1.0])
        metrics += [[base + 40, subject, name, 0.05]
                    for subject, name in streams]
    sim = build_sim(sc.sample_scenario(workload={"metrics": metrics}))
    selections = _record_selections(monkeypatch)
    planned = []
    real_plan = nsscale.drpa.plan_placement

    def plan(items, snapshot):
        planned.append((items, tuple(snapshot)))
        return real_plan(items, snapshot)
    monkeypatch.setattr(nsscale.drpa, "plan_placement", plan)
    result = sim.run()
    assert [d.target_ns_il for _, d in result.decisions] == [
        "level-3", "level-1"] * 3
    keys = [(s["current"], c, tuple(s["snapshot"]))
            for s in selections for c in s["candidates"]]
    assert len(planned) == len(set(planned)) == len(set(keys)) < len(keys)
    assert len(set(keys)) == len(keys) // 3
    # The second and third cycles reuse the first cycle's selections.
    decisions = [d for _, d in result.decisions]
    for earlier, later in zip(decisions, decisions[2:]):
        assert later.rationale is earlier.rationale
    # A selection is kept per candidates and cost model as well: other
    # candidates or another model on a seen snapshot select afresh.
    first = selections[0]
    for candidates, cost_model in (
            (first["candidates"][1:], first["cost_model"]),
            (first["candidates"], CostModel(w_vcpu=2.0))):
        assert select_optimum(sim.levels, candidates, cost_model,
                              first["snapshot"], first["current"]) == \
            select_optimum(_fresh(sim.levels), candidates, cost_model,
                           first["snapshot"], first["current"])
