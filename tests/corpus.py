"""The recorded corpus: each scenario the workflow tests read, run once
per session with one recorder attached and kept as a read-only `Record`.
The `corpus` fixture maps each family to {label: Record}:

- "sample": the 24 samples, by name;
- "sample-fault": each sample whose k-th zone `allocate`, or `reserve`,
  fails, by (name, write, k);
- "sweep": level-2/jump/reserve and both `VL_WALK` walks whose k-th zone
  write fails, by (name, k), k = 0 being the clean run;
- "random": `scenario_gen.random_scenario` seeds 0-199, and
  "reservation": seeds 0, 4, ..., 196 with reservation forced on and off,
  by seed and by (seed, setting);
- "small-zone": `small_zone_scenario` seeds 0-149, by seed;
- "churn" and "indicator": the benchmark's scale-churn at size 3, and the
  jump sample with free-form indicator values.

A seed whose initial level does not fit is no member; a member equal to
another shares its record. Tests that inject faults keep their own runs."""

from __future__ import annotations

import hashlib
import os
import pickle
import random
import sys
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

import pytest

import sample_catalog as sc
import scenario_gen
from nsscale.inventory import VNFC_TRANSITIONS, InventoryError, ResourceZone
from nsscale.scenario import ScenarioValidationError, scenario_from_dict
from nsscale.simulator import VNF_INFO_CHANGES, RunResult, Simulator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {"escalation": sc.escalation_workload, "jump": sc.jump_workload,
             "scale-in": sc.scale_in_workload}

ZONE_WRITES = ("allocate", "reserve", "release", "shrink")

# vlp-1 alone moves 100 -> 200 -> 50, so the NFVO exchanges each change
# with the VIM itself: an allocation, then a release and a shrink.
VL_WALK = [("level-1v", 200), ("level-1d", 50)]


def import_bench(name: str):
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    try:
        return __import__(name)
    finally:
        sys.path.pop(0)


def sample(level, workload, reservation) -> dict:
    return sc.sample_scenario(workload=WORKLOADS[workload](), ns_il=level,
                              options={"reservation_enabled": reservation})


def samples() -> dict:
    """The 24 sample scenarios by name, "level/workload/reserve|direct"."""
    return {"%s/%s/%s" % (level, workload,
                          "reserve" if reservation else "direct"):
            sample(level, workload, reservation)
            for level in sc.LEVELS for workload in sorted(WORKLOADS)
            for reservation in (True, False)}


def small_zone_scenario(seed):
    """random_scenario of `seed` with every zone cut to 4-20 vcpu, so that
    PoP aggregates often cover what no single zone holds. The sizes have a
    generator of their own: the scenario stays that of `seed`."""
    scenario = scenario_gen.random_scenario(random.Random(seed))
    sizes = random.Random(1_000_000 + seed)
    for pop in scenario["topology"]["pops"]:
        for zone in pop["zones"]:
            zone["total"]["vcpu"] = sizes.randint(4, 20)
    return scenario


def fail_kth_zone_write(monkeypatch, k, names=ZONE_WRITES) -> dict:
    """Make the k-th call of the zone writes `names` after this call raise
    InventoryError; k = 0 injects nothing. Returns the call count."""
    calls = {"n": 0}
    for name in names:
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
        sim = Simulator(scenario_from_dict(scenario))
        calls = fail_kth_zone_write(mp, 0)
        sim.run()
    return calls["n"]


class Record(NamedTuple):
    """One run. `events`: each event as `_emit` got it, (src, dst, step,
    message, payload text, the clock once recorded); the arrow is split
    so that the tuple holds no tracked object and the garbage collector
    stops walking it. `spans`: each operation's (first event, end), as
    `_execute_decision` ran it. `writes`: each zone write of the run,
    (method, its zone's VIM, `write_key`, the index of the operation open
    or None). `vnfcs`: each new VNFC as `_allocation_phase` made it, (op
    id, item key, PoP, zone). `transitions`: each VNFC transition, as
    `Logging` logs it."""
    result: RunResult
    events: tuple
    spans: tuple
    writes: tuple
    vnfcs: tuple
    transitions: tuple


def write_key(name, zone, args, result):
    """A reserve's zone id, an allocate's or a release's handle id, and a
    shrink's handle id and new spec."""
    if name == "reserve":
        return zone.id
    if name == "release":
        return args[0].id
    return result.id if name == "allocate" else (result.id, result.spec)


class Logging(Simulator):
    """A simulator that logs, in `transitions`, each VNFC lifecycle
    transition its VnfInfo updates make, as a row `(vnf_instance,
    instance, vdu_ref, from, to, step, tick)`: VNFC `instance` moved from
    state `from` (None when new) to `to` at the event of `step` at
    `tick`."""

    def __init__(self, scenario):
        self.transitions = []
        super().__init__(scenario)

    def _update_vnf_info(self, vnf_id, change, **kwargs):
        super()._update_vnf_info(vnf_id, change, **kwargs)
        state_from, state_to = VNFC_TRANSITIONS[change]
        if state_to is None:
            return
        ids = kwargs.get("instance_ids",
                         [inst.id for inst in kwargs.get("instances", ())])
        step = VNF_INFO_CHANGES[change].step
        self.transitions.extend(
            (vnf_id, inst.id, inst.vdu_ref, state_from, state_to, step,
             self._clock)
            for inst in map(self.vnf_infos[vnf_id].instance, ids))


class Recording(Logging):
    """A simulator that records its run in the fields of a `Record`,
    keeping each payload text once in `texts`; `record` adds its zone
    writes."""

    def __init__(self, scenario: dict, texts: dict):
        super().__init__(scenario_from_dict(scenario))
        self.texts = texts
        self.events, self.spans, self.writes, self.vnfcs = [], [], [], []
        self.running = None  # the index of the operation running

    def _emit(self, src, dst, arrow, text):
        super()._emit(src, dst, arrow, text)
        self.events.append((src, dst, *arrow, self.texts.setdefault(
            text, text), self._clock))

    def _execute_decision(self, decision):
        begun, self.running = len(self.trace), len(self.spans)
        super()._execute_decision(decision)
        self.running = None
        self.spans.append((begun, len(self.trace)))

    def _allocation_phase(self, op, plan, vnfm, em, vnf_id, vnfc_items,
                          *args):
        new_ids = super()._allocation_phase(op, plan, vnfm, em, vnf_id,
                                            vnfc_items, *args)
        self.vnfcs.extend((op.op_id, item.key, inst.pop_ref, inst.zone_ref)
                          for item, inst in zip(vnfc_items, map(
                              self.vnf_infos[vnf_id].instance, new_ids)))
        return new_ids


def record(scenario: dict, names=(), k=0, texts=None) -> Record | None:
    """Record a run of `scenario`, set-up left out, whose k-th call of the
    zone writes `names` fails; None if its initial level does not fit."""
    try:
        sim = Recording(scenario, {} if texts is None else texts)
    except ScenarioValidationError:
        return None
    vims = {id(zone): sim.vim_actor[pop.vim_ref]
            for pop in sim.pops for zone in pop.zones}
    with pytest.MonkeyPatch.context() as mp:
        for name in ZONE_WRITES:
            def write(zone, *args, _name=name,
                      _real=getattr(ResourceZone, name), **kwargs):
                result = _real(zone, *args, **kwargs)
                sim.writes.append((_name, vims[id(zone)], write_key(
                    _name, zone, args, result), sim.running))
                return result
            mp.setattr(ResourceZone, name, write)
        fail_kth_zone_write(mp, k, names)
        result = sim.run()
    return Record(result, tuple(sim.events), tuple(sim.spans),
                  tuple(sim.writes), tuple(sim.vnfcs), tuple(sim.transitions))


class Corpus(dict):
    """{family: {label: Record}}; `digest` is its `corpus_digest` as
    built."""
    digest = ""


def build_corpus() -> Corpus:
    """Every member; their runs keep each payload text once."""
    run = partial(record, texts={})

    def members(labelled) -> MappingProxyType:
        return MappingProxyType({label: member for label, member in labelled
                                 if member})

    def writes(member, names=ZONE_WRITES) -> int:
        """A clean run's calls of the zone writes `names`: all succeed, as
        a refused one would fail its operation."""
        return sum(write[0] in names for write in member.writes)

    corpus, scenarios = Corpus(), samples()
    corpus["sample"] = members((name, run(scenario))
                               for name, scenario in scenarios.items())
    corpus["sample-fault"] = members(
        ((name, write, k), run(scenarios[name], (write,), k))
        for name, clean in corpus["sample"].items()
        for write in ("allocate", "reserve")
        for k in range(1, writes(clean, (write,)) + 1))
    sweep = {}
    for name, scenario in (
            ("level-2/jump/reserve", scenarios["level-2/jump/reserve"]),
            ("vl-walk/reserve", sc.level_walk_scenario(VL_WALK, True)),
            ("vl-walk/direct", sc.level_walk_scenario(VL_WALK, False))):
        sweep[name, 0] = corpus["sample"].get(name) or run(scenario)
        for k in range(1, writes(sweep[name, 0]) + 1):
            sweep[name, k] = run(scenario, ZONE_WRITES, k)
    corpus["sweep"] = members(sweep.items())
    randoms = [scenario_gen.random_scenario(random.Random(seed))
               for seed in range(200)]
    corpus["random"] = members(enumerate(map(run, randoms)))

    def forced(seed, reservation):
        options = randoms[seed]["options"]
        if options["reservation_enabled"] == reservation:
            return corpus["random"].get(seed)
        return run(dict(randoms[seed], options=dict(
            options, reservation_enabled=reservation)))

    corpus["reservation"] = members(
        ((seed, reservation), forced(seed, reservation))
        for seed in range(0, 200, 4) for reservation in (True, False))
    corpus["small-zone"] = members((seed, run(small_zone_scenario(seed)))
                                   for seed in range(150))
    churn = import_bench("workloads").GENERATORS["scale-churn"](0, 3)
    corpus["churn"] = members([("scale-churn", run(churn))])
    indicator = sc.sample_scenario(workload=sc.jump_workload())
    indicator["workload"]["indicators"] = [
        [11, "vnfd-b", "congestion", 2.0],
        [12, "vnfd-b", "congestion", {"level": [1.0, 0.5], "note": "x"}]]
    corpus["indicator"] = members([("free-form", run(indicator))])
    return corpus


def corpus_digest(corpus: Corpus) -> str:
    """A digest of what a test could change in a record: its result's
    trace length, final state, decisions and operations, and its
    transitions."""
    digest = hashlib.sha256()
    for records in corpus.values():
        for record in records.values():
            result = record.result
            digest.update(pickle.dumps((
                len(result.trace), result.final_state,
                list(result.decisions), record.transitions,
                result.failure_reason,
                [(op.op_id, op.kind, op.begun, op.end, op.failed_step,
                  op.error) for op in result.operations])))
    return digest.hexdigest()


@pytest.fixture(scope="session")
def corpus():
    """The recorded corpus. As the session ends, each record must read as
    it was built."""
    built = build_corpus()
    built.digest = corpus_digest(built)
    yield built
    assert corpus_digest(built) == built.digest, "a test changed a record"
