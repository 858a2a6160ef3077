import pytest

import sample_catalog as sc
from corpus import corpus  # noqa: F401 -- the session's recorded corpus
from nsscale.descriptors import load_catalog
from nsscale.inventory import InsufficientCapacityError, ResourceZone
from nsscale.scenario import scenario_from_dict
from nsscale.simulator import Simulator

# One PoP with two zones of 7 vcpu: level-1 fits, and level-3's 8-vcpu
# VNFC fits no zone although the PoP's 14 vcpu cover level-3's 12.
SEVEN_AND_SEVEN = {
    "vims": [{"id": "vim-1"}],
    "pops": [{"id": "pop-1", "vim_ref": "vim-1", "zones": [
        {"id": "zone-a", "total": {"vcpu": 7, "memory": 40,
                                   "storage": 60, "bandwidth": 1000}},
        {"id": "zone-b", "total": {"vcpu": 7, "memory": 40,
                                   "storage": 60, "bandwidth": 1000}},
    ]}],
}


@pytest.fixture
def documents():
    return sc.sample_documents()


@pytest.fixture
def catalog(documents):
    return load_catalog(documents)


@pytest.fixture
def nsd(catalog):
    return catalog.nsds["nsd-1"]


@pytest.fixture
def flavor(nsd):
    return nsd.flavor("df-1")


# The fields of a VNFC transition, in the order of its row in
# `RunResult.transition_rows`.
TRANSITION_KEYS = ("vnf_instance", "instance", "vdu_ref", "from", "to",
                   "step", "tick")


def transitions(result) -> list:
    """A run's VNFC transitions, each a dict of `TRANSITION_KEYS`."""
    return [dict(zip(TRANSITION_KEYS, row)) for row in result.transition_rows]


def build_sim(scenario_dict) -> Simulator:
    return Simulator(scenario_from_dict(scenario_dict))


def run_dict(scenario_dict):
    return build_sim(scenario_dict).run()


def audit_every_event(monkeypatch, audit):
    """Call `audit(record, pops)` after every event a Simulator records,
    with the event's record and the simulator's PoPs; the zones check
    themselves only on writes."""
    emit = Simulator._emit

    def audited(sim, *args):
        emit(sim, *args)
        audit(sim.trace[-1], sim.pops)

    monkeypatch.setattr(Simulator, "_emit", audited)


def refuse_large_vnfcs(monkeypatch):
    """Make every zone refuse to reserve or allocate a spec of 8 vcpu or
    more, as if it had filled since the decision. The sample's initial
    levels hold only smaller VNFCs, and the DRPA's own placement, over a
    capacity report, is left alone."""
    for name in ("reserve", "allocate"):
        def write(zone, spec, *args, _real=getattr(ResourceZone, name),
                  **kwargs):
            if spec.vcpu >= 8:
                raise InsufficientCapacityError(zone.id, "vcpu", spec.vcpu,
                                                zone.available.vcpu)
            return _real(zone, spec, *args, **kwargs)
        monkeypatch.setattr(ResourceZone, name, write)
