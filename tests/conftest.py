from typing import NamedTuple

import pytest

import sample_catalog as sc
from corpus import Logging
from corpus import corpus  # noqa: F401 -- the session's recorded corpus
from nsscale.descriptors import load_catalog
from nsscale.inventory import InsufficientCapacityError, ResourceZone
from nsscale.scenario import scenario_from_dict
from nsscale.simulator import Simulator
from nsscale.trace import payload_digest, trace_lines

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
# `Logging.transitions`.
TRANSITION_KEYS = ("vnf_instance", "instance", "vdu_ref", "from", "to",
                   "step", "tick")


def transitions(source) -> list:
    """The VNFC transitions of `source`, a `Logging` simulator or a corpus
    `Record`, each a dict of `TRANSITION_KEYS`."""
    return [dict(zip(TRANSITION_KEYS, row)) for row in source.transitions]


def run_logged(scenario_dict) -> tuple:
    """A run of `scenario_dict` and its VNFC transitions, as `transitions`
    gives them."""
    sim = Logging(scenario_from_dict(scenario_dict))
    return sim.run(), transitions(sim)


class Event(NamedTuple):
    """One event of a trace, as its `trace_lines` line reads."""
    seq: int
    tick: int
    step: int | None
    src: str
    dst: str
    message: str
    digest: str


def trace_events(trace) -> list:
    """The events of `trace`, each line of its text split into `seq tick
    step src dst message digest`; a step of `-` reads as None."""
    events = []
    for line in trace_lines(trace).splitlines():
        seq, tick, step, src, dst, message, digest = line.split(" ")
        events.append(Event(int(seq), int(tick),
                            None if step == "-" else int(step), src, dst,
                            message, digest))
    return events


def build_sim(scenario_dict) -> Simulator:
    return Simulator(scenario_from_dict(scenario_dict))


def run_dict(scenario_dict):
    return build_sim(scenario_dict).run()


def record_decisions(monkeypatch) -> list:
    """Wrap the DRPA's `decide`: each call a Simulator makes appends the
    pair its run's `decisions` must read back, `(tick, decision)` or
    `(tick, error text)`, to the list returned."""
    import nsscale.drpa

    decide = nsscale.drpa.decide
    notify = Simulator._on_notification
    ticks = []
    recorded = []

    def on_notification(sim, note):
        ticks.append(note.time)
        notify(sim, note)

    def recorded_decide(*args):
        try:
            decision = decide(*args)
        except nsscale.drpa.DrpaError as exc:
            recorded.append((ticks[-1], str(exc)))
            raise
        recorded.append((ticks[-1], decision))
        return decision
    monkeypatch.setattr(Simulator, "_on_notification", on_notification)
    monkeypatch.setattr(nsscale.drpa, "decide", recorded_decide)
    return recorded


def audit_every_event(monkeypatch, audit):
    """Call `audit(event, pops)` after every event a Simulator records,
    with the `Event` its trace line reads as and the simulator's PoPs; the
    zones check themselves only on writes."""
    emit = Simulator._emit

    def audited(sim, src, dst, arrow, text):
        emit(sim, src, dst, arrow, text)
        audit(Event(len(sim.trace), sim._clock, arrow.step, src, dst,
                    arrow.message, payload_digest(text).hex()), sim.pops)

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
