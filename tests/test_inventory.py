import dataclasses
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from nsscale.capacity import CapacityVector, ZERO
from nsscale.inventory import (
    ADD_INSTANCES_STOPPED, DELETE_INSTANCES, MARK_STARTED, MARK_STOPPED,
    STARTED, STOPPED, ConservationError, DoubleReleaseError,
    SET_VNF_IL, VNFC_TRANSITIONS, IllegalTransitionError, InventoryError,
    InsufficientCapacityError, NfviPop, ReservationStateError, ResourceZone,
    NoZoneFitsError, VnfcInstance, VnfInfo, ZoneReport, capacity_report,
    record_vnf_info_update, vim_placement,
)


def make_zone(**totals):
    defaults = dict(vcpu=16, memory=32, storage=100, bandwidth=1000)
    defaults.update(totals)
    return ResourceZone("z1", CapacityVector(**defaults))


def test_reserve_allocate_release_cycle():
    zone = make_zone()
    spec = CapacityVector(vcpu=4, memory=8)
    res = zone.reserve(spec, "compute")
    assert zone.reserved == spec
    assert zone.available == zone.total - spec
    handle = zone.allocate(spec, "compute", from_reservation=res)
    assert zone.reserved == ZERO
    assert zone.allocated == spec
    zone.check_conservation()
    zone.release(handle)
    assert zone.allocated == ZERO
    assert zone.available == zone.total


def test_partial_reservation_consumption_returns_remainder():
    zone = make_zone()
    res = zone.reserve(CapacityVector(vcpu=8, memory=16), "compute")
    zone.allocate(CapacityVector(vcpu=4, memory=8), "compute",
                  from_reservation=res)
    # the unused half of the reservation is available again
    assert zone.available.vcpu == 12
    zone.check_conservation()


def test_reservation_kind_masks():
    zone = make_zone()
    with pytest.raises(ValueError):
        zone.reserve(CapacityVector(vcpu=1, storage=5), "compute")
    with pytest.raises(ValueError):
        zone.allocate(CapacityVector(bandwidth=10), "storage")


def test_an_unknown_resource_kind_is_refused():
    with pytest.raises(ValueError, match="unknown resource kind 'gpu'"):
        make_zone().reserve(CapacityVector(vcpu=1), "gpu")


@pytest.mark.parametrize("zone_id, kind, spec, message", [
    ("z2", "compute", CapacityVector(vcpu=2), "does not match zone z2"),
    ("z1", "storage", CapacityVector(), "does not match zone z1 kind storage"),
    ("z1", "compute", CapacityVector(vcpu=3), "allocation exceeds"),
])
def test_an_allocation_must_fit_its_reservation(zone_id, kind, spec,
                                                message):
    """A reservation is consumed only by an allocation of its own zone and
    kind that it covers; a refused one leaves the zone as it was, the
    reservation held."""
    zone = make_zone()
    reservation = zone.reserve(CapacityVector(vcpu=2), "compute")
    target = zone if zone_id == zone.id else ResourceZone(zone_id, zone.total)
    before = target.checkpoint()
    with pytest.raises(ReservationStateError, match=message):
        target.allocate(spec, kind, from_reservation=reservation)
    assert target.checkpoint() == before
    zone.cancel(reservation)
    assert zone.reserved == ZERO


def test_insufficient_capacity_names_dimension():
    zone = make_zone(vcpu=2)
    with pytest.raises(InsufficientCapacityError) as err:
        zone.reserve(CapacityVector(vcpu=4), "compute")
    assert err.value.dimension == "vcpu"
    assert zone.reserved == ZERO


def test_reservations_count_against_availability():
    zone = make_zone(vcpu=8)
    zone.reserve(CapacityVector(vcpu=6), "compute")
    with pytest.raises(InsufficientCapacityError):
        zone.allocate(CapacityVector(vcpu=4), "compute")


def test_cancel_and_stale_reservation():
    zone = make_zone()
    res = zone.reserve(CapacityVector(vcpu=2), "compute")
    zone.cancel(res)
    assert zone.reserved == ZERO
    with pytest.raises(ReservationStateError):
        zone.cancel(res)
    with pytest.raises(ReservationStateError):
        zone.allocate(CapacityVector(vcpu=2), "compute", from_reservation=res)


def test_restore_undoes_writes_but_reuses_no_id():
    zone = make_zone()
    kept = zone.allocate(CapacityVector(vcpu=2), "compute")
    gone = zone.allocate(CapacityVector(vcpu=1), "compute")
    saved = zone.checkpoint()
    before = zone.snapshot()
    zone.release(gone)
    zone.reserve(CapacityVector(vcpu=4), "compute")
    later = zone.allocate(CapacityVector(storage=5), "storage")
    zone.restore(saved)
    assert zone.snapshot() == before
    assert zone.checkpoint()[2:] == ({kept.id: kept, gone.id: gone}, {})
    zone.release(gone)  # outstanding again, so releasable once more
    with pytest.raises(DoubleReleaseError):
        zone.release(later)
    fresh = zone.allocate(CapacityVector(vcpu=1), "compute")
    assert fresh.id not in {kept.id, gone.id, later.id}


def test_restore_gives_back_a_reservation_consumed_since():
    """The checkpoint holds the zone's reservations: one consumed after it
    is held again after `restore`, and can be consumed or cancelled."""
    zone = make_zone()
    spec = CapacityVector(vcpu=2)
    reservation = zone.reserve(spec, "compute")
    saved = zone.checkpoint()
    zone.allocate(spec, "compute", from_reservation=reservation)
    zone.restore(saved)
    assert (zone.allocated, zone.reserved) == (ZERO, spec)
    zone.allocate(spec, "compute", from_reservation=reservation)
    zone.restore(saved)
    zone.cancel(reservation)
    assert (zone.allocated, zone.reserved) == (ZERO, ZERO)


def test_double_release_rejected():
    zone = make_zone()
    handle = zone.allocate(CapacityVector(vcpu=2), "compute")
    zone.release(handle)
    with pytest.raises(DoubleReleaseError):
        zone.release(handle)


@pytest.mark.parametrize("part, reserved, allocated", [
    ("reserved", CapacityVector(vcpu=-1), ZERO),
    ("allocated", ZERO, CapacityVector(memory=-0.5)),
    ("available", ZERO, CapacityVector(storage=101)),
])
def test_broken_zone_raises_conservation_error(part, reserved, allocated):
    zone = make_zone()
    zone.check_conservation()
    zone.reserved, zone.allocated = reserved, allocated
    with pytest.raises(ConservationError) as err:
        zone.check_conservation()
    assert err.value.part == part
    assert not isinstance(err.value, InventoryError)


def test_conservation_error_survives_python_O():
    """The check is not an `assert`, so `python -O` keeps it."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    script = "\n".join([
        "from nsscale.capacity import CapacityVector",
        "from nsscale.inventory import ConservationError, ResourceZone",
        "zone = ResourceZone('z1', CapacityVector(vcpu=4))",
        "zone.reserved = CapacityVector(vcpu=-1)",
        "try:",
        "    zone.check_conservation()",
        "except ConservationError as exc:",
        "    print('raised', exc.part)",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "raised reserved"


def test_write_that_breaks_conservation_raises_at_once():
    zone = make_zone()
    with pytest.raises(ConservationError):
        zone.reserve(CapacityVector(vcpu=-1), "compute")


def test_capacity_report_is_ordered_and_pure():
    pops = [
        NfviPop("pop-2", "vim-1", [make_zone()]),
        NfviPop("pop-1", "vim-1", [make_zone(vcpu=4)]),
    ]
    report = capacity_report(pops)
    assert [r.pop_id for r in report] == ["pop-1", "pop-2"]
    assert report[0].available.vcpu == 4
    assert report[1].available == pops[0].zones[0].total
    pops[0].zones[0].allocate(CapacityVector(vcpu=1), "compute")
    assert report[1].available == pops[0].zones[0].total  # a copy


ZONE_STEPS = st.lists(st.tuples(
    st.sampled_from(("reserve", "cancel", "allocate", "allocate-reserved",
                     "release", "shrink", "checkpoint", "restore")),
    st.integers(0, 5), st.integers(0, 4)), max_size=30)


def _apply(step, zones, reservations, handles, saved):
    """Make one zone write, checkpoint or restore of `step` on `zones`;
    the lists hold (zone, reservation id, spec) and (zone, handle) made so
    far. Returns the checkpoint, which "checkpoint" replaces. A write the
    zone refuses changes nothing."""
    op, pick, amount = step
    spec = CapacityVector(vcpu=amount, memory=amount)
    zone = zones[pick % len(zones)]
    if op == "reserve":
        reservations.append((zone, zone.reserve(spec, "compute"), spec))
    elif op == "allocate":
        handles.append((zone, zone.allocate(spec, "compute")))
    elif op == "checkpoint":
        return ([(z, z.checkpoint()) for z in zones], list(reservations),
                list(handles))
    elif op == "restore" and saved:
        checkpoints, reservations[:], handles[:] = saved
        for z, checkpoint in checkpoints:
            z.restore(checkpoint)
    elif op in ("cancel", "allocate-reserved") and reservations:
        zone, reservation, reserved = reservations[pick % len(reservations)]
        if op == "cancel":
            zone.cancel(reservation)
        else:
            part = CapacityVector(vcpu=min(amount, reserved.vcpu),
                                  memory=min(amount, reserved.memory))
            handles.append((zone, zone.allocate(part, "compute",
                                                from_reservation=reservation)))
    elif op in ("release", "shrink") and handles:
        i = pick % len(handles)
        zone, handle = handles[i]
        if op == "release":
            zone.release(handle)
        else:
            handles[i] = (zone, zone.shrink(handle, CapacityVector(
                vcpu=min(amount, handle.spec.vcpu),
                memory=min(amount, handle.spec.memory))))
    return saved


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ZONE_STEPS)
def test_a_reused_zone_report_equals_one_built_from_scratch(steps):
    """`capacity_report` reuses a zone's last report while the zone's
    `allocated` and `reserved` are the vectors it holds; after any write,
    checkpoint or restore, each report must equal one built afresh, and
    every report taken earlier must still read as it did."""
    pops = [NfviPop("pop-2", "vim-2", [
                ResourceZone("z2", CapacityVector(vcpu=8, memory=8)),
                ResourceZone("z1", CapacityVector(vcpu=6, memory=9))]),
            NfviPop("pop-1", "vim-1", [
                ResourceZone("z1", CapacityVector(vcpu=7, memory=7))])]
    in_order = [(pops[1], pops[1].zones[0]), (pops[0], pops[0].zones[1]),
                (pops[0], pops[0].zones[0])]
    zones = [zone for _, zone in in_order]
    reservations, handles, saved = [], [], None
    taken = []  # (report, what it read when taken)
    for step in [("checkpoint", 0, 0)] + steps:
        try:
            saved = _apply(step, zones, reservations, handles, saved)
        except InventoryError:
            pass
        fresh = [ZoneReport(pop.id, pop.vim_ref, zone.id, zone.total,
                            zone.allocated, zone.reserved,
                            zone.total - zone.allocated - zone.reserved)
                 for pop, zone in in_order]
        report = capacity_report(pops)
        assert report == fresh, step
        taken.append((report, fresh))
        for earlier, read in taken:
            assert earlier == read


def _zones(*vcpus):
    return [ResourceZone("z%d" % i, CapacityVector(vcpu=v, memory=8))
            for i, v in reversed(list(enumerate(vcpus, 1)))]


def test_vim_placement_takes_first_fitting_zone_by_id():
    zones = _zones(2, 6, 6)
    assert vim_placement(zones, CapacityVector(vcpu=4), {}).id == "z2"
    pending = {"z2": CapacityVector(vcpu=3)}
    assert vim_placement(zones, CapacityVector(vcpu=4),
                         pending).id == "z3"


def test_vim_placement_reads_a_capacity_report_alike():
    pops = [NfviPop("pop-1", "vim-1", _zones(2, 6))]
    report = capacity_report(pops)
    assert [z.id for z in report] == ["z1", "z2"]
    assert vim_placement(report, CapacityVector(vcpu=4), {}) is report[1]


def test_vim_placement_reports_the_smallest_shortfall():
    with pytest.raises(NoZoneFitsError) as err:
        vim_placement(_zones(2, 6), CapacityVector(vcpu=4, memory=10), {})
    assert err.value.shortfall == ["memory"]
    assert "no zone fits" in str(err.value)
    with pytest.raises(NoZoneFitsError):
        vim_placement(_zones(6), CapacityVector(vcpu=4),
                      {"z1": CapacityVector(vcpu=3)})


def _info(states=("STARTED",)):
    instances = tuple(
        VnfcInstance("c%d" % i, "vdu-1", s) for i, s in enumerate(states))
    return VnfInfo("vnfd-b", "f1", instances, "vim-1",
                   audit=(("instantiation", 0),))


def test_add_instances_must_be_stopped():
    info = _info()
    new = (VnfcInstance("c9", "vdu-2", STOPPED),)
    out = record_vnf_info_update(info, ADD_INSTANCES_STOPPED, 15, 100,
                                 instances=new)
    assert len(out.vnfc_instances) == 2
    assert out.audit[-1] == (15, 100)
    with pytest.raises(IllegalTransitionError):
        record_vnf_info_update(info, ADD_INSTANCES_STOPPED, 15, 100,
                               instances=(VnfcInstance("c8", "vdu-2", STARTED),))


def test_an_unknown_instance_is_refused():
    with pytest.raises(IllegalTransitionError,
                       match=r"unknown instances \['c7'\]"):
        record_vnf_info_update(_info(), MARK_STOPPED, 24, 100,
                               instance_ids=("c0", "c7"))


def test_instance_id_reuse_rejected():
    info = _info()
    with pytest.raises(IllegalTransitionError):
        record_vnf_info_update(info, ADD_INSTANCES_STOPPED, 15, 100,
                               instances=(VnfcInstance("c0", "vdu-2", STOPPED),))


def test_start_stop_transitions():
    info = _info(states=(STOPPED,))
    started = record_vnf_info_update(info, MARK_STARTED, 19, 101,
                                     instance_ids=("c0",))
    assert started.vnfc_instances[0].state == STARTED
    stopped = record_vnf_info_update(started, MARK_STOPPED, 24, 102,
                                     instance_ids=("c0",))
    assert stopped.vnfc_instances[0].state == STOPPED
    # wrong-direction transitions are illegal
    with pytest.raises(IllegalTransitionError):
        record_vnf_info_update(info, MARK_STOPPED, 24, 103,
                               instance_ids=("c0",))
    with pytest.raises(IllegalTransitionError):
        record_vnf_info_update(started, MARK_STARTED, 19, 103,
                               instance_ids=("c0",))


def test_delete_requires_stopped():
    info = _info(states=(STARTED, STOPPED))
    with pytest.raises(IllegalTransitionError):
        record_vnf_info_update(info, DELETE_INSTANCES, 28, 104,
                               instance_ids=("c0",))
    out = record_vnf_info_update(info, DELETE_INSTANCES, 28, 104,
                                 instance_ids=("c1",))
    assert [i.id for i in out.vnfc_instances] == ["c0"]


def test_revisions_are_immutable_and_audited():
    info = _info(states=(STOPPED,))
    out = record_vnf_info_update(info, MARK_STARTED, 19, 101,
                                 instance_ids=("c0",))
    assert info.vnfc_instances[0].state == STOPPED  # original untouched
    assert out.vnfc_instances[0].state == STARTED
    assert [step for step, _ in out.audit] == ["instantiation", 19]


@pytest.mark.parametrize("change", sorted(VNFC_TRANSITIONS))
def test_each_change_moves_vnfcs_as_the_lifecycle_table_says(change):
    before, after = VNFC_TRANSITIONS[change]
    info = _info(states=(STARTED, STOPPED))
    if before is None:  # creates the VNFCs it is given, if any
        new = (VnfcInstance("c9", "vdu-2", after),) if after else ()
        out = record_vnf_info_update(info, change, 15, 100, instances=new)
        assert out.vnfc_instances == info.vnfc_instances + new
        return
    moved, other = ("c0", "c1") if before == STARTED else ("c1", "c0")
    out = record_vnf_info_update(info, change, 24, 100, instance_ids=(moved,))
    states = {other: info.instance(other).state}
    if after is not None:
        states[moved] = after
    assert {i.id: i.state for i in out.vnfc_instances} == states
    with pytest.raises(IllegalTransitionError):
        record_vnf_info_update(info, change, 24, 100, instance_ids=(other,))


def test_a_level_change_writes_only_the_audit():
    info = _info(states=(STARTED, STOPPED))
    out = record_vnf_info_update(info, SET_VNF_IL, 19, 105)
    assert out == VnfInfo(info.vnfd_ref, info.vnf_flavor_ref,
                          info.vnfc_instances, info.vim_ref,
                          audit=info.audit + ((19, 105),))
    with pytest.raises(ValueError):
        record_vnf_info_update(info, "set-ns-il", 19, 105)


def _distinct(cls, **given_values):
    """A `cls` record with `given_values`, whose every other field holds a
    value of its own, so a field an update drops or swaps shows."""
    return cls(**{f.name: given_values.get(f.name, "<%s>" % f.name)
                  for f in dataclasses.fields(cls)})


def assert_same_fields(record, expected):
    assert type(record) is type(expected)
    for f in dataclasses.fields(expected):
        assert getattr(record, f.name) == getattr(expected, f.name), f.name


@pytest.mark.parametrize("change", sorted(VNFC_TRANSITIONS))
def test_an_update_keeps_every_field_it_does_not_change(change):
    """The new VnfInfo and each moved VnfcInstance equal
    `dataclasses.replace` of the old record with only the changed fields,
    compared over `dataclasses.fields`: a field added later cannot be lost
    by positional construction."""
    before, after = VNFC_TRANSITIONS[change]
    instances = tuple(_distinct(VnfcInstance, id="c%d" % i, state=state)
                      for i, state in enumerate((STARTED, STOPPED)))
    info = _distinct(VnfInfo, vnfc_instances=instances,
                     audit=(("instantiation", 0),))
    new, ids, expected = (), (), list(instances)
    if before is None and after is not None:
        new = (_distinct(VnfcInstance, id="c9", state=after),)
        expected += new
    elif before is not None:
        ids = tuple(inst.id for inst in instances if inst.state == before)
        expected = [inst if inst.id not in ids
                    else dataclasses.replace(inst, state=after)
                    for inst in instances
                    if inst.id not in ids or after is not None]
    out = record_vnf_info_update(info, change, 24, 100, instances=new,
                                 instance_ids=ids)
    assert_same_fields(out, dataclasses.replace(
        info, vnfc_instances=out.vnfc_instances,
        audit=info.audit + ((24, 100),)))
    assert len(out.vnfc_instances) == len(expected)
    for record, want in zip(out.vnfc_instances, expected):
        assert_same_fields(record, want)
