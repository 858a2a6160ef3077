"""Runtime repositories: zone capacity accounting (allocated/reserved/
available), reservations, resource handles, and VNF instance records."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .capacity import DIMENSIONS, KIND_DIMENSIONS, CapacityVector, ZERO

RESERVATION_ACTIVE = "active"
RESERVATION_CONSUMED = "consumed"
RESERVATION_CANCELLED = "cancelled"

STOPPED = "STOPPED"
STARTED = "STARTED"

NS_INSTANTIATED = "instantiated"

_BY_ID = attrgetter("id")  # the sort key of PoPs and zones


class InventoryError(RuntimeError):
    pass


class ConservationError(RuntimeError):
    """A zone's accounting is broken: allocated, reserved or available went
    negative. Not an InventoryError on purpose, so that no operation
    rollback can absorb it as an ordinary failure."""

    def __init__(self, zone_id: str, part: str, dimension: str, value: float):
        super().__init__("zone %s: %s %s is %s"
                         % (zone_id, part, dimension, value))
        self.zone_id = zone_id
        self.part = part
        self.dimension = dimension


class InsufficientCapacityError(InventoryError):
    def __init__(self, zone_id: str, dimension: str, needed: float, available: float):
        super().__init__(
            "zone %s: need %s %s, only %s available"
            % (zone_id, needed, dimension, available))
        self.zone_id = zone_id
        self.dimension = dimension


class NoZoneFitsError(InventoryError):
    """No zone of a PoP can take a spec; `shortfall` lists the dimensions
    the closest zone lacks."""

    def __init__(self, spec: CapacityVector, shortfall: list = ()):
        super().__init__("no zone fits %s" % spec.as_dict())
        self.shortfall = list(shortfall)


class ReservationStateError(InventoryError):
    pass


class DoubleReleaseError(InventoryError):
    pass


class IllegalTransitionError(InventoryError):
    pass


@dataclass
class Reservation:
    id: str
    zone_ref: str
    spec: CapacityVector
    kind: str
    state: str = RESERVATION_ACTIVE


class ResourceHandle(NamedTuple):
    id: str
    spec: CapacityVector


class ResourceZone:
    """One capacity partition of an NFVI-PoP. `available` is always derived,
    never stored. Every write assigns new `allocated` and `reserved`
    vectors, and `restore` the checkpoint's own: `capacity_report` reuses
    `report` while it holds the zone's very vectors."""

    def __init__(self, zone_id: str, total: CapacityVector):
        self.id = zone_id
        self.total = total
        self.allocated = ZERO
        self.reserved = ZERO
        self._counter = itertools.count(1)
        self._outstanding = {}  # handle id -> ResourceHandle
        self.report = None  # the last ZoneReport capacity_report built

    @property
    def available(self) -> CapacityVector:
        return self.total - self.allocated - self.reserved

    def _check_fits(self, spec: CapacityVector):
        avail = self.available
        if avail.covers(spec):
            return
        for d in DIMENSIONS:
            if spec.get(d) > avail.get(d):
                raise InsufficientCapacityError(self.id, d, spec.get(d), avail.get(d))

    def _check_kind(self, spec: CapacityVector, kind: str):
        if kind not in KIND_DIMENSIONS:
            raise ValueError("unknown resource kind %r" % kind)
        for d in DIMENSIONS:
            if d not in KIND_DIMENSIONS[kind] and spec.get(d) != 0:
                raise ValueError("%s reservation cannot carry %s" % (kind, d))

    def reserve(self, spec: CapacityVector, kind: str) -> Reservation:
        self._check_kind(spec, kind)
        self._check_fits(spec)
        reservation = Reservation("res-%s-%d" % (self.id, next(self._counter)),
                                  self.id, spec, kind)
        self.reserved = self.reserved + spec
        self.check_conservation()
        return reservation

    def cancel(self, reservation: Reservation):
        if reservation.state != RESERVATION_ACTIVE:
            raise ReservationStateError(
                "reservation %s is %s" % (reservation.id, reservation.state))
        reservation.state = RESERVATION_CANCELLED
        self.reserved = self.reserved - reservation.spec
        self.check_conservation()

    def allocate(self, spec: CapacityVector, kind: str,
                 from_reservation: Reservation | None = None) -> ResourceHandle:
        self._check_kind(spec, kind)
        if from_reservation is not None:
            if from_reservation.state != RESERVATION_ACTIVE:
                raise ReservationStateError(
                    "reservation %s is %s"
                    % (from_reservation.id, from_reservation.state))
            if from_reservation.zone_ref != self.id or from_reservation.kind != kind:
                raise ReservationStateError(
                    "reservation %s does not match zone %s kind %s"
                    % (from_reservation.id, self.id, kind))
            if not from_reservation.spec.covers(spec):
                raise ReservationStateError(
                    "allocation exceeds reservation %s" % from_reservation.id)
            # Consume the whole reservation; unused remainder returns to
            # available implicitly.
            from_reservation.state = RESERVATION_CONSUMED
            self.reserved = self.reserved - from_reservation.spec
        else:
            self._check_fits(spec)
        handle = ResourceHandle("h-%s-%d" % (self.id, next(self._counter)),
                                spec)
        self.allocated = self.allocated + spec
        self._outstanding[handle.id] = handle
        self.check_conservation()
        return handle

    def release(self, handle: ResourceHandle):
        if handle.id not in self._outstanding:
            raise DoubleReleaseError("handle %s is not outstanding" % handle.id)
        del self._outstanding[handle.id]
        self.allocated = self.allocated - handle.spec
        self.check_conservation()

    def shrink(self, handle: ResourceHandle,
               spec: CapacityVector) -> ResourceHandle:
        """Shrink an outstanding allocation to `spec` under the same id."""
        if handle.id not in self._outstanding:
            raise DoubleReleaseError("handle %s is not outstanding" % handle.id)
        smaller = ResourceHandle(handle.id, spec)
        self._outstanding[handle.id] = smaller
        self.allocated = self.allocated - (handle.spec - spec)
        self.check_conservation()
        return smaller

    def checkpoint(self) -> tuple:
        """What `restore` needs to put the zone's accounting back as it is
        now. The id counter is not part of it: ids are never reused."""
        return self.allocated, self.reserved, dict(self._outstanding)

    def restore(self, checkpoint: tuple):
        self.allocated, self.reserved, outstanding = checkpoint
        self._outstanding = dict(outstanding)

    def check_conservation(self):
        """Raise ConservationError unless allocated, reserved and available
        are >= 0 in every dimension. `available` is derived as total -
        allocated - reserved, so the three parts then sum to total.

        Every write (reserve, cancel, allocate, release, shrink) calls
        this, so it is O(1): direct component comparisons, no vector
        temporaries, and no `assert`, which `python -O` would strip."""
        a, r = self.allocated, self.reserved
        # Each vector unpacked once: a named field read costs more.
        av, am, as_, ab = a
        rv, rm, rs, rb = r
        tv, tm, ts, tb = self.total
        if (av >= 0 and am >= 0 and as_ >= 0 and ab >= 0
                and rv >= 0 and rm >= 0 and rs >= 0 and rb >= 0
                and tv - av - rv >= 0 and tm - am - rm >= 0
                and ts - as_ - rs >= 0 and tb - ab - rb >= 0):
            return
        for part, vec in (("allocated", a), ("reserved", r),
                          ("available", self.available)):
            for d in DIMENSIONS:
                if not vec.get(d) >= 0:
                    raise ConservationError(self.id, part, d, vec.get(d))

    def snapshot(self) -> dict:
        return {
            "total": self.total.as_dict(),
            "allocated": self.allocated.as_dict(),
            "reserved": self.reserved.as_dict(),
            "available": self.available.as_dict(),
        }


@dataclass
class NfviPop:
    id: str
    vim_ref: str
    zones: list

    def zone(self, zone_id: str) -> ResourceZone:
        for zone in self.zones:
            if zone.id == zone_id:
                return zone
        raise KeyError(zone_id)


class ZoneReport(NamedTuple):
    pop_id: str
    vim_ref: str
    id: str  # the zone's id, unique within its PoP
    total: CapacityVector
    allocated: CapacityVector
    reserved: CapacityVector
    available: CapacityVector


def capacity_report(pops: list) -> list:
    """Pure snapshot of every zone's capacity state, in (pop, zone) order.
    A zone's report is rebuilt only when a write or a `restore` has since
    replaced its `allocated` or `reserved` vector."""
    report = []
    for pop in sorted(pops, key=_BY_ID):
        for zone in sorted(pop.zones, key=_BY_ID):
            last = zone.report
            if (last is None or last.allocated is not zone.allocated
                    or last.reserved is not zone.reserved):
                last = zone.report = ZoneReport(
                    pop.id, pop.vim_ref, zone.id, zone.total, zone.allocated,
                    zone.reserved, zone.available)
            report.append(last)
    return report


def vim_placement(zones: list, spec: CapacityVector, pending: dict):
    """The one rule that picks a zone, run by the DRPA's `plan_placement`
    over one PoP's zones from a capacity report (`ZoneReport`s; live
    `ResourceZone`s read alike). The chosen zone is the first in id order
    whose available capacity, less `pending` (zone id -> capacity the plan
    has already counted there), covers the spec. Otherwise raises
    NoZoneFitsError with the shortest list of dimensions a zone lacks.
    Anti-affinity is the DRPA's to keep: it puts items that share a label
    on distinct PoPs."""
    free = []  # available less pending, of every zone tried
    for zone in sorted(zones, key=_BY_ID):
        capacity = zone.available
        if zone.id in pending:
            capacity = capacity - pending[zone.id]
        if capacity.covers(spec):
            return zone
        free.append(capacity)
    raise NoZoneFitsError(spec, min(
        (capacity.deficient_dimensions(spec) for capacity in free),
        key=len, default=()))


# ---------------------------------------------------------------------------
# Instance records

# Legal VnfInfo changes; see record_vnf_info_update.
ADD_INSTANCES_STOPPED = "add-instances-stopped"
MARK_STARTED = "mark-started"
MARK_STOPPED = "mark-stopped"
DELETE_INSTANCES = "delete-instances"
SET_VNF_IL = "set-vnf-il"

# The VNFC lifecycle: VnfInfo change -> (state before, state after) of the
# VNFCs it names. Before is None for the new VNFCs a change creates, after
# None for those it deletes; SET_VNF_IL names no VNFC.
VNFC_TRANSITIONS = {
    ADD_INSTANCES_STOPPED: (None, STOPPED),
    MARK_STARTED: (STOPPED, STARTED),
    MARK_STOPPED: (STARTED, STOPPED),
    DELETE_INSTANCES: (STOPPED, None),
    SET_VNF_IL: (None, None),
}


@dataclass(frozen=True)
class VnfcInstance:
    id: str
    vdu_ref: str
    state: str
    compute_handle: ResourceHandle | None = None
    storage_handles: tuple = ()
    zone_ref: str = ""
    pop_ref: str = ""


@dataclass(frozen=True)
class VnfInfo:
    vnfd_ref: str
    vnf_flavor_ref: str
    vnfc_instances: tuple
    vim_ref: str
    audit: tuple = ()  # ((step-or-"instantiation", tick), ...)
    profile_ref: str = ""  # the NS flavor's VNF profile it instantiates

    def instance(self, instance_id: str) -> VnfcInstance:
        for inst in self.vnfc_instances:
            if inst.id == instance_id:
                return inst
        raise KeyError(instance_id)


def record_vnf_info_update(info: VnfInfo, change: str, step, tick: int,
                           instances: tuple = (),
                           instance_ids: tuple = ()) -> VnfInfo:
    """Apply one repository write and return the new VnfInfo revision with an
    audit entry. A change creates the VNFCs `instances` or moves those that
    `instance_ids` names, as VNFC_TRANSITIONS says. Raises
    IllegalTransitionError when a VNFC is not in the state it moves from."""
    if change not in VNFC_TRANSITIONS:
        raise ValueError("unknown change %r" % change)
    before, after = VNFC_TRANSITIONS[change]
    current = list(info.vnfc_instances)
    ids = set(instance_ids)
    if before is None:  # the change creates `instances`
        existing = {inst.id for inst in current}
        for inst in instances:
            if inst.id in existing:
                raise IllegalTransitionError("instance id %s reused" % inst.id)
            if inst.state != after:
                raise IllegalTransitionError(
                    "new instances must be created %s (got %s)"
                    % (after, inst.state))
        current += instances
    moved = []
    for inst in current:
        if inst.id in ids:
            if inst.state != before:
                raise IllegalTransitionError("instance %s is %s, expected %s"
                                             % (inst.id, inst.state, before))
            ids.discard(inst.id)
            if after is None:
                continue
            inst = VnfcInstance(inst.id, inst.vdu_ref, after,
                                inst.compute_handle, inst.storage_handles,
                                inst.zone_ref, inst.pop_ref)
        moved.append(inst)
    if ids:
        raise IllegalTransitionError("unknown instances %s" % sorted(ids))
    return VnfInfo(info.vnfd_ref, info.vnf_flavor_ref, tuple(moved),
                   info.vim_ref, info.audit + ((step, tick),),
                   info.profile_ref)
