"""Runtime repositories: zone capacity accounting (allocated/reserved/
available), reservations, resource handles, and VNF instance records."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from .capacity import DIMENSIONS, KIND_DIMENSIONS, CapacityVector, ZERO
from .shapes import by_id

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

    def __init__(self, spec: CapacityVector, shortfall: list):
        super().__init__("no zone fits %s" % spec.as_dict())
        self.shortfall = list(shortfall)


class ReservationStateError(InventoryError):
    pass


class DoubleReleaseError(InventoryError):
    pass


class IllegalTransitionError(InventoryError):
    pass


class ResourceHandle(NamedTuple):
    id: str
    spec: CapacityVector


class ResourceZone:
    """One capacity partition of an NFVI-PoP. `available` is always derived,
    never stored. Every write assigns new `allocated` and `reserved`
    vectors, and `restore` the checkpoint's own: `capacity_report` reuses
    `report` while it holds the zone's very vectors. The zone holds each
    reservation it made until it is consumed or cancelled, by id, as a VIM
    holds its reservations by reservationId."""

    def __init__(self, zone_id: str, total: CapacityVector):
        self.id = zone_id
        self.total = total
        self.allocated = ZERO
        self.reserved = ZERO
        self._counter = itertools.count(1)
        self._outstanding = {}  # handle id -> ResourceHandle
        self._reservations = {}  # reservation id -> (spec, kind)
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

    def reserve(self, spec: CapacityVector, kind: str) -> str:
        """Reserve `spec` of `kind` and return the reservation's id."""
        self._check_kind(spec, kind)
        self._check_fits(spec)
        reservation_id = "res-%s-%d" % (self.id, next(self._counter))
        self._reservations[reservation_id] = (spec, kind)
        self.reserved = self.reserved + spec
        self.check_conservation()
        return reservation_id

    def _reservation(self, reservation_id: str) -> tuple:
        """The (spec, kind) of a reservation the zone holds."""
        try:
            return self._reservations[reservation_id]
        except KeyError:
            raise ReservationStateError(
                "reservation %s does not match zone %s: not held there"
                % (reservation_id, self.id)) from None

    def cancel(self, reservation_id: str):
        spec, _ = self._reservation(reservation_id)
        del self._reservations[reservation_id]
        self.reserved = self.reserved - spec
        self.check_conservation()

    def allocate(self, spec: CapacityVector, kind: str,
                 from_reservation: str | None = None) -> ResourceHandle:
        self._check_kind(spec, kind)
        if from_reservation is not None:
            reserved, reserved_kind = self._reservation(from_reservation)
            if reserved_kind != kind:
                raise ReservationStateError(
                    "reservation %s does not match zone %s kind %s"
                    % (from_reservation, self.id, kind))
            if not reserved.covers(spec):
                raise ReservationStateError(
                    "allocation exceeds reservation %s" % from_reservation)
            # Consume the whole reservation; unused remainder returns to
            # available implicitly.
            del self._reservations[from_reservation]
            self.reserved = self.reserved - reserved
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
        now: allocated, reserved, the outstanding handles and the
        reservations held. The id counter is not part of it: ids are never
        reused."""
        return (self.allocated, self.reserved, dict(self._outstanding),
                dict(self._reservations))

    def restore(self, checkpoint: tuple):
        self.allocated, self.reserved, outstanding, reservations = checkpoint
        self._outstanding = dict(outstanding)
        self._reservations = dict(reservations)

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

    zone = by_id("zones")


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

    instance = by_id("vnfc_instances")


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
