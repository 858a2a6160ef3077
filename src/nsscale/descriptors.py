"""Design-time information model: NSDs, VNFDs, VLDs, flavors and
instantiation levels, plus validation and level-delta computation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .capacity import CapacityVector, ZERO
from . import rules as rules_mod

NS_SELF = "ns"

MONITORED_SOURCES = ("ns-metric", "vnf-metric", "vnf-indicator")
DIRECTION_HINTS = ("scale-out", "scale-in")

COUNT_LIMIT = 1000  # most VNFCs per VDU of a VNF-IL, or instances per profile

# ns_il_delta classifications
CLASS_NONE = "none"
CLASS_VNF_SCALING = "vnf-scaling"
CLASS_ADD_VNF = "add-vnf"
CLASS_REMOVE_VNF = "remove-vnf"
CLASS_MIXED = "mixed"


class CatalogError(ValueError):
    pass


class CatalogSyntaxError(CatalogError):
    """Malformed descriptor document. `location` identifies the offending
    document/field."""

    def __init__(self, message: str, location: str):
        super().__init__("%s: %s" % (location, message))
        self.location = location


class DuplicateIdentifierError(CatalogError):
    def __init__(self, kind: str, identifier: str):
        super().__init__("duplicate %s identifier %r" % (kind, identifier))
        self.kind = kind
        self.identifier = identifier


class UnknownLevelError(KeyError):
    pass


@dataclass(frozen=True)
class MonitoredInfoItem:
    id: str
    source: str
    subject: str  # VNFD id, or NS_SELF
    name: str
    collection_period: int = 0  # logical ticks; 0 = no periodic report


@dataclass(frozen=True)
class AutoScalingRule:
    id: str
    text: str
    ast: rules_mod.RuleAst
    cooldown: int
    direction_hint: str


@dataclass(frozen=True)
class Vcd:
    id: str
    vcpu: int
    memory: float


@dataclass(frozen=True)
class Vsd:
    id: str
    storage: float


@dataclass(frozen=True)
class Vdu:
    id: str
    vnfc_name: str
    vcd_ref: str
    vsd_refs: tuple = ()


@dataclass(frozen=True)
class VlFlavor:
    id: str
    latency: float
    jitter: float
    reliability_class: int


@dataclass(frozen=True)
class Vld:
    id: str
    flavors: tuple


@dataclass(frozen=True)
class VnffgDescriptor:
    id: str
    vnfd_refs: tuple
    vld_refs: tuple
    plane_label: str = ""


@dataclass(frozen=True)
class VnfInstantiationLevel:
    id: str
    counts: dict  # vdu id -> VNFC instance count


@dataclass(frozen=True)
class VnfDeploymentFlavor:
    id: str
    vdu_refs: tuple
    ils: tuple

    def il(self, il_id: str) -> VnfInstantiationLevel:
        for il in self.ils:
            if il.id == il_id:
                return il
        raise UnknownLevelError(il_id)


@dataclass(frozen=True)
class Vnfd:
    id: str
    vdus: tuple
    vcds: tuple
    vsds: tuple
    internal_vlds: tuple = ()
    vnf_indicators: tuple = ()
    flavors: tuple = ()

    def vdu(self, vdu_id: str) -> Vdu:
        for vdu in self.vdus:
            if vdu.id == vdu_id:
                return vdu
        raise KeyError(vdu_id)

    def vcd(self, vcd_id: str) -> Vcd:
        for vcd in self.vcds:
            if vcd.id == vcd_id:
                return vcd
        raise KeyError(vcd_id)

    def vsd(self, vsd_id: str) -> Vsd:
        for vsd in self.vsds:
            if vsd.id == vsd_id:
                return vsd
        raise KeyError(vsd_id)

    def flavor(self, flavor_id: str) -> VnfDeploymentFlavor:
        for flavor in self.flavors:
            if flavor.id == flavor_id:
                return flavor
        raise KeyError(flavor_id)


@dataclass(frozen=True)
class VnfProfile:
    id: str
    vnfd_ref: str
    vnf_flavor_ref: str
    allowed_il_refs: tuple
    min_instances: int
    max_instances: int


@dataclass(frozen=True)
class VlProfile:
    id: str
    vld_ref: str
    vl_flavor_ref: str


@dataclass(frozen=True)
class NsInstantiationLevel:
    id: str
    vnf_entries: dict  # profile id -> (vnf_il_ref, instance_count)
    vl_entries: dict  # vl profile id -> bitrate Mbit/s


@dataclass(frozen=True)
class NsDeploymentFlavor:
    id: str
    vnf_profiles: tuple
    vl_profiles: tuple
    ns_ils: tuple

    def ns_il(self, ns_il_id: str) -> NsInstantiationLevel:
        for il in self.ns_ils:
            if il.id == ns_il_id:
                return il
        raise UnknownLevelError(ns_il_id)

    def profile(self, profile_id: str) -> VnfProfile:
        for profile in self.vnf_profiles:
            if profile.id == profile_id:
                return profile
        raise KeyError(profile_id)


@dataclass(frozen=True)
class Nsd:
    id: str
    version: str
    vnfd_refs: tuple
    vld_refs: tuple
    vnffgd_refs: tuple
    monitored_info: tuple
    auto_scaling_rules: tuple
    flavors: tuple

    def flavor(self, flavor_id: str) -> NsDeploymentFlavor:
        for flavor in self.flavors:
            if flavor.id == flavor_id:
                return flavor
        raise KeyError(flavor_id)


@dataclass
class Catalog:
    nsds: dict = field(default_factory=dict)
    vnfds: dict = field(default_factory=dict)
    vlds: dict = field(default_factory=dict)
    vnffgds: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Loading

def _req(doc: dict, key: str, location: str):
    if key not in doc:
        raise CatalogSyntaxError("missing field %r" % key, location)
    return doc[key]


def _req_str(doc: dict, key: str, location: str, owner: str) -> str:
    """`doc[key]`, which must be a str: a workflow payload writes it as a
    JSON string, or the rule parser reads it. `owner` names `doc` in the
    error."""
    value = _req(doc, key, location)
    if type(value) is not str:
        raise CatalogSyntaxError("%s %s %r is not a string"
                                 % (owner, key, value), location)
    return value


def _load_vcd(doc: dict, location: str) -> Vcd:
    return Vcd(_req(doc, "id", location), _req(doc, "vcpu", location),
               _req(doc, "memory", location))


def _load_vsd(doc: dict, location: str) -> Vsd:
    return Vsd(_req(doc, "id", location), _req(doc, "storage", location))


def _load_vdu(doc: dict, location: str) -> Vdu:
    return Vdu(
        _req(doc, "id", location),
        _req(doc, "vnfc_name", location),
        _req(doc, "vcd_ref", location),
        tuple(doc.get("vsd_refs", ())),
    )


def _load_vl_flavor(doc: dict, location: str) -> VlFlavor:
    return VlFlavor(
        _req(doc, "id", location),
        _req(doc, "latency", location),
        _req(doc, "jitter", location),
        _req(doc, "reliability_class", location),
    )


def _load_vld(doc: dict, location: str) -> Vld:
    return Vld(
        _req(doc, "id", location),
        tuple(_load_vl_flavor(f, location) for f in doc.get("flavors", ())),
    )


def _load_vnf_flavor(doc: dict, location: str) -> VnfDeploymentFlavor:
    ils = []
    for il in doc.get("ils", ()):
        counts = _req(il, "counts", location)
        if not isinstance(counts, dict):
            raise CatalogSyntaxError("il counts must be an object", location)
        ils.append(VnfInstantiationLevel(_req(il, "id", location), dict(counts)))
    return VnfDeploymentFlavor(
        _req(doc, "id", location), tuple(doc.get("vdu_refs", ())), tuple(ils))


def _load_vnfd(doc: dict, location: str) -> Vnfd:
    return Vnfd(
        id=_req(doc, "id", location),
        vdus=tuple(_load_vdu(v, location) for v in doc.get("vdus", ())),
        vcds=tuple(_load_vcd(v, location) for v in doc.get("vcds", ())),
        vsds=tuple(_load_vsd(v, location) for v in doc.get("vsds", ())),
        internal_vlds=tuple(_load_vld(v, location) for v in doc.get("internal_vlds", ())),
        vnf_indicators=tuple(doc.get("vnf_indicators", ())),
        flavors=tuple(_load_vnf_flavor(f, location) for f in doc.get("flavors", ())),
    )


def _load_monitored_item(doc: dict, location: str) -> MonitoredInfoItem:
    source = _req(doc, "source", location)
    if source not in MONITORED_SOURCES:
        raise CatalogSyntaxError("unknown monitored-info source %r" % source, location)
    return MonitoredInfoItem(
        id=_req(doc, "id", location),
        source=source,
        subject=_req(doc, "subject", location),
        name=_req(doc, "name", location),
        collection_period=doc.get("collection_period", 0),
    )


def _load_rule(doc: dict, location: str) -> AutoScalingRule:
    text = _req_str(doc, "text", location, "rule %r" % (doc.get("id"),))
    try:
        ast = rules_mod.parse_rule(text)
    except rules_mod.RuleSyntaxError as exc:
        raise CatalogSyntaxError("rule %r: %s" % (doc.get("id"), exc), location)
    hint = doc.get("direction_hint") or ast.action.replace("_", "-")
    if hint not in DIRECTION_HINTS:
        raise CatalogSyntaxError("unknown direction hint %r" % hint, location)
    cooldown = doc.get("cooldown", ast.cooldown)
    if cooldown < 0:
        raise CatalogSyntaxError("cooldown must be >= 0", location)
    return AutoScalingRule(_req(doc, "id", location), text, ast, cooldown, hint)


def _load_ns_flavor(doc: dict, location: str) -> NsDeploymentFlavor:
    profiles = []
    for p in doc.get("vnf_profiles", ()):
        profiles.append(VnfProfile(
            id=_req(p, "id", location),
            vnfd_ref=_req(p, "vnfd_ref", location),
            vnf_flavor_ref=_req(p, "vnf_flavor_ref", location),
            allowed_il_refs=tuple(p.get("allowed_il_refs", ())),
            min_instances=p.get("min_instances", 0),
            max_instances=p.get("max_instances", 1),
        ))
    vl_profiles = [
        VlProfile(_req(p, "id", location), _req(p, "vld_ref", location),
                  _req(p, "vl_flavor_ref", location))
        for p in doc.get("vl_profiles", ())
    ]
    ns_ils = []
    for il in doc.get("ns_ils", ()):
        il_id = _req_str(il, "id", location, "NS-IL")
        entries = {}
        for pid, entry in _req(il, "vnf_entries", location).items():
            entries[pid] = (
                _req_str(entry, "vnf_il_ref", location,
                         "NS-IL %r entry %r" % (il_id, pid)),
                _req(entry, "instance_count", location))
        ns_ils.append(NsInstantiationLevel(
            il_id, entries, dict(il.get("vl_entries", {}))))
    return NsDeploymentFlavor(
        _req(doc, "id", location), tuple(profiles), tuple(vl_profiles), tuple(ns_ils))


def _load_nsd(doc: dict, location: str) -> Nsd:
    return Nsd(
        id=_req(doc, "id", location),
        version=doc.get("version", "1.0"),
        vnfd_refs=tuple(doc.get("vnfd_refs", ())),
        vld_refs=tuple(doc.get("vld_refs", ())),
        vnffgd_refs=tuple(doc.get("vnffgd_refs", ())),
        monitored_info=tuple(_load_monitored_item(m, location)
                             for m in doc.get("monitored_info", ())),
        auto_scaling_rules=tuple(_load_rule(r, location)
                                 for r in doc.get("auto_scaling_rules", ())),
        flavors=tuple(_load_ns_flavor(f, location) for f in doc.get("flavors", ())),
    )


def load_catalog(documents: list) -> Catalog:
    """Build a Catalog from descriptor documents (parsed JSON objects).

    Raises CatalogSyntaxError on malformed documents and
    DuplicateIdentifierError when two documents of the same kind share an id.
    Cross-reference and structural checks are left to validate_catalog so
    partial catalogs can still be linted.
    """
    catalog = Catalog()
    for index, doc in enumerate(documents):
        location = "document[%d]" % index
        if not isinstance(doc, dict):
            raise CatalogSyntaxError("descriptor document must be an object", location)
        kind = doc.get("kind")
        if kind not in ("nsd", "vnfd", "vld", "vnffgd"):
            raise CatalogSyntaxError("unknown descriptor kind %r" % kind, location)
        location = "%s[%d]" % (kind, index)
        if kind == "nsd":
            item = _load_nsd(doc, location)
            store = catalog.nsds
        elif kind == "vnfd":
            item = _load_vnfd(doc, location)
            store = catalog.vnfds
        elif kind == "vld":
            item = _load_vld(doc, location)
            store = catalog.vlds
        else:
            item = VnffgDescriptor(
                id=_req(doc, "id", location),
                vnfd_refs=tuple(doc.get("vnfd_refs", ())),
                vld_refs=tuple(doc.get("vld_refs", ())),
                plane_label=doc.get("plane_label", ""),
            )
            store = catalog.vnffgds
        if item.id in store:
            raise DuplicateIdentifierError(kind, item.id)
        store[item.id] = item
    return catalog


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    path: str
    message: str

    def line(self) -> str:
        return "%s %s: %s" % (self.kind, self.path, self.message)


@dataclass
class ValidationReport:
    issues: list = field(default_factory=list)

    def add(self, kind: str, path: str, message: str):
        self.issues.append(ValidationIssue(kind, path, message))

    def sorted_lines(self) -> list:
        return sorted(issue.line() for issue in self.issues)


def validate_catalog(catalog: Catalog) -> ValidationReport:
    """Check every structural invariant; violations become report entries,
    never exceptions."""
    report = ValidationReport()
    for vnfd in catalog.vnfds.values():
        _validate_vnfd(vnfd, report)
    for vld in catalog.vlds.values():
        _validate_vld(vld, "vld:%s" % vld.id, report)
    for fg in catalog.vnffgds.values():
        path = "vnffgd:%s" % fg.id
        for ref in fg.vnfd_refs:
            if ref not in catalog.vnfds:
                report.add("dangling-ref", path + "/vnfd_refs", "unknown VNFD %r" % ref)
        for ref in fg.vld_refs:
            if ref not in catalog.vlds:
                report.add("dangling-ref", path + "/vld_refs", "unknown VLD %r" % ref)
    for nsd in catalog.nsds.values():
        _validate_nsd(catalog, nsd, report)
    return report


def _validate_vld(vld: Vld, path: str, report: ValidationReport):
    if not vld.flavors:
        report.add("cardinality", path, "VLD must declare at least one flavor")
    seen = set()
    for flavor in vld.flavors:
        fpath = "%s/flavors/%s" % (path, flavor.id)
        if flavor.id in seen:
            report.add("duplicate-id", fpath, "duplicate VL flavor id")
        seen.add(flavor.id)
        if flavor.latency < 0:
            report.add("range", fpath, "latency must be >= 0")
        if flavor.jitter < 0:
            report.add("range", fpath, "jitter must be >= 0")
        if flavor.reliability_class not in (1, 2, 3):
            report.add("range", fpath, "reliability_class must be in 1..3")


def _validate_vnfd(vnfd: Vnfd, report: ValidationReport):
    path = "vnfd:%s" % vnfd.id
    vcd_ids = {v.id for v in vnfd.vcds}
    vsd_ids = {v.id for v in vnfd.vsds}
    vdu_ids = set()
    for vcd in vnfd.vcds:
        if vcd.vcpu < 1:
            report.add("range", "%s/vcds/%s" % (path, vcd.id), "vcpu must be >= 1")
        if vcd.memory <= 0:
            report.add("range", "%s/vcds/%s" % (path, vcd.id), "memory must be > 0")
    for vsd in vnfd.vsds:
        if vsd.storage <= 0:
            report.add("range", "%s/vsds/%s" % (path, vsd.id), "storage must be > 0")
    for vdu in vnfd.vdus:
        vpath = "%s/vdus/%s" % (path, vdu.id)
        if vdu.id in vdu_ids:
            report.add("duplicate-id", vpath, "duplicate VDU id")
        vdu_ids.add(vdu.id)
        if vdu.vcd_ref not in vcd_ids:
            report.add("dangling-ref", vpath, "unknown VCD %r" % vdu.vcd_ref)
        for ref in vdu.vsd_refs:
            if ref not in vsd_ids:
                report.add("dangling-ref", vpath, "unknown VSD %r" % ref)
    for vld in vnfd.internal_vlds:
        _validate_vld(vld, "%s/internal_vlds/%s" % (path, vld.id), report)
    flavor_ids = set()
    for flavor in vnfd.flavors:
        fpath = "%s/flavors/%s" % (path, flavor.id)
        if flavor.id in flavor_ids:
            report.add("duplicate-id", fpath, "duplicate VNF flavor id")
        flavor_ids.add(flavor.id)
        for ref in flavor.vdu_refs:
            if ref not in vdu_ids:
                report.add("dangling-ref", fpath + "/vdu_refs", "unknown VDU %r" % ref)
        il_ids = set()
        for il in flavor.ils:
            ipath = "%s/ils/%s" % (fpath, il.id)
            if il.id in il_ids:
                report.add("duplicate-id", ipath, "duplicate VNF-IL id")
            il_ids.add(il.id)
            for vdu_ref in il.counts:
                if vdu_ref not in flavor.vdu_refs:
                    report.add("dangling-ref", ipath,
                               "count references VDU %r outside the flavor" % vdu_ref)
            if any(c < 0 for c in il.counts.values()):
                report.add("range", ipath, "VNFC counts must be >= 0")
            if any(c > COUNT_LIMIT for c in il.counts.values()):
                report.add("range", ipath, "VNFC counts must be <= %d" % COUNT_LIMIT)
            if not any(c > 0 for c in il.counts.values()):
                report.add("range", ipath, "at least one VNFC count must be > 0")


def _validate_nsd(catalog: Catalog, nsd: Nsd, report: ValidationReport):
    path = "nsd:%s" % nsd.id
    for ref in nsd.vnfd_refs:
        if ref not in catalog.vnfds:
            report.add("dangling-ref", path + "/vnfd_refs", "unknown VNFD %r" % ref)
    for ref in nsd.vld_refs:
        if ref not in catalog.vlds:
            report.add("dangling-ref", path + "/vld_refs", "unknown VLD %r" % ref)
    for ref in nsd.vnffgd_refs:
        if ref not in catalog.vnffgds:
            report.add("dangling-ref", path + "/vnffgd_refs", "unknown VNFFGD %r" % ref)

    monitored = set()  # (subject, name) of every monitored item
    for item in nsd.monitored_info:
        mpath = "%s/monitored_info/%s" % (path, item.id)
        monitored.add((item.subject, item.name))
        if item.source == "vnf-indicator":
            vnfd = catalog.vnfds.get(item.subject)
            if vnfd is None:
                report.add("dangling-ref", mpath, "unknown subject VNFD %r" % item.subject)
            elif item.name not in vnfd.vnf_indicators:
                report.add("dangling-ref", mpath,
                           "indicator %r not declared in VNFD %r" % (item.name, item.subject))
        elif item.source == "vnf-metric" and item.subject != NS_SELF:
            if item.subject not in catalog.vnfds:
                report.add("dangling-ref", mpath, "unknown subject VNFD %r" % item.subject)
        if item.source != "vnf-indicator" and item.collection_period < 0:
            report.add("range", mpath, "collection_period must be >= 0")

    monitored_names = {name for _, name in monitored}
    for rule in nsd.auto_scaling_rules:
        rpath = "%s/auto_scaling_rules/%s" % (path, rule.id)
        if rule.cooldown < 0:
            report.add("range", rpath, "cooldown must be >= 0")
        for ref in rule.ast.metric_refs:
            # as MetricStore.resolve reads it: "subject.name" names one
            # monitored item, a bare name any item of that name
            known = (tuple(ref.split(".", 1)) in monitored if "." in ref
                     else ref in monitored_names)
            if not known:
                report.add("dangling-ref", rpath,
                           "rule references undeclared metric %r" % ref)

    if not nsd.flavors:
        report.add("cardinality", path, "NSD must declare at least one flavor")
    flavor_ids = set()
    for flavor in nsd.flavors:
        fpath = "%s/flavors/%s" % (path, flavor.id)
        if flavor.id in flavor_ids:
            report.add("duplicate-id", fpath, "duplicate NS flavor id")
        flavor_ids.add(flavor.id)
        _validate_ns_flavor(catalog, nsd, flavor, fpath, report)


def _validate_ns_flavor(catalog: Catalog, nsd: Nsd, flavor: NsDeploymentFlavor,
                        fpath: str, report: ValidationReport):
    profile_ids = set()
    for profile in flavor.vnf_profiles:
        ppath = "%s/vnf_profiles/%s" % (fpath, profile.id)
        if profile.id in profile_ids:
            report.add("duplicate-id", ppath, "duplicate VNF profile id")
        profile_ids.add(profile.id)
        vnfd = catalog.vnfds.get(profile.vnfd_ref)
        if vnfd is None:
            report.add("dangling-ref", ppath, "unknown VNFD %r" % profile.vnfd_ref)
            continue
        if profile.vnfd_ref not in nsd.vnfd_refs:
            report.add("dangling-ref", ppath,
                       "VNFD %r not referenced by the NSD" % profile.vnfd_ref)
        try:
            vnf_flavor = vnfd.flavor(profile.vnf_flavor_ref)
        except KeyError:
            report.add("dangling-ref", ppath,
                       "unknown VNF flavor %r" % profile.vnf_flavor_ref)
            continue
        il_ids = {il.id for il in vnf_flavor.ils}
        for ref in profile.allowed_il_refs:
            if ref not in il_ids:
                report.add("dangling-ref", ppath, "unknown VNF-IL %r" % ref)
        if not (0 <= profile.min_instances <= profile.max_instances):
            report.add("range", ppath, "0 <= min_instances <= max_instances required")
        if profile.max_instances > COUNT_LIMIT:
            report.add("range", ppath, "max_instances must be <= %d" % COUNT_LIMIT)

    vl_profile_ids = set()
    for profile in flavor.vl_profiles:
        ppath = "%s/vl_profiles/%s" % (fpath, profile.id)
        if profile.id in vl_profile_ids:
            report.add("duplicate-id", ppath, "duplicate VL profile id")
        vl_profile_ids.add(profile.id)
        vld = catalog.vlds.get(profile.vld_ref)
        if vld is None:
            report.add("dangling-ref", ppath, "unknown VLD %r" % profile.vld_ref)
        elif profile.vl_flavor_ref not in {f.id for f in vld.flavors}:
            report.add("dangling-ref", ppath,
                       "unknown VL flavor %r" % profile.vl_flavor_ref)

    ns_il_ids = set()
    for ns_il in flavor.ns_ils:
        ipath = "%s/ns_ils/%s" % (fpath, ns_il.id)
        if ns_il.id in ns_il_ids:
            report.add("duplicate-id", ipath, "duplicate NS-IL id")
        ns_il_ids.add(ns_il.id)
        for pid, (il_ref, count) in ns_il.vnf_entries.items():
            epath = "%s/vnf_entries/%s" % (ipath, pid)
            if pid not in profile_ids:
                report.add("dangling-ref", epath, "unknown VNF profile %r" % pid)
                continue
            profile = flavor.profile(pid)
            if profile.allowed_il_refs and il_ref not in profile.allowed_il_refs:
                report.add("dangling-ref", epath,
                           "VNF-IL %r not allowed by the profile" % il_ref)
            if not (profile.min_instances <= count <= profile.max_instances):
                report.add("cardinality", epath,
                           "instance count %d outside [%d, %d]"
                           % (count, profile.min_instances, profile.max_instances))
        for pid, bitrate in ns_il.vl_entries.items():
            epath = "%s/vl_entries/%s" % (ipath, pid)
            if pid not in vl_profile_ids:
                report.add("dangling-ref", epath, "unknown VL profile %r" % pid)
            if bitrate <= 0:
                report.add("range", epath, "bitrate must be > 0")


# ---------------------------------------------------------------------------
# Capacity and level deltas

def vdu_capacity(vnfd: Vnfd, vdu_id: str) -> CapacityVector:
    """Per-instance capacity requirement of one VNFC: its VCD plus VSDs."""
    vdu = vnfd.vdu(vdu_id)
    vcd = vnfd.vcd(vdu.vcd_ref)
    storage = sum(vnfd.vsd(ref).storage for ref in vdu.vsd_refs)
    return CapacityVector(vcpu=vcd.vcpu, memory=vcd.memory, storage=storage)


def vnf_il_capacity(vnfd: Vnfd, il: VnfInstantiationLevel) -> CapacityVector:
    return sum((vdu_capacity(vnfd, vdu_id).scaled(count)
                for vdu_id, count in il.counts.items()), ZERO)


class ProfileDelta(NamedTuple):
    """One VNF profile's change between two NS levels. A level of None is
    the empty level, where the profile has no instances. `vnfc_add` and
    `vnfc_remove` (vdu id -> VNFC count) are what each retained instance
    gains and loses when it changes VNF level in place."""

    profile_id: str
    from_il: str | None
    to_il: str | None
    from_count: int
    to_count: int
    vnfc_add: dict
    vnfc_remove: dict

    @property
    def il_changed(self) -> bool:
        return self.from_il != self.to_il

    @property
    def count_delta(self) -> int:
        return self.to_count - self.from_count

    @property
    def retained(self) -> int:
        """Instances that exist on both levels; they change level in place
        when `il_changed`."""
        return min(self.from_count, self.to_count)


_EMPTY_LEVEL = NsInstantiationLevel(None, {}, {})


class NsIlDelta(NamedTuple):
    profile_deltas: tuple  # only profiles with an actual change
    vl_changes: dict  # vl profile id -> (from bitrate, to bitrate)
    classification: str


def ns_il_delta(catalog: Catalog, flavor: NsDeploymentFlavor,
                from_il: str | None, to_il: str) -> NsIlDelta:
    """Compare two NS levels and classify the scaling procedure they demand.
    `from_il` None is the empty level, so the delta instantiates `to_il`."""
    source = _EMPTY_LEVEL if from_il is None else flavor.ns_il(from_il)
    target = flavor.ns_il(to_il)
    deltas = []
    for pid in sorted(set(source.vnf_entries) | set(target.vnf_entries)):
        s_il, s_count = source.vnf_entries.get(pid, (None, 0))
        t_il, t_count = target.vnf_entries.get(pid, (None, 0))
        if s_il == t_il and s_count == t_count:
            continue
        add, remove = {}, {}
        if s_il is not None and t_il is not None:
            profile = flavor.profile(pid)
            vnf_flavor = catalog.vnfds[profile.vnfd_ref].flavor(
                profile.vnf_flavor_ref)
            before = vnf_flavor.il(s_il).counts
            after = vnf_flavor.il(t_il).counts
            for vdu_id in sorted(set(before) | set(after)):
                diff = after.get(vdu_id, 0) - before.get(vdu_id, 0)
                if diff > 0:
                    add[vdu_id] = diff
                elif diff < 0:
                    remove[vdu_id] = -diff
        deltas.append(ProfileDelta(pid, s_il, t_il, s_count, t_count,
                                   add, remove))
    vl_changes = {}
    for pid in sorted(set(source.vl_entries) | set(target.vl_entries)):
        before = source.vl_entries.get(pid, 0)
        after = target.vl_entries.get(pid, 0)
        if before != after:
            vl_changes[pid] = (before, after)
    return NsIlDelta(tuple(deltas), vl_changes, _classify(deltas))


def _classify(deltas: list) -> str:
    if not deltas:
        return CLASS_NONE
    kinds = set()
    for d in deltas:
        if d.count_delta == 0:
            kinds.add(CLASS_VNF_SCALING)
        elif not d.il_changed and d.count_delta > 0:
            kinds.add(CLASS_ADD_VNF)
        elif not d.il_changed and d.count_delta < 0:
            kinds.add(CLASS_REMOVE_VNF)
        else:
            kinds.add(CLASS_MIXED)
    if len(kinds) == 1:
        return kinds.pop()
    return CLASS_MIXED


def aggregate_capacity(catalog: Catalog, flavor: NsDeploymentFlavor,
                       ns_il_id: str) -> CapacityVector:
    """Componentwise capacity sum over every VNFC instance implied by the
    NS level, plus VL bitrates."""
    ns_il = flavor.ns_il(ns_il_id)
    total = ZERO
    for pid, (il_ref, count) in ns_il.vnf_entries.items():
        profile = flavor.profile(pid)
        vnfd = catalog.vnfds[profile.vnfd_ref]
        vnf_flavor = vnfd.flavor(profile.vnf_flavor_ref)
        total = total + vnf_il_capacity(vnfd, vnf_flavor.il(il_ref)).scaled(count)
    for bitrate in ns_il.vl_entries.values():
        total = total + CapacityVector(bandwidth=bitrate)
    return total
