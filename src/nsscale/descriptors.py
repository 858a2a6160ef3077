"""Design-time information model: NSDs, VNFDs, VLDs, flavors and
instantiation levels, plus validation and level-delta computation. Each
record's class annotates its fields with their JSON shapes (`shapes`),
from which a document is checked and built."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple

from .capacity import CapacityVector, ZERO
from . import rules as rules_mod
from .shapes import (
    INT, NUMBER, STR, List, Map, Obj, Refused, at_least, by_id, load, one_of,
    shaped,
)

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
    """A catalog that cannot be loaded; `problems` holds a line each."""

    def __init__(self, problems: list):
        super().__init__("; ".join(problems))
        self.problems = problems


class CatalogSyntaxError(CatalogError):
    """Documents of the wrong shape."""


class DuplicateIdentifierError(CatalogError):
    def __init__(self, kind: str, identifier: str):
        super().__init__(["duplicate %s identifier %r" % (kind, identifier)])


class UnknownLevelError(KeyError):
    pass


_REFS = List(STR)


@shaped(noun="monitored item")
@dataclass(frozen=True)
class MonitoredInfoItem:
    id: STR
    source: one_of(MONITORED_SOURCES, "a monitored-info source (%s)"
                   % ", ".join(MONITORED_SOURCES))
    subject: STR  # VNFD id, or NS_SELF
    name: STR
    collection_period: INT = 0  # logical ticks; 0 = no periodic report


class AutoScalingRule(NamedTuple):
    id: str
    text: str
    ast: rules_mod.RuleAst
    cooldown: int
    direction_hint: str


def _rule(rule_id: str, text: str, hint, cooldown) -> AutoScalingRule:
    """A rule's text is parsed; its hint defaults from its action, and its
    cooldown from its text."""
    try:
        ast = rules_mod.parse_rule(text)
    except rules_mod.RuleSyntaxError as exc:
        raise Refused(str(exc))
    return AutoScalingRule(rule_id, text, ast,
                           ast.cooldown if cooldown is None else cooldown,
                           hint or ast.action.replace("_", "-"))


_RULE = Obj(("id", STR), ("text", STR),
            ("direction_hint", one_of(DIRECTION_HINTS, "a direction hint (%s)"
                                      % ", ".join(DIRECTION_HINTS)), None),
            ("cooldown", at_least(0, "an int >= 0", INT.test), None),
            build=_rule, noun="rule", bare=True)


@shaped(noun="VCD")
class Vcd(NamedTuple):
    id: STR
    vcpu: NUMBER
    memory: NUMBER


@shaped(noun="VSD")
class Vsd(NamedTuple):
    id: STR
    storage: NUMBER


@shaped(noun="VDU")
class Vdu(NamedTuple):
    id: STR
    vnfc_name: STR
    vcd_ref: STR
    vsd_refs: _REFS = ()


@shaped(noun="VL flavor")
class VlFlavor(NamedTuple):
    id: STR
    latency: NUMBER
    jitter: NUMBER
    reliability_class: INT


@shaped(noun="VLD")
class Vld(NamedTuple):
    id: STR
    flavors: List(VlFlavor.shape) = ()


@shaped()
class VnffgDescriptor(NamedTuple):
    id: STR
    vnfd_refs: _REFS = ()
    vld_refs: _REFS = ()
    plane_label: STR = ""


@shaped(noun="VNF-IL", bare=True)
class VnfInstantiationLevel(NamedTuple):
    id: STR
    counts: Map(INT)  # vdu id -> VNFC instance count


@shaped(label="")
class VnfDeploymentFlavor(NamedTuple):
    id: STR
    vdu_refs: _REFS = ()
    ils: List(VnfInstantiationLevel.shape) = ()

    il = by_id("ils", UnknownLevelError)


@shaped()
class Vnfd(NamedTuple):
    id: STR
    vdus: List(Vdu.shape) = ()
    vcds: List(Vcd.shape) = ()
    vsds: List(Vsd.shape) = ()
    internal_vlds: List(Vld.shape) = ()
    vnf_indicators: _REFS = ()
    flavors: List(VnfDeploymentFlavor.shape) = ()

    vdu, vcd, vsd = by_id("vdus"), by_id("vcds"), by_id("vsds")
    flavor = by_id("flavors")


@shaped(noun="VNF profile")
class VnfProfile(NamedTuple):
    id: STR
    vnfd_ref: STR
    vnf_flavor_ref: STR
    allowed_il_refs: _REFS = ()
    min_instances: INT = 0
    max_instances: INT = 1


@shaped(noun="VL profile")
class VlProfile(NamedTuple):
    id: STR
    vld_ref: STR
    vl_flavor_ref: STR


@shaped(noun="NS-IL", bare=True)
class NsInstantiationLevel(NamedTuple):
    id: STR
    # profile id -> (vnf_il_ref, instance_count)
    vnf_entries: Map(Obj(("vnf_il_ref", STR), ("instance_count", INT),
                         build=lambda il_ref, count: (il_ref, count)),
                     entry="entry")
    vl_entries: Map(NUMBER) = {}  # vl profile id -> bitrate Mbit/s


@shaped(label="")
class NsDeploymentFlavor(NamedTuple):
    id: STR
    vnf_profiles: List(VnfProfile.shape) = ()
    vl_profiles: List(VlProfile.shape) = ()
    ns_ils: List(NsInstantiationLevel.shape) = ()

    ns_il = by_id("ns_ils", UnknownLevelError)
    profile = by_id("vnf_profiles")


@shaped()
class Nsd(NamedTuple):
    id: STR
    version: STR = "1.0"
    vnfd_refs: _REFS = ()
    vld_refs: _REFS = ()
    vnffgd_refs: _REFS = ()
    monitored_info: List(MonitoredInfoItem.shape) = ()
    auto_scaling_rules: List(_RULE) = ()
    flavors: List(NsDeploymentFlavor.shape) = ()

    flavor = by_id("flavors")


@dataclass
class Catalog:
    nsds: dict = field(default_factory=dict)
    vnfds: dict = field(default_factory=dict)
    vlds: dict = field(default_factory=dict)
    vnffgds: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Loading: each document's shape is its class's

# Each kind of document, and its shape.
_DOCUMENTS = {"nsd": Nsd.shape, "vnfd": Vnfd.shape, "vld": Vld.shape,
              "vnffgd": VnffgDescriptor.shape}
_KIND = one_of(tuple(_DOCUMENTS), "a descriptor kind (%s)"
               % ", ".join(_DOCUMENTS))


def load_catalog(documents: list) -> Catalog:
    """Build a Catalog from descriptor documents (parsed JSON objects).

    Raises CatalogSyntaxError with a line per fault when a document does
    not have its kind's shape, and else DuplicateIdentifierError when two
    documents of the same kind share an id. Cross-reference and
    structural checks are left to validate_catalog so partial catalogs can
    still be linted.
    """
    catalog = Catalog()
    stores = {"nsd": catalog.nsds, "vnfd": catalog.vnfds,
              "vld": catalog.vlds, "vnffgd": catalog.vnffgds}
    problems = []
    duplicate = None
    for index, doc in enumerate(documents):
        if type(doc) is not dict:
            problems.append("document[%d] is not an object: %r"
                            % (index, doc))
            continue
        kind = doc.get("kind")
        if not _KIND.test(kind):
            problems.append("document[%d] kind %r is not %s"
                            % (index, kind, _KIND.kind))
            continue
        item, faults = load(_DOCUMENTS[kind], doc,
                            "%s[%d]:" % (kind, index))
        problems += faults
        if faults:
            continue
        store = stores[kind]
        if item.id in store and duplicate is None:
            duplicate = DuplicateIdentifierError(kind, item.id)
        store[item.id] = item
    if problems:
        raise CatalogSyntaxError(problems)
    if duplicate is not None:
        raise duplicate
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

    def ids(self, members, path: str, noun: str) -> set:
        """The ids of `members`; each id met again is a duplicate `noun`
        id at `<path>/<id>`."""
        seen = set()
        for member in members:
            if member.id in seen:
                self.add("duplicate-id", "%s/%s" % (path, member.id),
                         "duplicate %s id" % noun)
            seen.add(member.id)
        return seen

    def refs(self, refs, known, path: str, noun: str):
        """Each of `refs` that `known` lacks is an unknown `noun` at
        `path`."""
        for ref in refs:
            if ref not in known:
                self.add("dangling-ref", path, "unknown %s %r" % (noun, ref))

    def sorted_lines(self) -> list:
        return sorted(issue.line() for issue in self.issues)


def check_catalog(documents: list) -> tuple:
    """`(catalog, problems)`: the catalog of `documents`, None when it
    cannot be loaded, and a line per load fault or validation issue."""
    try:
        catalog = load_catalog(documents)
    except CatalogError as exc:
        return None, exc.problems
    return catalog, validate_catalog(catalog).sorted_lines()


def read_documents(paths: list) -> list:
    """The documents of JSON files that hold one or a list of them."""
    documents = []
    for path in paths:
        with open(path) as fh:
            doc = json.load(fh)
        documents += doc if isinstance(doc, list) else [doc]
    return documents


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
        report.refs(fg.vnfd_refs, catalog.vnfds, path + "/vnfd_refs", "VNFD")
        report.refs(fg.vld_refs, catalog.vlds, path + "/vld_refs", "VLD")
    for nsd in catalog.nsds.values():
        _validate_nsd(catalog, nsd, report)
    return report


def _validate_vld(vld: Vld, path: str, report: ValidationReport):
    if not vld.flavors:
        report.add("cardinality", path, "VLD must declare at least one flavor")
    report.ids(vld.flavors, path + "/flavors", "VL flavor")
    for flavor in vld.flavors:
        fpath = "%s/flavors/%s" % (path, flavor.id)
        if flavor.latency < 0:
            report.add("range", fpath, "latency must be >= 0")
        if flavor.jitter < 0:
            report.add("range", fpath, "jitter must be >= 0")
        if flavor.reliability_class not in (1, 2, 3):
            report.add("range", fpath, "reliability_class must be in 1..3")


def _validate_vnfd(vnfd: Vnfd, report: ValidationReport):
    path = "vnfd:%s" % vnfd.id
    vcd_ids = report.ids(vnfd.vcds, path + "/vcds", "VCD")
    vsd_ids = report.ids(vnfd.vsds, path + "/vsds", "VSD")
    for vcd in vnfd.vcds:
        if vcd.vcpu < 1:
            report.add("range", "%s/vcds/%s" % (path, vcd.id), "vcpu must be >= 1")
        if vcd.memory <= 0:
            report.add("range", "%s/vcds/%s" % (path, vcd.id), "memory must be > 0")
    for vsd in vnfd.vsds:
        if vsd.storage <= 0:
            report.add("range", "%s/vsds/%s" % (path, vsd.id), "storage must be > 0")
    vdu_ids = report.ids(vnfd.vdus, path + "/vdus", "VDU")
    for vdu in vnfd.vdus:
        vpath = "%s/vdus/%s" % (path, vdu.id)
        report.refs((vdu.vcd_ref,), vcd_ids, vpath, "VCD")
        report.refs(vdu.vsd_refs, vsd_ids, vpath, "VSD")
    report.ids(vnfd.internal_vlds, path + "/internal_vlds", "internal VLD")
    for vld in vnfd.internal_vlds:
        _validate_vld(vld, "%s/internal_vlds/%s" % (path, vld.id), report)
    report.ids(vnfd.flavors, path + "/flavors", "VNF flavor")
    for flavor in vnfd.flavors:
        fpath = "%s/flavors/%s" % (path, flavor.id)
        report.refs(flavor.vdu_refs, vdu_ids, fpath + "/vdu_refs", "VDU")
        report.ids(flavor.ils, fpath + "/ils", "VNF-IL")
        for il in flavor.ils:
            ipath = "%s/ils/%s" % (fpath, il.id)
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
    report.refs(nsd.vnfd_refs, catalog.vnfds, path + "/vnfd_refs", "VNFD")
    report.refs(nsd.vld_refs, catalog.vlds, path + "/vld_refs", "VLD")
    report.refs(nsd.vnffgd_refs, catalog.vnffgds, path + "/vnffgd_refs",
                "VNFFGD")

    report.ids(nsd.monitored_info, path + "/monitored_info", "monitored item")
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
    report.ids(nsd.auto_scaling_rules, path + "/auto_scaling_rules", "rule")
    for rule in nsd.auto_scaling_rules:
        rpath = "%s/auto_scaling_rules/%s" % (path, rule.id)
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
    report.ids(nsd.flavors, path + "/flavors", "NS flavor")
    for flavor in nsd.flavors:
        fpath = "%s/flavors/%s" % (path, flavor.id)
        _validate_ns_flavor(catalog, nsd, flavor, fpath, report)


def _validate_ns_flavor(catalog: Catalog, nsd: Nsd, flavor: NsDeploymentFlavor,
                        fpath: str, report: ValidationReport):
    profile_ids = report.ids(flavor.vnf_profiles, fpath + "/vnf_profiles",
                             "VNF profile")
    for profile in flavor.vnf_profiles:
        ppath = "%s/vnf_profiles/%s" % (fpath, profile.id)
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
        report.refs(profile.allowed_il_refs, {il.id for il in vnf_flavor.ils},
                    ppath, "VNF-IL")
        if not (0 <= profile.min_instances <= profile.max_instances):
            report.add("range", ppath, "0 <= min_instances <= max_instances required")
        if profile.max_instances > COUNT_LIMIT:
            report.add("range", ppath, "max_instances must be <= %d" % COUNT_LIMIT)

    vl_profile_ids = report.ids(flavor.vl_profiles, fpath + "/vl_profiles",
                                "VL profile")
    for profile in flavor.vl_profiles:
        ppath = "%s/vl_profiles/%s" % (fpath, profile.id)
        vld = catalog.vlds.get(profile.vld_ref)
        if vld is None:
            report.add("dangling-ref", ppath, "unknown VLD %r" % profile.vld_ref)
        elif profile.vl_flavor_ref not in {f.id for f in vld.flavors}:
            report.add("dangling-ref", ppath,
                       "unknown VL flavor %r" % profile.vl_flavor_ref)

    report.ids(flavor.ns_ils, fpath + "/ns_ils", "NS-IL")
    for ns_il in flavor.ns_ils:
        ipath = "%s/ns_ils/%s" % (fpath, ns_il.id)
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
