"""Descriptor catalogs the benchmark workloads run on.

The benchmark keeps its own copies, so an edit to the test suite's sample
catalog can never change a workload.

* ``sample_documents``: the three-VNF chain A - B - C with the elastic
  middle VNF-B and a four-level NS ladder (level-1 .. level-4).
* ``fabric_documents``: a wider NS with two elastic profiles (a firewall
  scaled by instance count, a DPI scaled by VNF level), two fixed VNFs and
  an eight-level ladder that mixes vnf-scaling, add-vnf and mixed steps.

``level_capacities`` recomputes each NS level's aggregate capacity from the
documents alone, so load bands are derived without calling the program.
"""

from __future__ import annotations

DIMENSIONS = ("vcpu", "memory", "storage", "bandwidth")

METRIC_DIMENSIONS = {"cpu_load": "vcpu", "mem_load": "memory",
                     "disk_load": "storage", "net_load": "bandwidth"}

SCALE_OUT_RULE = "WHEN avg(cpu_load, 1) > 0.7 THEN scale_out COOLDOWN 5"
SCALE_IN_RULE = ("WHEN max(cpu_load, 3) < 0.3 AND max(mem_load, 3) < 0.3"
                 " AND max(disk_load, 3) < 0.3 AND max(net_load, 3) < 0.3"
                 " THEN scale_in COOLDOWN 5")


def _vnfd(vnfd_id, vcds, vsds, vdus, ils, indicators=()):
    return {
        "kind": "vnfd", "id": vnfd_id, "vcds": vcds, "vsds": vsds,
        "vdus": vdus, "vnf_indicators": list(indicators),
        "flavors": [{"id": "f1", "vdu_refs": [v["id"] for v in vdus],
                     "ils": ils}],
    }


def _fixed_vnfd(vnfd_id, vnfc_name, vcpu, memory, storage=0):
    vsds = [{"id": "vsd-1", "storage": storage}] if storage else []
    vdu = {"id": "vdu-1", "vnfc_name": vnfc_name, "vcd_ref": "vcd-1"}
    if storage:
        vdu["vsd_refs"] = ["vsd-1"]
    return _vnfd(vnfd_id, [{"id": "vcd-1", "vcpu": vcpu, "memory": memory}],
                 vsds, [vdu], [{"id": "il-1", "counts": {"vdu-1": 1}}])


def _vld():
    return {"kind": "vld", "id": "vld-1",
            "flavors": [{"id": "vlf-1", "latency": 10, "jitter": 2,
                         "reliability_class": 2}]}


def _monitored(subject):
    items = [{"id": "m-" + name.split("_")[0], "source": "vnf-metric",
              "subject": subject, "name": name, "collection_period": 1}
             for name in ("cpu_load", "mem_load", "disk_load")]
    items.append({"id": "m-net", "source": "ns-metric", "subject": "ns",
                  "name": "net_load", "collection_period": 1})
    items.append({"id": "m-cong", "source": "vnf-indicator",
                  "subject": subject, "name": "congestion"})
    return items


def _ns_level(level_id, entries, bitrate):
    return {"id": level_id,
            "vnf_entries": {pid: {"vnf_il_ref": il, "instance_count": count}
                            for pid, (il, count) in entries.items()},
            "vl_entries": {"vlp-1": bitrate}}


def _nsd(nsd_id, flavor_id, vnfd_refs, subject, profiles, levels):
    return {
        "kind": "nsd", "id": nsd_id, "version": "1.0",
        "vnfd_refs": list(vnfd_refs), "vld_refs": ["vld-1"],
        "vnffgd_refs": ["fg-1"],
        "monitored_info": _monitored(subject),
        "auto_scaling_rules": [{"id": "r-out", "text": SCALE_OUT_RULE},
                               {"id": "r-in", "text": SCALE_IN_RULE}],
        "flavors": [{
            "id": flavor_id,
            "vnf_profiles": [
                {"id": pid, "vnfd_ref": vnfd_ref, "vnf_flavor_ref": "f1",
                 "allowed_il_refs": list(ils), "min_instances": 1,
                 "max_instances": max_instances}
                for pid, vnfd_ref, ils, max_instances in profiles],
            "vl_profiles": [{"id": "vlp-1", "vld_ref": "vld-1",
                             "vl_flavor_ref": "vlf-1"}],
            "ns_ils": levels,
        }],
    }


def _vnffgd(vnfd_refs):
    return {"kind": "vnffgd", "id": "fg-1", "vnfd_refs": list(vnfd_refs),
            "vld_refs": ["vld-1"], "plane_label": "data"}


# ---------------------------------------------------------------------------
# The sample catalog: level aggregates (6,12,20,100) (8,16,30,200)
# (12,24,30,400) (22,44,60,800).

SAMPLE_NSD = "nsd-1"
SAMPLE_FLAVOR = "df-1"
SAMPLE_SUBJECT = "vnfd-b"
SAMPLE_LEVELS = ("level-1", "level-2", "level-3", "level-4")


def sample_documents() -> list:
    middle = _vnfd(
        "vnfd-b",
        vcds=[{"id": "vcd-b1-small", "vcpu": 2, "memory": 4},
              {"id": "vcd-b1-large", "vcpu": 8, "memory": 16},
              {"id": "vcd-b2-small", "vcpu": 2, "memory": 4},
              {"id": "vcd-b2-large", "vcpu": 4, "memory": 8}],
        vsds=[{"id": "vsd-small", "storage": 10},
              {"id": "vsd-large", "storage": 20}],
        vdus=[{"id": "vdu-1", "vnfc_name": "B1", "vcd_ref": "vcd-b1-small",
               "vsd_refs": ["vsd-small"]},
              {"id": "vdu-2", "vnfc_name": "B1", "vcd_ref": "vcd-b1-large",
               "vsd_refs": ["vsd-large"]},
              {"id": "vdu-3", "vnfc_name": "B2", "vcd_ref": "vcd-b2-small",
               "vsd_refs": ["vsd-small"]},
              {"id": "vdu-4", "vnfc_name": "B2", "vcd_ref": "vcd-b2-large",
               "vsd_refs": ["vsd-small"]}],
        ils=[{"id": "il-1", "counts": {"vdu-1": 1, "vdu-3": 1}},
             {"id": "il-2", "counts": {"vdu-1": 2, "vdu-3": 1}},
             {"id": "il-3", "counts": {"vdu-2": 1, "vdu-3": 1}}],
        indicators=["congestion"])
    vnfds = ("vnfd-a", "vnfd-b", "vnfd-c")
    profiles = [("p-a", "vnfd-a", ["il-1"], 1),
                ("p-b", "vnfd-b", ["il-1", "il-2", "il-3"], 2),
                ("p-c", "vnfd-c", ["il-1"], 1)]
    ladder = [("il-1", 1, 100), ("il-2", 1, 200), ("il-3", 1, 400),
              ("il-3", 2, 800)]
    levels = [_ns_level(SAMPLE_LEVELS[i],
                        {"p-a": ("il-1", 1), "p-b": (il, count),
                         "p-c": ("il-1", 1)}, bitrate)
              for i, (il, count, bitrate) in enumerate(ladder)]
    return [_fixed_vnfd("vnfd-a", "A", 1, 2), middle,
            _fixed_vnfd("vnfd-c", "C", 1, 2), _vld(), _vnffgd(vnfds),
            _nsd(SAMPLE_NSD, SAMPLE_FLAVOR, vnfds, SAMPLE_SUBJECT, profiles,
                 levels)]


# ---------------------------------------------------------------------------
# The wide-fabric catalog.

FABRIC_NSD = "nsd-w"
FABRIC_FLAVOR = "df-w"
FABRIC_SUBJECT = "vnfd-dpi"
# (firewall instances, DPI level, VL bitrate) per NS level. Every step up
# grows vcpu by at least a fifth, so one load band selects exactly the
# next level.
FABRIC_LADDER = (
    (1, "il-1", 100), (1, "il-2", 150), (2, "il-2", 200), (2, "il-3", 300),
    (3, "il-4", 400), (5, "il-4", 500), (6, "il-5", 650), (10, "il-5", 800),
)
FABRIC_LEVELS = tuple("lvl-%d" % (i + 1) for i in range(len(FABRIC_LADDER)))
# Firewall VNFCs of one operation land on distinct PoPs and zones.
FABRIC_ANTI_AFFINITY = {"FW": "fw-spread"}


def fabric_documents() -> list:
    firewall = _vnfd(
        "vnfd-fw",
        vcds=[{"id": "vcd-fw", "vcpu": 4, "memory": 8},
              {"id": "vcd-log", "vcpu": 1, "memory": 2}],
        vsds=[{"id": "vsd-fw", "storage": 10},
              {"id": "vsd-log", "storage": 20}],
        vdus=[{"id": "vdu-1", "vnfc_name": "FW", "vcd_ref": "vcd-fw",
               "vsd_refs": ["vsd-fw"]},
              {"id": "vdu-2", "vnfc_name": "FWLOG", "vcd_ref": "vcd-log",
               "vsd_refs": ["vsd-log"]}],
        ils=[{"id": "il-1", "counts": {"vdu-1": 1, "vdu-2": 1}}])
    dpi = _vnfd(
        "vnfd-dpi",
        vcds=[{"id": "vcd-small", "vcpu": 2, "memory": 4},
              {"id": "vcd-large", "vcpu": 6, "memory": 12},
              {"id": "vcd-ctl", "vcpu": 1, "memory": 2}],
        vsds=[{"id": "vsd-small", "storage": 10},
              {"id": "vsd-large", "storage": 20}],
        vdus=[{"id": "vdu-1", "vnfc_name": "DPI", "vcd_ref": "vcd-small",
               "vsd_refs": ["vsd-small"]},
              {"id": "vdu-2", "vnfc_name": "DPI", "vcd_ref": "vcd-large",
               "vsd_refs": ["vsd-large"]},
              {"id": "vdu-3", "vnfc_name": "DPICTL", "vcd_ref": "vcd-ctl"}],
        ils=[{"id": "il-1", "counts": {"vdu-1": 1, "vdu-3": 1}},
             {"id": "il-2", "counts": {"vdu-1": 3, "vdu-3": 1}},
             {"id": "il-3", "counts": {"vdu-2": 2, "vdu-3": 1}},
             {"id": "il-4", "counts": {"vdu-2": 3, "vdu-3": 1}},
             {"id": "il-5", "counts": {"vdu-2": 5, "vdu-3": 1}}],
        indicators=["congestion"])
    vnfds = ("vnfd-lb", "vnfd-fw", "vnfd-dpi", "vnfd-db")
    profiles = [("p-lb", "vnfd-lb", ["il-1"], 1),
                ("p-fw", "vnfd-fw", ["il-1"],
                 max(count for count, _, _ in FABRIC_LADDER)),
                ("p-dpi", "vnfd-dpi",
                 ["il-1", "il-2", "il-3", "il-4", "il-5"], 1),
                ("p-db", "vnfd-db", ["il-1"], 1)]
    levels = [_ns_level(FABRIC_LEVELS[i],
                        {"p-lb": ("il-1", 1), "p-fw": ("il-1", count),
                         "p-dpi": (dpi_il, 1), "p-db": ("il-1", 1)}, bitrate)
              for i, (count, dpi_il, bitrate) in enumerate(FABRIC_LADDER)]
    return [_fixed_vnfd("vnfd-lb", "LB", 2, 4, 10), firewall, dpi,
            _fixed_vnfd("vnfd-db", "DB", 2, 8, 40), _vld(), _vnffgd(vnfds),
            _nsd(FABRIC_NSD, FABRIC_FLAVOR, vnfds, FABRIC_SUBJECT, profiles,
                 levels)]


# ---------------------------------------------------------------------------

def level_capacities(documents: list) -> dict:
    """NS level id -> {dimension: aggregate capacity}, computed from the
    documents: every VNFC of every VNF instance plus the VL bitrates."""
    vnfds = {d["id"]: d for d in documents if d["kind"] == "vnfd"}
    nsd = next(d for d in documents if d["kind"] == "nsd")
    flavor = nsd["flavors"][0]
    profiles = {p["id"]: p for p in flavor["vnf_profiles"]}
    out = {}
    for level in flavor["ns_ils"]:
        total = dict.fromkeys(DIMENSIONS, 0)
        for pid, entry in level["vnf_entries"].items():
            vnfd = vnfds[profiles[pid]["vnfd_ref"]]
            vcds = {c["id"]: c for c in vnfd["vcds"]}
            vsds = {s["id"]: s["storage"] for s in vnfd["vsds"]}
            vdus = {v["id"]: v for v in vnfd["vdus"]}
            il = next(i for i in vnfd["flavors"][0]["ils"]
                      if i["id"] == entry["vnf_il_ref"])
            for vdu_id, count in il["counts"].items():
                vdu = vdus[vdu_id]
                n = count * entry["instance_count"]
                total["vcpu"] += n * vcds[vdu["vcd_ref"]]["vcpu"]
                total["memory"] += n * vcds[vdu["vcd_ref"]]["memory"]
                total["storage"] += n * sum(vsds[r]
                                            for r in vdu.get("vsd_refs", ()))
        total["bandwidth"] += sum(level["vl_entries"].values())
        out[level["id"]] = total
    return out
