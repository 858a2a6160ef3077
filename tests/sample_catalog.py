"""The three-VNF sample catalog used across the test suite.

A chain A - B - C where VNF-B is the elastic middle: its VNFC-B1 exists in a
small and a large size (separate VDUs), and the NS flavor ladders through
four levels — grow B1's count, swap B1 for the large size, then add a whole
second VNF-B instance.

Hand-computed aggregates (frozen oracles; vcpu/memory/storage/bandwidth):
  level-1: ( 6, 12, 20, 100)
  level-2: ( 8, 16, 30, 200)
  level-3: (12, 24, 30, 400)
  level-4: (22, 44, 60, 800)
"""

from __future__ import annotations

import copy

# Expected aggregate capacity per NS level, computed by hand from the
# descriptors below and frozen here as an independent check.
LEVEL_AGGREGATES = {
    "level-1": {"vcpu": 6, "memory": 12, "storage": 20, "bandwidth": 100},
    "level-2": {"vcpu": 8, "memory": 16, "storage": 30, "bandwidth": 200},
    "level-3": {"vcpu": 12, "memory": 24, "storage": 30, "bandwidth": 400},
    "level-4": {"vcpu": 22, "memory": 44, "storage": 60, "bandwidth": 800},
}

LEVELS = ("level-1", "level-2", "level-3", "level-4")


def _edge_vnfd(vnfd_id):
    """A and C: one fixed-size VNFC (1 vcpu, 2 GiB)."""
    return {
        "kind": "vnfd",
        "id": vnfd_id,
        "vcds": [{"id": "vcd-1", "vcpu": 1, "memory": 2}],
        "vsds": [],
        "vdus": [{"id": "vdu-1", "vnfc_name": vnfd_id.split("-")[1].upper(),
                  "vcd_ref": "vcd-1"}],
        "flavors": [{"id": "f1", "vdu_refs": ["vdu-1"],
                     "ils": [{"id": "il-1", "counts": {"vdu-1": 1}}]}],
    }


def middle_vnfd():
    """B: VNFC-B1 in small (vdu-1) and large (vdu-2) sizes, VNFC-B2 fixed."""
    return {
        "kind": "vnfd",
        "id": "vnfd-b",
        "vcds": [
            {"id": "vcd-b1-small", "vcpu": 2, "memory": 4},
            {"id": "vcd-b1-large", "vcpu": 8, "memory": 16},
            {"id": "vcd-b2-small", "vcpu": 2, "memory": 4},
            {"id": "vcd-b2-large", "vcpu": 4, "memory": 8},
        ],
        "vsds": [
            {"id": "vsd-small", "storage": 10},
            {"id": "vsd-large", "storage": 20},
        ],
        "vdus": [
            {"id": "vdu-1", "vnfc_name": "B1", "vcd_ref": "vcd-b1-small",
             "vsd_refs": ["vsd-small"]},
            {"id": "vdu-2", "vnfc_name": "B1", "vcd_ref": "vcd-b1-large",
             "vsd_refs": ["vsd-large"]},
            {"id": "vdu-3", "vnfc_name": "B2", "vcd_ref": "vcd-b2-small",
             "vsd_refs": ["vsd-small"]},
            {"id": "vdu-4", "vnfc_name": "B2", "vcd_ref": "vcd-b2-large",
             "vsd_refs": ["vsd-small"]},
        ],
        "vnf_indicators": ["congestion"],
        "flavors": [{
            "id": "f1",
            "vdu_refs": ["vdu-1", "vdu-2", "vdu-3", "vdu-4"],
            "ils": [
                {"id": "il-1", "counts": {"vdu-1": 1, "vdu-3": 1}},
                {"id": "il-2", "counts": {"vdu-1": 2, "vdu-3": 1}},
                {"id": "il-3", "counts": {"vdu-2": 1, "vdu-3": 1}},
            ],
        }],
    }


def sample_vld():
    return {
        "kind": "vld",
        "id": "vld-1",
        "flavors": [{"id": "vlf-1", "latency": 10, "jitter": 2,
                     "reliability_class": 2}],
    }


def sample_vnffgd():
    return {
        "kind": "vnffgd",
        "id": "fg-1",
        "vnfd_refs": ["vnfd-a", "vnfd-b", "vnfd-c"],
        "vld_refs": ["vld-1"],
        "plane_label": "data",
    }


def sample_nsd():
    return {
        "kind": "nsd",
        "id": "nsd-1",
        "version": "1.0",
        "vnfd_refs": ["vnfd-a", "vnfd-b", "vnfd-c"],
        "vld_refs": ["vld-1"],
        "vnffgd_refs": ["fg-1"],
        "monitored_info": [
            {"id": "m-cpu", "source": "vnf-metric", "subject": "vnfd-b",
             "name": "cpu_load", "collection_period": 1},
            {"id": "m-mem", "source": "vnf-metric", "subject": "vnfd-b",
             "name": "mem_load", "collection_period": 1},
            {"id": "m-disk", "source": "vnf-metric", "subject": "vnfd-b",
             "name": "disk_load", "collection_period": 1},
            {"id": "m-net", "source": "ns-metric", "subject": "ns",
             "name": "net_load", "collection_period": 1},
            {"id": "m-cong", "source": "vnf-indicator", "subject": "vnfd-b",
             "name": "congestion"},
        ],
        "auto_scaling_rules": [
            {"id": "r-out",
             "text": "WHEN avg(cpu_load, 1) > 0.7 THEN scale_out COOLDOWN 5"},
            {"id": "r-in",
             "text": ("WHEN max(cpu_load, 3) < 0.3 AND max(mem_load, 3) < 0.3"
                      " AND max(disk_load, 3) < 0.3 AND max(net_load, 3) < 0.3"
                      " THEN scale_in COOLDOWN 5")},
        ],
        "flavors": [{
            "id": "df-1",
            "vnf_profiles": [
                {"id": "p-a", "vnfd_ref": "vnfd-a", "vnf_flavor_ref": "f1",
                 "allowed_il_refs": ["il-1"],
                 "min_instances": 1, "max_instances": 1},
                {"id": "p-b", "vnfd_ref": "vnfd-b", "vnf_flavor_ref": "f1",
                 "allowed_il_refs": ["il-1", "il-2", "il-3"],
                 "min_instances": 1, "max_instances": 2},
                {"id": "p-c", "vnfd_ref": "vnfd-c", "vnf_flavor_ref": "f1",
                 "allowed_il_refs": ["il-1"],
                 "min_instances": 1, "max_instances": 1},
            ],
            "vl_profiles": [
                {"id": "vlp-1", "vld_ref": "vld-1", "vl_flavor_ref": "vlf-1"},
            ],
            "ns_ils": [
                {"id": "level-1",
                 "vnf_entries": {
                     "p-a": {"vnf_il_ref": "il-1", "instance_count": 1},
                     "p-b": {"vnf_il_ref": "il-1", "instance_count": 1},
                     "p-c": {"vnf_il_ref": "il-1", "instance_count": 1}},
                 "vl_entries": {"vlp-1": 100}},
                {"id": "level-2",
                 "vnf_entries": {
                     "p-a": {"vnf_il_ref": "il-1", "instance_count": 1},
                     "p-b": {"vnf_il_ref": "il-2", "instance_count": 1},
                     "p-c": {"vnf_il_ref": "il-1", "instance_count": 1}},
                 "vl_entries": {"vlp-1": 200}},
                {"id": "level-3",
                 "vnf_entries": {
                     "p-a": {"vnf_il_ref": "il-1", "instance_count": 1},
                     "p-b": {"vnf_il_ref": "il-3", "instance_count": 1},
                     "p-c": {"vnf_il_ref": "il-1", "instance_count": 1}},
                 "vl_entries": {"vlp-1": 400}},
                {"id": "level-4",
                 "vnf_entries": {
                     "p-a": {"vnf_il_ref": "il-1", "instance_count": 1},
                     "p-b": {"vnf_il_ref": "il-3", "instance_count": 2},
                     "p-c": {"vnf_il_ref": "il-1", "instance_count": 1}},
                 "vl_entries": {"vlp-1": 800}},
            ],
        }],
    }


def sample_documents() -> list:
    return [
        _edge_vnfd("vnfd-a"),
        middle_vnfd(),
        _edge_vnfd("vnfd-c"),
        sample_vld(),
        sample_vnffgd(),
        sample_nsd(),
    ]


def sample_topology(vcpu=64, memory=128, storage=256, bandwidth=2000):
    return {
        "vims": [{"id": "vim-1"}],
        "pops": [{"id": "pop-1", "vim_ref": "vim-1",
                  "zones": [{"id": "zone-a",
                             "total": {"vcpu": vcpu, "memory": memory,
                                       "storage": storage,
                                       "bandwidth": bandwidth}}]}],
    }


DIMENSION_MAP = {"cpu_load": "vcpu", "mem_load": "memory",
                 "disk_load": "storage", "net_load": "bandwidth"}


def sample_scenario(workload=None, ns_il="level-1", topology=None,
                    options=None) -> dict:
    return {
        "catalog": sample_documents(),
        "topology": topology or sample_topology(),
        "initial_instance": {"nsd_ref": "nsd-1", "flavor_ref": "df-1",
                             "ns_il_ref": ns_il},
        "workload": workload or {},
        "rules": {
            "thresholds": [
                {"id": "t-cpu-high", "subject": "vnfd-b", "metric": "cpu_load",
                 "bound": 0.7, "direction": "above"},
            ],
            "metric_dimensions": dict(DIMENSION_MAP),
        },
        "options": dict(options or {}),
    }


def level_walk_scenario(levels, reservation=True, new_vnf_ils=()) -> dict:
    """The sample scenario from level-1 through `levels`, [(level id, vlp-1
    bitrate)], each of which the catalog gains as level-1 with vlp-1 at
    that bitrate, where each (profile id, VNF-IL id, VDU counts) of
    `new_vnf_ils` adds that VNF level to the profile's VNFD and puts the
    profile at it. One net_load sample per level, ten ticks apart, fires
    one of two rules: a load of 0.9 scales out, and a level of twice the
    current bitrate meets its bandwidth demand of 1.5 times that most
    cheaply; a load of 0.1 scales in, to the cheapest level."""
    documents = sample_documents()
    nsd = documents[-1]
    nsd["auto_scaling_rules"] = [
        {"id": "r-out",
         "text": "WHEN avg(net_load, 1) > 0.7 THEN scale_out COOLDOWN 5"},
        {"id": "r-in",
         "text": "WHEN avg(net_load, 1) < 0.3 THEN scale_in COOLDOWN 5"}]
    flavor = nsd["flavors"][0]
    vnf_entries = dict(flavor["ns_ils"][0]["vnf_entries"])
    for profile_id, il_id, counts in new_vnf_ils:
        [profile] = [p for p in flavor["vnf_profiles"]
                     if p["id"] == profile_id]
        [vnfd] = [d for d in documents if d["id"] == profile["vnfd_ref"]]
        vnfd["flavors"][0]["ils"].append({"id": il_id, "counts": counts})
        profile["allowed_il_refs"].append(il_id)
        vnf_entries[profile_id] = {"vnf_il_ref": il_id, "instance_count": 1}
    metrics = []
    current = flavor["ns_ils"][0]["vl_entries"]["vlp-1"]
    for level_id, bitrate in levels:
        flavor["ns_ils"].append({"id": level_id, "vnf_entries": vnf_entries,
                                 "vl_entries": {"vlp-1": bitrate}})
        metrics.append([10 * (len(metrics) + 1), "ns", "net_load",
                        0.9 if bitrate > current else 0.1])
        current = bitrate
    return with_documents(sample_scenario(
        workload={"metrics": metrics},
        options={"reservation_enabled": reservation}), documents)


def escalation_workload() -> dict:
    """Load that walks level-1 -> 2 -> 3 -> 4.

    Expected demand arithmetic (target utilization 0.6):
      0.75 at level-1 (6 vcpu)  -> 7.50 -> level-2 (8)
      0.80 at level-2 (8 vcpu)  -> 10.67 -> level-3 (12)
      0.90 at level-3 (12 vcpu) -> 18.0 -> level-4 (22)
    """
    return {"metrics": [
        [10, "vnfd-b", "cpu_load", 0.75],
        [40, "vnfd-b", "cpu_load", 0.80],
        [70, "vnfd-b", "cpu_load", 0.90],
    ]}


def jump_workload() -> dict:
    """Full overload at level-1: required vcpu = 1.0*6/0.6 = 10, which skips
    level-2 (8 vcpu) and lands on level-3 (12)."""
    return {"metrics": [[10, "vnfd-b", "cpu_load", 1.0]]}


def scale_in_workload() -> dict:
    """Underload at level-4; demand keeps level-2 out on vcpu and bandwidth,
    so the choice is level-3 (a remove-vnf procedure).

    required = util * capacity / 0.6 at level-4 (22, 44, 60, 800):
      vcpu 0.25 -> 9.17 (> 8, <= 12); memory 0.15 -> 11; storage 0.2 -> 20;
      bandwidth 0.2 -> 266.7 (> 200, <= 400).
    """
    return {"metrics": [
        [10, "vnfd-b", "cpu_load", 0.25],
        [10, "vnfd-b", "mem_load", 0.15],
        [10, "vnfd-b", "disk_load", 0.2],
        [10, "ns", "net_load", 0.2],
    ]}


def with_documents(scenario: dict, documents: list) -> dict:
    out = copy.deepcopy(scenario)
    out["catalog"] = documents
    return out
