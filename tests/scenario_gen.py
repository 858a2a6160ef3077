"""Randomized inputs for property and determinism tests.

Two generators:

* random_catalog: random NSD/VNFD sets for the pure decision-pipeline oracle
  comparison. Per profile, either the instance count varies across NS levels
  (at a fixed VNF level) or the VNF level varies (at a fixed count of 1), so
  every level pair decomposes into pure per-profile procedures.
* random_scenario: executable scenarios over the sample catalog with random
  topology, workload, and options.
"""

from __future__ import annotations

import random

import sample_catalog as sc
from nsscale.capacity import CapacityVector
from nsscale.descriptors import load_catalog


def random_catalog(rng: random.Random, max_levels: int = 8):
    """Returns (catalog, nsd, flavor) with 2..max_levels NS levels."""
    n_vnfds = rng.randint(1, 3)
    documents = []
    vnfd_specs = []
    for v in range(n_vnfds):
        vnfd_id = "vnfd-%d" % v
        n_vdus = rng.randint(1, 3)
        vcds, vsds, vdus = [], [], []
        for d in range(n_vdus):
            vcds.append({"id": "vcd-%d" % d, "vcpu": rng.randint(1, 8),
                         "memory": rng.randint(1, 32)})
            vdu = {"id": "vdu-%d" % d, "vnfc_name": "C%d" % d,
                   "vcd_ref": "vcd-%d" % d}
            if rng.random() < 0.5:
                vsds.append({"id": "vsd-%d" % d,
                             "storage": rng.randint(5, 40)})
                vdu["vsd_refs"] = ["vsd-%d" % d]
            vdus.append(vdu)
        n_ils = rng.randint(1, 3)
        ils = []
        for i in range(n_ils):
            counts = {v2["id"]: rng.randint(0, 3) for v2 in vdus}
            if not any(counts.values()):
                counts[vdus[0]["id"]] = 1
            ils.append({"id": "il-%d" % i, "counts": counts})
        documents.append({"kind": "vnfd", "id": vnfd_id, "vcds": vcds,
                          "vsds": vsds, "vdus": vdus,
                          "flavors": [{"id": "f1",
                                       "vdu_refs": [v2["id"] for v2 in vdus],
                                       "ils": ils}]})
        vnfd_specs.append((vnfd_id, [il["id"] for il in ils]))

    documents.append({"kind": "vld", "id": "vld-1",
                      "flavors": [{"id": "vlf-1", "latency": 5, "jitter": 1,
                                   "reliability_class": 1}]})

    n_levels = rng.randint(2, max_levels)
    profiles = []
    modes = []
    for v, (vnfd_id, il_ids) in enumerate(vnfd_specs):
        mode = rng.choice(["count", "il"]) if len(il_ids) > 1 else "count"
        modes.append((mode, il_ids))
        profiles.append({"id": "p-%d" % v, "vnfd_ref": vnfd_id,
                         "vnf_flavor_ref": "f1", "allowed_il_refs": il_ids,
                         "min_instances": 1, "max_instances": 4})
    ns_ils = []
    for lvl in range(n_levels):
        entries = {}
        for v, (mode, il_ids) in enumerate(modes):
            if mode == "count":
                entries["p-%d" % v] = {"vnf_il_ref": il_ids[0],
                                       "instance_count": rng.randint(1, 4)}
            else:
                entries["p-%d" % v] = {"vnf_il_ref": rng.choice(il_ids),
                                       "instance_count": 1}
        ns_ils.append({"id": "lvl-%d" % lvl, "vnf_entries": entries,
                       "vl_entries": {"vlp-1": rng.choice(
                           [50, 100, 200, 300, 500])}})
    documents.append({
        "kind": "nsd", "id": "nsd-r",
        "vnfd_refs": [v_id for v_id, _ in vnfd_specs],
        "vld_refs": ["vld-1"],
        "monitored_info": [
            {"id": "m-cpu", "source": "vnf-metric",
             "subject": vnfd_specs[0][0], "name": "cpu_load",
             "collection_period": 1}],
        "auto_scaling_rules": [],
        "flavors": [{"id": "df-r", "vnf_profiles": profiles,
                     "vl_profiles": [{"id": "vlp-1", "vld_ref": "vld-1",
                                      "vl_flavor_ref": "vlf-1"}],
                     "ns_ils": ns_ils}],
    })
    catalog = load_catalog(documents)
    nsd = catalog.nsds["nsd-r"]
    return catalog, nsd, nsd.flavor("df-r")


def random_demand(rng: random.Random, level_capacities: list) -> CapacityVector:
    """A demand vector spanning the feasible range of the given level
    aggregates (sometimes exceeding all of them)."""
    out = {}
    for dim in ("vcpu", "memory", "storage", "bandwidth"):
        ceiling = max(c.get(dim) for c in level_capacities)
        out[dim] = round(rng.uniform(0, ceiling * 1.3), 2)
    return CapacityVector(**out)


def random_scenario(rng: random.Random) -> dict:
    """An executable scenario: sample catalog, randomized infrastructure,
    workload, and options."""
    n_vims = rng.randint(1, 2)
    vims = [{"id": "vim-%d" % i} for i in range(n_vims)]
    pops = []
    for p in range(rng.randint(1, 2)):
        zones = []
        for z in range(rng.randint(1, 2)):
            zones.append({"id": "zone-%d-%d" % (p, z),
                          "total": {"vcpu": rng.randint(24, 64),
                                    "memory": rng.randint(48, 128),
                                    "storage": rng.randint(80, 256),
                                    "bandwidth": rng.randint(900, 2400)}})
        pops.append({"id": "pop-%d" % p,
                     "vim_ref": "vim-%d" % rng.randrange(n_vims),
                     "zones": zones})
    metrics = []
    tick = 10
    for _ in range(rng.randint(15, 30)):
        if rng.random() < 0.5:
            metrics.append([tick, "vnfd-b", "cpu_load",
                            round(rng.uniform(0.72, 1.1), 3)])
        else:
            metrics.append([tick, "vnfd-b", "cpu_load",
                            round(rng.uniform(0.05, 0.29), 3)])
            metrics.append([tick, "vnfd-b", "mem_load",
                            round(rng.uniform(0.05, 0.29), 3)])
            metrics.append([tick, "vnfd-b", "disk_load",
                            round(rng.uniform(0.05, 0.29), 3)])
            metrics.append([tick, "ns", "net_load",
                            round(rng.uniform(0.05, 0.29), 3)])
        tick += rng.randint(6, 11)
    scenario = sc.sample_scenario(
        workload={"metrics": metrics},
        ns_il=rng.choice(list(sc.LEVELS)),
        topology={"vims": vims, "pops": pops},
        options={"reservation_enabled": rng.random() < 0.7})
    return scenario
