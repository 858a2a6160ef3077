"""Seeded workload generators.

Each generator returns a scenario dict for ``nsscale.scenario.
scenario_from_dict``. The seed only draws sample values inside load bands;
the bands, the timeline's shape and the topology depend on the size alone.
So two seeds cost the same work, and every band selects exactly one target
level, which makes the sequence of scaling operations independent of the
seed too.

Bands come from the catalog's level aggregates and the demand model of
the paper's decision algorithm: a violated dimension needs
``load * capacity / target_utilization``, and the cheapest covering level
wins.
"""

from __future__ import annotations

import random

import catalogs as cat

TARGET_UTILIZATION = 0.6
RULE_HIGH = 0.7  # scale-out fires above this average cpu load
RULE_LOW = 0.3  # scale-in fires when every metric stays below this
MARGIN = 0.005
MID_BAND = (0.35, 0.65)  # never fires a rule
COOLDOWN_GAP = 5  # ticks between two firings of one rule

WORKLOADS = ("monitor-steady", "scale-churn", "wide-fabric")

# Default sizes: ticks for monitor-steady, level cycles for the others.
DEFAULT_SIZE = {"monitor-steady": 1000, "scale-churn": 40, "wide-fabric": 3}
TINY_SIZE = {"monitor-steady": 150, "scale-churn": 1, "wide-fabric": 1}


class _Timeline:
    """Builds the workload's metric and indicator records, one tick at a
    time."""

    def __init__(self, rng: random.Random, subject: str):
        self.rng = rng
        self.subject = subject
        self.tick = 0
        self.metrics = []
        self.indicators = []

    def draw(self, band) -> float:
        return round(self.rng.uniform(*band), 4)

    def step(self, bands: dict):
        """One tick; `bands` maps metric name -> (lo, hi), in delivery
        order."""
        self.tick += 1
        for name, band in bands.items():
            subject = "ns" if name == "net_load" else self.subject
            self.metrics.append([self.tick, subject, name, self.draw(band)])

    def indicator(self):
        self.indicators.append([self.tick, self.subject, "congestion",
                                self.draw((0.0, 1.0))])

    def workload(self) -> dict:
        return {"metrics": self.metrics, "indicators": self.indicators}


ALL_METRICS = ("cpu_load", "mem_load", "disk_load", "net_load")


def _mid(all_metrics: bool) -> dict:
    names = ALL_METRICS if all_metrics else ALL_METRICS[:1]
    return {name: MID_BAND for name in names}


def scale_out_band(capacities: dict, current: str, target: str) -> tuple:
    """cpu load that fires scale-out at `current` and whose demand only the
    next level `target` (and larger ones) covers."""
    have = capacities[current]["vcpu"]
    need = capacities[target]["vcpu"]
    hi = min(TARGET_UTILIZATION * need / have, 1.0) - 2 * MARGIN
    band = (RULE_HIGH + 2 * MARGIN, hi)
    _check_band(band, current, target)
    return band


def scale_in_bands(capacities: dict, levels: tuple, current: str,
                   target: str) -> dict:
    """Per-metric loads that fire scale-in at `current`, fit `target` in
    every dimension and, on vcpu, overflow the level just below it."""
    have = capacities[current]
    fit = capacities[target]
    below = levels.index(target) - 1
    bands = {}
    for name in ALL_METRICS:
        dim = cat.METRIC_DIMENSIONS[name]
        hi = min(TARGET_UTILIZATION * fit[dim] / have[dim] - MARGIN,
                 RULE_LOW - 2 * MARGIN)
        lo = 0.05
        if dim == "vcpu" and below >= 0:
            lo = (TARGET_UTILIZATION * capacities[levels[below]]["vcpu"]
                  / have["vcpu"] + MARGIN)
        bands[name] = (lo, hi)
        _check_band(bands[name], current, target)
    return bands


def _check_band(band, current, target):
    if not band[0] < band[1]:
        raise ValueError("no load band moves %s to %s" % (current, target))


def _scale_out(tl: _Timeline, capacities, current, target, all_metrics):
    for _ in range(COOLDOWN_GAP - 1):
        tl.step(_mid(all_metrics))
    high = dict(_mid(all_metrics))
    high["cpu_load"] = scale_out_band(capacities, current, target)
    tl.step(high)


def _scale_in(tl: _Timeline, capacities, levels, current, target,
              all_metrics):
    """Two mid ticks break any earlier low window, then three low ticks
    fire scale-in on the last one."""
    tl.step(_mid(all_metrics))
    tl.step(_mid(all_metrics))
    bands = scale_in_bands(capacities, levels, current, target)
    for _ in range(3):
        tl.step(bands)


def _walk(tl, capacities, levels, path, all_metrics):
    """Drive the NS along `path` (a list of level ids starting at the
    current level)."""
    for current, target in zip(path, path[1:]):
        if levels.index(target) > levels.index(current):
            _scale_out(tl, capacities, current, target, all_metrics)
        else:
            _scale_in(tl, capacities, levels, current, target, all_metrics)


def _topology(pops: int, zones: int, vims: int, zone_sizes) -> dict:
    out = {"vims": [{"id": "vim-%d" % v} for v in range(vims)], "pops": []}
    for p in range(pops):
        out["pops"].append({
            "id": "pop-%d" % p, "vim_ref": "vim-%d" % (p % vims),
            "zones": [{"id": "zone-%d-%d" % (p, z),
                       "total": zone_sizes[(p + z) % len(zone_sizes)]}
                      for z in range(zones)]})
    return out


def _scenario(documents, nsd, flavor, level, topology, workload, subject,
              reservation, constraints=None) -> dict:
    rules = {
        "thresholds": [{"id": "t-cpu-high", "subject": subject,
                        "metric": "cpu_load", "bound": RULE_HIGH,
                        "direction": "above"}],
        "metric_dimensions": dict(cat.METRIC_DIMENSIONS),
    }
    if constraints:
        rules["placement_constraints"] = constraints
    return {
        "catalog": documents,
        "topology": topology,
        "initial_instance": {"nsd_ref": nsd, "flavor_ref": flavor,
                             "ns_il_ref": level},
        "workload": workload,
        "rules": rules,
        "options": {"reservation_enabled": reservation,
                    "target_utilization": TARGET_UTILIZATION},
    }


def monitor_steady(seed: int, size: int) -> dict:
    """`size` ticks of all four metrics in the mid band on one 200-vcpu
    zone. One scale-out / scale-in excursion per 250 ticks and one numeric
    congestion indicator per 25 ticks."""
    rng = random.Random(seed)
    documents = cat.sample_documents()
    levels = cat.SAMPLE_LEVELS
    capacities = cat.level_capacities(documents)
    tl = _Timeline(rng, cat.SAMPLE_SUBJECT)
    excursion = ["level-1", "level-2", "level-1"]
    while tl.tick < size:
        if tl.tick % 250 == 120 and size - tl.tick > 20:
            _walk(tl, capacities, levels, excursion, all_metrics=True)
        else:
            tl.step(_mid(True))
        if tl.tick % 25 == 0:
            tl.indicator()
    topology = _topology(1, 1, 1, [{"vcpu": 200, "memory": 400,
                                    "storage": 800, "bandwidth": 8000}])
    return _scenario(documents, cat.SAMPLE_NSD, cat.SAMPLE_FLAVOR, levels[0],
                     topology, tl.workload(), cat.SAMPLE_SUBJECT, True)


def scale_churn(seed: int, size: int) -> dict:
    """`size` cycles level-1 -> 2 -> 3 -> 4 -> 3 -> 1 on the sample catalog
    and one 64-vcpu zone, with reservation. Mid ticks carry cpu only."""
    rng = random.Random(seed)
    documents = cat.sample_documents()
    levels = cat.SAMPLE_LEVELS
    capacities = cat.level_capacities(documents)
    tl = _Timeline(rng, cat.SAMPLE_SUBJECT)
    cycle = ["level-1", "level-2", "level-3", "level-4", "level-3",
             "level-1"]
    for _ in range(size):
        _walk(tl, capacities, levels, cycle, all_metrics=False)
    topology = _topology(1, 1, 1, [{"vcpu": 64, "memory": 128,
                                    "storage": 256, "bandwidth": 2000}])
    return _scenario(documents, cat.SAMPLE_NSD, cat.SAMPLE_FLAVOR, levels[0],
                     topology, tl.workload(), cat.SAMPLE_SUBJECT, True)


def wide_fabric(seed: int, size: int) -> dict:
    """`size` cycles up the eight-level ladder one level at a time, then
    down in two steps (lvl-8 -> lvl-4 -> lvl-1), over 6 PoPs x 4 zones of
    mixed sizes and 3 VIMs, without reservation."""
    rng = random.Random(seed)
    documents = cat.fabric_documents()
    levels = cat.FABRIC_LEVELS
    capacities = cat.level_capacities(documents)
    tl = _Timeline(rng, cat.FABRIC_SUBJECT)
    cycle = list(levels) + [levels[3], levels[0]]
    for _ in range(size):
        _walk(tl, capacities, levels, cycle, all_metrics=False)
    zone_sizes = [{"vcpu": v, "memory": 2 * v, "storage": 10 * v,
                   "bandwidth": 1000} for v in (16, 24, 12, 32)]
    topology = _topology(6, 4, 3, zone_sizes)
    return _scenario(documents, cat.FABRIC_NSD, cat.FABRIC_FLAVOR, levels[0],
                     topology, tl.workload(), cat.FABRIC_SUBJECT, False,
                     {"anti_affinity": dict(cat.FABRIC_ANTI_AFFINITY)})


GENERATORS = {"monitor-steady": monitor_steady, "scale-churn": scale_churn,
              "wide-fabric": wide_fabric}



def declared_levels(name: str) -> tuple:
    return cat.FABRIC_LEVELS if name == "wide-fabric" else cat.SAMPLE_LEVELS
