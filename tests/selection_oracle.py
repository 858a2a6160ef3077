"""The brute-force selection oracle the tests hold `select_optimum` to.

`exhaustive_select` enumerates every level, checks feasibility by direct
capacity comparison plus an exhaustive search over zone assignments, and
takes the argmin under `select_optimum`'s tie-breaks. It shares no
placement code with the DRPA."""

from __future__ import annotations

from nsscale.descriptors import (
    Catalog, NsDeploymentFlavor, aggregate_capacity, ns_il_delta,
)
from nsscale.drpa import (
    CostModel, DemandEstimate, _total_instances, delta_additions,
)


def _zone_assignment_exists(items, free: dict, label_pops: dict) -> bool:
    """Exhaustive search for an assignment of every item to a zone of
    `free` ((pop id, zone id) -> available capacity) in which items sharing
    an anti-affinity label take distinct PoPs; the independent check used by
    the brute-force selector."""
    if not items:
        return True
    item = items[0]
    used = label_pops.get(item.anti_affinity, frozenset())
    for key in sorted(free):
        if key[0] in used or not free[key].covers(item.spec):
            continue
        reduced = dict(free)
        reduced[key] = free[key] - item.spec
        next_labels = label_pops
        if item.anti_affinity:
            next_labels = dict(label_pops)
            next_labels[item.anti_affinity] = used | {key[0]}
        if _zone_assignment_exists(items[1:], reduced, next_labels):
            return True
    return False


def exhaustive_select(catalog: Catalog, flavor: NsDeploymentFlavor,
                      estimate: DemandEstimate, cost_model: CostModel,
                      snapshot: list, current: str, exclude: tuple = (),
                      constraints: dict | None = None):
    """Brute-force selection oracle: enumerate every level, check feasibility
    by direct capacity comparison plus an exhaustive search over zone
    assignments of the move's placement items in `snapshot`, a
    `capacity_report`, and take the argmin under the same tie-breaks as
    select_optimum. Returns None when nothing is feasible."""
    free = {(zone.pop_id, zone.id): zone.available for zone in snapshot}
    best = None
    for index, ns_il in enumerate(flavor.ns_ils):
        if ns_il.id in exclude:
            continue
        capacity = aggregate_capacity(catalog, flavor, ns_il.id)
        if not capacity.covers(estimate.required):
            continue
        delta = ns_il_delta(catalog, flavor, current, ns_il.id)
        items = delta_additions(catalog, flavor, delta, constraints)
        if not _zone_assignment_exists(items, free, {}):
            continue
        key = (cost_model.cost(capacity), _total_instances(flavor, ns_il.id), index)
        if best is None or key < best[0]:
            best = (key, ns_il.id)
    return best[1] if best else None
