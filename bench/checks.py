"""Checks on the simulator's outputs. Each returns a list of problems; an
empty list means the output passed."""

from __future__ import annotations

import hashlib

from catalogs import DIMENSIONS

STEP_STARTED = 19  # new VNFC instances marked STARTED
STEP_STOPPED = 24  # replaced VNFC instances marked STOPPED


def zone_conservation(final_state: dict) -> list:
    """allocated + reserved + available = total in every zone, no part
    negative."""
    problems = []
    for zone_id, zone in sorted(final_state["zones"].items()):
        for dim in DIMENSIONS:
            parts = [zone[k][dim] for k in ("allocated", "reserved",
                                            "available")]
            if sum(parts) != zone["total"][dim]:
                problems.append("zone %s: %s parts %s do not sum to total %s"
                                % (zone_id, dim, parts, zone["total"][dim]))
            if min(parts) < 0:
                problems.append("zone %s: negative %s part in %s"
                                % (zone_id, dim, parts))
    return problems


def declared_level(final_state: dict, levels: tuple) -> list:
    level = final_state["ns_info"]["current_ns_il"]
    if level not in levels:
        return ["final NS level %r is not one of %s" % (level, list(levels))]
    return []


def start_before_stop(operations: list) -> list:
    """Within each operation, every step-19 event precedes every step-24
    event: new capacity runs before old capacity stops."""
    problems = []
    for op in operations:
        started = [tick for step, tick in op.step_log if step == STEP_STARTED]
        stopped = [tick for step, tick in op.step_log if step == STEP_STOPPED]
        if started and stopped and max(started) >= min(stopped):
            problems.append("%s: step %d at tick %d is not before step %d at "
                            "tick %d" % (op.op_id, STEP_STARTED, max(started),
                                         STEP_STOPPED, min(stopped)))
    return problems


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_output(result, levels: tuple) -> list:
    return (zone_conservation(result.final_state)
            + declared_level(result.final_state, levels)
            + start_before_stop(result.operations))
