"""Command-line interface.

Exit status contract (stable, for CI use):
  0  success
  1  validation errors (catalog/scenario/arguments): any malformed
     catalog or scenario, one line per fault
  2  IO errors (unreadable or unwritable paths, malformed JSON)
  3  run finished but a scaling operation failed
  4  a fault of the program, never of its input (for example a broken
     capacity invariant); one "internal error: ..." line on stderr
     instead of a traceback
"""

from __future__ import annotations

import argparse
import json
import sys

from . import drpa as drpa_mod
from .descriptors import check_catalog, read_documents
from .scenario import ScenarioValidationError, load_scenario, workload_records
from .simulator import STATUS_COMPLETED, Simulator
from .trace import canonical_json, trace_chunks

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_OPERATION_FAILED = 3
EXIT_INTERNAL = 4


def _load_valid_catalog(paths: list):
    """Shared validate/graph front half: prints each problem and returns
    (catalog, exit_code), the catalog None unless the code is EXIT_OK."""
    try:
        documents = read_documents(paths)
    except (OSError, json.JSONDecodeError) as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return None, EXIT_IO
    catalog, problems = check_catalog(documents)
    for line in problems:
        print(line)
    return (None, EXIT_VALIDATION) if problems else (catalog, EXIT_OK)


def cmd_validate(args) -> int:
    return _load_valid_catalog(args.paths)[1]


def _load_and_build(args):
    """Shared run/explain front half: returns (simulator, exit_code)."""
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, json.JSONDecodeError) as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return None, EXIT_IO
    if args.no_reservation and scenario.options is not None:
        # options of another shape are reported by the validation
        scenario.options["reservation_enabled"] = False
    try:
        sim = Simulator(scenario)
    except ScenarioValidationError as exc:
        return None, _report_problems(exc)
    return sim, EXIT_OK


def _report_problems(exc: ScenarioValidationError) -> int:
    for problem in exc.problems:
        print(problem)
    return EXIT_VALIDATION


def cmd_run(args) -> int:
    sim, status = _load_and_build(args)
    if sim is None:
        return status
    try:
        result = sim.run()
    except ScenarioValidationError as exc:  # a bad workload record
        return _report_problems(exc)
    try:
        if args.trace:
            with open(args.trace, "w") as fh:
                fh.writelines(trace_chunks(result.trace))
        if args.state:
            with open(args.state, "w") as fh:
                fh.write(canonical_json(result.final_state) + "\n")
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    print("status: %s" % result.status)
    print("events: %d" % len(result.trace))
    print("final ns-il: %s" % result.final_state["ns_info"]["current_ns_il"])
    if result.status != STATUS_COMPLETED:
        print("failure: %s" % result.failure_reason)
        return EXIT_OPERATION_FAILED
    return EXIT_OK


def cmd_graph(args) -> int:
    catalog, status = _load_valid_catalog(args.paths)
    if catalog is None:
        return status
    nsd_id = args.nsd
    if nsd_id is None:
        if len(catalog.nsds) != 1:
            print("multiple NSDs in catalog; pick one with --nsd")
            return EXIT_VALIDATION
        nsd_id = next(iter(catalog.nsds))
    nsd = catalog.nsds.get(nsd_id)
    if nsd is None:
        print("unknown NSD %r" % nsd_id)
        return EXIT_VALIDATION
    try:
        flavor = nsd.flavor(args.flavor)
    except KeyError:
        print("unknown flavor %r in NSD %r" % (args.flavor, nsd_id))
        return EXIT_VALIDATION

    levels = drpa_mod.LevelGraph(catalog, nsd, flavor)
    nodes = levels.nodes
    edges = []
    for src in nodes:
        for dst in nodes:
            if src == dst:
                continue
            delta = levels.delta(src, dst)
            net = levels.capacity(dst) - levels.capacity(src)
            edges.append({
                "from": src,
                "to": dst,
                "classification": delta.classification,
                "net": net.as_dict(),
                "vl_changes": {k: list(v)
                               for k, v in sorted(delta.vl_changes.items())},
            })
    document = {"nsd": nsd_id, "flavor": flavor.id,
                "nodes": nodes, "edges": edges}
    for edge in edges:
        print("%s -> %s: %s (net %s)" % (edge["from"], edge["to"],
                                         edge["classification"],
                                         canonical_json(edge["net"])))
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(canonical_json(document) + "\n")
        except OSError as exc:
            print("io error: %s" % exc, file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


def cmd_explain(args) -> int:
    sim, status = _load_and_build(args)
    if sim is None:
        return status
    try:
        workload = workload_records(sim.scenario.workload)
    except ScenarioValidationError as exc:
        return _report_problems(exc)
    horizon = max((records[-1][0] for records in workload if records),
                  default=0)
    if args.at > horizon:
        print("tick %d is beyond the workload horizon (%d)"
              % (args.at, horizon))
        return EXIT_VALIDATION
    try:
        result = sim.run(workload)
    except ScenarioValidationError as exc:  # a bad indicator record
        return _report_problems(exc)
    found = [d for t, d in result.decisions if t == args.at]
    if not found:
        print("tick %d: action: none" % args.at)
        return EXIT_OK
    for decision in found:
        _print_rationale(args.at, decision, sim.target_utilization)
    return EXIT_OK


def _print_rationale(tick, decision, target_utilization):
    """A run records the DRPA's error text, or a scaling decision: it asks
    the DRPA only once some rule has fired."""
    if isinstance(decision, str):
        print("tick %d: action: error (%s)" % (tick, decision))
        return
    print("tick %d: action: %s" % (tick, decision.action))
    for verdict in decision.verdicts:
        state = "violated" if not verdict.satisfied else (
            "cooldown" if verdict.cooldown_active else "satisfied")
        print("  rule %s: %s" % (verdict.rule_id, state))
    print("  demand: %s (target utilization %s)"
          % (canonical_json(decision.estimate.as_dict()),
             target_utilization))
    for evaluation in decision.rationale:
        if evaluation.feasible:
            print("  candidate %s: cost %s, %d instances"
                  % (evaluation.ns_il_id, evaluation.cost,
                     evaluation.total_instances))
        else:
            print("  candidate %s: infeasible (%s)"
                  % (evaluation.ns_il_id, evaluation.reason))
    print("  chosen: %s (%s)" % (decision.target_ns_il,
                                 decision.classification))
    plan = decision.placement
    for key in sorted(plan):
        print("  place %s at %s/%s" % (key, plan[key].pop_id, plan[key].id))


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which the contract above gives
    to IO errors; argument errors exit 1. Sub-command parsers inherit
    this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, "%s: error: %s\n" % (self.prog, message))


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="nsscale",
        description="Network-service scaling simulator for NFV deployments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate descriptor catalog files")
    p.add_argument("paths", nargs="+", help="catalog JSON files")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run a scenario")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--trace", default=None, help="write the event trace here")
    p.add_argument("--state", default=None, help="write the final state here")
    p.add_argument("--no-reservation", action="store_true",
                   help="skip the reservation sub-phase")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("graph", help="emit the scaling graph of a flavor")
    p.add_argument("paths", nargs="+", help="catalog JSON files")
    p.add_argument("--nsd", default=None, help="NSD id (default: the only one)")
    p.add_argument("--flavor", required=True, help="NS deployment flavor id")
    p.add_argument("--out", default=None, help="write the graph document here")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("explain", help="explain the scaling decision at a tick")
    p.add_argument("scenario", help="scenario JSON file")
    p.add_argument("--at", type=int, required=True, help="workload tick")
    p.add_argument("--no-reservation", action="store_true")
    p.set_defaults(func=cmd_explain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        message = " ".join(str(exc).split())
        print("internal error: %s: %s" % (type(exc).__name__, message),
              file=sys.stderr)
        return EXIT_INTERNAL
