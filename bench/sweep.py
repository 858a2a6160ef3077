#!/usr/bin/env python3
"""Size sweep: how the cost per event grows with workload length.

    python3 bench/sweep.py                                   # monitor-steady
    python3 bench/sweep.py --workload scale-churn --sizes 10,20,40,80

Run by hand; the repeated benchmark check does not include it. Linear cost
shows as a flat ``us_per_event`` and ``ref_per_kevent`` column; the ``vs
first`` column gives each size's ``run_ref_per_kevent`` as a multiple of
the smallest size's, which a change in host speed during the sweep does
not move.
"""

from __future__ import annotations

import argparse
import sys

import run
import workloads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="monitor-steady",
                        choices=workloads.WORKLOADS)
    parser.add_argument("--sizes", default="250,500,1000,2000")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5,
                        help="measuring time per size")
    args = parser.parse_args(argv)
    run.import_program()
    prog = run.Program()

    print("%-15s %8s %8s %10s %12s %14s %9s" % (
        "workload", "size", "events", "run_s", "us_per_event",
        "ref_per_kevent", "vs first"))
    first = None
    status = 0
    for size in (int(s) for s in args.sizes.split(",")):
        outcome = run.run_workload(prog, args.workload, args.seed,
                                   args.seconds, trace=False, size=size)
        info = outcome["info"]
        per_kevent = outcome["result"]["metrics"]["run_ref_per_kevent"][
            "value"]
        first = first or per_kevent
        print("%-15s %8d %8d %10.4f %12.2f %14.3f %9.2f" % (
            args.workload, size, info["events"], info["run_s"],
            info["us_per_event"], per_kevent, per_kevent / first))
        if not outcome["result"]["correct"]:
            print("# CHECK FAILED: %s" % outcome["problems"])
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
