"""Drives the program only through its entry point, `nsscale.cli.main`, so
that `tools/linecov.py` lists the lines of `src/nsscale` that no input
reaches, though a test may call them:

    python tools/linecov.py tools/reach.py

The inputs are the test suite's own: the 24 sample scenarios, the broken
descriptor sets of `tests/broken_descriptors.py`, `scenario_gen` seeds
0-39 and the benchmark's three workloads at `TINY_SIZE`. Each catalog is
given to `validate` and to `graph --out`. Each scenario is given to `run`
with `--trace` and `--state`, to `run --no-reservation`, and to `explain
--at` each tick of its workload records and one tick beyond them. The
input and output files go to a temporary directory, removed at the end;
the commands' own output is discarded, and the count of each command's
exit statuses is printed. It exits 0.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for folder in ("src", "tests", "bench"):
    sys.path.insert(0, os.path.join(ROOT, folder))

import broken_descriptors  # noqa: E402
import sample_catalog as sc  # noqa: E402
import scenario_gen  # noqa: E402
import workloads  # noqa: E402
from corpus import samples  # noqa: E402
from nsscale.cli import main as cli_main  # noqa: E402


def scenarios() -> list:
    """The scenario inputs."""
    return [*samples().values(),
            *(scenario_gen.random_scenario(random.Random(seed))
              for seed in range(40)),
            *(workloads.GENERATORS[name](0, workloads.TINY_SIZE[name])
              for name in workloads.WORKLOADS)]


def catalogs() -> list:
    """The documents of each catalog input: the sample catalog, which
    every scenario input holds, and each broken set."""
    return [sc.sample_documents(),
            *(documents for _, documents, *_ in
              broken_descriptors.broken_corpus())]


def workload_ticks(scenario: dict) -> list:
    """Each tick of the scenario's workload records, then one beyond."""
    ticks = sorted({record[0] for records in scenario["workload"].values()
                    for record in records})
    return ticks + [ticks[-1] + 1 if ticks else 0]


def reach(folder: str) -> Counter:
    """Give every input to its commands, writing files under `folder`;
    returns the count of each (command, exit status)."""
    statuses = Counter()

    def call(*argv):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            statuses[argv[0], cli_main(list(argv))] += 1

    def path(name: str) -> str:
        return os.path.join(folder, name)

    for documents in catalogs():
        with open(path("catalog.json"), "w") as fh:
            json.dump(documents, fh)
        call("validate", path("catalog.json"))
        call("graph", path("catalog.json"), "--flavor", "df-1",
             "--out", path("graph.json"))
    for scenario in scenarios():
        with open(path("scenario.json"), "w") as fh:
            json.dump(scenario, fh)
        call("run", path("scenario.json"), "--trace", path("trace.txt"),
             "--state", path("state.json"))
        call("run", path("scenario.json"), "--no-reservation")
        for tick in workload_ticks(scenario):
            call("explain", path("scenario.json"), "--at", str(tick))
    return statuses


def main() -> int:
    with tempfile.TemporaryDirectory() as folder:
        statuses = reach(folder)
    for (command, status), count in sorted(statuses.items()):
        print("reach: %s exited %d, %d times" % (command, status, count))
    return 0


if __name__ == "__main__":
    sys.exit(main())
