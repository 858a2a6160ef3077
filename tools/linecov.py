"""Lists the lines of `src/nsscale` that never run while a Python module
runs, with `sys.settrace`; it needs only the standard library.

    python tools/linecov.py pytest -q -p no:cacheprovider

runs the tier-1 tests under the collector, in about three times their
usual time, and prints each module's executable lines that never ran.
A first argument ending in `.py` is run as a script, as `python` runs
it: `python tools/linecov.py tools/reach.py` lists what no entry point
reaches. It exits with the module's status when that is not 0, else 1
when it lists any line and 0 when it lists none. The collector pauses
while `tracemalloc` traces, so that a test that measures its own memory
measures none of the collector's: a line that runs only then is listed
as never run.
"""

import os
import runpy
import sys
import threading
import tracemalloc

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src", "nsscale")


def executable_lines(path: str) -> set:
    """The line of every instruction in the module at `path`."""
    with open(path) as fh:
        stack = [compile(fh.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def main(argv: list) -> int:
    """Runs module or script `argv[0]` as `__main__` with arguments
    `argv[1:]`, prints the lines it never ran, and returns the exit
    status."""
    hits = set()

    def in_package(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return line
        return None

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    # A traced call makes a frame object that tracemalloc would count.
    start, stop = tracemalloc.start, tracemalloc.stop

    def paused(*args):
        sys.settrace(None)
        start(*args)

    def resumed():
        stop()
        sys.settrace(in_package)

    tracemalloc.start, tracemalloc.stop = paused, resumed
    sys.argv = list(argv)
    sys.path.insert(0, os.path.dirname(PACKAGE))
    threading.settrace(in_package)
    sys.settrace(in_package)
    try:
        if argv[0].endswith(".py"):
            runpy.run_path(argv[0], run_name="__main__")
        else:
            runpy.run_module(argv[0], run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code
    else:
        status = 0
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if not name.endswith(".py"):
            continue
        never = sorted(n for n in executable_lines(path)
                       if (path, n) not in hits)
        missed += len(never)
        if never:
            print("%s: %s" % (name, ", ".join(map(str, never))))
    print("linecov: %d lines of src/nsscale never ran" % missed)
    return status or int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
