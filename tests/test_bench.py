"""The benchmark's self-test, run with the unit tests: renaming a function
the benchmark's tracer wraps (bench/layers.py) then fails here too, not
only under `python3 bench/run.py --trace 1`."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selftest_passes():
    out = subprocess.run([sys.executable, os.path.join("bench", "selftest.py")],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1] == "selftest: ok"
