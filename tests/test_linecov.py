"""`tools/linecov.py` lists the lines of `src/nsscale` that a script never
ran, and exits 1 when it lists any."""

import re
import subprocess
import sys
from pathlib import Path

from nsscale.capacity import CapacityVector

ROOT = Path(__file__).parent.parent


def body_lines(function) -> set:
    """The lines of `function`'s body: its instructions' lines but the
    `def` line."""
    code = function.__code__
    return {line for _, _, line in code.co_lines()
            if line and line != code.co_firstlineno}


def test_linecov_lists_the_lines_a_script_never_ran(tmp_path):
    script = tmp_path / "probe.py"
    script.write_text("from nsscale.capacity import CapacityVector\n"
                      "CapacityVector(1, 2, 3, 4).scaled(2)\n")
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "linecov.py"), str(script)],
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stderr
    listed = dict(line.split(": ", 1) for line in done.stdout.splitlines()
                  if not line.startswith("linecov:"))
    never = {int(n) for n in listed["capacity.py"].split(", ")}
    assert body_lines(CapacityVector.is_zero) <= never
    assert not body_lines(CapacityVector.scaled) & never
    summary = re.fullmatch(r"linecov: (\d+) lines of src/nsscale never ran",
                           done.stdout.splitlines()[-1])
    assert summary
    assert int(summary.group(1)) == sum(
        len(lines.split(", ")) for lines in listed.values())
