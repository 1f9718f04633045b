import os
import pathlib
import subprocess
import sys

import pytest

import permshape

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SOURCE = str(pathlib.Path(permshape.__file__).resolve().parent.parent)
# What reach.py reports unreached at the size below: the most it may report.
REACH_FUNCTIONS, REACH_LINES = 26, 174


# Every script under scripts/, at a size that runs in about a second.  The
# ids are fixed, so that a script leaving the list renames none of the others.
@pytest.mark.parametrize(
    "script, args",
    [
        ("worker_scaling.py", ["--n", "7", "--workers", "1", "2"]),
        ("map_gc.py", ["--requests", "50"]),
        ("walk_cost.py", ["--n", "5"]),
        ("suite_times.py", ["--runs", "1", "--max-n", "4"]),
        ("import_cost.py", ["--runs", "1"]),
        ("reach.py", ["--n", "3", "--max-n", "3", "--order", "2"]),
    ],
    ids=[
        "worker_scaling.py-args0",
        "map_gc.py-args2",
        "walk_cost.py-args3",
        "suite_times.py-args4",
        "import_cost.py-args5",
        "reach.py-args6",
    ],
)
def test_script_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SOURCE},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if script == "reach.py":
        # A ceiling: code that no command line reaches may shrink, not grow.
        functions, _, lines, *_ = proc.stdout.splitlines()[-1].split()
        assert int(functions) <= REACH_FUNCTIONS and int(lines) <= REACH_LINES
    if script == "worker_scaling.py" and (os.cpu_count() or 1) >= 2:
        # At n = 7 the 2-worker run splits its walk once, into 2 processes.
        line = proc.stdout.splitlines()[2]
        assert line.split()[:3] == ["workers=2", "fan-outs=1", "processes=2"]
