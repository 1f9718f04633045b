import os
import pathlib
import subprocess
import sys

import pytest

import permshape

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SOURCE = str(pathlib.Path(permshape.__file__).resolve().parent.parent)


# Every script under scripts/, at a size that runs in about a second.
@pytest.mark.parametrize(
    "script, args",
    [
        ("worker_scaling.py", ["--n", "5", "--workers", "1", "2"]),
        ("distribution_tables.py", ["--max-n", "4"]),
        ("map_gc.py", ["--requests", "50"]),
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
