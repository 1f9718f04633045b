import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest():
    # The benchmark harness imports the library surface it times and checks
    # (permutation_range, terms(), marginal(), to_counts(), ...); its
    # self-test runs every workload at tiny sizes and must pass.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
