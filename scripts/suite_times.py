#!/usr/bin/env python3
"""Time each verify suite as the benchmark's verify workload runs them.

Each run is a fresh interpreter that runs the ten suites of
``permshape verify all`` in order, one CLI call per suite (``--max-n 7``,
poset at ``--max-n 5``, ``--workers 2``, JSON output), and times each call;
``--max-n`` sets a smaller depth, poset's staying at most 5.
The script prints, per suite, the median seconds over the runs and how many
runs it was the slowest suite of, with the host's CPU count.  Every call
must pass, otherwise the script says which and exits 1.
Example: ``scripts/suite_times.py --runs 10``.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

import permshape
from permshape.verify import SUITE_NAMES

# One run: the suites in order, each timed around its CLI call, printed as
# one JSON object {suite: seconds} (or {suite: null} for a failed call).
CHILD = """
import contextlib, io, json, sys, time
from permshape import cli
max_n, names = json.loads(sys.argv[1])
seconds = {}
for name in names:
    depth = min(max_n, 5) if name == "poset" else max_n
    argv = ["verify", name, "--max-n", str(depth), "--workers", "2",
            "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        started = time.perf_counter()
        rc = cli.main(argv)
        seconds[name] = time.perf_counter() - started if rc == 0 else None
print(json.dumps(seconds))
"""


def one_run(max_n: int) -> dict:
    source = os.path.dirname(os.path.dirname(os.path.abspath(permshape.__file__)))
    env = {**os.environ, "PYTHONPATH": source}
    config = json.dumps([max_n, list(SUITE_NAMES)])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, config],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        sys.exit(f"run failed: {proc.stderr.strip()}")
    seconds = json.loads(proc.stdout)
    failed = [name for name, s in seconds.items() if s is None]
    if failed:
        sys.exit(f"suite(s) failed: {', '.join(failed)}")
    return seconds


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=10, help="fresh interpreters")
    parser.add_argument("--max-n", type=int, default=7, help="depth of every suite")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    runs = [one_run(args.max_n) for _ in range(args.runs)]
    slowest = [max(run, key=run.get) for run in runs]
    print(
        f"{args.runs} run(s), --max-n {args.max_n} (poset {min(args.max_n, 5)}), "
        f"--workers 2, host reports {os.cpu_count()} CPU(s)"
    )
    print(f"{'suite':<11} {'median s':>9} {'slowest':>8}")
    for name in SUITE_NAMES:
        median = statistics.median(run[name] for run in runs)
        print(f"{name:<11} {median:9.4f} {slowest.count(name):8d}")


if __name__ == "__main__":
    main()
