#!/usr/bin/env python3
"""Measure how one verification suite scales with worker processes.

Runs the suite (``stats`` unless ``--suite`` names another) at depth n once
per worker count and prints the wall time and speedup against the first
run.  Merge equality (same number of checks, same verdict) is asserted on
every run.  Example: ``scripts/worker_scaling.py --suite tableau --n 8``.
"""
import argparse
import os
import time
from math import factorial

import permshape.verify as verify
from permshape.oracle import effective_workers


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite", default="stats", choices=verify.SUITE_NAMES, help="suite to run"
    )
    parser.add_argument("--n", type=int, default=9, help="suite depth (<= 9)")
    parser.add_argument(
        "--workers", type=int, nargs="*", default=[1, 2, 4, 8], help="worker counts"
    )
    args = parser.parse_args()

    print(f"suite {args.suite}, host reports {os.cpu_count()} CPU(s)")
    baseline = None
    reference = None
    for workers in args.workers:
        started = time.perf_counter()
        result = verify.run_suite(args.suite, args.n, workers=workers)
        elapsed = time.perf_counter() - started
        if reference is None:
            baseline = elapsed
            reference = (result.passed, result.checks)
        assert (result.passed, result.checks) == reference, "merge mismatch"
        effective = effective_workers(workers, factorial(args.n))
        print(
            f"workers={workers:<2} effective={effective:<2} time={elapsed:7.2f}s "
            f"speedup={baseline / elapsed:5.2f}x checks={result.checks}"
        )


if __name__ == "__main__":
    main()
