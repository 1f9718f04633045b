#!/usr/bin/env python3
"""Measure how one verification suite scales with worker processes.

Runs the suite (``stats`` unless ``--suite`` names another) at depth n once
per worker count and prints the wall time, the speedup against the first
run, and the process pools the run actually opened with their total number
of worker processes.  Every run must merge to the first run's verdict, check
count and failures; on a mismatch the script says which and exits 1.
Example: ``scripts/worker_scaling.py --suite tableau --n 8``.
"""
import argparse
import multiprocessing.context
import os
import sys
import time

import permshape.verify as verify

_pools: list[int] = []  # worker processes of every pool opened so far
_real_pool = multiprocessing.context.BaseContext.Pool


def _counting_pool(self, processes=None, *args, **kwargs):
    _pools.append(processes)
    return _real_pool(self, processes, *args, **kwargs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--suite", default="stats", choices=verify.SUITE_NAMES, help="suite to run"
    )
    parser.add_argument("--n", type=int, default=9, help="suite depth; the order for series")
    parser.add_argument(
        "--workers", type=int, nargs="*", default=[1, 2, 4, 8], help="worker counts"
    )
    args = parser.parse_args()
    multiprocessing.context.BaseContext.Pool = _counting_pool

    print(f"suite {args.suite}, host reports {os.cpu_count()} CPU(s)")
    baseline = None
    reference = None
    for workers in args.workers:
        _pools.clear()
        started = time.perf_counter()
        result = verify.run_suite(args.suite, args.n, workers=workers)
        elapsed = time.perf_counter() - started
        outcome = (result.passed, result.checks, result.failures)
        if reference is None:
            baseline = elapsed
            reference = outcome
        if outcome != reference:
            sys.exit(
                f"merge mismatch at workers={workers}: (passed, checks, failures) "
                f"{outcome} != {reference} at workers={args.workers[0]}"
            )
        print(
            f"workers={workers:<2} pools={len(_pools):<2} processes={sum(_pools):<3} "
            f"time={elapsed:7.2f}s speedup={baseline / elapsed:5.2f}x "
            f"checks={result.checks}"
        )


if __name__ == "__main__":
    main()
