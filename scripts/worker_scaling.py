#!/usr/bin/env python3
"""Measure how one verification suite scales with worker processes.

Runs the suite (``stats`` unless ``--suite`` names another) at depth n once
per worker count and prints the wall time, the speedup against the first
run, and the worker processes the run actually started: how many fan-outs
started any, and how many processes those fan-outs ran with the caller
counted.  Every run must merge to the first run's verdict, check count and
failures; on a mismatch the script says which and exits 1.
Example: ``scripts/worker_scaling.py --suite tableau --n 8``.
"""
import argparse
import multiprocessing.process
import os
import sys
import time

import permshape.verify as verify

# Processes per fan-out so far, the caller counted.  A fan-out joins its
# children before it returns, so a start after a join opens the next one.
_fan_outs: list[int] = []
_joined = True
_real_start = multiprocessing.process.BaseProcess.start
_real_join = multiprocessing.process.BaseProcess.join


def _counting_start(self):
    global _joined
    if _joined:
        _fan_outs.append(1)
        _joined = False
    _fan_outs[-1] += 1
    return _real_start(self)


def _counting_join(self, *args, **kwargs):
    global _joined
    _joined = True
    return _real_join(self, *args, **kwargs)


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
    multiprocessing.process.BaseProcess.start = _counting_start
    multiprocessing.process.BaseProcess.join = _counting_join

    print(f"suite {args.suite}, host reports {os.cpu_count()} CPU(s)")
    baseline = None
    reference = None
    for workers in args.workers:
        _fan_outs.clear()
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
            f"workers={workers:<2} fan-outs={len(_fan_outs):<2} "
            f"processes={sum(_fan_outs):<3} "
            f"time={elapsed:7.2f}s speedup={baseline / elapsed:5.2f}x "
            f"checks={result.checks}"
        )


if __name__ == "__main__":
    main()
