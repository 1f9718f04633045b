#!/usr/bin/env python3
"""Time seeded `permshape map` requests and count the gen-2 collections.

Serves ``--requests`` fresh seeded permutations (n drawn from 8, 16, 32, 64)
through ``cli.map_report`` and ``json.dumps``, as the ``map`` subcommand
renders them, one after another in this process.  Prints the mean, p50 and
p99 microseconds per request and the number of full (generation 2) garbage
collections that ran while serving, counted with a ``gc.callbacks`` hook.
Example: ``PYTHONPATH=src scripts/map_gc.py --requests 5000 --seed 1``.
"""
import argparse
import gc
import json
import math
import random
import statistics
import time

from permshape import cli
from permshape.permutations import Permutation

SIZES = (8, 16, 32, 64)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=5000, help="requests served")
    parser.add_argument("--seed", type=int, default=1, help="request seed")
    args = parser.parse_args()
    if args.requests < 1:
        parser.error("--requests must be at least 1")

    rng = random.Random(args.seed)
    requests = []
    for _ in range(args.requests):
        entries = list(range(1, rng.choice(SIZES) + 1))
        rng.shuffle(entries)
        requests.append(Permutation(tuple(entries)))

    full_collections = 0

    def count(phase: str, info: dict) -> None:
        nonlocal full_collections
        if phase == "start" and info["generation"] == 2:
            full_collections += 1

    latencies_us = []
    gc.callbacks.append(count)
    try:
        for p in requests:
            started = time.perf_counter_ns()
            json.dumps(cli.map_report(p), sort_keys=True)
            latencies_us.append((time.perf_counter_ns() - started) / 1000)
    finally:
        gc.callbacks.remove(count)

    ranked = sorted(latencies_us)
    p99 = ranked[math.ceil(0.99 * len(ranked)) - 1]  # nearest rank
    print(
        f"requests={len(ranked)} mean={statistics.fmean(ranked):.0f}us "
        f"p50={statistics.median(ranked):.0f}us p99={p99:.0f}us "
        f"gen2={full_collections} "
        f"({1000 * full_collections / len(ranked):.2f} per 1000 requests)"
    )


if __name__ == "__main__":
    main()
