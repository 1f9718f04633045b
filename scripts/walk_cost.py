#!/usr/bin/env python3
"""Measure the per-word cost of each exhaustive verify walk.

Runs the per-word check of each ranged suite (stats, cp-pattern, shapes,
tableau and the splitting law of genfun) over every 8th word of S_n, in
this process, three times, and prints the fastest pass as microseconds per
word, with the host's CPU count.  The words are listed before the clock
starts, so enumeration is not counted; every check must pass, otherwise
the script says which and exits 1.
Example: ``scripts/walk_cost.py --n 8``.
"""
import argparse
import os
import sys
import time
from itertools import islice

import permshape.verify as verify
from permshape.oracle import enumerate_sn

CHECKS = {
    "stats": verify._stats_check_word,
    "cp-pattern": verify._cp_check_word,
    "shapes": verify._shapes_check_word,
    "tableau": verify._tableau_check_word,
    "splitting law": verify._splitting_check_word,
}
STEP = 8
REPEATS = 3


def cost(name: str, check, words: list) -> float:
    """The fastest of REPEATS passes over ``words``, in us per word."""
    best = float("inf")
    for _ in range(REPEATS):
        result = verify.SuiteResult(name, 0)
        keys: set = set()
        shapes: dict = {}
        started = time.perf_counter()
        try:
            for word in words:
                check(result, word, keys, shapes)
        except verify._Stop:
            sys.exit(f"{name}: {result.failures[0]}")
        best = min(best, time.perf_counter() - started)
    return best / len(words) * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=9, help="walk every 8th word of S_n")
    args = parser.parse_args()
    if args.n < 1:
        parser.error("--n must be at least 1")
    words = list(islice(enumerate_sn(args.n), 0, None, STEP))
    print(
        f"every {STEP}th word of S_{args.n}: {len(words)} words, "
        f"best of {REPEATS}, host reports {os.cpu_count()} CPU(s)"
    )
    for name, check in CHECKS.items():
        print(f"{name:<14} {cost(name, check, words):8.2f} us/word")


if __name__ == "__main__":
    main()
