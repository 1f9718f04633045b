#!/usr/bin/env python3
"""Measure the per-word cost of each exhaustive verify walk.

Runs the per-word check of each ranged suite (stats, cp-pattern, shapes,
tableau and genfun, whose check also counts the word's exponents of G_n)
over every 8th word of S_n, in this process, three times, and prints the
fastest pass as microseconds per word, with the host's CPU count and the
number of keys the check's shape dict held.  A check that keeps a path's
or a shape's side once per key costs less per word the more words share a
key: every 8th word of S_9 meets 1870 of its 4862 paths, about 24 words
per path, where the whole S_9 has about 75 words per path.  The tableau
check includes, at each shape's word whose filling is full, the decode of
the shape's minimal filling and the word's 1-3-2 test; a sample meets the
full filling of only the shapes whose word it holds.  The words are
listed before the clock starts, so enumeration is not counted; every check
must pass, otherwise the script says which and exits 1.
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
    "genfun": verify._genfun_check_word,
}
STEP = 8
REPEATS = 3


def cost(name: str, check, words: list) -> tuple[float, int]:
    """
    The fastest of REPEATS passes over ``words``, in us per word, and the
    number of keys the shape dict of a pass held.
    """
    best = float("inf")
    for _ in range(REPEATS):
        result = verify.SuiteResult(name, 0)
        keys: dict = {}
        shapes: dict = {}
        started = time.perf_counter()
        try:
            for word in words:
                check(result, word, keys, shapes)
        except verify._Stop:
            sys.exit(f"{name}: {result.failures[0]}")
        best = min(best, time.perf_counter() - started)
    return best / len(words) * 1e6, len(shapes)


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
        us, held = cost(name, check, words)
        print(f"{name:<14} {us:8.2f} us/word {held:7d} keys held")


if __name__ == "__main__":
    main()
