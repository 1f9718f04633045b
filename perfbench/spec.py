"""
Workload sizes and the expected outputs the correctness gates compare
against, for two size profiles: ``full`` (what the benchmark measures) and
``tiny`` (what the harness self-test runs in a few seconds).

Every expected value here was recorded from the library's own exhaustive
runs; counts that follow from a closed formula (n!, Catalan numbers) are
computed by the gates instead of being stored.
"""
from __future__ import annotations

import copy

# The workloads of BENCHMARK.json.  The genfun body is run by the traced run
# only, for the per-layer polynomial metrics.
WORKLOADS = ("verify", "map")

_FULL = {
    "verify": {
        "max_n": 7,
        # The poset suite runs at a smaller size: at n = 6 and 7 it is one
        # call of several seconds, too coarse a sample on a noisy host.
        "max_n_of": {"poset": 5},
        # Checks per suite, in the order `permshape verify all` runs them.
        "checks": {
            "stats": 17740,
            "cp-pattern": 7414,
            "shapes": 23663,
            "count": 1268,
            "tableau": 19628,
            "bijection": 1260,
            "poset": 25094,
            "parity": 39,
            "genfun": 6076,
            "series": 17,
        },
    },
    "genfun": {
        "lbsum": 30,
        "quad": 13,
        "qcat": 28,
        "series": 8,
        # sha256 prefixes of the sorted coefficient lists (see jobs.digest).
        "digests": {
            "lbsum": "24d8622b8dab4d51",
            "quad": "69e4775a6039992f",
            "qcat": "c6cc3580d1af2f7c",
        },
    },
    # Requests per timed chunk; traced runs serve a fixed number of chunks.
    "map": {"ns": [8, 16, 32, 64], "chunk": 1000, "traced_chunks": 3},
    "probe": {
        "words_n": 8,
        "shapes_n": 9,
        "big_n": 64,
        "big_count": 200,
        "poset_n": 7,
        "covers_n": 6,
        "enum_n": 9,
        "pool_n": 6,
        "fanout_n": 9,
        "requests": 400,
    },
}

_TINY = {
    "verify": {
        "max_n": 4,
        "checks": {
            "stats": 100,
            "cp-pattern": 91,
            "shapes": 140,
            "count": 56,
            "tableau": 176,
            "bijection": 51,
            "poset": 1325,
            "parity": 35,
            "genfun": 184,
            "series": 17,
        },
    },
    "genfun": {
        "lbsum": 8,
        "quad": 5,
        "qcat": 6,
        "series": 3,
        "digests": {
            "lbsum": "b2b974e830a81bbd",
            "quad": "61cb464701a5ce18",
            "qcat": "c5b4004a0451aa3a",
        },
    },
    "map": {"ns": [8, 16], "chunk": 50, "traced_chunks": 2},
    "probe": {
        "words_n": 5,
        "shapes_n": 5,
        "big_n": 16,
        "big_count": 10,
        "poset_n": 4,
        "covers_n": 4,
        "enum_n": 6,
        "pool_n": 6,
        "fanout_n": 6,
        "requests": 20,
    },
}

PROFILES = {"full": _FULL, "tiny": _TINY}


def profile(name: str) -> dict:
    """A private copy of one size profile, safe for the caller to modify."""
    return copy.deepcopy(PROFILES[name])
