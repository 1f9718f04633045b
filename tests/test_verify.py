import multiprocessing
from dataclasses import replace

import pytest

from permshape import bruhat, verify
from permshape.permutations import Permutation
from permshape.verify import run_suite


# Pools a 2-worker run opens: one per check walk of S_7 (genfun's is the
# splitting law), and none for the suites whose walks of S_7 are counts
# (count, parity and genfun's joint tally pool from S_8 on) or that never
# fan out (poset compares whole up-set bitsets in one process).
POOLS = {
    "count": 0, "parity": 0, "genfun": 1, "bijection": 0, "series": 0, "poset": 0
}


# Every suite at a depth where those that fan out do: the split run must
# perform exactly the checks of the single-process run.
@pytest.mark.parametrize(
    "name, max_n",
    [
        ("stats", 7),
        ("cp-pattern", 7),
        ("shapes", 7),
        ("count", 7),
        ("tableau", 7),
        ("bijection", 7),
        ("parity", 7),
        ("genfun", 7),
        ("series", 7),
        ("poset", 6),
    ],
)
def test_parallel_suite_matches_serial(name, max_n, pool_requests):
    serial = run_suite(name, max_n, workers=1)
    assert not pool_requests
    parallel = run_suite(name, max_n, workers=2)
    assert [processes for _, processes in pool_requests] == [2] * POOLS.get(name, 1)
    assert serial.passed
    assert (parallel.passed, parallel.checks) == (serial.passed, serial.checks)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
def test_failure_inside_a_worker_range_is_reported(pool_requests, monkeypatch):
    # The last word of S_7 lies in the second of two ranges; the patched
    # kernel reaches the forked workers with the module.
    last = (7, 6, 5, 4, 3, 2, 1)
    real = verify.shape_parts
    monkeypatch.setattr(
        verify, "shape_parts", lambda word: () if word == last else real(word)
    )
    message = f"path shape != border shape at {last}"
    serial = run_suite("shapes", 7, workers=1)
    assert not pool_requests
    parallel = run_suite("shapes", 7, workers=2)
    assert pool_requests == [("fork", 2)]
    for result in (serial, parallel):
        assert not result.passed
        assert result.failures == [message]
    assert parallel.checks == serial.checks


FIRST, LAST = (1, 2, 3, 4, 5, 6, 7), (7, 6, 5, 4, 3, 2, 1)


def _shifted_borders(real):
    """Left borders one too high on the first and the last word of S_7."""
    return lambda word: (
        tuple(v + 1 for v in real(word)) if word in (FIRST, LAST) else real(word)
    )


def _reversed_on(planted):
    """A permutation-valued kernel, reversed where its result is planted."""

    def plant(real):
        def fake(arg):
            p = real(arg)
            return Permutation(p.entries[::-1]) if p.entries in planted else p

        return fake

    return plant


# Per ranged suite, the kernel a planted fault goes into and the fault: each
# breaks a check at the first word of S_7 and another in the last range.  The
# splitting law standardises both sides of the maximum, and (1, ..., 6) is the
# left side of FIRST, (6, ..., 1) the right side of LAST.
PLANTS = {
    "stats": ("left_borders", _shifted_borders),
    "cp-pattern": ("left_borders", _shifted_borders),
    "shapes": ("left_borders", _shifted_borders),
    "tableau": ("decode_tableau", _reversed_on((FIRST, LAST))),
    "genfun": ("standardize", _reversed_on((FIRST[:-1], LAST[1:]))),
}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize("name", list(PLANTS))
def test_failing_runs_agree_across_workers(name, pool_requests, monkeypatch):
    attribute, plant = PLANTS[name]
    monkeypatch.setattr(verify, attribute, plant(getattr(verify, attribute)))
    serial = run_suite(name, 7, workers=1)
    assert not pool_requests
    parallel = run_suite(name, 7, workers=2)
    assert pool_requests == [("fork", 2)]
    assert not serial.passed and len(serial.failures) == 1
    assert f"at {FIRST}" in serial.failures[0]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def test_a_tree_rotated_at_the_root_breaks_the_parent_law(monkeypatch):
    # Rotating the tree of (1, 3, 2) at its root lifts 1 above 3 and keeps
    # the in-order walk, so only the parent law can catch it.
    word = (1, 3, 2)
    real = verify.decreasing_tree_word

    def rotated(w):
        tree = real(w)
        if w != word:
            return tree
        top = tree.root
        lifted = tree.left[top]
        left, right = list(tree.left), list(tree.right)
        left[top], right[lifted] = right[lifted], top
        return replace(tree, left=tuple(left), right=tuple(right), root=lifted)

    assert rotated(word) != real(word) and rotated(word).inorder_values() == word
    monkeypatch.setattr(verify, "decreasing_tree_word", rotated)
    result = run_suite("stats", 3)
    assert not result.passed
    assert result.failures == [f"tree parent law fails at {word}"]


def test_poset_opens_no_pool(no_pool):
    result = run_suite("poset", 7, workers=2)
    assert (result.passed, result.checks) == (True, 746017)


# A dropped cover or a duplicated rank table must stop the poset suite at the
# first failing pair in enumeration order, with every check before it counted.
@pytest.mark.parametrize(
    "module, name, word, fake, checks, message",
    [
        (
            verify,
            "upper_covers",
            (1, 2),
            [],
            8037,
            "dominance and cover closure disagree on (1, 2) <= (2, 1)",
        ),
        (
            verify,
            "upper_covers",
            (1, 3, 2, 4),
            [(3, 1, 2, 4), (2, 3, 1, 4), (1, 4, 2, 3)],
            8127,
            "dominance and cover closure disagree on (1, 3, 2, 4) <= (1, 3, 4, 2)",
        ),
        (
            bruhat,
            "rank_table",
            (2, 1, 3),
            (1, 1, 1, 1, 2, 2, 1, 2, 3),
            13,
            "antisymmetry fails at (1, 2, 3), (2, 1, 3)",
        ),
    ],
    ids=["closure-n2", "closure-n4", "antisymmetry-n3"],
)
def test_poset_failure_order(module, name, word, fake, checks, message, monkeypatch):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda w: fake if w == word else real(w))
    result = run_suite("poset", 6)
    assert (result.passed, result.checks, result.failures) == (False, checks, [message])
