import multiprocessing
import sys
from dataclasses import replace

import pytest

from permshape import bruhat, oracle, tableaux, verify
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
    monkeypatch.setattr(
        verify, "left_borders", _shifted_on((last,))(verify.left_borders)
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


def _shifted_on(planted):
    """Left borders one too high on the planted words."""

    def plant(real):
        return lambda word: (
            tuple(v + 1 for v in real(word)) if word in planted else real(word)
        )

    return plant


_shifted_borders = _shifted_on((FIRST, LAST))


def _reversed_on(planted):
    """A word-valued kernel, reversed where its result is planted."""

    def plant(real):
        def fake(arg):
            word = real(arg)
            return word[::-1] if word in planted else word

        return fake

    return plant


def _sides_shifted_on(planted):
    """
    Left borders one too high on the sides of the planted words: the calls
    whose caller checks a planted ``word`` and passes a part of it, as the
    splitting law does with the two sides of the maximum.  The same words
    as whole words keep their borders, so the tallies of G_n stay right.
    """

    def plant(real):
        def fake(side):
            word = sys._getframe(1).f_locals.get("word")
            borders = real(side)
            if word in planted and side != word:
                return tuple(v + 1 for v in borders)
            return borders

        return fake

    return plant


# Per ranged suite, the kernel a planted fault goes into and the fault: each
# breaks a check at the first word of S_7 and another in the last range.  The
# splitting law reads the left borders of both sides of the maximum, and
# (1, ..., 6) is the left side of FIRST, (6, ..., 1) the right side of LAST.
PLANTS = {
    "stats": ("left_borders", _shifted_borders),
    "cp-pattern": ("left_borders", _shifted_borders),
    "shapes": ("left_borders", _shifted_borders),
    "tableau": ("_decode_word", _reversed_on((FIRST, LAST))),
    "genfun": ("left_borders", _sides_shifted_on((FIRST, LAST))),
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


# A suite's walk over S_0..S_7 is one stream of 5914 words split once, so the
# first word of S_6 (stream index 154 from S_0) now lies in the first
# worker's range instead of the parent's serial walk.
SIX = (1, 2, 3, 4, 5, 6)
PLANTS_IN_S6 = {
    "stats": ("left_borders", _shifted_on((SIX,))),
    "cp-pattern": ("left_borders", _shifted_on((SIX,))),
    "shapes": ("left_borders", _shifted_on((SIX,))),
    "tableau": ("_decode_word", _reversed_on((SIX,))),
    "genfun": ("left_borders", _sides_shifted_on((SIX,))),
}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize("name", list(PLANTS_IN_S6))
def test_fault_in_s6_agrees_across_workers(name, pool_requests, monkeypatch):
    attribute, plant = PLANTS_IN_S6[name]
    monkeypatch.setattr(verify, attribute, plant(getattr(verify, attribute)))
    serial = run_suite(name, 7, workers=1)
    assert not pool_requests
    parallel = run_suite(name, 7, workers=2)
    assert [processes for _, processes in pool_requests] == [2]
    assert not serial.passed and f"at {SIX}" in serial.failures[0]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
def test_injectivity_fault_agrees_across_workers(pool_requests, monkeypatch):
    # LAST encodes to the tableau of FIRST, which decodes to the word just
    # encoded.  Neither word holds a 1-3-2 or a 2-3-1, so every per-word
    # check passes and only injectivity on S_7 fails, on keys collected in
    # two different ranges.
    real_encode = verify._encode_word
    encoded = []

    def encode(word, shapes):
        encoded[:] = [word]
        return real_encode(FIRST if word == LAST else word, shapes)

    monkeypatch.setattr(verify, "_encode_word", encode)
    monkeypatch.setattr(verify, "_decode_word", lambda t: encoded[0])
    serial = run_suite("tableau", 7, workers=1)
    assert not pool_requests
    parallel = run_suite("tableau", 7, workers=2)
    assert [processes for _, processes in pool_requests] == [2]
    assert serial.failures == ["encode is not injective on S_7"]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


# The extreme fillings are checked in the parent while the pool walks S_7 and
# counted after the walk: a failed filling gives the same result at both
# worker counts, and a failed word of the walk is still reported first.
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize("word_fault", [False, True], ids=["filling", "word-first"])
def test_filling_fault_agrees_across_workers(word_fault, pool_requests, monkeypatch):
    real_contains = verify.contains_231
    monkeypatch.setattr(
        verify, "contains_231", lambda word: word == (3, 2, 1) or real_contains(word)
    )
    if word_fault:
        real_count = verify.count_pattern_word
        monkeypatch.setattr(
            verify,
            "count_pattern_word",
            lambda word, pattern: real_count(word, pattern) + (word == LAST),
        )
    serial = run_suite("tableau", 7, workers=1)
    assert not pool_requests
    parallel = run_suite("tableau", 7, workers=2)
    assert [processes for _, processes in pool_requests] == [2]
    first = f"tableau 1-3-2 count wrong at {LAST}" if word_fault else "minimal filling"
    assert serial.failures[0].startswith(first)
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def test_one_layout_per_shape(monkeypatch):
    # S_0..S_6 hold 197 shapes and, serial, form one range: the walk builds
    # each shape's layout once, and the extreme fillings once more.
    calls = []
    real = tableaux._layout

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(tableaux, "_layout", counting)
    monkeypatch.setattr(verify, "_layout", counting)
    assert run_suite("tableau", 6).passed
    shapes = [s for n in range(7) for s in oracle.all_shapes(n)]
    assert len(shapes) == 197
    assert sorted((s.n, s.parts) for s in calls) == sorted(
        (s.n, s.parts) for s in shapes * 2
    )


def test_a_walk_to_s8_opens_one_pool(pool_requests):
    result = run_suite("stats", 8, workers=2)
    assert result.passed
    assert [processes for _, processes in pool_requests] == [2]


class _Unprintable(tuple):
    """A word that fails the test if any message is formatted with it."""

    def __format__(self, spec=""):
        raise AssertionError(f"a message was built for the passing word {tuple(self)}")

    __str__ = __repr__ = __format__


# Every per-word check builds its message only when it fails: fed words that
# refuse to be formatted, each ranged suite still passes with every check.
@pytest.mark.parametrize("name", list(PLANTS))
def test_passing_checks_build_no_message(name, monkeypatch):
    expected = run_suite(name, 6)
    real = oracle.enumerate_sn
    monkeypatch.setattr(oracle, "enumerate_sn", lambda n: map(_Unprintable, real(n)))
    result = run_suite(name, 6)
    assert (result.passed, result.checks) == (True, expected.checks)


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
