import ast
import multiprocessing
import os
import pathlib
import sys
from collections import Counter
from dataclasses import replace
from itertools import chain

import pytest

from permshape import bruhat, oracle, shapes, tableaux, verify
from permshape.permutations import left_borders
from permshape.verify import run_suite

from naive_oracles import cell_assignment, naive_avoiders, naive_left_borders


# Fan-outs of a 2-worker run: one per walk of S_7, a check walk or a count
# alike, and none for the suites that never fan out (bijection and series
# walk no S_n, and poset compares whole up-set bitsets in one process).
FAN_OUTS = {"bijection": 0, "series": 0, "poset": 0}


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
def test_parallel_suite_matches_serial(name, max_n, fan_outs):
    serial = run_suite(name, max_n, workers=1)
    assert not fan_outs
    parallel = run_suite(name, max_n, workers=2)
    assert [processes for _, processes in fan_outs] == [2] * FAN_OUTS.get(name, 1)
    assert serial.passed
    assert (parallel.passed, parallel.checks) == (serial.passed, serial.checks)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
def test_failure_inside_a_worker_range_is_reported(fan_outs, monkeypatch):
    # The last word of S_7 lies in the second worker's last block; the
    # patched kernel reaches the forked workers with the module.
    last = (7, 6, 5, 4, 3, 2, 1)
    monkeypatch.setattr(
        verify, "left_borders", _shifted_on((last,))(verify.left_borders)
    )
    message = f"path shape != border shape at {last}"
    serial = run_suite("shapes", 7, workers=1)
    assert not fan_outs
    parallel = run_suite("shapes", 7, workers=2)
    assert fan_outs == [("fork", 2)]
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
    as whole words keep their borders, so the counts of G_n stay right.
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
# breaks a check at the first word of S_7 and another in the last block.  The
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
def test_failing_runs_agree_across_workers(name, fan_outs, monkeypatch):
    attribute, plant = PLANTS[name]
    monkeypatch.setattr(verify, attribute, plant(getattr(verify, attribute)))
    serial = run_suite(name, 7, workers=1)
    assert not fan_outs
    parallel = run_suite(name, 7, workers=2)
    assert fan_outs == [("fork", 2)]
    assert not serial.passed and len(serial.failures) == 1
    assert f"at {FIRST}" in serial.failures[0]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def _wrong_at_last(real, wrong, log):
    """
    ``real``, with its value at LAST made ``wrong``; each call at LAST
    appends its process id to the file ``log``.
    """

    def fake(word):
        if word != LAST:
            return real(word)
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return wrong(real(word))

    return fake


# Per counting suite, the oracle kernel a planted fault goes into, the fault
# at LAST, and the suite's one failure.  LAST lies in the last block of the
# tally of S_7, so a 2-worker run meets the fault in its child alone.  The
# shape of LAST, 6,5,4,3,2,1, counted as the identity's, leaves 428 shapes;
# its area one border at a time higher, by 7, moves it to the other parity.
TALLY_PLANTS = {
    "count": (
        "shape_parts",
        lambda parts: (0,) * len(parts),
        "census of S_7 has 428 shapes, expected 429",
    ),
    "parity": (
        "left_borders",
        lambda borders: tuple(v + 1 for v in borders),
        "enumerated parity split disagrees with the recursion at n=7",
    ),
}


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize("name", list(TALLY_PLANTS))
def test_failing_tallies_agree_across_workers(name, fan_outs, monkeypatch, tmp_path):
    attribute, wrong, message = TALLY_PLANTS[name]
    log = tmp_path / "met"
    monkeypatch.setattr(
        oracle, attribute, _wrong_at_last(getattr(oracle, attribute), wrong, log)
    )
    runs, meeting = [], []
    for workers in (1, 2):
        log.write_text("")
        runs.append(run_suite(name, 7, workers=workers))
        meeting.append(set(log.read_text().split()))
    serial, parallel = runs
    assert [processes for _, processes in fan_outs] == [2]
    assert serial.failures == [message]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )
    # The fault fired in this process at 1 worker, and only in a child at 2.
    me = str(os.getpid())
    assert meeting[0] == {me}
    assert meeting[1] and me not in meeting[1]


# A suite's walk over S_0..S_7 is one stream of 5914 words split once, so the
# first word of S_6 (stream index 154 from S_0) lies in the first worker's
# first block, not in a serial walk of the parent.
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
def test_fault_in_s6_agrees_across_workers(name, fan_outs, monkeypatch):
    attribute, plant = PLANTS_IN_S6[name]
    monkeypatch.setattr(verify, attribute, plant(getattr(verify, attribute)))
    serial = run_suite(name, 7, workers=1)
    assert not fan_outs
    parallel = run_suite(name, 7, workers=2)
    assert [processes for _, processes in fan_outs] == [2]
    assert not serial.passed and f"at {SIX}" in serial.failures[0]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


# A 2-worker walk of the S_0..S_7 stream deals 16 blocks round robin: worker 0
# holds blocks 0 and 14 first and last, worker 1 blocks 1 and 15.  A fault at
# the first or last word of any of them, or in two at once, gives the serial
# verdict, checks and first failure.  Block 0 starts with () and (1,), whose
# shifted borders no check can see, so its first fault goes into (1, 2).
STREAM = list(chain.from_iterable(oracle.enumerate_sn(n) for n in range(8)))
BLOCKS = oracle.split_ranges(len(STREAM), 2 * oracle._BLOCKS_PER_WORKER)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize(
    "planted",
    [
        ((0, 0),),
        ((0, -1),),
        ((1, 0),),
        ((1, -1),),
        ((14, 0),),
        ((14, -1),),
        ((15, 0),),
        ((15, -1),),
        ((1, -1), (14, 0)),
        ((15, 0), (2, 0)),
    ],
    ids=lambda planted: "+".join(f"b{t}{'first' if i == 0 else 'last'}" for t, i in planted),
)
def test_faults_in_first_and_last_blocks_agree(planted, fan_outs, monkeypatch):
    words = [
        STREAM[max(BLOCKS[t][0], 2) if i == 0 else BLOCKS[t][1] - 1] for t, i in planted
    ]
    monkeypatch.setattr(
        verify, "left_borders", _shifted_on(tuple(words))(verify.left_borders)
    )
    serial = run_suite("shapes", 7, workers=1)
    assert not fan_outs
    parallel = run_suite("shapes", 7, workers=2)
    assert fan_outs == [("fork", 2)]
    first = min(words, key=STREAM.index)
    assert serial.failures == [f"path shape != border shape at {first}"]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def _raising_at(real, planted):
    """A stream of ``real(n)`` that raises where it would yield ``planted``."""

    def stream(n):
        for item in real(n):
            if item == planted:
                raise RuntimeError("planted stream fault")
            yield item

    return stream


# A fault raised by the stream itself, not by a check, is raised by reading
# the block it falls in or a later block, whose gap skips over it; so it is
# the one failure wherever it falls, with the serial checks, and names no
# word, since no word was under check.
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize(
    "planted",
    [STREAM[2], STREAM[BLOCKS[1][0]], STREAM[BLOCKS[2][0] + 5], STREAM[-1]],
    ids=["b0", "b1first", "b2", "last"],
)
def test_word_stream_fault_agrees_across_workers(planted, fan_outs, monkeypatch):
    monkeypatch.setattr(
        oracle, "enumerate_sn", _raising_at(oracle.enumerate_sn, planted)
    )
    serial = run_suite("shapes", 7, workers=1)
    assert not fan_outs
    parallel = run_suite("shapes", 7, workers=2)
    assert fan_outs == [("fork", 2)]
    assert serial.failures == ["planted stream fault"]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def _dropping(real, dropped):
    """A stream of ``real(n)`` without the word ``dropped``."""
    return lambda n: (word for word in real(n) if word != dropped)


def _repeating(real, repeated):
    """A stream of ``real(n)`` that yields the word ``repeated`` twice."""
    return lambda n: chain.from_iterable(
        (word, word) if word == repeated else (word,) for word in real(n)
    )


# A stream that loses or repeats a word passes every per-word check, so the
# walk itself must notice: the short block, or the one ending the stream with
# a word left over, fails with the same message and checks at 1 and 2 workers.
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize("name", ["stats", "cp-pattern", "shapes"])
@pytest.mark.parametrize(
    "fault, message",
    [
        (_dropping, "the stream ends short of its 5914 words"),
        (_repeating, "the stream runs past its 5914 words"),
    ],
    ids=["lost", "repeated"],
)
def test_a_walk_of_the_wrong_length_fails(
    name, fault, message, fan_outs, monkeypatch
):
    monkeypatch.setattr(
        oracle, "enumerate_sn", fault(oracle.enumerate_sn, STREAM[4000])
    )
    serial = run_suite(name, 7, workers=1)
    parallel = run_suite(name, 7, workers=2)
    assert fan_outs == [("fork", 2)]
    assert serial.failures == [message]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
def test_injectivity_fault_agrees_across_workers(fan_outs, monkeypatch):
    # LAST encodes to the tableau of FIRST, which decodes to the word just
    # encoded.  Neither word holds a 1-3-2 or a 2-3-1, so every per-word
    # check passes and only injectivity on S_7 fails, on keys collected by
    # two different workers.
    real_encode = verify._encode_word
    encoded = []

    def encode(word, shapes):
        encoded[:] = [word]
        return real_encode(FIRST if word == LAST else word, shapes)

    monkeypatch.setattr(verify, "_encode_word", encode)
    monkeypatch.setattr(verify, "_decode_word", lambda columns: encoded[0])
    serial = run_suite("tableau", 7, workers=1)
    assert not fan_outs
    parallel = run_suite("tableau", 7, workers=2)
    assert [processes for _, processes in fan_outs] == [2]
    assert serial.failures == ["encode is not injective on S_7"]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


# A shape's extreme fillings are checked at the word whose filling is full,
# so the first failure is the first in stream order, at 1 and 2 workers
# alike.  The minimal filling of 2,1 decodes to (3, 2, 1), checked at that
# word, and that of 6,5,4,3,2,1 to LAST, checked at LAST before its pattern
# counts.  A word fault at FIRST, in S_7's first block, precedes LAST, in
# the other worker's last block; one at LAST follows (3, 2, 1).
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize(
    "word_fault, planted, first",
    [
        (None, ((3, 2, 1),), "minimal filling of 2,1 decodes"),
        (FIRST, (LAST,), f"tableau 1-3-2 count wrong at {FIRST}"),
        (LAST, ((3, 2, 1),), "minimal filling of 2,1 decodes"),
        (None, (LAST,), "minimal filling of 6,5,4,3,2,1 decodes"),
        (LAST, (LAST,), "minimal filling of 6,5,4,3,2,1 decodes"),
        (None, (LAST, (3, 2, 1)), "minimal filling of 2,1 decodes"),
    ],
    ids=[
        "filling", "word-first", "word-after", "filling-late",
        "filling-before-counts", "filling-both",
    ],
)
def test_filling_fault_agrees_across_workers(
    word_fault, planted, first, fan_outs, monkeypatch
):
    real_contains = verify.contains_231
    monkeypatch.setattr(
        verify, "contains_231", lambda word: word in planted or real_contains(word)
    )
    real_count = verify._count_132_231
    monkeypatch.setattr(
        verify,
        "_count_132_231",
        lambda word: (real_count(word)[0] + (word == word_fault), real_count(word)[1]),
    )
    serial = run_suite("tableau", 7, workers=1)
    assert not fan_outs
    parallel = run_suite("tableau", 7, workers=2)
    assert [processes for _, processes in fan_outs] == [2]
    assert serial.failures[0].startswith(first)
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


# Each shape's full filling is met at one word, the count per n shows it:
# LAST's tableau, kept against its layout with one more allowed cell, (1, 1)
# (label 1 has no row), is not full, so its shape's extreme fillings go
# unchecked, and the walk says so after its claims.  Three checks are lost
# and the raise counts one.
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
def test_every_shape_meets_its_full_filling(fan_outs, monkeypatch):
    real_encode = verify._encode_word

    def encode(word, shapes):
        t = real_encode(word, shapes)
        if word != LAST:
            return t
        wider = t._shape_layout._replace(allowed=t._shape_layout.allowed | 1)
        return tableaux.FilledTableau._from_mask(wider, t.mask)

    monkeypatch.setattr(verify, "_encode_word", encode)
    serial = run_suite("tableau", 7, workers=1)
    assert not fan_outs
    parallel = run_suite("tableau", 7, workers=2)
    assert [processes for _, processes in fan_outs] == [2]
    assert serial.failures == ["the extreme fillings met 428 of the 429 shapes of S_7"]
    assert serial.checks == 19628 - 3 + 1
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def test_one_layout_per_shape(monkeypatch):
    # S_0..S_6 hold 197 shapes and, serial, form one range: the walk builds
    # each shape's layout once, at its first word, and the extreme fillings
    # read it off the tableau of the word whose filling is full.
    calls = []
    real = tableaux._layout

    def counting(s):
        calls.append(s)
        return real(s)

    monkeypatch.setattr(tableaux, "_layout", counting)
    assert run_suite("tableau", 6).passed
    shapes = [s for n in range(7) for s in oracle.all_shapes(n)]
    assert len(shapes) == 197
    assert sorted((s.n, s.parts) for s in calls) == sorted(
        (s.n, s.parts) for s in shapes
    )


def test_the_full_filling_is_not_built_again(monkeypatch):
    # Serial, S_0..S_6 hold 197 shapes: the walk decodes each one's minimal
    # filling from its mask, and its full filling is the tableau of the word
    # it meets; neither filling is built as a tableau.
    decoded = []
    real = verify._checked_decode

    def counting(layout, mask):
        decoded.append(mask)
        return real(layout, mask)

    monkeypatch.setattr(verify, "_checked_decode", counting)
    assert run_suite("tableau", 6).passed
    assert len(decoded) == 197
    assert not hasattr(verify, "decode_tableau")


def test_the_census_is_not_read_back_from_text(monkeypatch):
    def refuse(cls, text, n=None):
        raise AssertionError(f"a shape was parsed from {text!r}")

    monkeypatch.setattr(shapes.ShapePartition, "from_text", classmethod(refuse))
    assert run_suite("count", 7).passed


def test_a_walk_to_s8_opens_one_pool(fan_outs):
    result = run_suite("stats", 8, workers=2)
    assert result.passed
    assert [processes for _, processes in fan_outs] == [2]


def test_genfun_walks_each_sn_once(monkeypatch):
    # One walk counts the exponents of G_n and checks the splitting law.
    walked = []
    real = oracle.enumerate_sn

    def counting(n):
        walked.append(n)
        return real(n)

    def refuse(*args, **kwargs):
        raise AssertionError("oracle.tally was called")

    monkeypatch.setattr(oracle, "enumerate_sn", counting)
    monkeypatch.setattr(oracle, "tally", refuse)
    assert run_suite("genfun", 8).passed
    assert sorted(walked) == list(range(9))


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


def test_a_tile_moved_off_the_diagram_fails_the_tiling(monkeypatch):
    # Moved one row down, the first tile of the staircase still covers as
    # many cells as the shape has, one tile per corner: only the cells
    # themselves show that it hangs below the diagram.
    real = verify._rectangles

    def moved(parts):
        tiles = real(parts)
        if parts == (6, 5, 4, 3, 2, 1):
            column, width, height, corner_row = tiles[0]
            tiles[0] = (column, width, height, corner_row + 1)
        return tiles

    monkeypatch.setattr(verify, "_rectangles", moved)
    result = run_suite("count", 7)
    assert result.failures == [
        "rectangles do not tile shape '6,5,4,3,2,1' one per corner"
    ]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
def test_a_tableau_on_the_wrong_layout_fails(fan_outs, monkeypatch):
    # Borders one off in the tableau's own route only: at (4, 7, 2, 6, 5, 1,
    # 3), a_7 goes 5 -> 6, which is still the border sequence of a shape, so
    # labels and layout agree with each other and every dot lies inside the
    # rows.  Row 7 then claims cell (6, 7), where no inversion sits.
    word = (4, 7, 2, 6, 5, 1, 3)
    real = tableaux.left_borders

    def shifted(w):
        a = real(w)
        return a[:-1] + (a[-1] + 1,) if w == word else a

    assert shifted(word) == (0, 0, 2, 2, 4, 5, 6)
    monkeypatch.setattr(tableaux, "left_borders", shifted)
    serial = run_suite("tableau", 7, workers=1)
    parallel = run_suite("tableau", 7, workers=2)
    assert [processes for _, processes in fan_outs] == [2]
    assert serial.failures == [f"round trip broken at {word}"]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def _counting(calls, name, real):
    def counted(*args):
        calls.append((name, args))
        return real(*args)

    return counted


# The walk's shape dict holds each path's side of the shapes and stats
# checks: over S_0..S_7, serial, each path-side kernel runs once per
# distinct path, of which there are 626 (the empty path has no first
# return), while the word side runs on every one of the 5914 words.
@pytest.mark.parametrize(
    "name, kernels",
    [
        ("shapes", ["shape_from_path", "borders_from_shape", "_valleys", "_first_return"]),
        ("stats", ["path_shape_parts"]),
    ],
)
def test_each_path_is_read_once(name, kernels, monkeypatch):
    calls = []
    for kernel in [*kernels, "left_borders"]:
        monkeypatch.setattr(
            verify, kernel, _counting(calls, kernel, getattr(verify, kernel))
        )
    assert run_suite(name, 7, workers=1).passed
    paths = {shapes.path_from_shape(s) for n in range(8) for s in oracle.all_shapes(n)}
    assert len(paths) == 626
    for kernel in kernels:
        args = [args for called, args in calls if called == kernel]
        expected = 625 if kernel == "_first_return" else 626
        assert len(args) == len(set(args)) == expected, kernel
    # The word side: left_borders once per word, twice (the word and its
    # reversal) in stats.
    borders = sum(called == "left_borders" for called, _ in calls)
    assert borders == 5914 * (2 if name == "stats" else 1)


def test_labels_are_built_once_per_entry(monkeypatch):
    # Serial, S_0..S_7 is one block: each of the 626 entries' labels are
    # built once, by its layout, and neither a word nor its shape's extreme
    # fillings build a layout again.
    calls = []
    monkeypatch.setattr(tableaux, "_layout", _counting(calls, "", tableaux._layout))
    assert run_suite("tableau", 7, workers=1).passed
    assert len(calls) == 626


def test_poset_opens_no_pool(no_fan_out):
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


# The suite's boundary: an exception with no text fails the suite under its
# type name, counted as one check, and an interrupt still ends the run.
def test_a_fault_without_text_fails_under_its_type_name(monkeypatch):
    def raising(word):
        raise RuntimeError

    monkeypatch.setattr(verify, "dyck_word", raising)
    result = run_suite("shapes", 3)
    assert (result.passed, result.checks, result.failures) == (
        False, 1, ["RuntimeError at ()"]
    )


def test_an_interrupt_passes_the_boundary(monkeypatch):
    def interrupted(word):
        raise KeyboardInterrupt

    monkeypatch.setattr(verify, "dyck_word", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_suite("shapes", 3)


# Bad input is a usage error raised before the boundary, not a failed suite.
@pytest.mark.parametrize(
    "name, depth, workers",
    [("everything", 3, 1), ("series", 11, 1), ("series", 0, 1), ("stats", 3, 0)],
)
def test_bad_input_raises_before_the_boundary(name, depth, workers, no_fan_out):
    with pytest.raises(ValueError):
        run_suite(name, depth, workers)


def _naive_shape(word):
    return tuple(sorted(naive_left_borders(word)[1:], reverse=True))


# The bijection's private route, fed an avoider's left borders, gives the one
# 2-3-1-avoider of the avoider's shape, found by a scan of S_n that shares
# no filling code, and the image's own left borders.
def test_the_bijection_route_gives_the_231_avoider_of_the_shape():
    for n in range(9):
        scan = naive_avoiders(n, (2, 3, 1))
        avoiders_231 = {_naive_shape(word): word for word in scan}
        assert len(avoiders_231) == len(scan)  # one per shape
        for word in oracle.avoiders_132(n):
            image, image_borders = tableaux._bijection_image(left_borders(word))
            assert image == avoiders_231[_naive_shape(word)]
            assert image_borders == left_borders(image)


def _cell_verdict(s, tiles):
    """
    The tiling check on the cells of ``cell_assignment``: whether the tiles
    cover the diagram one per corner, or the overlap's message.
    """
    try:
        cells = cell_assignment(tiles)
    except ValueError as error:
        return str(error)
    parts = s.parts
    inside = all(0 < r <= len(parts) and 0 < c <= parts[r - 1] for r, c in cells)
    corners = sum(
        1
        for j, v in enumerate(parts)
        if v and (j + 1 == len(parts) or parts[j + 1] < v)
    )
    return len(cells) == sum(parts) and inside and len(tiles) == corners


def _mask_verdict(s, tiles):
    try:
        return verify._tiles_exactly(s, tiles)
    except ValueError as error:
        return str(error)


def _shifted(tiles, column=0, width=0, height=0, row=0):
    """The tiles with the first one's fields moved by the given steps."""
    c, w, h, r = tiles[0]
    return [(c + column, w + width, h + height, r + row), *tiles[1:]]


def _split(tiles):
    """The first tile wider than one column, its rightmost column cut off."""
    for k, (c, w, h, r) in enumerate(tiles):
        if w > 1:
            return [*tiles[:k], (c - 1, w - 1, h, r), (c, 1, h, r), *tiles[k + 1 :]]
    return tiles[:-1]


# The tilings of every shape for n <= 8, and each one damaged: a tile lost,
# a tile repeated, the first moved or grown one step, which may leave the
# staircase or meet another tile, or a tile split in two.  The bit masks
# give each the verdict of the cells, an overlap's message included.
TILE_FAULTS = {
    "intact": lambda tiles: tiles,
    "first-lost": lambda tiles: tiles[1:],
    "last-lost": lambda tiles: tiles[:-1],
    "first-repeated": lambda tiles: tiles + tiles[:1],
    "last-repeated": lambda tiles: tiles + tiles[-1:],
    "down": lambda tiles: _shifted(tiles, row=1),
    "up": lambda tiles: _shifted(tiles, row=-1),
    "right": lambda tiles: _shifted(tiles, column=1),
    "left": lambda tiles: _shifted(tiles, column=-1),
    "wider": lambda tiles: _shifted(tiles, width=1),
    "taller": lambda tiles: _shifted(tiles, height=1),
    "narrower": lambda tiles: _shifted(tiles, width=-1),
    "split": lambda tiles: _split(tiles),
}


@pytest.mark.parametrize("fault", list(TILE_FAULTS))
def test_the_mask_tiling_agrees_with_the_cells(fault):
    damage = TILE_FAULTS[fault]
    verdicts = Counter()
    for n in range(9):
        for s in oracle.all_shapes(n):
            tiles = shapes._rectangles(s.parts)
            if not tiles and fault != "intact":
                continue
            damaged = damage(tiles)
            verdict = _cell_verdict(s, damaged)
            assert _mask_verdict(s, damaged) == verdict, (s, damaged)
            verdicts[verdict if type(verdict) is bool else "overlap"] += 1
    if fault == "intact":
        assert verdicts == {True: sum(map(verify._catalan, range(9)))}
    else:
        assert True not in verdicts


# A tile repeated overlaps itself: the count suite fails where the cells
# would, with the same message and checks at 1 and 2 workers.  The product
# keeps its value, since each repeated tile is one column wide.
@pytest.mark.parametrize(
    "repeated, checks, message",
    [
        (lambda parts, tiles: tiles[:1], 14, "rectangles overlap at (1, 1)"),
        (
            lambda parts, tiles: tiles[-1:] if parts == (4, 3, 2, 1) else [],
            142,
            "rectangles overlap at (1, 4)",
        ),
    ],
    ids=["first-shape", "staircase-5"],
)
def test_an_overlap_fails_the_count_as_the_cells_did(
    repeated, checks, message, monkeypatch
):
    real = verify._rectangles
    monkeypatch.setattr(
        verify, "_rectangles", lambda parts: real(parts) + repeated(parts, real(parts))
    )
    for workers in (1, 2):
        result = run_suite("count", 7, workers=workers)
        assert (result.passed, result.checks, result.failures) == (
            False, checks, [message]
        )


def _eager_messages(source):
    """
    The lines of the ``require`` calls in ``source`` whose message is an
    f-string, built on every pass, inside a loop that runs per word, pair,
    avoider or shape: any loop but ``for n in ...``.
    """
    found = []

    def visit(node, per_item):
        if isinstance(node, ast.For):
            per_item = per_item or not (
                isinstance(node.target, ast.Name) and node.target.id == "n"
            )
        elif isinstance(node, ast.While):
            per_item = True
        if (
            per_item
            and isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "require"
            and len(node.args) > 1
            and isinstance(node.args[1], ast.JoinedStr)
        ):
            found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, per_item)

    visit(ast.parse(source), False)
    return found


def test_no_message_is_built_per_item():
    source = pathlib.Path(verify.__file__).read_text()
    assert _eager_messages(source) == []
    # The guard itself sees an eager message in a per-word loop, and only there.
    sample = "\n".join(
        [
            "for n in range(3):",
            "    result.require(ok, f'at n={n}')",
            "    for word in words:",
            "        result.require(ok, f'at {word}')",
            "        result.require(ok, 'at {}', word)",
            "while rest:",
            "    result.require(ok, f'at {rest}')",
        ]
    )
    assert _eager_messages(sample) == [4, 7]
