import multiprocessing
import sys
from dataclasses import replace
from itertools import chain

import pytest

from permshape import bruhat, oracle, shapes, tableaux, verify
from permshape.verify import run_suite


# Pools a 2-worker run opens: one per check walk of S_7, and none for the
# suites whose walks of S_7 are counts or as light as one (count, parity and
# genfun's one walk, which counts G_n and checks the splitting law, pool from
# S_8 on) or that never fan out (poset compares whole up-set bitsets in one
# process).
POOLS = {
    "count": 0, "parity": 0, "genfun": 0, "bijection": 0, "series": 0, "poset": 0
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
    # The last word of S_7 lies in the second worker's last block; the
    # patched kernel reaches the forked workers with the module.
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

# genfun's one walk checks as little per word as a count, so it fans out
# from S_8 on: run to 8, it opens one pool.
DEPTHS = {"genfun": (8, 1)}  # suite -> (max_n, pools of a 2-worker run)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize("name", list(PLANTS))
def test_failing_runs_agree_across_workers(name, pool_requests, monkeypatch):
    attribute, plant = PLANTS[name]
    max_n, pools = DEPTHS.get(name, (7, 1))
    monkeypatch.setattr(verify, attribute, plant(getattr(verify, attribute)))
    serial = run_suite(name, max_n, workers=1)
    assert not pool_requests
    parallel = run_suite(name, max_n, workers=2)
    assert pool_requests == [("fork", 2)] * pools
    assert not serial.passed and len(serial.failures) == 1
    assert f"at {FIRST}" in serial.failures[0]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


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
def test_fault_in_s6_agrees_across_workers(name, pool_requests, monkeypatch):
    attribute, plant = PLANTS_IN_S6[name]
    max_n, pools = DEPTHS.get(name, (7, 1))
    monkeypatch.setattr(verify, attribute, plant(getattr(verify, attribute)))
    serial = run_suite(name, max_n, workers=1)
    assert not pool_requests
    parallel = run_suite(name, max_n, workers=2)
    assert [processes for _, processes in pool_requests] == [2] * pools
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
def test_faults_in_first_and_last_blocks_agree(planted, pool_requests, monkeypatch):
    words = [
        STREAM[max(BLOCKS[t][0], 2) if i == 0 else BLOCKS[t][1] - 1] for t, i in planted
    ]
    monkeypatch.setattr(
        verify, "left_borders", _shifted_on(tuple(words))(verify.left_borders)
    )
    serial = run_suite("shapes", 7, workers=1)
    assert not pool_requests
    parallel = run_suite("shapes", 7, workers=2)
    assert pool_requests == [("fork", 2)]
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
def test_word_stream_fault_agrees_across_workers(planted, pool_requests, monkeypatch):
    monkeypatch.setattr(
        oracle, "enumerate_sn", _raising_at(oracle.enumerate_sn, planted)
    )
    serial = run_suite("shapes", 7, workers=1)
    assert not pool_requests
    parallel = run_suite("shapes", 7, workers=2)
    assert pool_requests == [("fork", 2)]
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
    name, fault, message, pool_requests, monkeypatch
):
    monkeypatch.setattr(
        oracle, "enumerate_sn", fault(oracle.enumerate_sn, STREAM[4000])
    )
    serial = run_suite(name, 7, workers=1)
    parallel = run_suite(name, 7, workers=2)
    assert pool_requests == [("fork", 2)]
    assert serial.failures == [message]
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


# The same for the stream of shapes the tableau suite's fillings ride on: an
# early shape falls in block 0, which the other worker's first block skips.
SHAPES = list(chain.from_iterable(map(oracle.all_shapes, range(8))))


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize(
    "index", [3, 300, len(SHAPES) - 1], ids=["early", "mid", "last"]
)
def test_shape_stream_fault_agrees_across_workers(index, pool_requests, monkeypatch):
    monkeypatch.setattr(
        oracle, "all_shapes", _raising_at(oracle.all_shapes, SHAPES[index])
    )
    serial = run_suite("tableau", 7, workers=1)
    assert not pool_requests
    parallel = run_suite("tableau", 7, workers=2)
    assert [processes for _, processes in pool_requests] == [2]
    assert serial.failures == ["planted stream fault"]
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
    # check passes and only injectivity on S_7 fails, on keys collected by
    # two different workers.
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


# The extreme fillings ride along with the walk, a share of the shapes in each
# block, and count after the walk: a failed filling gives the same result at
# both worker counts, the earliest shape's failure first wherever the later
# one ran, and a failed word of the walk is still reported first.  The
# minimal filling of shape 6,5,4,3,2,1 decodes to LAST, in the last block.
@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
@pytest.mark.parametrize(
    "word_fault, planted, first_filling",
    [
        (False, ((3, 2, 1),), "2,1"),
        (True, ((3, 2, 1),), "2,1"),
        (False, (LAST,), "6,5,4,3,2,1"),
        (False, (LAST, (3, 2, 1)), "2,1"),
    ],
    ids=["filling", "word-first", "filling-late", "filling-both"],
)
def test_filling_fault_agrees_across_workers(
    word_fault, planted, first_filling, pool_requests, monkeypatch
):
    real_contains = verify.contains_231
    monkeypatch.setattr(
        verify, "contains_231", lambda word: word in planted or real_contains(word)
    )
    if word_fault:
        real_count = verify._count_132_231
        monkeypatch.setattr(
            verify,
            "_count_132_231",
            lambda word: (real_count(word)[0] + (word == LAST), real_count(word)[1]),
        )
    serial = run_suite("tableau", 7, workers=1)
    assert not pool_requests
    parallel = run_suite("tableau", 7, workers=2)
    assert [processes for _, processes in pool_requests] == [2]
    first = (
        f"tableau 1-3-2 count wrong at {LAST}"
        if word_fault
        else f"minimal filling of {first_filling} decodes"
    )
    assert serial.failures[0].startswith(first)
    assert (parallel.passed, parallel.checks, parallel.failures) == (
        serial.passed,
        serial.checks,
        serial.failures,
    )


def test_one_layout_per_shape(monkeypatch):
    # S_0..S_6 hold 197 shapes and, serial, form one range: the walk builds
    # each shape's layout once, and the extreme fillings reuse it.
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


def test_a_walk_to_s8_opens_one_pool(pool_requests):
    result = run_suite("stats", 8, workers=2)
    assert result.passed
    assert [processes for _, processes in pool_requests] == [2]


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
    real = shapes._rectangles

    def moved(parts):
        tiles = real(parts)
        if parts == (6, 5, 4, 3, 2, 1):
            column, width, height, corner_row = tiles[0]
            tiles[0] = (column, width, height, corner_row + 1)
        return tiles

    monkeypatch.setattr(shapes, "_rectangles", moved)
    result = run_suite("count", 7)
    assert result.failures == [
        "rectangles do not tile shape '6,5,4,3,2,1' one per corner"
    ]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched kernel reaches the workers only through fork",
)
def test_a_tableau_on_the_wrong_layout_fails(pool_requests, monkeypatch):
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
    assert [processes for _, processes in pool_requests] == [2]
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
    # Serial, S_0..S_7 is one block and its words meet every shape before
    # the extreme fillings do: each of the 626 entries' labels are built
    # once, by its layout; no word rebuilds them from its borders.
    calls = []
    monkeypatch.setattr(
        tableaux, "_row_buckets", _counting(calls, "", tableaux._row_buckets)
    )
    assert run_suite("tableau", 7, workers=1).passed
    assert len(calls) == 626


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
def test_bad_input_raises_before_the_boundary(name, depth, workers, no_pool):
    with pytest.raises(ValueError):
        run_suite(name, depth, workers)
