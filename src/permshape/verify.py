"""
Umbrella verification suites: every structural claim of the library gets an
exhaustive cross-check at small n, each suite timed.  A suite is a function
``suite(result, workers)`` that reads its depth from ``result.max_n`` and
counts its checks through :meth:`SuiteResult.require`; the first check that
fails is the suite's one failure and ends it.  Suite names, workers and the
series order are checked first; past that, a suite runs inside one error
boundary, :func:`_boundary`, where any other exception is a fault of the
library and counts as the suite's one failed check.

Every per-word check runs through :func:`_run_ranged`, over one
:func:`permshape.oracle.walk` of S_0, S_1, ... up to the suite's depth:
words that are permutations by construction, fed to the kernels' unchecked
routes.  What verify adds to the walk is threefold.  Each block has its own
boundary, whose failure names the word it was checking (a fault of the
stream names none) and stops its worker; the blocks merge in stream order
up to the first that failed, so parallel and single-threaded runs agree
exactly, on failing runs too.  Each worker keeps one shape dict for all its
blocks, holding what a check can share between words: the tableau walk's
layouts, by (n, parts), which :mod:`permshape.tableaux` alone makes and
reads, and the shapes and stats walks' side of each Dyck path, by the path.
A word's own side and every comparison still run per word, so no
comparison reads both of its sides from one entry.  And each block counts
the keys its checks give it; claims about a whole S_n are checked after
the walk on those counts, merged.  A check per shape (the tableau suite's
extreme fillings) runs at the one word whose filling is full.  The loops
over avoiders, shapes and pairs stand on the same footing, and every
message built per word, pair, avoider or shape is a template that
:meth:`SuiteResult.require` fills in only on failure.
"""
from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain
from math import comb, factorial

from . import oracle
from .bruhat import (
    bruhat_covers,
    bruhat_leq,
    bruhat_up_sets,
    shape_contains,
    upper_covers,
    verify_poset_equivalence,
)
from .genfun import (
    SERIES_MAX_ORDER,
    lbsum_polynomial,
    moments,
    parity_table,
    q_catalan,
    q_catalan_alt,
    quad_polynomial,
    tangent_numbers,
    verify_series_identities,
)
from .permutations import (
    Permutation,
    _count_132_231,
    contains_132,
    contains_231,
    count_barred_132_word,
    decreasing_tree_word,
    descent_positions,
    inversion_count,
    left_borders,
    lr_maxima_count,
    right_borders,
)
from .shapes import (
    ShapePartition,
    _first_return,
    _rectangle_count,
    _rectangles,
    _valleys,
    borders_from_shape,
    dyck_word,
    path_from_shape,
    path_shape_parts,
    shape,
    shape_from_path,
    shape_parts,
)
from .tableaux import (
    _bijection_image,
    _checked_decode,
    _columns,
    _count_132_231_from_columns,
    _decode_word,
    _encode_word,
    _min_mask,
)

__all__ = ["SUITE_NAMES", "SuiteResult", "run_suites", "run_suite"]


class _Stop(Exception):
    """Raised by :meth:`SuiteResult.require` at a suite's first failed check."""


@dataclass
class SuiteResult:
    name: str
    max_n: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def require(self, condition: bool, message: str, *args) -> None:
        """
        Count one check; at the first that fails, record it and stop.  Given
        ``args``, ``message`` is a :meth:`str.format` template, filled in only
        on failure.
        """
        self.checks += 1
        if not condition:
            self.failures.append(message.format(*args) if args else message)
            raise _Stop


class _OneLine(tuple):
    """A word that a template prints as a :class:`Permutation` prints, ``2,1``."""

    def __format__(self, spec: str) -> str:
        return ",".join(map(str, self))


def _catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


@contextmanager
def _boundary(result: SuiteResult, where=None):
    """
    End at a failed check; any other exception is the one failed check.
    ``where()``, if given, is called only then and names what was being
    checked: its text follows the exception's.
    """
    try:
        yield
    except _Stop:
        pass
    except Exception as error:
        result.checks += 1
        text = str(error) or type(error).__name__
        result.failures.append(text + where() if where else text)


def _check_block(check, shapes: dict, words) -> tuple[tuple[SuiteResult, dict], bool]:
    """
    A visitor of :func:`permshape.oracle.walk`: ``check`` on each of a
    block's words, with the block's own result and key counts, inside its
    own boundary, stopping the worker's share at the block's failure.
    """
    part, keys = SuiteResult("", 0), {}
    word = None  # the word under check; None while the stream moves
    with _boundary(part, lambda: "" if word is None else f" at {word}"):
        for word in words:
            check(part, word, keys, shapes)
            word = None
    return (part, keys), bool(part.failures)


def _run_ranged(result: SuiteResult, ns: range, workers: int, check) -> Counter:
    """
    Run ``check(result, word, keys, shapes)`` over the stream of S_n for the
    n in ``ns`` (see the module docstring), and return the counts the checks
    kept in the dict ``keys``, merged over the walk, which claims about a
    whole S_n need.
    """
    counts = Counter()
    for part, keys in oracle.walk(ns, partial(_check_block, check, {}), workers):
        result.checks += part.checks
        if part.failures:
            result.failures = part.failures
            raise _Stop
        counts.update(keys)
    return counts


# ---------------------------------------------------------------------------
# stats: statistics of the path-derived shape match the permutation, border
# laws hold, and decreasing trees are wired to the border numbers.
# ---------------------------------------------------------------------------


def _path_stats(path: str) -> tuple[int, int, int, int, int]:
    """
    The path's side of the stats laws, read off its shape's parts: how many
    distinct nonzero parts, how many nonzero parts, the largest part, the
    sum of the distinct parts and the area.
    """
    parts = path_shape_parts(path)
    nonzero = [v for v in parts if v]
    distinct = set(nonzero)
    largest = nonzero[0] if nonzero else 0
    return len(distinct), len(nonzero), largest, sum(distinct), sum(parts)


# The stats laws, in the order a word's bools are listed, each named as it
# fails.
_STATS_LAWS = (
    "distinct nonzero parts != des",
    "nonzero parts != n - lrmax",
    "largest part != last descent",
    "sum of distinct parts != maj",
    "area != border sum",
    "nonzero borders != descent set",
    "right-border reflection law fails",
)


def _stats_check_word(
    result: SuiteResult, word: tuple[int, ...], keys: dict, shapes: dict
) -> None:
    n = len(word)
    path = dyck_word(word)
    side = shapes.get(path)
    if side is None:
        side = shapes[path] = _path_stats(path)
    distinct, nonzero, largest, distinct_sum, area = side
    descents = descent_positions(word)
    a = left_borders(word)
    b = right_borders(word)
    reflected = tuple(n + 1 - b[n - 1 - t] for t in range(n))
    laws = (
        distinct == len(descents),
        nonzero == n - lr_maxima_count(word),
        largest == (descents[-1] if descents else 0),
        distinct_sum == sum(descents),
        area == sum(a),
        {v for v in a if v} == set(descents),
        reflected == left_borders(word[::-1]),
    )
    holds = all(laws)
    broken = None if holds else _STATS_LAWS[laws.index(False)]
    result.require(holds, "{} at {}", broken, word)
    if not 1 <= n <= 8:
        return
    tree = decreasing_tree_word(word)
    # One in-order walk of the links reads both claims: the labels it meets,
    # in order, and at each node k it meets, whether a left child hangs below
    # its right border position k + 1 and a right child below its left
    # border position k + 1.  Once the labels are the word's, the walk has
    # met each node once.
    values, left, right = tree.values, tree.left, tree.right
    met, stack, node, parents = [], [], tree.root, True
    while True:
        while node >= 0:
            stack.append(node)
            node = left[node]
        if not stack:
            break
        k = stack.pop()
        met.append(values[k])
        child, node = left[k], right[k]
        if (child >= 0 and b[child] != k + 1) or (node >= 0 and a[node] != k + 1):
            parents = False
    result.require(tuple(met) == word, "in-order traversal broken at {}", word)
    result.require(parents, "tree parent law fails at {}", word)


def suite_stats(result: SuiteResult, workers: int) -> None:
    _run_ranged(result, range(0, min(result.max_n, 9) + 1), workers, _stats_check_word)


# ---------------------------------------------------------------------------
# cp-pattern: border sum = inversions + uninterrupted 1-3-2 occurrences.
# ---------------------------------------------------------------------------


def _naive_barred_132(word: tuple[int, ...]) -> int:
    n = len(word)
    count = 0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if word[a] < word[c] < word[b] and max(word[a + 1 : c]) <= word[b]:
                    count += 1
    return count


def _cp_check_word(
    result: SuiteResult, word: tuple[int, ...], keys: dict, shapes: dict
) -> None:
    barred = count_barred_132_word(word)
    result.require(
        sum(left_borders(word)) == inversion_count(word) + barred,
        "border-sum identity fails at {}",
        word,
    )
    if len(word) <= 6:
        result.require(
            barred == _naive_barred_132(word),
            "windowed and naive barred counts differ at {}",
            word,
        )


def suite_cp_pattern(result: SuiteResult, workers: int) -> None:
    ns = range(0, min(result.max_n, 9) + 1)
    _run_ranged(result, ns, workers, _cp_check_word)
    for n in ns:
        for word in oracle.avoiders_132(n):
            result.require(
                sum(left_borders(word)) == inversion_count(word),
                "border sum != inversions for 1-3-2-avoider {}",
                word,
            )


# ---------------------------------------------------------------------------
# shapes: round trips between paths, shapes and borders; valley data; the
# restriction to 2-3-1-avoiders is a bijection onto Dyck words.
# ---------------------------------------------------------------------------


def _path_shapes(path: str) -> tuple:
    """
    The path's side of the shapes checks: its shape's parts, the borders
    rebuilt from that shape, its valleys and, unless it is empty, its first
    return.  :func:`shape_from_path` is the one check that the path is a
    Dyck word.
    """
    s = shape_from_path(path)
    first = _first_return(path) if path else None
    return s.parts, borders_from_shape(s), _valleys(path), first


def _shapes_check_word(
    result: SuiteResult, word: tuple[int, ...], keys: dict, shapes: dict
) -> None:
    n = len(word)
    path = dyck_word(word)
    side = shapes.get(path)
    if side is None:
        side = shapes[path] = _path_shapes(path)
    parts, borders, valleys, first = side
    a = left_borders(word)
    result.require(
        parts == tuple(sorted(a[1:], reverse=True)),
        "path shape != border shape at {}",
        word,
    )
    result.require(borders == a, "border reconstruction fails at {}", word)
    result.require(
        valleys == tuple(2 * d for d in descent_positions(word)),
        "valleys != doubled descents at {}",
        word,
    )
    if n:
        result.require(
            first == 2 * (word.index(n) + 1),
            "first return != twice the max position at {}",
            word,
        )


def suite_shapes(result: SuiteResult, workers: int) -> None:
    ns = range(0, min(result.max_n, 9) + 1)
    _run_ranged(result, ns, workers, _shapes_check_word)
    for n in ns:
        words = {dyck_word(w) for w in oracle.avoiders_231(n)}
        all_words = {path_from_shape(s) for s in oracle.all_shapes(n)}
        result.require(
            len(words) == _catalan(n) and words == all_words,
            f"paths of 2-3-1-avoiders are not all Dyck words at n={n}",
        )


# ---------------------------------------------------------------------------
# count: census versus the binomial product, and exact tiling.
# ---------------------------------------------------------------------------


def suite_count(result: SuiteResult, workers: int) -> None:
    for n in range(0, min(result.max_n, 8) + 1):
        census = oracle.shape_census(n, workers=workers)
        result.require(
            sum(census.values()) == factorial(n),
            f"census of S_{n} does not sum to {n}!",
        )
        expected_shapes = _catalan(n) if n else 1
        result.require(
            len(census) == expected_shapes,
            f"census of S_{n} has {len(census)} shapes, expected {expected_shapes}",
        )
        for parts, count in sorted(census.items()):
            s = ShapePartition(parts, n)
            # One tiling serves the product, as count_permutations_with_shape
            # takes it, and the tiling check.
            tiles = _rectangles(parts)
            result.require(
                _rectangle_count(tiles) == count,
                "binomial product != census count for shape '{}' (n={})",
                s,
                n,
            )
            result.require(
                _tiles_exactly(s, tiles),
                "rectangles do not tile shape '{}' one per corner",
                s,
            )


def _tiles_exactly(
    s: ShapePartition, tiles: list[tuple[int, int, int, int]]
) -> bool:
    """
    Whether the tiles (column, width, height, corner_row) of
    :func:`permshape.shapes._rectangles` cover the cells of the diagram of
    ``s``, one tile per corner, on bit masks: the cell (row r from the top,
    column c) is bit (r - 1) * n + c - 1, so a tile inside the staircase is
    ``height`` runs of ``width`` bits.  A tile reaching out of the staircase
    fails the tiling; one that meets an earlier tile raises ValueError at the
    first shared cell, (row from the top, column).
    """
    n = s.n
    diagram = covered = 0
    for r, length in enumerate(s.parts):
        diagram |= ((1 << length) - 1) << (r * n)
    for column, width, height, corner_row in tiles:
        if not (0 < width <= column < n and 0 < height <= corner_row < n):
            return False
        run = ((1 << width) - 1) << (column - width)
        tile = 0
        for r in range(corner_row - height, corner_row):
            tile |= run << (r * n)
        shared = covered & tile
        if shared:  # ascending bit order is the cells' row-by-row order
            r, c = divmod((shared & -shared).bit_length() - 1, n)
            raise ValueError(f"rectangles overlap at {(r + 1, c + 1)}")
        covered |= tile
    return covered == diagram and len(tiles) == len(s.distinct_nonzero())


# ---------------------------------------------------------------------------
# tableau: encode/decode round trip, injectivity, extreme fillings, pattern
# counts read off the filling.
# ---------------------------------------------------------------------------


def _tableau_check_word(
    result: SuiteResult, word: tuple[int, ...], keys: dict, shapes: dict
) -> None:
    n = len(word)
    t = _encode_word(word, shapes)
    layout = t._shape_layout
    columns = _columns(t.mask, n)
    # The dots are the word's inversions: row j holds the dot (a_j, j) and
    # none right of it, so a layout whose rows all end on a dot, with no dot
    # outside them, is the word's.
    corners = layout.corners
    result.require(
        _decode_word(columns) == word and t.mask & corners == corners,
        "round trip broken at {}",
        word,
    )
    # A filling decodes to one word, so at most one word per shape has the
    # full filling: its shape's extreme fillings are checked here, and the
    # word is counted per n.
    if t.mask == layout.allowed:
        _check_extreme_fillings(result, layout, word)
        keys[n] = keys.get(n, 0) + 1
    if n > 8:
        return
    key = (n, t.shape.parts, t.mask)
    keys[key] = keys.get(key, 0) + 1
    # Each claim compares a count read off the filling with one of the word.
    read_132, read_231 = _count_132_231_from_columns(columns)
    word_132, word_231 = _count_132_231(word)
    result.require(read_132 == word_132, "tableau 1-3-2 count wrong at {}", word)
    result.require(read_231 == word_231, "tableau 2-3-1 count wrong at {}", word)


def _check_extreme_fillings(
    result: SuiteResult, layout, word: tuple[int, ...]
) -> None:
    """
    The minimal and full fillings of the layout's shape, at ``word``, whose
    tableau is the full filling: the round trip has shown that the full
    filling decodes to ``word``, of the layout's shape.  The minimal filling
    is decoded here from its mask, with no tableau built, and checked as
    :func:`permshape.tableaux.decode_tableau` checks it; a decode that
    rejects it fails ``result``.
    """
    s = layout.shape
    low = _checked_decode(layout, _min_mask(layout))[0]
    result.require(
        not contains_231(low),
        "minimal filling of {} decodes to a 2-3-1 container {}",
        s,
        _OneLine(low),
    )
    result.require(
        not contains_132(word),
        "full filling of {} decodes to a 1-3-2 container {}",
        s,
        _OneLine(word),
    )
    result.require(
        shape_parts(low) == s.parts,
        "extreme fillings of {} do not preserve the shape",
        s,
    )


def suite_tableau(result: SuiteResult, workers: int) -> None:
    ns = range(0, min(result.max_n, 9) + 1)
    keys = _run_ranged(result, ns, workers, _tableau_check_word)
    # The keys: each distinct (n, shape, mask), and n for the full fillings.
    images = Counter(key[0] for key in keys if type(key) is tuple)
    for n in ns:
        if n <= 8:
            result.require(
                images[n] == factorial(n), f"encode is not injective on S_{n}"
            )
    # Any count of full fillings but one per shape means that some shape's
    # extreme fillings went unchecked.
    for n in ns:
        if keys.get(n, 0) != _catalan(n):
            raise ValueError(
                f"the extreme fillings met {keys.get(n, 0)} of the "
                f"{_catalan(n)} shapes of S_{n}"
            )


# ---------------------------------------------------------------------------
# bijection: the minimal-filling map is a statistics-preserving bijection
# from 1-3-2-avoiders onto 2-3-1-avoiders.
# ---------------------------------------------------------------------------


def _bijection_stats(
    word: tuple[int, ...], borders: tuple[int, ...]
) -> tuple[int, int, int, int, int]:
    """des, maj, lrmax, maxdes and lbsum of a word with left borders ``borders``."""
    descents = descent_positions(word)
    last = descents[-1] if descents else 0
    return len(descents), sum(descents), lr_maxima_count(word), last, sum(borders)


def suite_bijection(result: SuiteResult, workers: int) -> None:
    for n in range(0, min(result.max_n, 10) + 1):
        image: set[tuple[int, ...]] = set()
        # The avoiders are 1-3-2-free by construction, so each takes the
        # bijection's private route; each word's borders serve its shape and
        # its statistics.
        for word in oracle.avoiders_132(n):
            borders = left_borders(word)
            target, target_borders = _bijection_image(borders)
            result.require(
                not contains_231(target),
                "image {} of {} contains 2-3-1",
                _OneLine(target),
                word,
            )
            result.require(
                _bijection_stats(word, borders)
                == _bijection_stats(target, target_borders),
                "statistics not preserved on {} -> {}",
                word,
                _OneLine(target),
            )
            image.add(target)
        result.require(
            len(image) == _catalan(n),
            f"image size {len(image)} != Catalan({n}) = {_catalan(n)}",
        )


# ---------------------------------------------------------------------------
# poset: Bruhat order sanity, covers, and the equivalence with containment.
# ---------------------------------------------------------------------------


def suite_poset(result: SuiteResult, workers: int) -> None:
    max_n = result.max_n
    # Partial-order axioms via the dominance test.
    for n in range(1, min(max_n, 5) + 1):
        words = list(oracle.enumerate_sn(n))
        up = bruhat_up_sets(words)
        every = (1 << len(words)) - 1
        for a, w in enumerate(words):
            above = up[a]
            result.require(above >> a & 1, "reflexivity fails at {}", w)
            rest = above & every  # the b with w <= words[b], ascending
            while rest:
                low = rest & -rest
                rest ^= low
                b = low.bit_length() - 1
                if b != a:
                    result.require(
                        not up[b] >> a & 1,
                        "antisymmetry fails at {}, {}",
                        w,
                        words[b],
                    )
                result.require(
                    not up[b] & ~above, "transitivity fails at {}, {}", w, words[b]
                )
    # Dominance equals the transitive closure of covers: reach sets OR-ed
    # down the covers in decreasing inversion order.
    for n in range(1, min(max_n, 6) + 1):
        words = list(oracle.enumerate_sn(n))
        index = {w: a for a, w in enumerate(words)}
        reach = [0] * len(words)
        for w in sorted(words, key=inversion_count, reverse=True):
            a = index[w]
            reach[a] = 1 << a
            for cover in upper_covers(w):
                reach[a] |= reach[index[cover]]
        for a, up in enumerate(bruhat_up_sets(words)):
            diff = up ^ reach[a]
            if not diff:
                result.checks += len(words)
                continue
            b = (diff & -diff).bit_length() - 1
            result.checks += b  # the pairs before the first disagreement
            w, v = words[a], words[b]
            result.require(
                False, "dominance and cover closure disagree on {} <= {}", w, v
            )
    # Containment <=> strict order on 1-3-2-avoiders.
    for n in range(2, min(max_n, 7) + 1):
        report = verify_poset_equivalence(n)
        result.checks += report.pairs_checked
        result.require(
            report.equivalence_holds,
            f"containment/order equivalence fails at n={n}: "
            f"{report.counterexamples[:1]}",
        )
    # Covers between avoiders add exactly one corner cell to the shape.
    for n in range(2, min(max_n, 7) + 1):
        avoiders = {w for w in oracle.avoiders_132(n)}
        for word in avoiders:
            sp = shape_parts(word)
            for cover in upper_covers(word):
                if cover not in avoiders:
                    continue
                sq = shape_parts(cover)
                diffs = [i for i in range(n - 1) if sp[i] != sq[i]]
                result.require(
                    len(diffs) == 1 and sq[diffs[0]] == sp[diffs[0]] + 1,
                    "cover {} -> {} does not add one cell",
                    word,
                    cover,
                )
    # The two fixed reference pairs behave as documented.
    if max_n >= 4:
        p1243 = Permutation((1, 2, 4, 3))
        p1423 = Permutation((1, 4, 2, 3))
        result.require(
            bruhat_leq(p1243, p1423)
            and bruhat_covers(p1243, p1423)
            and not shape_contains(shape(p1243), shape(p1423))
            and not shape_contains(shape(p1423), shape(p1243)),
            "the comparable pair with incomparable shapes misbehaves",
        )
        p1342 = Permutation((1, 3, 4, 2))
        p2143 = Permutation((2, 1, 4, 3))
        result.require(
            shape_contains(shape(p1342), shape(p2143), strict=True)
            and not bruhat_leq(p1342, p2143)
            and not bruhat_leq(p2143, p1342),
            "the contained pair with incomparable order misbehaves",
        )


# ---------------------------------------------------------------------------
# parity: three independent routes to the even/odd imbalance.
# ---------------------------------------------------------------------------


def suite_parity(result: SuiteResult, workers: int) -> None:
    table = parity_table(20)
    for n in range(0, min(result.max_n, 8) + 1):
        # Balance first: the recursion builds it in, so only enumeration breaks it.
        even, odd = oracle.distribution(n, "lbsum", workers=workers).parity_split()
        if n % 2 == 0 and n >= 2:
            result.require(even == odd, f"even/odd counts differ at even n={n}")
        result.require(
            (even, odd) == (table.even[n], table.odd[n]),
            f"enumerated parity split disagrees with the recursion at n={n}",
        )
    for k, t in enumerate(tangent_numbers(7), start=1):
        result.require(
            t == table.delta[2 * k - 1],
            "tangent number {} does not match the imbalance",
            k,
        )
    for n in range(0, 21):
        result.require(
            lbsum_polynomial(n).evaluate(-1) == table.delta[n],
            f"F_{n}(-1) disagrees with the imbalance",
        )


# ---------------------------------------------------------------------------
# genfun: polynomial identities against enumeration and between themselves.
# ---------------------------------------------------------------------------


def _genfun_check_word(
    result: SuiteResult, word: tuple[int, ...], keys: dict, shapes: dict
) -> None:
    """
    Count the word's exponents of G_n, (n, area, des, last descent,
    n - lrmax), or (n, area) from n = 9 on, and check the splitting law at
    its maximum.  Left borders read only the relative order, so the two
    sides of the maximum need no standardizing.
    """
    n = len(word)
    area = sum(left_borders(word))
    if n <= 8:
        descents = descent_positions(word)
        last = descents[-1] if descents else 0
        key = (n, area, len(descents), last, n - lr_maxima_count(word))
    else:
        key = (n, area)
    keys[key] = keys.get(key, 0) + 1
    if not n:
        return
    k = word.index(n) + 1
    left, right = word[: k - 1], word[k:]
    result.require(
        area == sum(left_borders(left)) + sum(left_borders(right)) + k * (n - k),
        "splitting law fails at {}",
        word,
    )


def suite_genfun(result: SuiteResult, workers: int) -> None:
    max_n = result.max_n
    ns = range(0, min(max_n, 9) + 1)
    # One walk of S_0..S_9 at most: the splitting law per word, and the
    # joint counts of G_n for n <= 8, whose first coordinate is the area.
    counts = _run_ranged(result, ns, workers, _genfun_check_word)
    joints: dict[int, dict[tuple[int, ...], int]] = {n: {} for n in ns}
    areas: dict[int, dict[int, int]] = {n: {} for n in ns}
    for (n, area, *rest), count in counts.items():
        areas[n][area] = areas[n].get(area, 0) + count
        if rest:
            joints[n][(area, *rest)] = count
    for n in ns:
        result.require(
            lbsum_polynomial(n).to_counts() == areas[n],
            f"F_{n} disagrees with the enumerated distribution",
        )
    for n in range(0, 21):
        result.require(
            lbsum_polynomial(n).evaluate(1) == factorial(n),
            f"F_{n}(1) != {n}!",
        )
    for n in range(0, 13):
        f = lbsum_polynomial(n)
        result.require(
            f.degree == comb(n, 2) and f.coefficient(comb(n, 2)) == 1,
            f"degree bound fails for F_{n}",
        )
        result.require(
            quad_polynomial(n).marginal("x") == f, f"G_{n}(x,1,1,1) != F_{n}"
        )
    for n in range(0, min(max_n, 8) + 1):
        result.require(
            dict(quad_polynomial(n).terms()) == joints[n],
            f"G_{n} disagrees with the enumerated joint distribution",
        )
    for n in range(0, min(max_n, 10) + 1):
        result.require(
            q_catalan(n).to_counts()
            == oracle.distribution(n, "inv", avoid="132").counts,
            f"q-Catalan {n} disagrees with inversions over the avoiders",
        )
    for n in range(0, 16):
        result.require(
            q_catalan_alt(n) == q_catalan(n).reversed_on_degree(comb(n, 2)),
            f"the two q-Catalan conventions are not degree-reversals at n={n}",
        )
    for n in range(0, 21):
        result.require(
            q_catalan(n).evaluate(1) == _catalan(n),
            f"q-Catalan {n} does not sum to the Catalan number",
        )
    for n in range(2, 51):
        moments(n)  # the closed form against the recursion
        result.checks += 1
    for n in range(2, min(max_n, 8) + 1):
        total = factorial(n)
        mean = Fraction(sum(v * c for v, c in areas[n].items()), total)
        second = Fraction(sum(v * v * c for v, c in areas[n].items()), total)
        report = moments(n)
        result.require(
            report.mean == mean and report.variance == second - mean * mean,
            f"moments disagree with enumeration at n={n}",
        )


def suite_series(result: SuiteResult, workers: int) -> None:
    report = verify_series_identities(result.max_n)
    for k, ok in enumerate(report.equation_status):
        result.require(
            ok,
            "functional equation residual at z^{}: {}",
            k,
            report.failing_residual,
        )
    for k, ok in enumerate(report.tanh_status):
        result.require(ok, "tanh specialization mismatch at z^{}", k)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

_SUITES = {
    "stats": suite_stats,
    "cp-pattern": suite_cp_pattern,
    "shapes": suite_shapes,
    "count": suite_count,
    "tableau": suite_tableau,
    "bijection": suite_bijection,
    "poset": suite_poset,
    "parity": suite_parity,
    "genfun": suite_genfun,
    "series": suite_series,
}
SUITE_NAMES = tuple(_SUITES)


def _check_input(name: str, depth: int, workers: int) -> None:
    """Bad input raises ValueError here, before a suite's boundary."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if name == "series" and not 1 <= depth <= SERIES_MAX_ORDER:
        raise ValueError(f"series order must be in 1..{SERIES_MAX_ORDER}, got {depth}")
    oracle.effective_workers(workers, 0)  # also for suites that never fan out


def run_suite(name: str, max_n: int, workers: int = 1) -> SuiteResult:
    """Run one suite to depth ``max_n`` (the order, for ``series``), timed."""
    _check_input(name, max_n, workers)
    result = SuiteResult(name, max_n)
    started = time.perf_counter()
    with _boundary(result):
        _SUITES[name](result, workers)
    result.seconds = time.perf_counter() - started
    return result


def run_suites(
    selection, max_n: int, workers: int = 1, order: int = 8
) -> list[SuiteResult]:
    names = (SUITE_NAMES if item == "all" else (item,) for item in selection)
    runs = [
        (name, order if name == "series" else max_n)
        for name in dict.fromkeys(chain.from_iterable(names))
    ]
    for name, depth in runs:  # every input is checked before any suite runs
        _check_input(name, depth, workers)
    return [run_suite(name, depth, workers) for name, depth in runs]
