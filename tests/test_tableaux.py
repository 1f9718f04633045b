import itertools
import json
import random
import re
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permshape.oracle import all_shapes, enumerate_sn
from permshape.permutations import (
    Permutation,
    _count_132_231,
    contains_132,
    contains_231,
    left_borders,
)
from permshape.shapes import ShapePartition, shape_parts
from permshape.tableaux import (
    FilledTableau,
    InconsistentFillingError,
    _bijection_image,
    _checked_decode,
    _columns,
    _count_132_231_from_columns,
    _decode_word,
    _encode_word,
    _layout,
    _min_mask,
    decode_tableau,
    encode_tableau,
    tableau_from_json,
    tableau_to_json,
)

from naive_oracles import (
    naive_132_231,
    naive_column_counts,
    naive_dots,
    naive_inversions,
    naive_pattern_count,
    naive_row_labels,
)

RUNNING = Permutation((5, 3, 1, 4, 8, 2, 7, 6))


def perms(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    )


def dots(t):
    return naive_dots(t.mask, t.n)


def pattern_counts(t):
    """The 1-3-2 and 2-3-1 counts read off a tableau, as the tableau walk reads them."""
    return _count_132_231_from_columns(_columns(t.mask, t.n))


def decoded(s, mask):
    """The word a filling mask of the shape decodes to, checked as decode_tableau checks it."""
    return _checked_decode(_layout(s), mask)[0]


def min_mask(s):
    return _min_mask(_layout(s))


def full_mask(s):
    return _layout(s).allowed


class TestEncode:
    def test_running_example(self):
        t = encode_tableau(RUNNING)
        assert t.row_labels == (2, 4, 3, 6, 7, 8)
        assert len(dots(t)) == 11
        assert naive_column_counts(t.mask, t.n) == (4, 2, 0, 1, 3, 0, 1, 0)

    def test_identity(self):
        t = encode_tableau(Permutation((1, 2, 3)))
        assert t.row_labels == () and dots(t) == frozenset()

    def test_transposition(self):
        t = encode_tableau(Permutation((2, 1)))
        assert t.row_labels == (2,)
        assert dots(t) == frozenset({(1, 2)})

    @given(perms())
    def test_dots_are_exactly_the_inversions(self, word):
        t = encode_tableau(Permutation(word))
        inversions = {
            (i + 1, j + 1)
            for i in range(len(word))
            for j in range(i + 1, len(word))
            if word[i] > word[j]
        }
        assert dots(t) == inversions


class TestDecode:
    def test_running_example(self):
        assert decode_tableau(encode_tableau(RUNNING)).entries == RUNNING.entries

    def test_empty_tableau(self):
        t = FilledTableau(ShapePartition((0, 0, 0), 4), (), frozenset())
        assert decode_tableau(t).entries == (1, 2, 3, 4)

    def test_min_filling_decode(self):
        s = ShapePartition.from_text("7,5,5,2,1,1,0")
        assert naive_column_counts(min_mask(s), s.n) == (3, 1, 0, 0, 3, 0, 1, 0)
        assert decoded(s, min_mask(s)) == (4, 2, 1, 3, 8, 5, 7, 6)

    def test_inconsistent_dots_rejected(self):
        s = ShapePartition((1, 1, 0), 4)
        # Column counts decode to 2134, whose inversion set is {(1, 2)}.
        t = FilledTableau(s, naive_row_labels(s), frozenset({(1, 3)}))
        with pytest.raises(InconsistentFillingError):
            decode_tableau(t)

    def test_wrong_host_shape_rejected(self):
        # The dots are a genuine inversion set, but 2134 has shape (1,0,0),
        # so hosting them on (1,1,0) is not realizable either.
        s = ShapePartition((1, 1, 0), 4)
        t = FilledTableau(s, naive_row_labels(s), frozenset({(1, 2)}))
        with pytest.raises(InconsistentFillingError):
            decode_tableau(t)

    def test_roundtrip_exhaustive(self):
        for n in range(7):
            seen = set()
            for word in itertools.permutations(range(1, n + 1)):
                t = encode_tableau(Permutation(word))
                assert decode_tableau(t).entries == word
                seen.add((t.shape.parts, dots(t)))
            assert len(seen) == factorial(n)


def big_perms(max_n=64):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1))).map(tuple)
    )


# The walks' unchecked route is the public one without its checks.
class TestPrivateRoute:
    def test_equals_public_on_s0_to_s7(self):
        shapes = {}
        for n in range(8):
            for word in itertools.permutations(range(1, n + 1)):
                t = encode_tableau(Permutation(word))
                assert _encode_word(word, {}) == t
                assert _encode_word(word, shapes) == t
                columns = _columns(t.mask, n)
                assert _decode_word(columns) == decode_tableau(t).entries == word
        assert len(shapes) == sum(len(list(all_shapes(n))) for n in range(8)) == 626

    @given(big_perms())
    def test_equals_public_up_to_64(self, word):
        t = encode_tableau(Permutation(word))
        assert _encode_word(word, {}) == t
        columns = _columns(t.mask, t.n)
        assert _decode_word(columns) == decode_tableau(t).entries == word

    def test_a_held_shape_still_checks_the_labels(self):
        # A dict entry for the wrong shape must not let a word through.  A
        # word that meets a held entry is compared by its borders, which fix
        # its labels: borders (0, 0, 1) would label the row 3, not 2.
        shapes = {}
        _encode_word((2, 1, 3), shapes)  # shape (1, 0), borders (0, 1, 0)
        ((key, layout),) = shapes.items()
        shapes[key] = layout._replace(borders=(0, 0, 1))
        with pytest.raises(ValueError, match="left borders"):
            _encode_word((2, 1, 3), shapes)

    def test_a_new_shape_checks_the_borders_too(self):
        # With a fresh dict, as on the map path, the word creates the entry:
        # borders (0, 0, 1) give the shape (1, 0), whose own borders are
        # (0, 1, 0), so they are refused before any label is read off them.
        with pytest.raises(
            ValueError, match=r"left borders \(0, 0, 1\) do not match the shape"
        ):
            _encode_word((2, 1, 3), {}, (0, 0, 1))


# A shape's extreme fillings are masks: the minimal one, _min_mask, and the
# full one, the layout's cells.
class TestExtremeFillings:
    def test_min_running_example(self):
        s = ShapePartition.from_text("7,5,5,2,1,1,0")
        assert naive_dots(min_mask(s), s.n) == frozenset(
            {(1, 2), (1, 4), (1, 3), (2, 3), (5, 6), (5, 7), (5, 8), (7, 8)}
        )

    def test_min_all_zero(self):
        assert min_mask(ShapePartition((0, 0), 3)) == 0

    def test_min_2_2_0(self):
        s = ShapePartition((2, 2, 0), 4)
        assert naive_dots(min_mask(s), 4) == frozenset({(2, 3), (2, 4)})
        assert decoded(s, min_mask(s)) == (1, 4, 2, 3)

    def test_max_2_2_0(self):
        s = ShapePartition((2, 2, 0), 4)
        assert naive_column_counts(full_mask(s), 4) == (2, 2, 0, 0)
        assert decoded(s, full_mask(s)) == (3, 4, 1, 2)

    def test_max_all_zero_gives_identity(self):
        s = ShapePartition((0, 0, 0), 4)
        assert decoded(s, full_mask(s)) == (1, 2, 3, 4)

    def test_max_staircase_gives_reversal(self):
        s = ShapePartition((2, 1), 3)
        assert decoded(s, full_mask(s)) == (3, 2, 1)

    def test_avoidance_for_all_shapes(self):
        for n in range(8):
            for s in all_shapes(n):
                low, high = decoded(s, min_mask(s)), decoded(s, full_mask(s))
                assert not contains_231(low)
                assert not contains_132(high)
                assert shape_parts(low) == s.parts
                assert shape_parts(high) == s.parts


# The bijection from 1-3-2- to 2-3-1-avoiders, fed a word's left borders.
class TestBijection:
    def test_example(self):
        assert _bijection_image(left_borders((3, 4, 1, 2)))[0] == (1, 4, 2, 3)

    def test_identity_fixed(self):
        assert _bijection_image(left_borders((1, 2, 3)))[0] == (1, 2, 3)

    def test_reversal_fixed(self):
        assert _bijection_image(left_borders((3, 2, 1)))[0] == (3, 2, 1)

    def test_statistics_preserved_exhaustively(self):
        from permshape.oracle import avoiders_132
        from permshape.permutations import stat_vector

        for n in range(8):
            image = set()
            for word in avoiders_132(n):
                q = _bijection_image(left_borders(word))[0]
                sv, tv = stat_vector(word), stat_vector(q)
                assert (sv.des, sv.maj, sv.lrmax, sv.maxdes, sv.lbsum) == (
                    tv.des,
                    tv.maj,
                    tv.lrmax,
                    tv.maxdes,
                    tv.lbsum,
                )
                image.add(q)
            assert len(image) == len(list(avoiders_132(n)))


class TestPatternCountsFromFilling:
    def test_running_example(self):
        t = encode_tableau(RUNNING)
        assert pattern_counts(t) == naive_132_231(RUNNING.entries)

    def test_max_filling_has_no_132(self):
        for n in range(7):
            for s in all_shapes(n):
                assert _count_132_231_from_columns(_columns(full_mask(s), n))[0] == 0

    def test_tiny(self):
        t = encode_tableau(Permutation((1, 3, 2)))
        assert pattern_counts(t) == (1, 0)

    @given(perms(6))
    def test_both_counts_match_oracle(self, word):
        t = encode_tableau(Permutation(word))
        assert pattern_counts(t) == (
            naive_pattern_count(word, (1, 3, 2)),
            naive_pattern_count(word, (2, 3, 1)),
        )

    # Row masks are read off the mask's digits; sizes across byte boundaries.
    @pytest.mark.parametrize("n", [9, 16, 17, 30])
    def test_both_counts_past_one_byte(self, n):
        entries = list(range(1, n + 1))
        random.Random(n).shuffle(entries)
        word = tuple(entries)
        t = encode_tableau(Permutation(word))
        assert pattern_counts(t) == (
            naive_pattern_count(word, (1, 3, 2)),
            naive_pattern_count(word, (2, 3, 1)),
        )


class TestFusedPatternCounts:
    """
    The tableau walk of verify reads both counts off one pass per side;
    each side against the triple loop, on every word of S_0..S_8.
    """

    def test_every_word_to_s8(self):
        shapes = {}
        for n in range(9):
            for word in enumerate_sn(n):
                t = _encode_word(word, shapes)
                expected = naive_132_231(word)
                assert _count_132_231(word) == expected
                assert pattern_counts(t) == expected

    @given(perms(64))
    def test_up_to_64(self, word):
        t = encode_tableau(Permutation(word))
        expected = naive_132_231(word)
        assert _count_132_231(word) == expected
        assert pattern_counts(t) == expected


class TestJson:
    @given(perms(64))
    def test_dots_are_the_sorted_inversions(self, word):
        t = encode_tableau(Permutation(word))
        data = tableau_to_json(t)
        assert data["dots"] == sorted(naive_inversions(word))
        rebuilt = FilledTableau(t.shape, t.row_labels, dots(t))
        assert rebuilt == t and hash(rebuilt) == hash(t)

    def test_roundtrip(self):
        t = encode_tableau(RUNNING)
        data = json.loads(json.dumps(tableau_to_json(t)))
        assert tableau_from_json(data) == t

    # Every malformed document is a ValueError, and JSON true is no integer.
    @pytest.mark.parametrize(
        "data, message",
        [
            ({"n": 2, "shape": [0.5], "row_labels": [2], "dots": []}, "needs shape"),
            ({"n": 2, "shape": [1], "dots": []}, "needs row_labels"),
            ({"n": 2, "shape": [True], "row_labels": [2], "dots": [[True, 2]]}, "needs shape"),
            ({"n": 2, "shape": [1], "row_labels": [2], "dots": [[True, 2]]}, "needs dots"),
            ({"n": 2, "shape": [1], "row_labels": [True], "dots": []}, "needs row_labels"),
            ({"n": True, "shape": [], "row_labels": [], "dots": []}, "needs an int n"),
            ({"n": "2", "shape": [1], "row_labels": [2], "dots": []}, "needs an int n"),
            ({"n": 2, "shape": [1], "row_labels": [2], "dots": [[1]]}, "needs dots"),
            ({"n": 2, "shape": [1], "row_labels": [2], "dots": {"1": 2}}, "needs dots"),
            ([2, [1], [2], []], "is a dict"),
        ],
    )
    def test_malformed_document(self, data, message):
        with pytest.raises(ValueError, match=f"^a tableau document {message}"):
            tableau_from_json(data)

    def test_fields(self):
        data = tableau_to_json(encode_tableau(Permutation((2, 1))))
        assert data == {"n": 2, "shape": [1], "row_labels": [2], "dots": [(1, 2)]}

    # Sizes whose columns straddle bytes, and sizes past one 64-bit word.
    @pytest.mark.parametrize("n", [9, 63, 65, 129])
    def test_dots_off_byte_boundaries(self, n):
        for seed in range(3):
            entries = list(range(1, n + 1))
            random.Random(seed).shuffle(entries)
            for word in (tuple(entries), tuple(range(n, 0, -1))):
                t = encode_tableau(Permutation(word))
                assert tableau_to_json(t)["dots"] == sorted(naive_inversions(word))
                assert dots(t) == frozenset(naive_inversions(word))


class TestStructuralValidation:
    def test_bad_labels_rejected(self):
        s = ShapePartition((1,), 2)
        with pytest.raises(ValueError):
            FilledTableau(s, (3,), frozenset())

    def test_dot_outside_row_rejected(self):
        s = ShapePartition((1,), 2)
        with pytest.raises(ValueError):
            FilledTableau(s, (2,), frozenset({(2, 2)}))

    @pytest.mark.parametrize(
        "dot", [(1, 9), (9, 1), (0, 2), (2, 0), (-1, 2)], ids=str
    )
    def test_out_of_range_dot_rejected_not_aliased(self, dot):
        # n = 8: packed without a range check, (1, 9) is bit 8, the cell
        # (2, 1), and (2, 0) is bit 7, the cell (1, 8) inside row 8.
        t = encode_tableau(RUNNING)
        with pytest.raises(ValueError, match=re.escape(f"dot {dot}")):
            FilledTableau(t.shape, t.row_labels, dots(t) | {dot})

    # A bool or a float equal to a label or coordinate is no int; packed, the
    # dot (True, 2) would be the dot (1, 2).
    @pytest.mark.parametrize(
        "labels, dots, message",
        [
            ((2,), [(True, 2)], "non-integer dot (True, 2)"),
            ((2,), [(1, 2.0)], "non-integer dot (1, 2.0)"),
            ((2.0,), [(1, 2)], "row labels (2.0,) do not match the shape"),
        ],
        ids=["bool-column", "float-label", "float-row-label"],
    )
    def test_non_int_rejected(self, labels, dots, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FilledTableau(ShapePartition((1,), 2), labels, dots)

    def test_decoding_is_structurally_total(self):
        # Column i reaches at most the rows labeled j > i, so its dot count
        # never exceeds the values still available; every structurally valid
        # filling decodes to some permutation.
        for n in range(7):
            for s in all_shapes(n):
                for i, c in enumerate(naive_column_counts(full_mask(s), n), start=1):
                    assert c <= n - i
                decoded(s, full_mask(s))
