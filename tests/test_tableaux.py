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
    count_pattern_word,
)
from permshape.shapes import ShapePartition, shape_parts
from permshape.tableaux import (
    FilledTableau,
    InconsistentFillingError,
    _count_132_231_from_tableau,
    _decode_word,
    _encode_word,
    bijection_132_to_231,
    count_132_from_tableau,
    count_231_from_tableau,
    decode_tableau,
    encode_tableau,
    is_valid_filling,
    max_filling,
    min_filling,
    row_labels_for,
    tableau_from_json,
    tableau_to_json,
)

from naive_oracles import naive_inversions, naive_pattern_count

RUNNING = Permutation((5, 3, 1, 4, 8, 2, 7, 6))


def perms(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    )


class TestEncode:
    def test_running_example(self):
        t = encode_tableau(RUNNING)
        assert t.row_labels == (2, 4, 3, 6, 7, 8)
        assert len(t.dots) == 11
        assert t.column_dot_counts() == (4, 2, 0, 1, 3, 0, 1, 0)

    def test_identity(self):
        t = encode_tableau(Permutation((1, 2, 3)))
        assert t.row_labels == () and t.dots == frozenset()

    def test_transposition(self):
        t = encode_tableau(Permutation((2, 1)))
        assert t.row_labels == (2,)
        assert t.dots == frozenset({(1, 2)})

    @given(perms())
    def test_dots_are_exactly_the_inversions(self, word):
        t = encode_tableau(Permutation(word))
        inversions = {
            (i + 1, j + 1)
            for i in range(len(word))
            for j in range(i + 1, len(word))
            if word[i] > word[j]
        }
        assert t.dots == inversions


class TestDecode:
    def test_running_example(self):
        assert decode_tableau(encode_tableau(RUNNING)).entries == RUNNING.entries

    def test_empty_tableau(self):
        t = FilledTableau(ShapePartition((0, 0, 0), 4), (), frozenset())
        assert decode_tableau(t).entries == (1, 2, 3, 4)

    def test_min_filling_decode(self):
        s = ShapePartition.from_text("7,5,5,2,1,1,0")
        t = min_filling(s)
        assert t.column_dot_counts() == (3, 1, 0, 0, 3, 0, 1, 0)
        assert decode_tableau(t).entries == (4, 2, 1, 3, 8, 5, 7, 6)

    def test_inconsistent_dots_rejected(self):
        s = ShapePartition((1, 1, 0), 4)
        # Column counts decode to 2134, whose inversion set is {(1, 2)}.
        t = FilledTableau(s, row_labels_for(s), frozenset({(1, 3)}))
        with pytest.raises(InconsistentFillingError):
            decode_tableau(t)
        assert not is_valid_filling(t)

    def test_wrong_host_shape_rejected(self):
        # The dots are a genuine inversion set, but 2134 has shape (1,0,0),
        # so hosting them on (1,1,0) is not realizable either.
        s = ShapePartition((1, 1, 0), 4)
        t = FilledTableau(s, row_labels_for(s), frozenset({(1, 2)}))
        with pytest.raises(InconsistentFillingError):
            decode_tableau(t)
        assert not is_valid_filling(t)

    def test_roundtrip_exhaustive(self):
        for n in range(7):
            seen = set()
            for word in itertools.permutations(range(1, n + 1)):
                t = encode_tableau(Permutation(word))
                assert decode_tableau(t).entries == word
                seen.add((t.shape.parts, t.dots))
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
                assert _decode_word(t) == decode_tableau(t).entries == word
        assert len(shapes) == sum(len(list(all_shapes(n))) for n in range(8)) == 626

    @given(big_perms())
    def test_equals_public_up_to_64(self, word):
        t = encode_tableau(Permutation(word))
        assert _encode_word(word, {}) == t
        assert _decode_word(t) == decode_tableau(t).entries == word

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


class TestExtremeFillings:
    def test_min_running_example(self):
        s = ShapePartition.from_text("7,5,5,2,1,1,0")
        assert min_filling(s).dots == frozenset(
            {(1, 2), (1, 4), (1, 3), (2, 3), (5, 6), (5, 7), (5, 8), (7, 8)}
        )

    def test_min_all_zero(self):
        assert min_filling(ShapePartition((0, 0), 3)).dots == frozenset()

    def test_min_2_2_0(self):
        t = min_filling(ShapePartition((2, 2, 0), 4))
        assert t.dots == frozenset({(2, 3), (2, 4)})
        assert decode_tableau(t).entries == (1, 4, 2, 3)

    def test_max_2_2_0(self):
        t = max_filling(ShapePartition((2, 2, 0), 4))
        assert t.column_dot_counts() == (2, 2, 0, 0)
        assert decode_tableau(t).entries == (3, 4, 1, 2)

    def test_max_all_zero_gives_identity(self):
        t = max_filling(ShapePartition((0, 0, 0), 4))
        assert decode_tableau(t).entries == (1, 2, 3, 4)

    def test_max_staircase_gives_reversal(self):
        t = max_filling(ShapePartition((2, 1), 3))
        assert decode_tableau(t).entries == (3, 2, 1)

    def test_avoidance_for_all_shapes(self):
        for n in range(8):
            for s in all_shapes(n):
                low = decode_tableau(min_filling(s))
                high = decode_tableau(max_filling(s))
                assert not contains_231(low.entries)
                assert not contains_132(high.entries)
                assert shape_parts(low.entries) == s.parts
                assert shape_parts(high.entries) == s.parts


class TestBijection:
    def test_example(self):
        assert bijection_132_to_231(Permutation((3, 4, 1, 2))).entries == (1, 4, 2, 3)

    def test_identity_fixed(self):
        assert bijection_132_to_231(Permutation((1, 2, 3))).entries == (1, 2, 3)

    def test_reversal_fixed(self):
        assert bijection_132_to_231(Permutation((3, 2, 1))).entries == (3, 2, 1)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            bijection_132_to_231(Permutation((1, 3, 2)))

    def test_statistics_preserved_exhaustively(self):
        from permshape.oracle import avoiders_132
        from permshape.permutations import stat_vector

        for n in range(8):
            image = set()
            for word in avoiders_132(n):
                q = bijection_132_to_231(Permutation(word))
                sv, tv = stat_vector(word), stat_vector(q.entries)
                assert (sv.des, sv.maj, sv.lrmax, sv.maxdes, sv.lbsum) == (
                    tv.des,
                    tv.maj,
                    tv.lrmax,
                    tv.maxdes,
                    tv.lbsum,
                )
                image.add(q.entries)
            assert len(image) == len(list(avoiders_132(n)))


class TestPatternCountsFromFilling:
    def test_running_example(self):
        t = encode_tableau(RUNNING)
        assert count_132_from_tableau(t) == count_pattern_word(
            RUNNING.entries, (1, 3, 2)
        )

    def test_max_filling_has_no_132(self):
        for n in range(7):
            for s in all_shapes(n):
                assert count_132_from_tableau(max_filling(s)) == 0

    def test_tiny(self):
        t = encode_tableau(Permutation((1, 3, 2)))
        assert count_132_from_tableau(t) == 1

    @given(perms(6))
    def test_both_counts_match_oracle(self, word):
        t = encode_tableau(Permutation(word))
        assert count_132_from_tableau(t) == naive_pattern_count(word, (1, 3, 2))
        assert count_231_from_tableau(t) == naive_pattern_count(word, (2, 3, 1))

    # Row masks are read off the mask's digits; sizes across byte boundaries.
    @pytest.mark.parametrize("n", [9, 16, 17, 30])
    def test_both_counts_past_one_byte(self, n):
        entries = list(range(1, n + 1))
        random.Random(n).shuffle(entries)
        word = tuple(entries)
        t = encode_tableau(Permutation(word))
        assert count_132_from_tableau(t) == naive_pattern_count(word, (1, 3, 2))
        assert count_231_from_tableau(t) == naive_pattern_count(word, (2, 3, 1))


class TestFusedPatternCounts:
    """
    The tableau walk of verify reads both counts off one pass per side;
    each side against the separate counts, on every word of S_0..S_8.
    """

    def test_every_word_to_s8(self):
        shapes = {}
        for n in range(9):
            for word in enumerate_sn(n):
                t = _encode_word(word, shapes)
                expected = (
                    count_pattern_word(word, (1, 3, 2)),
                    count_pattern_word(word, (2, 3, 1)),
                )
                assert _count_132_231(word) == expected
                assert count_132_from_tableau(t) == expected[0]
                assert count_231_from_tableau(t) == expected[1]
                assert _count_132_231_from_tableau(t) == expected

    @given(perms(64))
    def test_up_to_64(self, word):
        t = encode_tableau(Permutation(word))
        expected = (
            count_pattern_word(word, (1, 3, 2)),
            count_pattern_word(word, (2, 3, 1)),
        )
        assert _count_132_231(word) == expected
        assert _count_132_231_from_tableau(t) == expected
        assert expected == (count_132_from_tableau(t), count_231_from_tableau(t))


class TestJson:
    @given(perms(64))
    def test_dots_are_the_sorted_inversions(self, word):
        t = encode_tableau(Permutation(word))
        data = tableau_to_json(t)
        assert data["dots"] == sorted(naive_inversions(word))
        rebuilt = FilledTableau(t.shape, t.row_labels, t.dots)
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
                assert t.dots == frozenset(naive_inversions(word))


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
            FilledTableau(t.shape, t.row_labels, t.dots | {dot})

    def test_decoding_is_structurally_total(self):
        # Column i reaches at most the rows labeled j > i, so its dot count
        # never exceeds the values still available; every structurally valid
        # filling decodes to some permutation.
        for n in range(7):
            for s in all_shapes(n):
                t = max_filling(s)
                for i, c in enumerate(t.column_dot_counts(), start=1):
                    assert c <= n - i
                decode_tableau(t)
