import itertools
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permshape.oracle import all_shapes
from permshape.permutations import Permutation, left_borders
from permshape.shapes import (
    InvalidDyckWordError,
    ShapePartition,
    _first_return,
    _valleys,
    borders_from_shape,
    count_permutations_with_shape,
    dyck_word,
    first_return,
    is_dyck_word,
    path_from_shape,
    rectangle_decomposition,
    shape,
    shape_from_path,
    shape_parts,
    valleys,
)

from naive_oracles import naive_borders_from_shape, naive_dyck_word

RUNNING = (5, 3, 1, 4, 8, 2, 7, 6)
RUNNING_WORD = "uuruururrruurrur"


def perms(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    )


@st.composite
def staircase_shapes(draw, max_n=64):
    """Any partition inside the staircase of some n <= max_n."""
    n = draw(st.integers(0, max_n))
    parts: list[int] = []
    for j in range(max(n - 1, 0)):
        bound = min(parts[-1] if parts else n - 1, n - 1 - j)
        parts.append(draw(st.integers(0, bound)))
    return ShapePartition(tuple(parts), n)


class TestDyckWord:
    def test_running_example(self):
        assert dyck_word(RUNNING) == RUNNING_WORD
        assert len(RUNNING_WORD) == 16

    def test_identity(self):
        assert dyck_word((1, 2, 3, 4)) == "uuuurrrr"

    def test_singleton(self):
        assert dyck_word((1,)) == "ur"

    def test_empty(self):
        assert dyck_word(()) == ""

    def test_long_words_with_the_maximum_at_an_end(self):
        # Deeper than the interpreter's recursion limit on either side.
        assert dyck_word(range(1, 3001)) == "u" * 3000 + "r" * 3000
        assert dyck_word(range(3000, 0, -1)) == "ur" * 3000

    def test_matches_the_recursive_definition(self):
        for n in range(9):
            for word in itertools.permutations(range(1, n + 1)):
                assert dyck_word(word) == naive_dyck_word(word)

    @given(st.lists(st.integers(1, 4), max_size=12))
    def test_the_first_maximum_splits_on_ties(self, word):
        assert dyck_word(word) == naive_dyck_word(tuple(word))

    def test_not_injective_on_all_perms(self):
        assert dyck_word((1, 3, 2)) == dyck_word((2, 3, 1)) == "uurrur"

    @given(perms())
    def test_always_valid(self, word):
        path = dyck_word(word)
        assert is_dyck_word(path)
        assert len(path) == 2 * len(word)

    def test_validation(self):
        assert not is_dyck_word("ru")
        assert not is_dyck_word("uurr u")
        with pytest.raises(InvalidDyckWordError):
            shape_from_path("ur" + "r")


class TestShape:
    def test_running_example(self):
        assert shape(Permutation(RUNNING)).parts == (7, 5, 5, 2, 1, 1, 0)

    def test_identity(self):
        assert shape(Permutation((1, 2, 3, 4))).parts == (0, 0, 0)

    def test_1423(self):
        assert shape(Permutation((1, 4, 2, 3))).parts == (2, 2, 0)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            ShapePartition((3,), 2)  # exceeds the staircase
        with pytest.raises(ValueError):
            ShapePartition((1, 2), 3)  # not weakly decreasing
        with pytest.raises(ValueError):
            ShapePartition((1,), 3)  # wrong number of parts

    # Every part and n must be an int, as every entry of a Permutation is.
    @pytest.mark.parametrize(
        "parts, n, message",
        [
            ((0.5,), 2, "non-integer part 0.5"),
            ((True,), 2, "non-integer part True"),
            (("1",), 2, "non-integer part '1'"),
            ((1,), 2.0, "non-integer n 2.0"),
            ((), True, "non-integer n True"),
        ],
        ids=["float-part", "bool-part", "str-part", "float-n", "bool-n"],
    )
    def test_non_int_rejected(self, parts, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ShapePartition(parts, n)

    def test_text_roundtrip(self):
        s = ShapePartition.from_text("7,5,5,2,1,1,0")
        assert s.n == 8 and s.to_text() == "7,5,5,2,1,1,0"
        assert ShapePartition.from_text("", n=1).parts == ()

    def test_accessors(self):
        s = ShapePartition.from_text("7,5,5,2,1,1,0")
        assert s.area == 21
        assert s.largest == 7
        assert s.distinct_nonzero() == (7, 5, 2, 1)


class TestShapeFromPath:
    def test_running_example(self):
        assert shape_from_path(RUNNING_WORD).parts == (7, 5, 5, 2, 1, 1, 0)

    def test_flat(self):
        assert shape_from_path("uuurrr").parts == (0, 0)

    def test_full_staircase(self):
        assert shape_from_path("ururur").parts == (2, 1)

    @given(perms())
    def test_agrees_with_border_route(self, word):
        assert shape_from_path(dyck_word(word)).parts == shape_parts(word)

    @given(perms())
    def test_path_shape_roundtrip(self, word):
        path = dyck_word(word)
        assert path_from_shape(shape_from_path(path)) == path


class TestBordersFromShape:
    def test_running_example(self):
        s = ShapePartition.from_text("7,5,5,2,1,1,0")
        assert borders_from_shape(s) == (0, 1, 2, 1, 0, 5, 5, 7)

    def test_all_zero(self):
        assert borders_from_shape(ShapePartition((0, 0, 0), 4)) == (0, 0, 0, 0)

    def test_2_2_0(self):
        assert borders_from_shape(ShapePartition((2, 2, 0), 4)) == (0, 0, 2, 2)
        assert left_borders((1, 4, 2, 3)) == (0, 0, 2, 2)

    @given(perms())
    def test_inverts_shape(self, word):
        s = ShapePartition(shape_parts(word), len(word))
        assert borders_from_shape(s) == left_borders(word)

    def test_matches_the_scanning_definition_on_every_small_shape(self):
        for n in range(11):
            for s in all_shapes(n):
                assert borders_from_shape(s) == naive_borders_from_shape(s)

    @given(staircase_shapes())
    def test_matches_the_scanning_definition_up_to_64(self, s):
        assert borders_from_shape(s) == naive_borders_from_shape(s)


class TestRectangles:
    def test_running_example(self):
        d = rectangle_decomposition(ShapePartition.from_text("7,5,5,2,1,1,0"))
        summary = {(r.column, r.width, r.height) for r in d.rectangles}
        assert summary == {(5, 5, 3), (7, 2, 1), (1, 1, 3), (2, 1, 1)}

    def test_single_row(self):
        d = rectangle_decomposition(ShapePartition((3, 0, 0), 4))
        assert [(r.column, r.width, r.height) for r in d.rectangles] == [(3, 3, 1)]

    def test_square(self):
        d = rectangle_decomposition(ShapePartition((2, 2, 0), 4))
        assert [(r.column, r.width, r.height) for r in d.rectangles] == [(2, 2, 2)]

    def test_empty(self):
        assert rectangle_decomposition(ShapePartition((), 1)).rectangles == ()

    @given(perms())
    def test_tiles_exactly(self, word):
        s = ShapePartition(shape_parts(word), len(word))
        d = rectangle_decomposition(s)
        cells = d.cell_assignment()
        assert len(cells) == s.area
        corners = sum(
            1
            for j, v in enumerate(s.parts)
            if v and (j + 1 == len(s.parts) or s.parts[j + 1] < v)
        )
        assert len(d.rectangles) == corners


class TestCounting:
    def test_spot_value(self):
        s = ShapePartition.from_text("7,5,5,2,1,1,0")
        assert count_permutations_with_shape(s) == comb(7, 4) * 2 == 70

    def test_all_zero(self):
        assert count_permutations_with_shape(ShapePartition((0, 0, 0), 4)) == 1

    def test_full_staircase_counts_reversal_only(self):
        for n in range(1, 8):
            s = ShapePartition(tuple(range(n - 1, 0, -1)), n)
            assert count_permutations_with_shape(s) == 1

    def test_census_matches_formula(self):
        for n in range(7):
            census = {}
            for word in itertools.permutations(range(1, n + 1)):
                census[shape_parts(word)] = census.get(shape_parts(word), 0) + 1
            assert sum(census.values()) == factorial(n)
            for parts, count in census.items():
                assert (
                    count_permutations_with_shape(ShapePartition(parts, n)) == count
                )


class TestValleysAndReturns:
    def test_running_example(self):
        assert valleys(RUNNING_WORD) == (2, 4, 10, 14)
        assert first_return(RUNNING_WORD) == 10

    def test_flat(self):
        assert valleys("uuurrr") == ()
        assert first_return("uuurrr") == 6

    def test_smallest(self):
        assert valleys("urur") == (2,)
        assert first_return("ur" + "uurr") == 2

    def test_empty_first_return_rejected(self):
        with pytest.raises(ValueError):
            first_return("")

    @given(perms())
    def test_valleys_are_doubled_descents(self, word):
        descents = tuple(
            i for i in range(1, len(word)) if word[i - 1] > word[i]
        )
        assert valleys(dyck_word(word)) == tuple(2 * d for d in descents)

    @given(perms(8))
    def test_first_return_is_twice_max_position(self, word):
        if word:
            n = len(word)
            assert first_return(dyck_word(word)) == 2 * (word.index(n) + 1)

    def test_unchecked_forms_agree_on_every_dyck_word(self):
        for n in range(1, 8):
            for s in all_shapes(n):
                path = path_from_shape(s)
                assert _valleys(path) == valleys(path)
                assert _first_return(path) == first_return(path)
