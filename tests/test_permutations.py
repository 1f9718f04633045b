import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permshape.permutations import (
    InvalidPermutationError,
    Permutation,
    avoids_word,
    contains_132,
    contains_231,
    count_barred_132_word,
    count_pattern_word,
    decreasing_tree_word,
    identity,
    inversion_count,
    left_borders,
    parse_permutation,
    right_borders,
    standardize,
    stat_vector,
)

from naive_oracles import (
    naive_barred_132,
    naive_decreasing_tree,
    naive_inversions,
    naive_left_borders,
    naive_pattern_count,
    naive_right_borders,
)

RUNNING = (5, 3, 1, 4, 8, 2, 7, 6)


def perms(max_n=7):
    return st.integers(0, max_n).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    )


class TestParse:
    def test_compact_digits(self):
        assert parse_permutation("53148276").entries == RUNNING

    def test_separated(self):
        assert parse_permutation("3, 1, 2").entries == (3, 1, 2)
        assert parse_permutation("10 2 3 4 5 6 7 8 9 1").entries[0] == 10

    def test_singleton(self):
        assert parse_permutation("1").entries == (1,)

    def test_out_of_range_names_token(self):
        with pytest.raises(InvalidPermutationError, match="9|5"):
            parse_permutation("3,5,9,4")

    def test_duplicate_names_token(self):
        with pytest.raises(InvalidPermutationError, match="2"):
            parse_permutation("2,2,1")

    def test_non_integer_token(self):
        with pytest.raises(InvalidPermutationError, match="x"):
            parse_permutation("1,x,3")

    def test_empty(self):
        with pytest.raises(InvalidPermutationError):
            parse_permutation("   ")


class TestStandardize:
    def test_example(self):
        assert standardize((3, 5, 9, 4)).entries == (1, 3, 4, 2)

    def test_already_standard(self):
        assert standardize((1, 2, 3)).entries == (1, 2, 3)

    def test_interior_window(self):
        assert standardize((8, 2, 7, 6)).entries == (4, 1, 3, 2)

    def test_duplicates_rejected(self):
        with pytest.raises(InvalidPermutationError):
            standardize((1, 1))

    @given(perms())
    def test_idempotent(self, word):
        once = standardize(word).entries
        assert standardize(once).entries == once


class TestBorders:
    def test_running_example_left(self):
        assert left_borders(RUNNING) == (0, 1, 2, 1, 0, 5, 5, 7)

    def test_identity_left(self):
        assert left_borders((1, 2, 3)) == (0, 0, 0)

    def test_small_left(self):
        assert left_borders((3, 1, 2)) == (0, 1, 1)

    def test_running_example_right(self):
        assert right_borders(RUNNING) == (5, 4, 4, 5, 9, 7, 9, 9)

    def test_identity_right(self):
        assert right_borders((1, 2, 3)) == (2, 3, 4)

    @given(perms())
    def test_left_matches_naive(self, word):
        assert left_borders(word) == naive_left_borders(word)

    @given(perms())
    def test_right_matches_naive(self, word):
        assert right_borders(word) == naive_right_borders(word)

    @given(perms())
    def test_reversal_law(self, word):
        n = len(word)
        b = right_borders(word)
        reflected = tuple(n + 1 - b[n - 1 - t] for t in range(n))
        assert reflected == left_borders(word[::-1])

    def test_nonzero_lefts_are_descents(self):
        for n in range(7):
            for word in itertools.permutations(range(1, n + 1)):
                descents = {
                    i for i in range(1, n) if word[i - 1] > word[i]
                }
                assert {a for a in left_borders(word) if a} == descents


class TestStats:
    def test_running_example(self):
        sv = stat_vector(RUNNING)
        assert (sv.des, sv.maj, sv.lrmax, sv.maxdes, sv.lbsum, sv.inv) == (
            4,
            15,
            2,
            7,
            21,
            11,
        )
        assert sv.descent_set == frozenset({1, 2, 5, 7})

    def test_identity(self):
        for n in (0, 1, 4):
            sv = stat_vector(tuple(range(1, n + 1)))
            assert (sv.des, sv.maj, sv.maxdes, sv.lbsum, sv.inv) == (0, 0, 0, 0, 0)
            assert sv.lrmax == n

    def test_transposition(self):
        sv = stat_vector((2, 1))
        assert (sv.des, sv.maj, sv.lrmax, sv.maxdes, sv.lbsum, sv.inv) == (
            1,
            1,
            1,
            1,
            1,
            1,
        )


class TestInversionCount:
    def test_exhaustive_up_to_eight(self):
        for n in range(9):
            for word in itertools.permutations(range(1, n + 1)):
                assert inversion_count(word) == len(naive_inversions(word))

    @given(perms(64))
    def test_matches_naive_up_to_64(self, word):
        assert inversion_count(word) == len(naive_inversions(word))


class TestPatterns:
    def test_inversions_as_21(self):
        assert count_pattern_word(RUNNING, (2, 1)) == 11

    def test_132_on_increasing(self):
        assert count_pattern_word((1, 2, 3), (1, 3, 2)) == 0

    def test_132_on_itself(self):
        assert count_pattern_word((1, 3, 2), (1, 3, 2)) == 1

    def test_pattern_length_guard(self):
        with pytest.raises(ValueError):
            count_pattern_word((1, 2, 3, 4), (1, 2, 3, 4))

    @given(perms(6), st.sampled_from(list(itertools.permutations((1, 2, 3)))))
    def test_matches_naive(self, word, pattern):
        assert count_pattern_word(word, pattern) == naive_pattern_count(word, pattern)

    @given(perms(7))
    def test_containment_shortcuts(self, word):
        assert contains_132(word) == (naive_pattern_count(word, (1, 3, 2)) > 0)
        assert contains_231(word) == (naive_pattern_count(word, (2, 3, 1)) > 0)

    def test_avoids(self):
        assert avoids_word((3, 4, 1, 2), (1, 3, 2))
        assert not avoids_word((1, 3, 2), (1, 3, 2))
        assert avoids_word((4, 2, 1, 3, 8, 5, 7, 6), (2, 3, 1))

    def test_class_wrappers(self):
        assert count_pattern_word(RUNNING, (2, 1)) == 11
        assert count_barred_132_word(RUNNING) == 10
        assert avoids_word(identity(4).entries, (1, 3, 2))


class TestBarred132:
    def test_running_example(self):
        assert count_barred_132_word(RUNNING) == 10

    def test_blocked_occurrence(self):
        # (1,3,2) inside 1,4,3,2 is interrupted by the 4.
        assert count_barred_132_word((1, 4, 3, 2)) == 2

    def test_increasing(self):
        assert count_barred_132_word((1, 2, 3)) == 0

    @given(perms(7))
    def test_matches_naive(self, word):
        assert count_barred_132_word(word) == naive_barred_132(word)

    def test_border_sum_identity_exhaustive(self):
        for n in range(8):
            for word in itertools.permutations(range(1, n + 1)):
                assert sum(left_borders(word)) == inversion_count(
                    word
                ) + count_barred_132_word(word)

    @given(perms())
    def test_border_sum_dominates_inversions(self, word):
        assert sum(left_borders(word)) >= inversion_count(word)


def _flat(tree):
    return (tree.values, tree.left, tree.right, tree.root)


class TestDecreasingTree:
    def test_small(self):
        tree = decreasing_tree_word((2, 1, 3))
        assert tree.values[tree.root] == 3
        assert tree.right[tree.root] == -1
        child = tree.left[tree.root]
        assert tree.values[child] == 2 and tree.values[tree.right[child]] == 1

    def test_single(self):
        tree = decreasing_tree_word((1,))
        root = tree.root
        assert (tree.values[root], tree.left[root], tree.right[root]) == (1, -1, -1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            decreasing_tree_word(())

    def test_running_example_parent(self):
        tree = decreasing_tree_word(RUNNING)
        assert tree.values[tree.root] == 8
        # 6 hangs below 7, which sits at the left border position of 6.
        node = tree.right[tree.root]
        assert tree.values[node] == 7 and tree.values[tree.right[node]] == 6

    def test_matches_the_recursive_definition(self):
        for n in range(1, 9):
            for word in itertools.permutations(range(1, n + 1)):
                assert _flat(decreasing_tree_word(word)) == naive_decreasing_tree(word)

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=12))
    def test_the_first_maximum_is_the_ancestor_on_ties(self, word):
        word = tuple(word)
        assert _flat(decreasing_tree_word(word)) == naive_decreasing_tree(word)

    @given(perms())
    def test_inorder_roundtrip(self, word):
        if word:
            assert decreasing_tree_word(word).inorder_values() == tuple(word)

    def test_inorder_roundtrip_deeper_than_the_recursion_limit(self):
        for word in (tuple(range(1, 3001)), tuple(range(3000, 0, -1))):
            assert decreasing_tree_word(word).inorder_values() == word

    def test_equal_words_give_equal_trees(self):
        words = list(itertools.permutations(range(1, 7)))
        trees = [decreasing_tree_word(w) for w in words]
        for t, w in zip(trees, words):
            rebuilt = decreasing_tree_word(w)
            assert rebuilt is not t and rebuilt == t and hash(rebuilt) == hash(t)
        assert len(set(trees)) == len(words)

    def test_structural_methods_deeper_than_the_recursion_limit(self):
        word = tuple(range(1, 3001))
        tree, again = decreasing_tree_word(word), decreasing_tree_word(word)
        assert tree == again and hash(tree) == hash(again)
        assert tree != decreasing_tree_word(word[:-2] + (3000, 2999))
        assert repr(tree).startswith("DecreasingTree(values=(1, 2, 3, ")
        assert repr(tree).endswith(", root=2999)")


class TestPermutationClass:
    def test_validation(self):
        with pytest.raises(InvalidPermutationError):
            Permutation((1, 3))
        with pytest.raises(InvalidPermutationError):
            Permutation((1, 1))

    @pytest.mark.parametrize("word", [(True, 2), (2, False)], ids=str)
    def test_bool_entries_rejected(self, word):
        # bool is an int subclass; True == 1 must still not pass as an entry.
        bad = next(v for v in word if isinstance(v, bool))
        with pytest.raises(InvalidPermutationError, match=f"value {bad}$"):
            Permutation(word)

    def test_empty_allowed(self):
        assert Permutation(()).n == 0
