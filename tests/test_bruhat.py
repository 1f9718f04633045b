import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from permshape.bruhat import (
    bruhat_covers,
    bruhat_leq,
    bruhat_lt,
    bruhat_up_sets,
    rank_table,
    shape_contains,
    up_sets,
    upper_covers,
    verify_poset_equivalence,
)
import permshape.bruhat as bruhat
from permshape.oracle import avoiders_132
from permshape.permutations import Permutation, inversion_count
from permshape.shapes import ShapePartition, shape, shape_parts

from naive_oracles import (
    bruhat_leq_by_closure,
    naive_poset_counterexamples,
    naive_up_sets,
)


def perm_pairs(n):
    words = list(itertools.permutations(range(1, n + 1)))
    return [(Permutation(a), Permutation(b)) for a in words for b in words]


class TestLeq:
    def test_single_swap(self):
        assert bruhat_leq(Permutation((2, 1, 3, 4)), Permutation((2, 3, 1, 4)))

    def test_reflexive(self):
        p = Permutation((3, 1, 4, 2))
        assert bruhat_leq(p, p)

    def test_incomparable_reference_pair(self):
        p, q = Permutation((1, 3, 4, 2)), Permutation((2, 1, 4, 3))
        assert not bruhat_leq(p, q)
        assert not bruhat_leq(q, p)

    def test_identity_is_bottom(self):
        bottom = Permutation((1, 2, 3, 4))
        top = Permutation((4, 3, 2, 1))
        for word in itertools.permutations(range(1, 5)):
            assert bruhat_leq(bottom, Permutation(word))
            assert bruhat_leq(Permutation(word), top)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_leq(Permutation((1,)), Permutation((1, 2)))

    def test_matches_cover_closure(self):
        for n in range(1, 6):
            for p, q in perm_pairs(n):
                expected = bruhat_leq_by_closure(p.entries, q.entries, upper_covers)
                assert bruhat_leq(p, q) == expected

    def test_partial_order_axioms(self):
        for n in range(1, 5):
            perms = [Permutation(w) for w in itertools.permutations(range(1, n + 1))]
            for p in perms:
                assert bruhat_leq(p, p)
                for q in perms:
                    if bruhat_leq(p, q) and bruhat_leq(q, p):
                        assert p == q
                    for r in perms:
                        if bruhat_leq(p, q) and bruhat_leq(q, r):
                            assert bruhat_leq(p, r)


class TestCovers:
    def test_example(self):
        assert bruhat_covers(Permutation((1, 2, 4, 3)), Permutation((1, 4, 2, 3)))

    def test_not_self(self):
        p = Permutation((2, 1, 3))
        assert not bruhat_covers(p, p)

    def test_inversion_jump_rejected(self):
        assert not bruhat_covers(Permutation((1, 2, 3)), Permutation((3, 2, 1)))

    def test_upper_covers_raise_inv_by_one(self):
        for n in range(1, 6):
            for word in itertools.permutations(range(1, n + 1)):
                for cover in upper_covers(word):
                    assert inversion_count(cover) == inversion_count(word) + 1
                    assert bruhat_covers(Permutation(word), Permutation(cover))


class TestShapeContains:
    def test_basic(self):
        assert shape_contains(ShapePartition((1, 0, 0), 4), ShapePartition((2, 0, 0), 4))

    def test_incomparable(self):
        a, b = ShapePartition((3, 0, 0), 4), ShapePartition((2, 2, 0), 4)
        assert not shape_contains(a, b)
        assert not shape_contains(b, a)

    def test_reference_pair(self):
        assert shape_contains(
            ShapePartition((3, 0, 0), 4), ShapePartition((3, 1, 0), 4), strict=True
        )

    def test_strict_excludes_equal(self):
        s = ShapePartition((2, 1, 0), 4)
        assert shape_contains(s, s)
        assert not shape_contains(s, s, strict=True)

    def test_n_mismatch(self):
        with pytest.raises(ValueError):
            shape_contains(ShapePartition((1,), 2), ShapePartition((1, 0), 3))


class TestPosetEquivalence:
    def test_n4(self):
        report = verify_poset_equivalence(4)
        assert report.pairs_checked == 14 * 14 - 14 == 182
        assert report.equivalence_holds
        assert report.counterexamples == ()

    def test_n2(self):
        report = verify_poset_equivalence(2)
        assert report.equivalence_holds and report.pairs_checked == 2

    def test_matches_naive_loop(self):
        for n in range(2, 8):
            words = list(avoiders_132(n))
            report = verify_poset_equivalence(n)
            assert report.pairs_checked == len(words) * (len(words) - 1)
            assert list(report.counterexamples) == naive_poset_counterexamples(
                words, rank_table, shape_parts
            )

    # One avoider's shape grows a cell, or copies another avoider's shape;
    # either way the report must list the naive loop's pairs in its order.
    @pytest.mark.parametrize("corrupt", ["bump", "copy"])
    def test_corrupted_shape_lists_naive_counterexamples(self, corrupt, monkeypatch):
        words = list(avoiders_132(5))
        victim, donor = words[17], words[30]

        def corrupted(word):
            parts = shape_parts(word)
            if word != victim:
                return parts
            if corrupt == "copy":
                return shape_parts(donor)
            return (parts[0] + 1,) + parts[1:]

        monkeypatch.setattr(bruhat, "shape_parts", corrupted)
        report = verify_poset_equivalence(5)
        expected = naive_poset_counterexamples(words, rank_table, corrupted)
        assert expected
        assert list(report.counterexamples) == expected
        assert not report.equivalence_holds
        assert report.pairs_checked == 42 * 41

    def test_bounds(self):
        with pytest.raises(ValueError):
            verify_poset_equivalence(1)
        with pytest.raises(ValueError):
            verify_poset_equivalence(9)

    def test_json_round(self):
        report = verify_poset_equivalence(3)
        assert report.equivalence_holds is True
        assert report.n == 3

    def test_direct_equivalence_check(self):
        # Independent spot re-check of the report's claim at n = 5.
        avoiders = [Permutation(w) for w in avoiders_132(5)]
        for p in avoiders:
            for q in avoiders:
                if p == q:
                    continue
                contained = shape_contains(shape(p), shape(q), strict=True)
                assert contained == bruhat_lt(p, q)

    def test_counterexample_pairs_outside_class(self):
        # Both reference pairs involve a 1-3-2 container, so the equivalence
        # statement does not apply to them; they break it in both directions.
        p1243, p1423 = Permutation((1, 2, 4, 3)), Permutation((1, 4, 2, 3))
        assert bruhat_lt(p1243, p1423)
        assert not shape_contains(shape(p1243), shape(p1423))
        p1342, p2143 = Permutation((1, 3, 4, 2)), Permutation((2, 1, 4, 3))
        assert shape_contains(shape(p1342), shape(p2143), strict=True)
        assert not bruhat_leq(p1342, p2143) and not bruhat_leq(p2143, p1342)


def vector_lists():
    # Vectors drawn from a small pool over a narrow range: ties and repeated
    # vectors are common, and the dimension may be zero.
    return st.integers(0, 4).flatmap(
        lambda dim: st.lists(
            st.tuples(*[st.integers(-2, 2)] * dim), min_size=1, max_size=6
        ).flatmap(lambda pool: st.lists(st.sampled_from(pool), max_size=12))
    )


class TestUpSets:
    def test_rank_tables_of_sn(self):
        for n in range(1, 6):
            words = list(itertools.permutations(range(1, n + 1)))
            tables = [rank_table(w) for w in words]
            negated = [[-r for r in table] for table in tables]
            assert up_sets(tables) == naive_up_sets(tables)
            assert bruhat_up_sets(words) == naive_up_sets(negated)

    def test_avoider_shape_parts(self):
        for n in range(1, 8):
            parts = [shape_parts(w) for w in avoiders_132(n)]
            assert up_sets(parts) == naive_up_sets(parts)

    @given(vector_lists())
    def test_matches_pairwise_dominance(self, vectors):
        assert up_sets(vectors) == naive_up_sets(vectors)

    def test_edge_cases(self):
        assert up_sets([]) == []
        assert up_sets([(), ()]) == [3, 3]
        assert up_sets([(1, 2), (1, 2)]) == [3, 3]
        with pytest.raises(ValueError):
            up_sets([(1,), (1, 2)])


class TestRankTable:
    def test_small(self):
        assert rank_table((2, 1)) == (0, 1, 1, 2)

    @given(st.integers(1, 6))
    def test_diagonal_totals(self, n):
        word = tuple(range(1, n + 1))
        table = rank_table(word)
        assert table[-1] == n
