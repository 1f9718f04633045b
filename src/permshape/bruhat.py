"""
Strong Bruhat order on permutations and its relation to shape containment on
1-3-2-avoiders.

Comparison uses the rank-matrix dominance criterion: with
r_p(i, j) = #{k <= i : p_k <= j}, one has p <= q exactly when
r_p(i, j) >= r_q(i, j) for all i, j.  Covers are transpositions raising the
inversion number by exactly one; the transitive closure of covers serves as
the independent cross-check at small n.  Comparisons over many objects go
through :func:`up_sets`, which returns each object's up-set as one int bitset:
Bruhat up-sets (:func:`bruhat_up_sets`) from the negated rank tables,
containment up-sets from the shape parts.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .oracle import avoiders_132
from .permutations import Permutation, inversion_count
from .shapes import ShapePartition, shape_parts

__all__ = [
    "rank_table",
    "up_sets",
    "bruhat_up_sets",
    "bruhat_leq",
    "bruhat_covers",
    "upper_covers",
    "shape_contains",
    "PosetReport",
    "verify_poset_equivalence",
]


def rank_table(word: tuple[int, ...]) -> tuple[int, ...]:
    """The flattened n x n table r(i, j) = #{k <= i : w_k <= j}."""
    n = len(word)
    table: list[int] = []
    row = [0] * n
    for v in word:
        for j in range(v - 1, n):
            row[j] += 1
        table.extend(row)
    return tuple(table)


def up_sets(vectors: Sequence[Sequence[int]]) -> list[int]:
    """
    Bit b of entry a is set when ``vectors[b]`` dominates ``vectors[a]`` in
    every coordinate.  Per coordinate, one suffix-OR table maps a value t to
    the bitset of every b at or above t; an up-set is the AND of its tables.

    >>> up_sets([(0, 1), (1, 1), (1, 0)])
    [3, 2, 6]
    """
    if len({len(v) for v in vectors}) > 1:
        raise ValueError("vectors of unequal length")
    ups = [(1 << len(vectors)) - 1] * len(vectors)
    for column in zip(*vectors):
        at_least: dict[int, int] = {}
        for b, value in enumerate(column):
            at_least[value] = at_least.get(value, 0) | 1 << b
        above = 0
        for value in sorted(at_least, reverse=True):
            above = at_least[value] = above | at_least[value]
        ups = [up & at_least[value] for up, value in zip(ups, column)]
    return ups


def bruhat_up_sets(words: Sequence[tuple[int, ...]]) -> list[int]:
    """Bit b of entry a is set when words[a] <= words[b] in Bruhat order."""
    return up_sets([[-r for r in rank_table(w)] for w in words])


def bruhat_leq(p: Permutation, q: Permutation) -> bool:
    """Whether p <= q in the strong Bruhat order (rank dominance test)."""
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    rp, rq = rank_table(p.entries), rank_table(q.entries)
    return all(x >= y for x, y in zip(rp, rq))


def bruhat_covers(p: Permutation, q: Permutation) -> bool:
    """
    Whether q covers p: q equals p with one pair of positions transposed and
    has exactly one inversion more.
    """
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    diff = [i for i in range(p.n) if p.entries[i] != q.entries[i]]
    if len(diff) != 2:
        return False
    i, j = diff
    if p.entries[i] != q.entries[j] or p.entries[j] != q.entries[i]:
        return False
    return inversion_count(q.entries) == inversion_count(p.entries) + 1


def upper_covers(word: tuple[int, ...]) -> list[tuple[int, ...]]:
    """
    All words covering ``word``: transpose positions i < j with w_i < w_j and
    no intermediate value between them in the enclosed window.
    """
    n = len(word)
    out: list[tuple[int, ...]] = []
    for i in range(n):
        for j in range(i + 1, n):
            if word[i] >= word[j]:
                continue
            if any(word[i] < word[k] < word[j] for k in range(i + 1, j)):
                continue
            swapped = list(word)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            out.append(tuple(swapped))
    return out


def shape_contains(
    s1: ShapePartition, s2: ShapePartition, *, strict: bool = False
) -> bool:
    """Componentwise containment of shapes sharing the same n."""
    if s1.n != s2.n:
        raise ValueError(f"shape length mismatch: n={s1.n} vs n={s2.n}")
    if any(a > b for a, b in zip(s1.parts, s2.parts)):
        return False
    return s1.parts != s2.parts if strict else True


@dataclass(frozen=True)
class PosetReport:
    """Outcome of the exhaustive containment-vs-Bruhat comparison."""

    n: int
    pairs_checked: int
    counterexamples: tuple[tuple[tuple[int, ...], tuple[int, ...], str], ...]

    @property
    def equivalence_holds(self) -> bool:
        return not self.counterexamples


def verify_poset_equivalence(n: int) -> PosetReport:
    """
    Check, over every ordered pair of distinct 1-3-2-avoiders of {1..n},
    that strict shape containment holds exactly when the first permutation
    lies strictly below the second in Bruhat order.  Each avoider's two
    up-sets are compared whole; their difference names the partners of the
    counterexamples, listed in (first, second) enumeration order.
    """
    if not 2 <= n <= 8:
        raise ValueError("poset verification supports 2 <= n <= 8")
    words = list(avoiders_132(n))
    parts = [shape_parts(word) for word in words]
    above = bruhat_up_sets(words)
    containing = up_sets(parts)
    equal: dict[tuple[int, ...], int] = {}
    for b, shape in enumerate(parts):
        equal[shape] = equal.get(shape, 0) | 1 << b
    bad: list[tuple[tuple[int, ...], tuple[int, ...], str]] = []
    for a, word in enumerate(words):
        contained = containing[a] & ~equal[parts[a]]
        diff = (above[a] & ~(1 << a)) ^ contained
        while diff:
            b = (diff & -diff).bit_length() - 1
            diff &= diff - 1
            side = (
                "shape strictly contained but not Bruhat-below"
                if contained >> b & 1
                else "Bruhat-below but shape not strictly contained"
            )
            bad.append((word, words[b], side))
    return PosetReport(
        n=n,
        pairs_checked=len(words) * (len(words) - 1),
        counterexamples=tuple(bad),
    )
