"""
Strong Bruhat order on permutations and its relation to shape containment on
1-3-2-avoiders.

Comparison uses the rank-matrix dominance criterion: with
r_p(i, j) = #{k <= i : p_k <= j}, one has p <= q exactly when
r_p(i, j) >= r_q(i, j) for all i, j.  Covers are transpositions raising the
inversion number by exactly one; the transitive closure of covers serves as
the independent cross-check at small n.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import partial

from .oracle import avoiders_132, fan_out
from .permutations import Permutation, inversion_count
from .shapes import ShapePartition, shape_parts

__all__ = [
    "rank_table",
    "bruhat_leq",
    "bruhat_lt",
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


def _leq_tables(rp: tuple[int, ...], rq: tuple[int, ...]) -> bool:
    for x, y in zip(rp, rq):
        if x < y:
            return False
    return True


def bruhat_leq(p: Permutation, q: Permutation) -> bool:
    """Whether p <= q in the strong Bruhat order (rank dominance test)."""
    if p.n != q.n:
        raise ValueError(f"length mismatch: {p.n} vs {q.n}")
    return _leq_tables(rank_table(p.entries), rank_table(q.entries))


def bruhat_lt(p: Permutation, q: Permutation) -> bool:
    return p.entries != q.entries and bruhat_leq(p, q)


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
    equivalence_holds: bool
    counterexamples: tuple[tuple[tuple[int, ...], tuple[int, ...], str], ...]

    def __post_init__(self) -> None:
        if self.equivalence_holds != (not self.counterexamples):
            raise ValueError("equivalence flag contradicts the counterexample list")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "pairs_checked": self.pairs_checked,
                "equivalence_holds": self.equivalence_holds,
                "counterexamples": [
                    {"p": list(p), "q": list(q), "failure": side}
                    for p, q, side in self.counterexamples
                ],
            },
            sort_keys=True,
        )


def _poset_pairs(
    items: list[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]],
    start: int,
    stop: int,
) -> tuple[int, list[tuple[tuple[int, ...], tuple[int, ...], str]]]:
    checked = 0
    bad: list[tuple[tuple[int, ...], tuple[int, ...], str]] = []
    for a in range(start, stop):
        word_a, rank_a, parts_a = items[a]
        for b in range(len(items)):
            if a == b:
                continue
            word_b, rank_b, parts_b = items[b]
            checked += 1
            contained = parts_a != parts_b and all(
                x <= y for x, y in zip(parts_a, parts_b)
            )
            below = word_a != word_b and _leq_tables(rank_a, rank_b)
            if contained != below:
                side = (
                    "shape strictly contained but not Bruhat-below"
                    if contained
                    else "Bruhat-below but shape not strictly contained"
                )
                bad.append((word_a, word_b, side))
    return checked, bad


def verify_poset_equivalence(n: int, workers: int = 1) -> PosetReport:
    """
    Check, over every ordered pair of distinct 1-3-2-avoiders of {1..n},
    that strict shape containment holds exactly when the first permutation
    lies strictly below the second in Bruhat order.
    """
    if not 2 <= n <= 8:
        raise ValueError("poset verification supports 2 <= n <= 8")
    items = [
        (word, rank_table(word), shape_parts(word)) for word in avoiders_132(n)
    ]
    parts = fan_out(partial(_poset_pairs, items), len(items), workers, min_total=64)
    checked = sum(c for c, _ in parts)
    bad = [entry for _, chunk in parts for entry in chunk]
    return PosetReport(
        n=n,
        pairs_checked=checked,
        equivalence_holds=not bad,
        counterexamples=tuple(bad),
    )

