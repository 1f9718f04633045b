"""
Permutations in one-line notation, their border numbers and classical statistics.

A permutation of {1, ..., n} is stored as the tuple of its values
(pi_1, ..., pi_n).  Positions are 1-based throughout: descent positions,
border numbers and tableau coordinates all refer to 1-based positions,
matching the usual combinatorial conventions.

The module-level functions operate on plain value tuples; they are the hot
path for exhaustive enumeration.  The :class:`Permutation` wrapper adds
validation on top of them.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "InvalidPermutationError",
    "Permutation",
    "StatVector",
    "DecreasingTree",
    "parse_permutation",
    "left_borders",
    "right_borders",
    "descent_positions",
    "inversion_count",
    "lr_maxima_count",
    "stat_vector",
    "count_barred_132_word",
    "contains_132",
    "contains_231",
    "max_links",
    "decreasing_tree_word",
]


class InvalidPermutationError(ValueError):
    """Raised when a word is not a permutation of {1, ..., n}."""


def _check_word(word: Sequence[int]) -> None:
    n = len(word)
    seen = set()
    for v in word:
        # bool is an int subclass, but True is no entry of a permutation.
        if not isinstance(v, int) or isinstance(v, bool):
            raise InvalidPermutationError(f"non-integer value {v!r}")
        if not 1 <= v <= n:
            raise InvalidPermutationError(f"value {v} out of range 1..{n}")
        if v in seen:
            raise InvalidPermutationError(f"duplicate value {v}")
        seen.add(v)


@dataclass(frozen=True)
class StatVector:
    """The classical statistics of a permutation, computed together."""

    des: int
    maj: int
    lrmax: int
    maxdes: int
    lbsum: int
    inv: int
    descent_set: frozenset[int]


@dataclass(frozen=True)
class DecreasingTree:
    """
    A decreasing binary tree, flat: node k carries ``values[k]``, the letter
    at position k, and ``left[k]`` / ``right[k]`` are the positions of its
    children, -1 for none.  Children carry smaller labels; ``root`` is the
    position of the maximum.
    """

    values: tuple[int, ...]
    left: tuple[int, ...]
    right: tuple[int, ...]
    root: int

    def inorder_values(self) -> tuple[int, ...]:
        """The labels met by walking the links from the root, in order."""
        out: list[int] = []
        stack: list[int] = []
        node = self.root
        while True:
            while node >= 0:
                stack.append(node)
                node = self.left[node]
            if not stack:
                return tuple(out)
            node = stack.pop()
            out.append(self.values[node])
            node = self.right[node]


@dataclass(frozen=True)
class Permutation:
    """A permutation of {1, ..., n} in one-line (window) notation."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        _check_word(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.entries)


def parse_permutation(text: str) -> Permutation:
    """
    Parse one-line notation.  Accepts whitespace or comma separated integers,
    or a compact digit string such as "53148276" when every value is a single
    digit.

    >>> parse_permutation("53148276").entries
    (5, 3, 1, 4, 8, 2, 7, 6)
    >>> parse_permutation("3, 5, 2, 1, 4").entries
    (3, 5, 2, 1, 4)
    """
    stripped = text.strip()
    if not stripped:
        raise InvalidPermutationError("empty permutation text")
    if re.search(r"[,\s]", stripped):
        tokens = [t for t in re.split(r"[,\s]+", stripped) if t]
    elif stripped.isdigit():
        tokens = list(stripped)
    else:
        tokens = [stripped]
    values: list[int] = []
    for token in tokens:
        try:
            values.append(int(token))
        except ValueError:
            raise InvalidPermutationError(f"non-integer token {token!r}") from None
    return Permutation(tuple(values))


def left_borders(word: Sequence[int]) -> tuple[int, ...]:
    """
    Left border numbers: a_i is the position of the rightmost element to the
    left of w_i that exceeds it, or 0 when w_i is a left-to-right maximum.

    >>> left_borders((5, 3, 1, 4, 8, 2, 7, 6))
    (0, 1, 2, 1, 0, 5, 5, 7)
    """
    a = [0]  # a[j] is a_j, the left border of position j (1-based)
    for i, v in enumerate(word):
        # Jump from position i along the borders: every position skipped
        # holds a smaller value than the one it jumped from, so below v.
        j = i
        while j and word[j - 1] < v:
            j = a[j]
        a.append(j)
    return tuple(a[1:])


def right_borders(word: Sequence[int]) -> tuple[int, ...]:
    """
    Right border numbers: b_i is the smallest position j > i with w_j > w_i,
    or n + 1 when no later element is larger.

    >>> right_borders((5, 3, 1, 4, 8, 2, 7, 6))
    (5, 4, 4, 5, 9, 7, 9, 9)
    """
    n = len(word)
    b = [n + 1] * n
    for i in range(n - 1, -1, -1):
        # Jump from position i + 2 along the borders, as in left_borders.
        v = word[i]
        j = i + 1  # 0-based
        while j < n and word[j] < v:
            j = b[j] - 1
        b[i] = j + 1
    return tuple(b)


def descent_positions(word: Sequence[int]) -> tuple[int, ...]:
    """Positions i (1-based) with w_i > w_{i+1}, in increasing order."""
    return tuple(i for i in range(1, len(word)) if word[i - 1] > word[i])


def inversion_count(word: Sequence[int]) -> int:
    """
    Pairs i < j with w_i > w_j, in O(n) big-int steps: ``seen`` has bit u
    set for every value u met so far, so the earlier values above v are the
    popcount of ``seen >> v`` (sideways addition, Knuth TAOCP 4A 7.1.3).
    The values must be distinct positive integers, as in a permutation.

    >>> inversion_count((5, 3, 1, 4, 8, 2, 7, 6))
    11
    """
    seen = total = 0
    for v in word:
        total += (seen >> v).bit_count()
        seen |= 1 << v
    return total


def lr_maxima_count(word: Sequence[int]) -> int:
    count = 0
    best = 0
    for v in word:
        if v > best:
            best = v
            count += 1
    return count


def stat_vector(word: Sequence[int]) -> StatVector:
    """All seven statistics of a word in one call."""
    return _stat_vector(word, left_borders(word))


def _stat_vector(word: Sequence[int], borders: Sequence[int]) -> StatVector:
    """:func:`stat_vector` of a word whose left borders the caller has."""
    descents = descent_positions(word)
    return StatVector(
        des=len(descents),
        maj=sum(descents),
        lrmax=lr_maxima_count(word),
        maxdes=descents[-1] if descents else 0,
        lbsum=sum(borders),
        inv=inversion_count(word),
        descent_set=frozenset(descents),
    )


def _count_132_231(word: Sequence[int]) -> tuple[int, int]:
    """
    The occurrences of 1-3-2 and of 2-3-1 in a permutation of 1..n, in one
    O(n^2) pass.  A middle letter x with L smaller values on its left has
    x - 1 - L smaller values on its right, and each of the L * (x - 1 - L)
    pairs of them is a 1-3-2 or a 2-3-1, so 2-3-1 is that sum less 1-3-2;
    1-3-2 counts, per smaller y right of x, the values left of x below y.
    """
    count = pairs = seen = 0
    for b, x in enumerate(word):
        below = seen & ((1 << x) - 1)  # the smaller values left of x
        if below:
            left = below.bit_count()
            pairs += left * (x - 1 - left)
            for y in word[b + 1 :]:
                if y < x:
                    count += (below & ((1 << y) - 1)).bit_count()
        seen |= 1 << x
    return count, pairs - count


def count_barred_132_word(word: Sequence[int]) -> int:
    """
    Occurrences of 1-3-2 that no larger element interrupts: triples of
    positions a < b < c with w_a < w_c < w_b and no position d strictly
    between a and c carrying a value above w_b.  Counted per pair (a, c);
    the middle b is then forced to be the maximum of the enclosed window.
    """
    n = len(word)
    total = 0
    for a in range(n):
        va = word[a]
        window_max = 0
        for c in range(a + 1, n):
            vc = word[c]
            if va < vc < window_max:
                total += 1
            if vc > window_max:
                window_max = vc
    return total


def contains_132(word: Sequence[int]) -> bool:
    """Linear-time test for an occurrence of the classical pattern 1-3-2."""
    stack: list[int] = []
    third = 0
    for v in reversed(word):
        if v < third:
            return True
        while stack and stack[-1] < v:
            third = stack.pop()
        stack.append(v)
    return False


def contains_231(word: Sequence[int]) -> bool:
    """Linear-time test for an occurrence of the classical pattern 2-3-1."""
    return contains_132(tuple(word)[::-1])


def max_links(word: Sequence[int]) -> tuple[list[int], list[int], int]:
    """
    Split a word at its maximum, and each side again at its maximum, in one
    pass over the nearest earlier values at least as large, followed as
    jump pointers (Vuillemin's Cartesian tree).
    Returns the left and right child position of every position, -1 for
    none, and the root position, -1 for the empty word.  Of equal values
    the earlier one is the ancestor, so every split takes the first maximum.

    >>> max_links((2, 1, 3))
    ([-1, -1, 0], [1, -1, -1], 2)
    """
    n = len(word)
    left = [-1] * n
    right = [-1] * n
    up = [-1] * n  # the nearest earlier position with a value at least word[i]
    root = -1
    for i, v in enumerate(word):
        # The chain from i - 1 along ``up`` is the tree's right spine so far;
        # the positions below v leave it and hang as i's left subtree.
        j, last = i - 1, -1
        while j >= 0 and word[j] < v:
            last = j
            j = up[j]
        left[i] = last
        up[i] = j
        if j < 0:
            root = i
        else:
            right[j] = i
    return left, right, root


def decreasing_tree_word(word: Sequence[int]) -> DecreasingTree:
    """
    The decreasing binary tree of a nonempty word: the root is the maximum,
    and the left/right subtrees are built from the prefix/suffix around it.
    In-order traversal reproduces the word.
    """
    if not word:
        raise ValueError("the empty permutation has no decreasing tree")
    left, right, root = max_links(word)
    return DecreasingTree(tuple(word), tuple(left), tuple(right), root)
