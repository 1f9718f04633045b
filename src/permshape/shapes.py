"""
The recursive map from permutations to Dyck words, the staircase shape it
induces, and counting of permutations per shape.

A Dyck word is a string over the alphabet ``u`` / ``r`` with equally many of
each letter and no prefix holding more ``r`` than ``u``.  Drawn against the
main diagonal of an n x n grid (``u`` = one step up, ``r`` = one step right),
the region above the word and inside the staircase is a Young diagram; its
row lengths, padded with zeros to exactly n - 1 parts, form the shape of
every preimage permutation.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod
from typing import Sequence

from .permutations import Permutation, left_borders, max_links

__all__ = [
    "UP",
    "RIGHT",
    "InvalidDyckWordError",
    "ShapePartition",
    "dyck_word",
    "is_dyck_word",
    "shape_parts",
    "shape",
    "shape_from_path",
    "path_from_shape",
    "borders_from_shape",
    "count_permutations_with_shape",
]

UP = "u"
RIGHT = "r"


class InvalidDyckWordError(ValueError):
    """Raised for words that are not balanced or leave the staircase."""


def dyck_word(word: Sequence[int]) -> str:
    """
    Map a permutation word to its Dyck word by recursive splitting at the
    maximum: the empty word maps to "", and L m R maps to
    "u" + dyck(L) + "r" + dyck(R).  Computed in one pass: :func:`max_links`
    finds every split at once, and the walk over its links writes the U of
    each node on entry and its R between its left and right parts.

    >>> dyck_word((5, 3, 1, 4, 8, 2, 7, 6))
    'uuruururrruurrur'
    >>> dyck_word((1, 2, 3))
    'uuurrr'
    """
    left, right, node = max_links(word)
    out: list[str] = []
    # The R of position i closes its left part; its right part starts next.
    for after in right:
        while node >= 0:  # the U of a node, then straight on into its left part
            out.append(UP)
            node = left[node]
        out.append(RIGHT)
        node = after
    return "".join(out)


def is_dyck_word(word: str) -> bool:
    height = 0
    for step in word:
        if step == UP:
            height += 1
        elif step == RIGHT:
            height -= 1
            if height < 0:
                return False
        else:
            return False
    return height == 0


@dataclass(frozen=True)
class ShapePartition:
    """
    A partition fitting inside the staircase (n-1, n-2, ..., 1), stored with
    exactly n - 1 parts.  Trailing zeros are kept so that n stays recoverable.
    ``n`` and every part must be ints; a bool is none.
    """

    parts: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        if type(self.n) is not int:
            raise ValueError(f"non-integer n {self.n!r}")
        if self.n < 0:
            raise ValueError("n must be nonnegative")
        expected = max(self.n - 1, 0)
        if len(self.parts) != expected:
            raise ValueError(
                f"a shape for n={self.n} needs exactly {expected} parts, "
                f"got {len(self.parts)}"
            )
        prev = self.n - 1
        for j, part in enumerate(self.parts):
            if type(part) is not int:
                raise ValueError(f"non-integer part {part!r}")
            if part < 0 or part > prev or part > self.n - 1 - j:
                raise ValueError(
                    f"parts must decrease weakly and fit the staircase; "
                    f"offending part {part} at index {j}"
                )
            prev = part

    @classmethod
    def from_text(cls, text: str, n: int | None = None) -> "ShapePartition":
        """Parse the comma-separated form, e.g. ``"7,5,5,2,1,1,0"``."""
        parts: list[int] = []
        for token in text.strip().split(",") if text.strip() else ():
            try:
                parts.append(int(token))
            except ValueError:
                raise ValueError(f"non-integer part {token!r}") from None
        if n is None:
            n = len(parts) + 1
        return cls(parts, n)

    def to_text(self) -> str:
        return ",".join(str(v) for v in self.parts)

    def distinct_nonzero(self) -> tuple[int, ...]:
        return tuple(sorted({v for v in self.parts if v > 0}, reverse=True))

    def __str__(self) -> str:
        return self.to_text()


def _border_parts(borders: Sequence[int]) -> tuple[int, ...]:
    """The parts of the shape of left borders a_1..a_n: a_2..a_n, decreasing."""
    return tuple(sorted(borders[1:], reverse=True))


def shape_parts(word: Sequence[int]) -> tuple[int, ...]:
    """Left border numbers a_2..a_n sorted decreasingly (tuple-level)."""
    return _border_parts(left_borders(word))


def shape(p: Permutation) -> ShapePartition:
    """
    The shape of a permutation: its left border numbers a_2..a_n in
    decreasing order.

    >>> shape(Permutation((5, 3, 1, 4, 8, 2, 7, 6))).parts
    (7, 5, 5, 2, 1, 1, 0)
    """
    return ShapePartition(shape_parts(p.entries), p.n)


def path_shape_parts(word: str) -> tuple[int, ...]:
    """
    Parts of the region above a Dyck word, without validation.  The j-th up
    step sits at horizontal distance x_j = number of preceding right steps;
    the parts are (x_n, ..., x_2).
    """
    xs: list[int] = []
    rights = 0
    for step in word:
        if step == UP:
            xs.append(rights)
        else:
            rights += 1
    return tuple(reversed(xs[1:]))


def shape_from_path(word: str) -> ShapePartition:
    """The cells above a Dyck word inside the staircase, read as a partition."""
    if not is_dyck_word(word):
        raise InvalidDyckWordError(f"not a Dyck word: {word!r}")
    return ShapePartition(path_shape_parts(word), word.count(UP))


def path_from_shape(s: ShapePartition) -> str:
    """The unique Dyck word whose diagram above the diagonal is ``s``."""
    if s.n == 0:
        return ""
    xs = [0] + list(reversed(s.parts))  # x_1..x_n
    out: list[str] = []
    rights = 0
    for x in xs:
        out.append(RIGHT * (x - rights))
        rights = x
        out.append(UP)
    out.append(RIGHT * (s.n - rights))
    return "".join(out)


def borders_from_shape(s: ShapePartition) -> tuple[int, ...]:
    """
    Recover the left border numbers a_1..a_n in their original order.
    a_1 = 0, a_{v+1} = v for every distinct nonzero part v, and the remaining
    parts fill the open positions from left to right, each taking the
    greatest still-unused part smaller than the position.  The unused parts
    smaller than the position sit on a stack, pushed in ascending order as
    the position passes them, so its top is that greatest part: O(n).
    """
    n = s.n
    if n == 0:
        return ()
    a: list[int | None] = [None] * (n + 1)
    a[1] = 0
    unused: list[int] = []  # ascending: the parts left after the fixed ones
    for v in reversed(s.parts):
        if v > 0 and a[v + 1] is None:
            a[v + 1] = v
        else:
            unused.append(v)
    stack: list[int] = []
    k = 0
    for j in range(2, n + 1):
        while k < len(unused) and unused[k] < j:
            stack.append(unused[k])
            k += 1
        if a[j] is None:
            if not stack:
                raise ValueError(f"shape {s} admits no border sequence")
            a[j] = stack.pop()
    return tuple(a[1:])  # type: ignore[arg-type]


def _rectangles(parts: tuple[int, ...]) -> list[tuple[int, int, int, int]]:
    """
    Tile the diagram of the shape ``parts`` with one rectangle per corner, as
    (column, width, height, corner_row): ``column`` is the (1-based) column
    of the bottom-right corner cell and ``corner_row`` its row counted from
    the top of the diagram; the tile spans ``width`` columns to the left and
    ``height`` rows upward.  The cut happens at the corner whose reverse
    hook (1 + cells above + cells to the left) is maximal, preferring the
    leftmost on ties; the rectangle of all cells weakly above and to the
    left of it is removed, and the subshapes below it and to its right are
    tiled recursively (below first).
    """
    rects: list[tuple[int, int, int, int]] = []
    # (rows, column offset) still to cut, the subshape below a tile on top
    # so that it is cut before the one to the tile's right.  rows: (absolute
    # row index from top, remaining length), lengths weakly decreasing and
    # positive.
    pending = [([(idx + 1, v) for idx, v in enumerate(parts) if v > 0], 0)]
    while pending:
        rows, col_offset = pending.pop()
        if not rows:
            continue
        best_i = best_hook = -1
        for i in range(1, len(rows) + 1):
            length = rows[i - 1][1]
            if i < len(rows) and rows[i][1] == length:
                continue  # not a corner
            hook = i + length - 1
            # Later corners have strictly smaller lengths, so on equal hook
            # the later corner is the leftmost one.
            if hook >= best_hook:
                best_hook = hook
                best_i = i
        i = best_i
        width = rows[i - 1][1]
        rects.append((col_offset + width, width, i, rows[i - 1][0]))
        shrunk = [(r, length - width) for r, length in rows[:i] if length > width]
        pending.append((shrunk, col_offset + width))
        pending.append((rows[i:], col_offset))
    return rects


def count_permutations_with_shape(s: ShapePartition) -> int:
    """
    The number of permutations of {1..n} having shape ``s``: the product of
    binomial(w + h - 1, w - 1) over the rectangles of the decomposition.

    >>> count_permutations_with_shape(ShapePartition.from_text("7,5,5,2,1,1,0"))
    70
    """
    return _rectangle_count(_rectangles(s.parts))


def _rectangle_count(rects: list[tuple[int, int, int, int]]) -> int:
    """
    The product of binomial(w + h - 1, w - 1) over tiles (column, width,
    height, corner_row) as :func:`_rectangles` gives them.
    """
    return prod(comb(width + height - 1, width - 1) for _, width, height, _ in rects)


def _valleys(word: str) -> tuple[int, ...]:
    """
    Diagonal coordinates of the valleys (factors "ru") of a Dyck word, not
    checked to be one.  The coordinate is twice the number of right steps
    up to the valley; halved, these are the descent positions of every
    preimage permutation.

    >>> _valleys("uuruururrruurrur")
    (2, 4, 10, 14)
    """
    coords: list[int] = []
    rights = 0
    for i, step in enumerate(word):
        if step == RIGHT:
            rights += 1
            if i + 1 < len(word) and word[i + 1] == UP:
                coords.append(2 * rights)
    return tuple(coords)


def _first_return(word: str) -> int:
    """
    The step count at which a nonempty Dyck word, not checked to be one,
    first returns to the diagonal; equals 2k where k is the position of n
    in any preimage.
    """
    height = 0
    for i, step in enumerate(word, start=1):
        height += 1 if step == UP else -1
        if height == 0:
            return i
    raise AssertionError("unreachable for a valid Dyck word")
