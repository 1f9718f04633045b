"""
Dotted tableaux: the injective representation of a permutation as its shape
plus one dot per inversion.

Rows of the diagram are labeled so that the row of length a_j carries the
label j (rows of equal length are labeled bottom to top in increasing
order); columns are labeled 1..k from the left, k being the largest part.
A dot in column i, row j records the inversion (i, j).  Column dot counts
form an inversion table, so the permutation can be rebuilt from the filling
alone.

A filling of a shape for n is stored as one int, ``FilledTableau.mask``:
the dot in column i, row label j is bit (i - 1) * n + (j - 1).  Columns are
n-bit fields from the low end, so ascending bit order is (column, label)
order and a column's dot count is the popcount of its field.  A tableau
keeps no column split: each reader splits the mask itself (:func:`_columns`),
and the private readers, ``_decode_word`` and the fused pattern count, take
the split, so a caller that needs both splits once.  Every tableau, whether
built by the public constructor, the encoder, the extreme fillings or from
JSON, has the shape's row labels (the constructor compares the caller's
with them) and no bit outside the shape's cells.  What a shape
fixes of its fillings is its layout: the row labels, the mask of its cells,
the border numbers both come from and the mask of each row's last cell.

Validation happens at the edge.  The public constructor, ``encode_tableau``
(through its :class:`Permutation` argument) and ``decode_tableau`` check
everything; each encoder and decoder is that check followed by one private
route, ``_encode_word`` or ``_checked_decode`` (``_decode_word`` and the
decoded word's consistency with the dots and the shape), and
``bijection_132_to_231`` is its 1-3-2 test followed by ``_bijection_image``,
which decodes a shape's minimal filling with no tableau built.  The
exhaustive walks of :mod:`permshape.verify` feed those routes words that are
permutations, or 1-3-2-avoiders, by construction, and hand ``_encode_word``
one dict per range of a walk, in which it alone maps (n, parts) to the
shape's layout; ``encode_tableau`` hands it a fresh one.  A word's left
borders are compared with the layout's, which the shape alone gives, and
its labels are the layout's.  A tableau keeps the layout it was checked
against, which is how the walk reaches a shape's extreme fillings: at the
word whose filling is full, which is the decode of that filling.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, NamedTuple, Sequence

from .permutations import Permutation, contains_132, left_borders
from .shapes import ShapePartition, _rectangles, borders_from_shape

__all__ = [
    "InvalidFillingError",
    "InconsistentFillingError",
    "FilledTableau",
    "row_labels_for",
    "row_lengths_by_label",
    "encode_tableau",
    "decode_tableau",
    "min_filling",
    "max_filling",
    "is_valid_filling",
    "bijection_132_to_231",
    "count_132_from_tableau",
    "count_231_from_tableau",
    "tableau_to_json",
    "tableau_from_json",
]


class InvalidFillingError(ValueError):
    """A filling whose column counts cannot decode to any permutation."""


class InconsistentFillingError(InvalidFillingError):
    """A filling whose dots contradict the permutation its counts decode to."""


def _row_buckets(borders: Sequence[int]) -> list[list[int]]:
    """
    The labels j bucketed by the row length a_j, ascending; bucket 0 holds
    the positions without a row.
    """
    buckets: list[list[int]] = [[] for _ in borders]
    for j, length in enumerate(borders, start=1):
        buckets[length].append(j)
    return buckets


def row_labels_for(s: ShapePartition) -> tuple[int, ...]:
    """Row labels bottom to top: positions j with a_j > 0, sorted by (a_j, j)."""
    return _layout(s).labels


def row_lengths_by_label(s: ShapePartition) -> dict[int, int]:
    a = borders_from_shape(s)
    return {j: length for j, length in enumerate(a, start=1) if length > 0}


class _Layout(NamedTuple):
    """
    What a shape fixes of every filling: the shape, its row labels, the mask
    of its cells, the border numbers they come from, and the mask of each
    labelled row's last cell, (a_j, j).
    """

    shape: ShapePartition
    labels: tuple[int, ...]
    allowed: int
    borders: tuple[int, ...]
    corners: int


def _layout(s: ShapePartition) -> _Layout:
    """
    The shape's :class:`_Layout`.  Column i holds the rows of length >= i,
    so the column's label set grows from the widest column down; a cell is
    a row's last when the cell to its right is not the shape's.
    """
    n = s.n
    borders = borders_from_shape(s)
    buckets = _row_buckets(borders)
    allowed = column = 0
    for length in range(n - 1, 0, -1):
        for j in buckets[length]:
            column |= 1 << (j - 1)
        allowed = (allowed << n) | column
    labels = tuple(chain.from_iterable(buckets[1:]))
    return _Layout(s, labels, allowed, borders, allowed & ~(allowed >> n))


def _stray_dot(s: ShapePartition, col: int, label: int) -> ValueError:
    length = row_lengths_by_label(s).get(label)
    if length is None:
        return ValueError(f"dot ({col}, {label}) lies outside every row")
    return ValueError(f"dot ({col}, {label}) exceeds its row of length {length}")


def _columns(mask: int, n: int) -> list[int]:
    """The n-bit column fields of a mask, column 1 first."""
    full = (1 << n) - 1
    return [(mask >> (i * n)) & full for i in range(n)]


# The set bits of every byte value, lowest first.
_BYTE_BITS = tuple(
    tuple(b for b in range(8) if byte >> b & 1) for byte in range(256)
)


def _cells(mask: int, n: int) -> list[tuple[int, int]]:
    """
    The dotted cells as (column, label) in ascending bit order, read byte by
    byte from the low end.  Tuples of ints leave the garbage collector's
    tracking at their first collection, so a large filling does not feed
    the full collections.
    """
    data = mask.to_bytes((n * n + 7) // 8, "little")
    return [
        (bit // n + 1, bit % n + 1)
        for base, byte in zip(count(0, 8), data)
        if byte
        for b in _BYTE_BITS[byte]
        for bit in (base + b,)
    ]


def _inversion_mask(word: Sequence[int]) -> int:
    """
    The mask of a word's inversions, in O(n) big-int steps: ``below[v]``
    holds the positions of the values smaller than v, and column i is
    ``below[w_i]`` with positions 1..i cleared.
    """
    n = len(word)
    at = [0] * (n + 1)
    for i, v in enumerate(word):
        at[v] = i
    below = [0] * (n + 1)
    seen = 0
    for v in range(1, n + 1):
        below[v] = seen
        seen |= 1 << at[v]
    mask = 0
    for i in range(n - 1, -1, -1):
        mask = (mask << n) | (below[word[i]] >> (i + 1) << (i + 1))
    return mask


@dataclass(frozen=True, init=False)
class FilledTableau:
    """
    A shape with labeled rows and its dots, one bit per cell of ``mask``
    (layout in the module docstring).  The constructor takes the dots as
    (column, row label) pairs and raises ValueError for labels that are not
    the shape's, for a dot outside its row, and for a label or coordinate
    that is not an int (a bool is none).  The layout it was checked
    against, ``_shape_layout``, is no field, so ``==`` skips it.
    """

    shape: ShapePartition
    row_labels: tuple[int, ...]
    mask: int

    def __init__(
        self,
        shape: ShapePartition,
        row_labels: Iterable[int],
        dots: Iterable[tuple[int, int]],
    ) -> None:
        n = shape.n
        mask = 0
        for col, label in dots:
            if type(col) is not int or type(label) is not int:
                raise ValueError(f"non-integer dot {(col, label)!r}")
            # Checked before packing: (1, n + 1) would land on bit n, (2, 1).
            if not (1 <= col <= n and 1 <= label <= n):
                raise _stray_dot(shape, col, label)
            mask |= 1 << ((col - 1) * n + label - 1)
        layout = _layout(shape)
        row_labels = tuple(row_labels)
        # (2.0,) == (2,): equal values are not enough.
        if row_labels != layout.labels or any(type(j) is not int for j in row_labels):
            raise ValueError(
                f"row labels {row_labels} do not match the shape "
                f"(expected {layout.labels})"
            )
        self._set(layout, mask)

    @classmethod
    def _from_mask(cls, layout: _Layout, mask: int) -> "FilledTableau":
        """The filling ``mask`` of the layout's shape, labelled as the layout is."""
        t = cls.__new__(cls)
        t._set(layout, mask)
        return t

    def _set(self, layout: _Layout, mask: int) -> None:
        """The one validating route every constructor ends in: no dot off the cells."""
        stray = mask & ~layout.allowed
        if stray:
            col, label = divmod((stray & -stray).bit_length() - 1, layout.shape.n)
            raise _stray_dot(layout.shape, col + 1, label + 1)
        # Frozen: the fields go straight into the instance dict, in one call.
        fields = {"shape": layout.shape, "row_labels": layout.labels, "mask": mask}
        self.__dict__.update(fields, _shape_layout=layout)

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def dots(self) -> frozenset[tuple[int, int]]:
        """The dots as (column, row label) pairs."""
        return frozenset(_cells(self.mask, self.n))

    def column_dot_counts(self) -> tuple[int, ...]:
        """Dots per column for columns 1..n (columns beyond k hold none)."""
        return tuple(field.bit_count() for field in _columns(self.mask, self.n))


def _encode_word(
    word: Sequence[int], shapes: dict, borders: tuple[int, ...] | None = None
) -> FilledTableau:
    """
    The filled tableau of a permutation word, not checked to be one.  One
    pass of its left borders (``borders``, if the caller has them) gives
    the shape, a_2..a_n sorted decreasingly, whose layout ``shapes`` holds
    by (n, parts), built and added at the shape's first word.  The borders
    are compared with the layout's, which the shape alone gives, and the
    row labels are the layout's.
    """
    if borders is None:
        borders = left_borders(word)
    n, parts = len(word), tuple(sorted(borders[1:], reverse=True))
    layout = shapes.get((n, parts))
    if layout is None:
        layout = shapes[n, parts] = _layout(ShapePartition(parts, n))
    if borders != layout.borders:
        raise ValueError(
            f"left borders {borders} do not match the shape "
            f"(expected {layout.borders})"
        )
    return FilledTableau._from_mask(layout, _inversion_mask(word))


def encode_tableau(p: Permutation) -> FilledTableau:
    """The filled tableau of p: its shape dotted at every inversion (i, j)."""
    return _encode_word(p.entries, {})


def _decode_word(columns: list[int]) -> tuple[int, ...]:
    """
    The word whose inversion table is the dot counts of a filling's column
    masks (:func:`_columns`): count c_i means the (c_i + 1)-th smallest
    unused value goes to position i.  The dots themselves are not compared
    with the word's inversions.
    """
    unused = list(range(1, len(columns) + 1))
    values: list[int] = []
    for i, column in enumerate(columns, start=1):
        c = column.bit_count()
        if c >= len(unused):
            raise InvalidFillingError(
                f"column {i} holds {c} dots but only {len(unused)} values remain"
            )
        values.append(unused.pop(c))
    return tuple(values)


def decode_tableau(t: FilledTableau) -> Permutation:
    """
    Rebuild the permutation from column dot counts (:func:`_decode_word`).
    The dot set must equal the inversion set of the result, and the shape
    must be the result's, otherwise the filling is rejected as inconsistent.
    """
    return Permutation(_checked_decode(t._shape_layout, t.mask)[0])


def _checked_decode(
    layout: _Layout, mask: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    The word that the filling ``mask`` of the layout's shape decodes to
    (:func:`_decode_word`), checked as :func:`decode_tableau` checks it, and
    the word's left borders, which give its shape.
    """
    word = _decode_word(_columns(mask, layout.shape.n))
    if mask != _inversion_mask(word):
        raise InconsistentFillingError(
            "inconsistent filling: dots do not match the decoded inversions"
        )
    borders = left_borders(word)
    if tuple(sorted(borders[1:], reverse=True)) != layout.shape.parts:
        raise InconsistentFillingError(
            "inconsistent filling: host shape differs from the decoded shape"
        )
    return word, borders


def is_valid_filling(t: FilledTableau) -> bool:
    """Whether the filling is realized by a permutation (decode succeeds)."""
    try:
        decode_tableau(t)
    except InvalidFillingError:
        return False
    return True


def _min_mask(layout: _Layout) -> int:
    """The mask of :func:`min_filling`: each tile's rightmost column dotted."""
    n = layout.shape.n
    top_down = layout.labels[::-1]  # geometric rows 1.. from the top
    mask = 0
    for column, _, height, corner_row in _rectangles(layout.shape.parts):
        for row in range(corner_row - height + 1, corner_row + 1):
            mask |= 1 << ((column - 1) * n + top_down[row - 1] - 1)
    return mask


def _min_filling(layout: _Layout) -> FilledTableau:
    return FilledTableau._from_mask(layout, _min_mask(layout))


def _max_filling(layout: _Layout) -> FilledTableau:
    return FilledTableau._from_mask(layout, layout.allowed)


def min_filling(s: ShapePartition) -> FilledTableau:
    """
    The sparsest realizable filling of a shape: only the rightmost column of
    every rectangle of the corner decomposition is dotted.  Its decode avoids
    the pattern 2-3-1.
    """
    return _min_filling(_layout(s))


def max_filling(s: ShapePartition) -> FilledTableau:
    """The fully dotted filling of a shape; its decode avoids 1-3-2."""
    return _max_filling(_layout(s))


def bijection_132_to_231(p: Permutation) -> Permutation:
    """
    The shape-preserving bijection from 1-3-2-avoiding to 2-3-1-avoiding
    permutations: decode the minimal filling of the shape of p.
    """
    if contains_132(p.entries):
        raise ValueError(f"{p} contains 1-3-2; the bijection is not defined on it")
    return Permutation(_bijection_image(left_borders(p.entries))[0])


def _bijection_image(
    borders: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """
    The image under :func:`bijection_132_to_231` of the word whose left
    borders are ``borders``, not checked to avoid 1-3-2, and the image's
    left borders: the minimal filling of the word's shape, decoded and
    checked as :func:`decode_tableau` does, with no tableau built.
    """
    parts = tuple(sorted(borders[1:], reverse=True))
    layout = _layout(ShapePartition(parts, len(borders)))
    return _checked_decode(layout, _min_mask(layout))


def count_132_from_tableau(t: FilledTableau) -> int:
    """Occurrences of 1-3-2 read off a permutation's tableau."""
    return _count_132_231_from_columns(_columns(t.mask, t.n))[0]


def count_231_from_tableau(t: FilledTableau) -> int:
    """Occurrences of 2-3-1 read off a permutation's tableau."""
    return _count_132_231_from_columns(_columns(t.mask, t.n))[1]


def _count_132_231_from_columns(columns: list[int]) -> tuple[int, int]:
    """
    Occurrences of 1-3-2 and of 2-3-1 read off the column masks
    (:func:`_columns`) of a permutation's tableau, in one pass over the
    pairwise column intersections, which both read; the rows where columns
    i and j both hold a dot are the intersection of the two column masks.

    The 1-3-2s are the pairs of an empty cell with a dotted cell to its
    right within one row.  A dot in column i has i - 1 cells to its left, so
    their count is the sum of i - 1 over the dots less the pairs of dots
    sharing a row.  The 2-3-1s are the pairs of dots (i, k), (j, k) in one
    row with i < j whose companion cell (i, j) is absent or empty; a dotted
    companion marks a decreasing triple instead.
    """
    count_132 = count_231 = 0
    for i, a in enumerate(columns):
        if a:
            count_132 += i * a.bit_count()
            for j, b in enumerate(columns[i + 1 :], i + 1):
                if b:
                    both = (a & b).bit_count()
                    count_132 -= both
                    if not a >> j & 1:  # the companion cell (i + 1, j + 1) is empty
                        count_231 += both
    return count_132, count_231


def tableau_to_json(t: FilledTableau) -> dict:
    """
    The tableau as a JSON-ready dict.  ``"dots"`` is the list of
    (column, label) tuples in ascending (column, label) order; ``json``
    writes each tuple as a two-item array, and :func:`tableau_from_json`
    reads the pairs back as tuples or lists alike.
    """
    return {
        "n": t.n,
        "shape": list(t.shape.parts),
        "row_labels": list(t.row_labels),
        "dots": _cells(t.mask, t.n),
    }


def _int_list(value, size: int | None = None) -> bool:
    """Whether ``value`` is a list or tuple of ints, ``size`` if given; no bools."""
    ints = isinstance(value, (list, tuple)) and all(type(v) is int for v in value)
    return ints and size in (None, len(value))


def tableau_from_json(data: dict) -> FilledTableau:
    """
    The tableau of a :func:`tableau_to_json` document.  Any other document,
    a bool where an int belongs included, raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("a tableau document is a dict")
    n, parts, labels, dots = map(data.get, ("n", "shape", "row_labels", "dots"))
    pairs = isinstance(dots, (list, tuple)) and all(_int_list(d, 2) for d in dots)
    for needed, present in (
        ("an int n", type(n) is int),
        ("shape, a list of ints", _int_list(parts)),
        ("row_labels, a list of ints", _int_list(labels)),
        ("dots, a list of int pairs", pairs),
    ):
        if not present:
            raise ValueError(f"a tableau document needs {needed}")
    return FilledTableau(ShapePartition(tuple(parts), n), labels, dots)
