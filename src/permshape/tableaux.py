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
order and a column's dot count is the popcount of its field.  Every
tableau, whether built by the public constructor, the encoder, the extreme
fillings or from JSON, passes the same two checks: its row labels equal the
shape's, and its mask has no bit outside the shape's cells.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Iterable, Sequence

from .permutations import Permutation, contains_132, left_borders
from .shapes import (
    ShapePartition,
    borders_from_shape,
    rectangle_decomposition,
    shape,
)

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


def _labels(buckets: list[list[int]]) -> tuple[int, ...]:
    return tuple(chain.from_iterable(buckets[1:]))


def row_labels_for(s: ShapePartition) -> tuple[int, ...]:
    """Row labels bottom to top: positions j with a_j > 0, sorted by (a_j, j)."""
    return _labels(_row_buckets(borders_from_shape(s)))


def row_lengths_by_label(s: ShapePartition) -> dict[int, int]:
    a = borders_from_shape(s)
    return {j: length for j, length in enumerate(a, start=1) if length > 0}


def _layout(s: ShapePartition) -> tuple[tuple[int, ...], int]:
    """
    The shape's row labels and the mask of its cells.  Column i holds the
    rows of length >= i, so the column's label set grows from the widest
    column down.
    """
    n = s.n
    buckets = _row_buckets(borders_from_shape(s))
    allowed = column = 0
    for length in range(n - 1, 0, -1):
        for j in buckets[length]:
            column |= 1 << (j - 1)
        allowed = (allowed << n) | column
    return _labels(buckets), allowed


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


def _rows(mask: int, n: int) -> list[int]:
    """
    Row masks: bit i - 1 of ``rows[j - 1]`` is the dot (i, j).  Written out
    with n * n binary digits, the mask runs from column n down to column 1,
    so every n-th digit from the one for (n, j) spells row j, column n first.
    """
    digits = format(mask, f"0{n * n}b")
    return [int(digits[start::n], 2) for start in range(n - 1, -1, -1)]


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
    the shape's or for a dot outside its row.
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
            # Checked before packing: (1, n + 1) would land on bit n, (2, 1).
            if not (1 <= col <= n and 1 <= label <= n):
                raise _stray_dot(shape, col, label)
            mask |= 1 << ((col - 1) * n + label - 1)
        self._set(shape, row_labels, mask)

    @classmethod
    def _from_mask(
        cls, shape: ShapePartition, row_labels: Iterable[int], mask: int
    ) -> "FilledTableau":
        t = cls.__new__(cls)
        t._set(shape, row_labels, mask)
        return t

    def _set(self, shape: ShapePartition, row_labels: Iterable[int], mask: int) -> None:
        """The one validating route every constructor ends in."""
        row_labels = tuple(row_labels)
        expected, allowed = _layout(shape)
        if row_labels != expected:
            raise ValueError(
                f"row labels {row_labels} do not match the shape "
                f"(expected {expected})"
            )
        stray = mask & ~allowed
        if stray:
            col, label = divmod((stray & -stray).bit_length() - 1, shape.n)
            raise _stray_dot(shape, col + 1, label + 1)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "row_labels", row_labels)
        object.__setattr__(self, "mask", mask)

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


def encode_tableau(p: Permutation) -> FilledTableau:
    """
    The filled tableau of p: its shape dotted at every inversion (i, j).
    One pass of p's left borders gives both the shape (a_2..a_n sorted
    decreasingly) and the row labels, and the constructor compares those
    labels with the ones it rebuilds from the shape's parts alone.
    """
    word = p.entries
    borders = left_borders(word)
    s = ShapePartition(tuple(sorted(borders[1:], reverse=True)), len(word))
    labels = _labels(_row_buckets(borders))
    return FilledTableau._from_mask(s, labels, _inversion_mask(word))


def decode_tableau(t: FilledTableau) -> Permutation:
    """
    Rebuild the permutation from column dot counts: count c_i means the
    (c_i + 1)-th smallest unused value goes to position i.  The dot set must
    equal the inversion set of the result, otherwise the filling is rejected
    as inconsistent.
    """
    n = t.n
    counts = t.column_dot_counts()
    unused = list(range(1, n + 1))
    values: list[int] = []
    for i, c in enumerate(counts, start=1):
        if c >= len(unused):
            raise InvalidFillingError(
                f"column {i} holds {c} dots but only {len(unused)} values remain"
            )
        values.append(unused.pop(c))
    result = Permutation(tuple(values))
    if t.mask != _inversion_mask(result.entries):
        raise InconsistentFillingError(
            "inconsistent filling: dots do not match the decoded inversions"
        )
    if shape(result).parts != t.shape.parts:
        raise InconsistentFillingError(
            "inconsistent filling: host shape differs from the decoded shape"
        )
    return result


def is_valid_filling(t: FilledTableau) -> bool:
    """Whether the filling is realized by a permutation (decode succeeds)."""
    try:
        decode_tableau(t)
    except InvalidFillingError:
        return False
    return True


def min_filling(s: ShapePartition) -> FilledTableau:
    """
    The sparsest realizable filling of a shape: only the rightmost column of
    every rectangle of the corner decomposition is dotted.  Its decode avoids
    the pattern 2-3-1.
    """
    n = s.n
    labels = row_labels_for(s)
    top_down = labels[::-1]  # geometric rows 1.. from the top
    mask = 0
    for rect in rectangle_decomposition(s).rectangles:
        for row in range(rect.corner_row - rect.height + 1, rect.corner_row + 1):
            mask |= 1 << ((rect.column - 1) * n + top_down[row - 1] - 1)
    return FilledTableau._from_mask(s, labels, mask)


def max_filling(s: ShapePartition) -> FilledTableau:
    """The fully dotted filling of a shape; its decode avoids 1-3-2."""
    labels, allowed = _layout(s)
    return FilledTableau._from_mask(s, labels, allowed)


def bijection_132_to_231(p: Permutation) -> Permutation:
    """
    The shape-preserving bijection from 1-3-2-avoiding to 2-3-1-avoiding
    permutations: decode the minimal filling of the shape of p.
    """
    if contains_132(p.entries):
        raise ValueError(f"{p} contains 1-3-2; the bijection is not defined on it")
    return decode_tableau(min_filling(shape(p)))


def count_132_from_tableau(t: FilledTableau) -> int:
    """
    Occurrences of 1-3-2 read off a permutation's tableau: pairs of an empty
    cell with a dotted cell to its right within one row.  A row dotted in
    columns c_1 < ... < c_d has c_r - r empty cells left of its r-th dot, so
    the count is the sum of the dots' columns less d(d + 1)/2 per row.
    """
    n = t.n
    columns = _columns(t.mask, n)
    dotted = sum(col * field.bit_count() for col, field in enumerate(columns, 1))
    rows = (row.bit_count() for row in _rows(t.mask, n))
    return dotted - sum(d * (d + 1) // 2 for d in rows)


def count_231_from_tableau(t: FilledTableau) -> int:
    """
    Occurrences of 2-3-1 read off a permutation's tableau: pairs of dots
    (i, k), (j, k) in one row with i < j whose companion cell (i, j) is
    absent or empty; a dotted companion marks a decreasing triple instead.
    """
    n = t.n
    columns = _columns(t.mask, n)
    total = 0
    for row in _rows(t.mask, n):
        while row:
            low = row & -row
            row ^= low  # the dots of this row right of column i
            total += (row & ~columns[low.bit_length() - 1]).bit_count()
    return total


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


def tableau_from_json(data: dict) -> FilledTableau:
    s = ShapePartition(tuple(data["shape"]), data["n"])
    return FilledTableau(s, data["row_labels"], data["dots"])
