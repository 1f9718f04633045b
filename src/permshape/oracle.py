"""
Exhaustive enumeration of S_n with exact counting: statistic distributions,
shape censuses, and direct generators for the two pattern-avoidance classes.

Every walk over S_n goes through :func:`itertools.permutations`, which is
lexicographic (Knuth, TAOCP 4A, 7.2.1.2); a lexicographic range is a slice of
that one stream, so work split into ranges across processes merges back into
exactly the serial result.  :func:`tally` counts a key over S_n; the walks
of :mod:`permshape.verify` count the keys of their checks as they check.

:func:`fan_out` is the library's one parallel layer: it rejects ``workers``
below 1, decides whether the work is big enough for a pool at all, the pool
size (``workers`` clamped to the CPU count and to the amount of work), the
start method (``fork``, else ``spawn``) and the split.  A split deals the
stream out in ``_BLOCKS_PER_WORKER`` contiguous blocks per worker, block t
to worker t mod w, so that a cost per word that varies along the stream
evens out between the workers.  Each worker walks its blocks in stream order
over one iterator (:func:`walk_blocks`) and returns one result per block,
and :func:`fan_out` hands the caller the results in stream order.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable, Iterator

from .permutations import (
    descent_positions,
    inversion_count,
    left_borders,
    lr_maxima_count,
)
from .shapes import ShapePartition, shape_parts

__all__ = [
    "MAX_ENUM_N",
    "STATISTICS",
    "FILTERS",
    "Distribution",
    "enumerate_sn",
    "permutation_range",
    "avoiders_132",
    "avoiders_231",
    "all_shapes",
    "tally",
    "distribution",
    "shape_census",
    "split_ranges",
    "effective_workers",
    "walk_blocks",
    "fan_out",
]

MAX_ENUM_N = 11

# The least work worth a process pool, one unit per word of S_n.  Below it a
# pool cannot pay: starting one costs tens of ms, while a tally of S_6 takes
# 2-5 ms inline (16-38 ms with two workers on a 2-CPU host).
_POOL_MIN_TOTAL = factorial(7)

# A tally does less per word than a check, so it pays for a pool one size
# later: on a 2-CPU host, the joint tally of S_7 takes 29 ms inline and
# 25-40 ms with two workers, that of S_8 130-180 ms against 85-115 ms.
_TALLY_MIN_TOTAL = factorial(8)

# Blocks per worker of a split walk.  On a 2-CPU host the two halves of the
# S_0..S_7 stream cost the tableau check 86 and 57 ms; dealt out in 8
# interleaved blocks per worker, the two shares cost 56 and 57 ms.
_BLOCKS_PER_WORKER = 8


def _stat_lbsum(word: tuple[int, ...]) -> int:
    return sum(left_borders(word))


def _stat_des(word: tuple[int, ...]) -> int:
    return sum(1 for i in range(1, len(word)) if word[i - 1] > word[i])


def _stat_maj(word: tuple[int, ...]) -> int:
    return sum(descent_positions(word))


def _stat_maxdes(word: tuple[int, ...]) -> int:
    for i in range(len(word) - 1, 0, -1):
        if word[i - 1] > word[i]:
            return i
    return 0


STATISTICS: dict[str, Callable[[tuple[int, ...]], int]] = {
    "lbsum": _stat_lbsum,
    "des": _stat_des,
    "maj": _stat_maj,
    "lrmax": lr_maxima_count,
    "maxdes": _stat_maxdes,
    "inv": inversion_count,
}

FILTERS = (None, "132", "231")


def _check_enum_n(n: int) -> None:
    if not 0 <= n <= MAX_ENUM_N:
        raise ValueError(f"full enumeration supports 0 <= n <= {MAX_ENUM_N}")


def enumerate_sn(n: int) -> Iterator[tuple[int, ...]]:
    """All permutations of {1..n} in lexicographic order."""
    _check_enum_n(n)
    return itertools.permutations(range(1, n + 1))


def permutation_range(n: int, start: int, stop: int) -> Iterator[tuple[int, ...]]:
    """Permutations with lexicographic indices in [start, stop)."""
    _check_enum_n(n)
    if not 0 <= start <= stop <= factorial(n):
        raise ValueError(f"bad range [{start}, {stop}) for n={n}")
    return itertools.islice(enumerate_sn(n), start, stop)


def split_ranges(total: int, pieces: int) -> list[tuple[int, int]]:
    """Split [0, total) into contiguous near-equal pieces."""
    pieces = max(1, min(pieces, total)) if total else 1
    step, extra = divmod(total, pieces)
    bounds = []
    lo = 0
    for t in range(pieces):
        hi = lo + step + (1 if t < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def effective_workers(
    workers: int, total: int, *, min_total: int = _POOL_MIN_TOTAL
) -> int:
    """
    The number of processes :func:`fan_out` uses for ``total`` units of work:
    1 below ``min_total`` units (in the caller's own units), otherwise
    ``workers`` clamped to the CPU count and to ``total``, and at least 1.
    ``workers`` below 1 raises ValueError at every size.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if total < min_total:
        return 1
    return max(1, min(workers, os.cpu_count() or 1, total))


def walk_blocks(
    words: Iterator[tuple[int, ...]], blocks: list[tuple[int, int]], total: int
) -> Iterator[Iterator[tuple[int, ...]]]:
    """
    The words [lo, hi) of ``words``, a stream of ``total`` words, for each
    of ``blocks``, ascending and disjoint, as slices of the one iterator.  A
    slice moves the iterator only once it is read: it first finishes the
    slice before it, whatever the caller left of that, then skips the words
    between the two.  So whatever the stream raises, in a block or in a gap
    before it, is raised by reading that block's slice.  So is a stream of
    the wrong length: a slice that comes up short raises RuntimeError once
    read to its end, as does the slice ending at ``total`` if words remain.
    """
    at, previous = 0, iter(())
    for lo, hi in blocks:
        previous = itertools.chain.from_iterable(
            _slice_after(words, previous, lo - at, hi - lo, hi == total, total)
        )
        yield previous
        at = hi


def _slice_after(words, previous, gap, size, last, total):
    """The one slice of a block of :func:`walk_blocks`, made once it is read."""
    for _ in previous:
        pass
    next(itertools.islice(words, gap, gap), None)  # skip the gap
    read = itertools.count(1)  # compress takes one count per word it passes
    yield itertools.compress(itertools.islice(words, size), read)
    if next(read) - 1 < size:
        raise RuntimeError(f"the stream ends short of its {total} words")
    if last and next(words, None) is not None:
        raise RuntimeError(f"the stream runs past its {total} words")


def fan_out(
    work: Callable[[list[tuple[int, int]]], list],
    total: int,
    workers: int,
    *,
    min_total: int = _POOL_MIN_TOTAL,
) -> list:
    """
    Run ``work(blocks)`` once per worker on its blocks of [0, total), a list
    of (lo, hi) in ascending order, and return the per-block results in
    block order.  ``work`` returns one result per block, in order, and may
    stop early: fewer results end that worker's share, and the returned list
    ends just before the first block without a result.  One worker gets the
    single block [0, total) and runs inline, as does all work below
    ``min_total`` units (by default 7!, one unit per word: a verify suite's
    walk over S_0..S_max splits once it reaches 7! words).  Several workers
    each get ``_BLOCKS_PER_WORKER`` interleaved blocks and run in one process
    pool, so ``work`` must be picklable (a module-level function, or a
    :func:`functools.partial` of one).
    """
    count = effective_workers(workers, total, min_total=min_total)
    if count == 1:
        return work([(0, total)])
    blocks = split_ranges(total, count * _BLOCKS_PER_WORKER)
    shares = [blocks[w :: count] for w in range(count)]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    with context.Pool(count) as pool:
        returned = pool.map(work, shares, chunksize=1)
    results = []
    for t in range(len(blocks)):
        share = returned[t % count]
        if t // count >= len(share):
            break
        results.append(share[t // count])
    return results


def avoiders_132(n: int) -> Iterator[tuple[int, ...]]:
    """
    All 1-3-2-avoiding permutations of {1..n}, built directly: around the
    maximum, every value on the left must exceed every value on the right.
    """
    _check_enum_n(n)

    def build(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if not values:
            yield ()
            return
        m = len(values)
        for k in range(1, m + 1):
            left_values = values[m - k : m - 1]
            right_values = values[: m - k]
            for left in build(left_values):
                for right in build(right_values):
                    yield left + (values[-1],) + right

    return build(tuple(range(1, n + 1)))


def avoiders_231(n: int) -> Iterator[tuple[int, ...]]:
    """
    All 2-3-1-avoiding permutations of {1..n}: the reversals of the
    1-3-2-avoiders, since reversing a 1-3-2 gives a 2-3-1.
    """
    return (word[::-1] for word in avoiders_132(n))


def all_shapes(n: int) -> Iterator[ShapePartition]:
    """Every staircase-fitting shape with exactly n - 1 parts."""
    if n == 0:
        yield ShapePartition((), 0)
        return

    acc: list[int] = []

    def rec(j: int, bound: int) -> Iterator[ShapePartition]:
        if j == n:
            yield ShapePartition(tuple(acc), n)
            return
        for v in range(min(bound, n - j), -1, -1):
            acc.append(v)
            yield from rec(j + 1, v)
            acc.pop()

    yield from rec(1, n - 1)


@dataclass(frozen=True)
class Distribution:
    """Exact counts of one statistic over S_n or an avoidance class."""

    n: int
    statistic: str
    filter: str | None
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def parity_split(self) -> tuple[int, int]:
        """(count at even values, count at odd values)."""
        even = sum(c for v, c in self.counts.items() if v % 2 == 0)
        return even, self.total - even


def _tally(words: Iterator[tuple[int, ...]], key: Callable) -> dict:
    counts: dict = {}
    for word in words:
        v = key(word)
        counts[v] = counts.get(v, 0) + 1
    return counts


def _tally_blocks(n: int, key: Callable, blocks: list[tuple[int, int]]) -> list[dict]:
    return [
        _tally(words, key)
        for words in walk_blocks(enumerate_sn(n), blocks, factorial(n))
    ]


def _merge_tallies(partials: list[dict]) -> dict:
    counts: dict = {}
    for partial_counts in partials:
        for v, c in partial_counts.items():
            counts[v] = counts.get(v, 0) + c
    return counts


def _shape_key(word: tuple[int, ...]) -> str:
    return ",".join(map(str, shape_parts(word)))


def tally(n: int, key: Callable, workers: int = 1) -> dict:
    """
    Exact counts of ``key(word)`` over S_n.  From n = 8 on, ``workers``
    splits the enumeration into lexicographic blocks counted by separate
    processes (see :func:`fan_out`), so ``key`` must be picklable (a
    module-level function).
    """
    return _merge_tallies(
        fan_out(
            partial(_tally_blocks, n, key),
            factorial(n),
            workers,
            min_total=_TALLY_MIN_TOTAL,
        )
    )


def distribution(
    n: int, statistic: str, avoid: str | None = None, workers: int = 1
) -> Distribution:
    """
    The exact distribution of a statistic over S_n, optionally restricted to
    the 1-3-2- or 2-3-1-avoiding class.  Over full S_n it is a :func:`tally`,
    so ``workers`` splits it into lexicographic ranges from n = 8 on; the
    avoider classes are walked in one process.  ``workers`` below 1 raises
    ValueError either way.
    """
    _check_enum_n(n)
    if statistic not in STATISTICS:
        raise ValueError(f"unknown statistic {statistic!r}")
    if avoid not in FILTERS:
        raise ValueError(f"unknown filter {avoid!r} (use None, '132' or '231')")
    fn = STATISTICS[statistic]
    if avoid is None:
        counts = tally(n, fn, workers)
    else:
        effective_workers(workers, 0)  # inline, but workers < 1 is still an error
        counts = _tally((avoiders_132 if avoid == "132" else avoiders_231)(n), fn)
    return Distribution(n=n, statistic=statistic, filter=avoid, counts=counts)


def shape_census(n: int, workers: int = 1) -> dict[str, int]:
    """Exact count of permutations per shape, keyed by the shape text form."""
    if not 0 <= n <= 9:
        raise ValueError("shape census supports 0 <= n <= 9")
    return tally(n, _shape_key, workers)
