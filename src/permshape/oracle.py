"""
Exhaustive enumeration of S_n with exact counting: statistic distributions,
shape censuses, and direct generators for the two pattern-avoidance classes.

Every walk over S_n goes through :func:`itertools.permutations`, which is
lexicographic (Knuth, TAOCP 4A, 7.2.1.2); a lexicographic range is a slice of
that one stream, so work split into ranges across processes merges back into
exactly the serial result.  :func:`walk` is the library's one walk and its
one parallel layer: it deals the stream of S_n, for the n's asked for, out
in blocks to the workers and hands each block to a visitor.  :func:`tally`
counts a key over S_n with a counting visitor; the suites of
:mod:`permshape.verify` check each block's words and count the keys of
their checks.
"""
from __future__ import annotations

import itertools
import multiprocessing
import os
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import factorial
from typing import Callable, Iterator, Sequence

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
    "walk",
]

MAX_ENUM_N = 11

# The least work worth splitting, one unit per word of S_n, for every walk,
# a count or a check.  Starting one forked child, reading its answer off its
# pipe and joining it costs 3-4 ms.  On a 2-CPU host, inline against two
# workers (medians of 21 runs, three rounds): a bare tally of the area over
# S_6 takes 1.4 against 5.2 ms and the stats check walk of S_0..S_6 12
# against 16 ms, so below S_7 a split cannot pay.  At S_7 the check walks
# gain (stats 87-90 against 61-78 ms, genfun 29-33 against 18-24 ms), while
# a bare tally loses no more than that start (the area 6-10 against 9-14 ms,
# the shape census 9 against 12-13 ms).
_FAN_OUT_MIN_TOTAL = factorial(7)

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


def effective_workers(workers: int, total: int) -> int:
    """
    The number of processes :func:`walk` uses for ``total`` words of
    work: 1 below 7! words (S_7), otherwise ``workers`` clamped to the CPU
    count and to ``total``, and at least 1.  ``workers`` below 1 raises
    ValueError at every size.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if total < _FAN_OUT_MIN_TOTAL:
        return 1
    return max(1, min(workers, os.cpu_count() or 1, total))


def walk(ns: Sequence[int], visit: Callable, workers: int) -> list:
    """
    Call ``visit(words)`` on each block of the stream of S_n for the n in
    ``ns``, in lexicographic order, and return the values in stream order.
    ``visit`` returns ``(value, stop)``; a block that stops ends its
    worker's share, and the values end just before the first block left
    without one.  A walk below 7! words, or on one worker, is the single
    block of the whole stream, visited inline.

    ``workers`` counts processes, the caller among them (see
    :func:`effective_workers`).  Several workers each get
    ``_BLOCKS_PER_WORKER`` contiguous blocks, dealt out round robin, block t
    to worker t mod w, so that a cost per word that varies along the stream
    evens out between the workers.  The caller visits share 0 itself, while
    one child process per other share, started by ``fork`` or else
    ``spawn``, visits that one and answers over its own one-way pipe; under
    ``spawn`` ``visit`` must be picklable (a module-level function, or a
    :func:`functools.partial` of one).

    Each worker builds the stream once and reads its blocks off it in
    order.  A block first finishes the one before it, whatever ``visit``
    left of that unread, then skips the words between the two.  So whatever
    the stream raises, in a block or in the gap before it, is raised by
    reading that block, and so is a stream of the wrong length: a block
    that comes up short raises RuntimeError once read to its end, as does
    the block ending the stream if words remain.  What a child raises is
    raised here, a child that exits without an answer raises RuntimeError,
    and whatever ``walk`` raises, it first ends and joins its children.
    """
    for n in ns:  # before the walk sizes its split from n!
        _check_enum_n(n)
    total = sum(map(factorial, ns))
    count = effective_workers(workers, total)
    if count == 1:
        return _walk_share(ns, visit, [(0, total)])
    blocks = split_ranges(total, count * _BLOCKS_PER_WORKER)
    shares = [blocks[w :: count] for w in range(count)]
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    children = []
    try:
        for share in shares[1:]:
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(
                target=_answer, args=(ns, visit, share, sender), daemon=True
            )
            child.start()
            children.append((child, receiver))
            sender.close()  # the child's copy is the only one left
        returned = [_walk_share(ns, visit, shares[0])]
        for child, receiver in children:
            try:
                ok, value = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"a worker process exited with code {child.exitcode} "
                    "before it sent its results"
                ) from None
            if not ok:
                raise value
            returned.append(value)
    finally:
        for child, receiver in children:
            receiver.close()
            if child.is_alive():
                child.terminate()
            child.join()
    values = []
    for t in range(len(blocks)):
        share = returned[t % count]
        if t // count >= len(share):
            break
        values.append(share[t // count])
    return values


def _walk_share(ns: Sequence[int], visit: Callable, share: list) -> list:
    """One worker of :func:`walk`: its blocks [lo, hi), visited in order."""
    words = itertools.chain.from_iterable(map(enumerate_sn, ns))
    total = sum(map(factorial, ns))
    values, at, block = [], 0, iter(())
    for lo, hi in share:
        block = itertools.chain.from_iterable(
            _slice_after(words, block, lo - at, hi - lo, hi == total, total)
        )
        value, stop = visit(block)
        values.append(value)
        if stop:
            break
        at = hi
    return values


def _slice_after(words, previous, gap, size, last, total):
    """The one slice of a block of :func:`walk`, made once it is read."""
    for _ in previous:
        pass
    next(itertools.islice(words, gap, gap), None)  # skip the gap
    read = itertools.count(1)  # compress takes one count per word it passes
    yield itertools.compress(itertools.islice(words, size), read)
    if next(read) - 1 < size:
        raise RuntimeError(f"the stream ends short of its {total} words")
    if last and next(words, None) is not None:
        raise RuntimeError(f"the stream runs past its {total} words")


def _answer(ns, visit, share, sender) -> None:
    """A child of :func:`walk`: visit its share, send the answer."""
    try:
        reply = (True, _walk_share(ns, visit, share))
    except Exception as error:
        reply = (False, error)
    sender.send(reply)
    sender.close()


def avoiders_132(n: int) -> Iterator[tuple[int, ...]]:
    """
    All 1-3-2-avoiding permutations of {1..n}, built directly: around the
    maximum, every value on the left must exceed every value on the right.
    Each smaller size's avoiders are built once, as a list, and the
    avoiders of {1..n} are made from them as they are read.
    """
    _check_enum_n(n)
    if n == 0:
        return iter([()])
    smaller = [[()]]  # smaller[m]: the avoiders of {1..m}, in order
    for m in range(1, n):
        smaller.append(list(_avoiders_132_from(smaller, m)))
    return _avoiders_132_from(smaller, n)


def _avoiders_132_from(smaller: list, m: int) -> Iterator[tuple[int, ...]]:
    """
    The avoiders of {1..m} from ``smaller``, those of each size below m: the
    maximum at position k, an avoider of {m-k+1..m-1} on its left (one of
    size k - 1, shifted by m - k) and one of {1..m-k} on its right, ordered
    by k, then the left side, then the right.
    """
    for k in range(1, m + 1):
        shift = m - k
        rights = smaller[shift]
        for left in smaller[k - 1]:
            head = tuple(v + shift for v in left) + (m,)
            for right in rights:
                yield head + right


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


def _tally(key: Callable, words: Iterator[tuple[int, ...]]) -> tuple[dict, bool]:
    """The counts of ``key(word)`` over ``words``; as a visitor, it never stops."""
    return dict(Counter(map(key, words))), False


def tally(n: int, key: Callable, workers: int = 1) -> dict:
    """
    Exact counts of ``key(word)`` over S_n.  From n = 7 on, ``workers``
    splits the enumeration into lexicographic blocks counted by separate
    processes (see :func:`walk`), so ``key`` must be picklable (a
    module-level function).
    """
    counts = Counter()
    for part in walk((n,), partial(_tally, key), workers):
        counts.update(part)
    return dict(counts)


def distribution(
    n: int, statistic: str, avoid: str | None = None, workers: int = 1
) -> Distribution:
    """
    The exact distribution of a statistic over S_n, optionally restricted to
    the 1-3-2- or 2-3-1-avoiding class.  Over full S_n it is a :func:`tally`,
    so ``workers`` splits it into lexicographic ranges from n = 7 on; the
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
        counts, _ = _tally(fn, (avoiders_132 if avoid == "132" else avoiders_231)(n))
    return Distribution(n=n, statistic=statistic, filter=avoid, counts=counts)


def shape_census(n: int, workers: int = 1) -> dict[tuple[int, ...], int]:
    """
    Exact count of permutations per shape, keyed by the shape's parts
    (:func:`permshape.shapes.shape_parts`).
    """
    if not 0 <= n <= 9:
        raise ValueError("shape census supports 0 <= n <= 9")
    return tally(n, shape_parts, workers)
