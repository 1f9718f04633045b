"""
Deliberately naive reference implementations used only by the tests.

Everything here follows the raw definitions (full scans, triple loops,
closures) with no shortcuts, so the production code is checked against an
independent route.
"""
from __future__ import annotations

import itertools
from collections import Counter


def naive_left_borders(word):
    out = []
    for i in range(len(word)):
        a = 0
        for j in range(i):
            if word[j] > word[i]:
                a = j + 1
        out.append(a)
    return tuple(out)


def naive_right_borders(word):
    n = len(word)
    out = []
    for i in range(n):
        b = n + 1
        for j in range(i + 1, n):
            if word[j] > word[i]:
                b = j + 1
                break
        out.append(b)
    return tuple(out)


def order_isomorphic(a, b):
    return all(
        (a[i] < a[j]) == (b[i] < b[j])
        for i in range(len(a))
        for j in range(i + 1, len(a))
    )


def naive_pattern_count(word, pattern):
    k = len(pattern)
    return sum(
        1
        for positions in itertools.combinations(range(len(word)), k)
        if order_isomorphic([word[p] for p in positions], pattern)
    )


def naive_barred_132(word):
    """Triple scan with the explicit window-maximum side condition."""
    n = len(word)
    count = 0
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                if not word[a] < word[c] < word[b]:
                    continue
                if all(word[d] <= word[b] for d in range(a + 1, c)):
                    count += 1
    return count


def _first_maximum(word, lo, hi):
    k = lo
    for t in range(lo + 1, hi):
        if word[t] > word[k]:
            k = t
    return k


def naive_dyck_word(word):
    """The recursive definition: "" for the empty word, L m R -> u D(L) r D(R)."""
    if not word:
        return ""
    k = _first_maximum(word, 0, len(word))
    return "u" + naive_dyck_word(word[:k]) + "r" + naive_dyck_word(word[k + 1 :])


def naive_decreasing_tree(word):
    """
    (values, left, right, root) of the decreasing tree by recursive splits at
    the first maximum; children are positions, -1 for none.
    """
    left = [-1] * len(word)
    right = [-1] * len(word)

    def split(lo, hi):
        if lo >= hi:
            return -1
        k = _first_maximum(word, lo, hi)
        left[k] = split(lo, k)
        right[k] = split(k + 1, hi)
        return k

    root = split(0, len(word))
    return tuple(word), tuple(left), tuple(right), root


def naive_borders_from_shape(s):
    """
    a_1..a_n from a shape by scanning: a_1 = 0, a_{v+1} = v for each distinct
    nonzero part v, then each open position j, left to right, takes the
    greatest unused part smaller than j, found by a scan of the sorted rest.
    """
    n = s.n
    if n == 0:
        return ()
    a = [None] * (n + 1)
    a[1] = 0
    remaining = sorted(s.parts, reverse=True)
    for v in sorted(set(s.parts), reverse=True):
        if v > 0:
            a[v + 1] = v
            remaining.remove(v)
    for j in range(2, n + 1):
        if a[j] is None:
            for idx, v in enumerate(remaining):
                if v < j:
                    a[j] = remaining.pop(idx)
                    break
            else:
                raise ValueError(f"shape {s} admits no border sequence")
    return tuple(a[1:])


def naive_inversions(word):
    """Every inversion (i, j), 1-based, i < j and word[i] > word[j], in order."""
    return [
        (i + 1, j + 1)
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    ]


def naive_permutations(n):
    """All permutations of 1..n in lexicographic order, by sorting."""
    return sorted(itertools.permutations(range(1, n + 1)))


def naive_statistic_distribution(n, fn):
    counts = Counter()
    for word in itertools.permutations(range(1, n + 1)):
        counts[fn(word)] += 1
    return dict(counts)


def naive_avoiders(n, pattern):
    return [
        word
        for word in itertools.permutations(range(1, n + 1))
        if naive_pattern_count(word, pattern) == 0
    ]


def naive_shape_census(n, shape_fn):
    counts = Counter()
    for word in itertools.permutations(range(1, n + 1)):
        counts[shape_fn(word)] += 1
    return dict(counts)


def bruhat_leq_by_closure(p, q, upper_covers_fn):
    """Reachability from p to q in the cover graph, depth-first."""
    if p == q:
        return True
    seen = {p}
    stack = [p]
    while stack:
        current = stack.pop()
        for cover in upper_covers_fn(current):
            if cover == q:
                return True
            if cover not in seen:
                seen.add(cover)
                stack.append(cover)
    return False


def naive_up_sets(vectors):
    """Bit b of entry a when vectors[b] >= vectors[a] coordinatewise, pair by pair."""
    return [
        sum(
            1 << b
            for b, w in enumerate(vectors)
            if all(x >= y for x, y in zip(w, v))
        )
        for v in vectors
    ]


def naive_poset_counterexamples(words, rank_table_fn, shape_parts_fn):
    """
    Every ordered pair of distinct words where strict shape containment and
    strict rank dominance disagree, in (first, second) enumeration order.
    """
    views = [(w, rank_table_fn(w), shape_parts_fn(w)) for w in words]
    bad = []
    for word_a, rank_a, parts_a in views:
        for word_b, rank_b, parts_b in views:
            if word_a == word_b:
                continue
            contained = parts_a != parts_b and all(
                x <= y for x, y in zip(parts_a, parts_b)
            )
            below = all(x >= y for x, y in zip(rank_a, rank_b))
            if contained != below:
                side = (
                    "shape strictly contained but not Bruhat-below"
                    if contained
                    else "Bruhat-below but shape not strictly contained"
                )
                bad.append((word_a, word_b, side))
    return bad
