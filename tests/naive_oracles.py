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


def sparse_split_recursion(n, weight):
    """
    [P_0, ..., P_n] of the splitting recursion
    P_m = sum_{k=1}^{m} c P_{k-1} P_{m-k} x^s, (c, s) = weight(m, k), P_0 = 1,
    by sparse products of exponent -> coefficient dicts, term by term.
    """
    levels = [{0: 1}]
    for m in range(1, n + 1):
        out = {}
        for k in range(1, m + 1):
            c, s = weight(m, k)
            for e1, c1 in levels[k - 1].items():
                for e2, c2 in levels[m - k].items():
                    out[e1 + e2 + s] = out.get(e1 + e2 + s, 0) + c * c1 * c2
        levels.append({e: c for e, c in out.items() if c})
    return levels


def fraction_series_report(order):
    """
    The report of ``genfun.verify_series_identities`` computed on g itself,
    with fraction coefficients: truncated series products, derivative and
    substitutions, and g(-1, 1, 1, 1, z) against 1 + tanh(z).
    """
    from fractions import Fraction

    from permshape.genfun import SeriesReport, TruncatedSeries, _tanh_series, series_g

    g = series_g(order)
    lhs = g.derivative_z()
    shifted = g.subst_z_scaled((1, 0, 0, 0))
    left_factor = g.with_p_one().subst_z_scaled((1, 0, 1, 0))
    right_factor = TruncatedSeries.constant(order, 1) - g.with_q_one().subst_z_scaled(
        (0, 0, 0, 1)
    )
    rhs = shifted - (left_factor * right_factor).times_monomial((0, 1, 1, 0))
    residual = lhs - rhs.truncated(order - 1)
    equation_status = tuple(not residual.coefficient(k) for k in range(order))
    first_fail = next((k for k, ok in enumerate(equation_status) if not ok), None)
    failing = None
    if first_fail is not None:
        c = sorted(residual.coefficient(first_fail).items())
        failing = {",".join(map(str, key)): str(v) for key, v in c}
    values = g.evaluate_coefficients(Fraction(-1), Fraction(1), Fraction(1), Fraction(1))
    one_plus_tanh = _tanh_series(order)
    one_plus_tanh[0] += 1
    tanh_status = tuple(v == t for v, t in zip(values, one_plus_tanh))
    return SeriesReport(
        order=order,
        equation_status=equation_status,
        first_failing_order=first_fail,
        failing_residual=failing,
        tanh_status=tanh_status,
        tanh_first_mismatch=next(
            (k for k, ok in enumerate(tanh_status) if not ok), None
        ),
    )
