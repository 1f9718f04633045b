"""
Deliberately naive reference implementations used only by the tests.

Everything here follows the raw definitions (full scans, triple loops,
closures) with no shortcuts, so the production code is checked against an
independent route.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import add


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


def stack_left_borders(word):
    """
    Left borders by a stack of nearest greater-or-equal positions, popped
    while their value is below the next one.
    """
    res = []
    stack = []  # positions (1-based) with weakly decreasing values
    for i, v in enumerate(word, start=1):
        while stack and word[stack[-1] - 1] < v:
            stack.pop()
        res.append(stack[-1] if stack else 0)
        stack.append(i)
    return tuple(res)


def stack_right_borders(word):
    """Right borders by the same stack, run from the right end."""
    n = len(word)
    res = [n + 1] * n
    stack = []  # 0-based positions with weakly decreasing values
    for i in range(n - 1, -1, -1):
        v = word[i]
        while stack and word[stack[-1]] < v:
            stack.pop()
        if stack:
            res[i] = stack[-1] + 1
        stack.append(i)
    return tuple(res)


def stack_max_links(word):
    """
    (left, right, root) of the Cartesian tree by the stack of nearest greater
    values (Vuillemin): the last position popped is the left child, the new
    position the right child of the stack's top.  Of equal values the earlier
    one is the ancestor.
    """
    n = len(word)
    left = [-1] * n
    right = [-1] * n
    stack = []  # positions with weakly decreasing values
    for i, v in enumerate(word):
        last = -1
        while stack and word[stack[-1]] < v:
            last = stack.pop()
        left[i] = last
        if stack:
            right[stack[-1]] = i
        stack.append(i)
    return left, right, (stack[0] if stack else -1)


def recursive_avoiders_132(n):
    """
    The 1-3-2-avoiders of {1..n} by recursion on the maximum's position,
    through nested generators: position k, then the left side, then the
    right.
    """

    def build(values):
        if not values:
            yield ()
            return
        m = len(values)
        for k in range(1, m + 1):
            for left in build(values[m - k : m - 1]):
                for right in build(values[: m - k]):
                    yield left + (values[-1],) + right

    return build(tuple(range(1, n + 1)))


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


def naive_132_231(word):
    """The occurrences of 1-3-2 and of 2-3-1, one triple of values at a time."""
    count_132 = count_231 = 0
    for a, b, c in itertools.combinations(word, 3):
        count_132 += a < c < b
        count_231 += c < a < b
    return count_132, count_231


def naive_standardize(word):
    """The word with its i-th smallest value replaced by i."""
    return tuple(sorted(word).index(v) + 1 for v in word)


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


def naive_row_labels(s):
    """The positions j with a_j > 0 sorted by (a_j, j): the rows, bottom to top."""
    a = naive_borders_from_shape(s)
    rows = [j for j in range(1, s.n + 1) if a[j - 1]]
    return tuple(sorted(rows, key=lambda j: (a[j - 1], j)))


def naive_dots(mask, n):
    """The (column, label) pairs of a filling mask, bit by bit."""
    return frozenset((b // n + 1, b % n + 1) for b in range(n * n) if mask >> b & 1)


def naive_column_counts(mask, n):
    """The dots of a filling mask in each column 1..n."""
    dots = naive_dots(mask, n)
    return tuple(sum(1 for column, _ in dots if column == i) for i in range(1, n + 1))


def cell_assignment(tiles):
    """
    Each cell (row from the top, column) of the tiles (column, width, height,
    corner_row) mapped to its tile's index; a cell of two tiles raises
    ValueError.
    """
    assignment = {}
    for index, (column, width, height, corner_row) in enumerate(tiles):
        for row in range(corner_row - height + 1, corner_row + 1):
            for col in range(column - width + 1, column + 1):
                if (row, col) in assignment:
                    raise ValueError(f"rectangles overlap at {(row, col)}")
                assignment[row, col] = index
    return assignment


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


def _naive_descents(word):
    """Every descent position, 1-based, by adjacent comparisons."""
    return [i for i in range(1, len(word)) if word[i - 1] > word[i]]


def naive_lrmax(word):
    """The values above every earlier one, counted with a running maximum."""
    count, best = 0, 0
    for v in word:
        if v > best:
            count, best = count + 1, v
    return count


# The six per-word statistics by their raw definitions, in the library's
# order, for the table's second route.
NAIVE_STATISTICS = {
    "lbsum": lambda word: sum(naive_left_borders(word)),
    "des": lambda word: len(_naive_descents(word)),
    "maj": lambda word: sum(_naive_descents(word)),
    "lrmax": naive_lrmax,
    "maxdes": lambda word: max(_naive_descents(word), default=0),
    "inv": lambda word: len(naive_inversions(word)),
}


def naive_statistic_distribution(n, fn):
    counts = Counter()
    for word in itertools.permutations(range(1, n + 1)):
        counts[fn(word)] += 1
    return dict(counts)


def naive_avoiders(n, pattern):
    """The words of S_n with no occurrence of ``pattern``, in lexicographic order."""
    return [
        word
        for word in itertools.permutations(range(1, n + 1))
        if not any(
            order_isomorphic([word[p] for p in positions], pattern)
            for positions in itertools.combinations(range(n), len(pattern))
        )
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


def series_coefficients(order):
    """
    [z^m] g for m = 0..order as dicts (x, y, p, q) -> Fraction: the terms of
    x^binom(m,2) G_m(1/x, y, p, q) / m!, read off ``quad_polynomial(m).terms()``.
    """
    from permshape.genfun import quad_polynomial

    return [
        {
            (math.comb(m, 2) - x, y, p, q): Fraction(c, math.factorial(m))
            for (x, y, p, q), c in quad_polynomial(m).terms()
        }
        for m in range(order + 1)
    ]


# Polynomials in (x, y, p, q) as plain dicts, exponent tuple -> coefficient.
def _gathered(pairs):
    out = Counter()
    for key, c in pairs:
        out[key] += c
    return {key: c for key, c in out.items() if c}


def _dict_sum(*polys):
    return _gathered(item for poly in polys for item in poly.items())


def _dict_product(a, b):
    return _gathered(
        (tuple(map(add, ka, kb)), ca * cb) for ka, ca in a.items() for kb, cb in b.items()
    )


def _dict_at_one(poly, var):
    """Set variable number ``var`` of (x, y, p, q) to 1."""
    return _gathered((key[:var] + (0,) + key[var + 1 :], c) for key, c in poly.items())


def _dict_times(poly, monomial, scalar=1):
    return {tuple(map(add, key, monomial)): scalar * c for key, c in poly.items()}


def naive_derivative(counts):
    """The derivative of a polynomial in x given as exponent -> coefficient."""
    return {e - 1: e * c for e, c in counts.items() if e > 0}


def dict_value(poly, point):
    """The value of ``poly`` at the (x, y, p, q) ``point``."""
    return sum(c * math.prod(map(pow, point, key)) for key, c in poly.items())


def fraction_series_report(order):
    """
    The report of ``genfun.verify_series_identities`` computed on g itself,
    with fraction coefficients in plain dicts, not the library's polynomials:
    the z^k coefficients of both sides of the functional equation by
    truncated products, and g(-1, 1, 1, 1, z) against 1 + tanh(z).
    """
    from permshape.genfun import SeriesReport, _tanh_series

    one = (0, 0, 0, 0)
    g = series_coefficients(order)
    # g(x,y,1,q,xpz) and 1 - g(x,y,p,1,qz), coefficient by coefficient.
    left = [_dict_times(_dict_at_one(g_i, 2), (i, 0, i, 0)) for i, g_i in enumerate(g)]
    right = [_dict_times(_dict_at_one(g_j, 3), (0, 0, 0, j), -1) for j, g_j in enumerate(g)]
    right[0] = _dict_sum(right[0], {one: 1})
    residuals = []
    for k in range(order):
        product = _dict_sum(*(_dict_product(left[i], right[k - i]) for i in range(k + 1)))
        rhs = _dict_sum(
            _dict_times(g[k], (k, 0, 0, 0)), _dict_times(product, (0, 1, 1, 0), -1)
        )
        lhs = _dict_times(g[k + 1], one, k + 1)  # [z^k] dg/dz
        residuals.append(_dict_sum(lhs, _dict_times(rhs, one, -1)))
    equation_status = tuple(not r for r in residuals)
    first_fail = next((k for k, ok in enumerate(equation_status) if not ok), None)
    failing = None
    if first_fail is not None:
        c = sorted(residuals[first_fail].items())
        failing = {",".join(map(str, key)): str(v) for key, v in c}
    one_plus_tanh = _tanh_series(order)
    one_plus_tanh[0] += 1
    tanh_status = tuple(
        dict_value(g_k, (-1, 1, 1, 1)) == t for g_k, t in zip(g, one_plus_tanh)
    )
    return SeriesReport(equation_status, failing, tanh_status)
