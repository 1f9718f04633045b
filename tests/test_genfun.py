import hashlib
import itertools
import json
from fractions import Fraction
from math import comb, factorial

import pytest

from permshape import genfun
from permshape.genfun import (
    QuadPolynomial,
    UniPolynomial,
    lbsum_polynomial,
    moments,
    parity_table,
    q_catalan,
    q_catalan_alt,
    quad_polynomial,
    tangent_numbers,
    verify_series_identities,
)
from permshape.oracle import avoiders_132
from permshape.permutations import (
    descent_positions,
    inversion_count,
    left_borders,
    lr_maxima_count,
)

from naive_oracles import (
    dict_value,
    fraction_series_report,
    naive_derivative,
    naive_statistic_distribution,
    series_coefficients,
    sparse_split_recursion,
)


def catalan(n):
    return comb(2 * n, n) // (n + 1)


def digest(items):
    """The coefficient digest of perfbench/jobs.py: sha256 of sorted JSON."""
    text = json.dumps(sorted(items), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_exact_coefficients_pinned():
    # Digests of the full coefficient lists, recorded before the polynomial
    # classes were rebuilt on packed exponent keys.
    assert digest(lbsum_polynomial(30).to_counts().items()) == "24d8622b8dab4d51"
    assert digest((list(k), c) for k, c in quad_polynomial(13).terms()) == (
        "69e4775a6039992f"
    )
    assert digest(q_catalan(28).to_counts().items()) == "c6cc3580d1af2f7c"


class TestPackedRecursions:
    """
    F_n, q_catalan and q_catalan_alt share one packed-int splitting
    recursion; each against the sparse products of the same recursion, so
    that a fault in the shared helper cannot hide behind agreement.
    """

    @pytest.mark.parametrize(
        "build, top, weight",
        [
            (lbsum_polynomial, 40, lambda m, k: (comb(m - 1, k - 1), k * (m - k))),
            (q_catalan, 30, lambda m, k: (1, k * (m - k))),
            (q_catalan_alt, 30, lambda m, k: (1, k - 1)),
        ],
        ids=["F", "q_catalan", "q_catalan_alt"],
    )
    def test_against_sparse_products(self, build, top, weight, monkeypatch):
        expected = sparse_split_recursion(top, weight)
        # Cold, from the top down, and warm, one level at a time.
        cache = {lbsum_polynomial: "_f_cache", q_catalan: "_qc_cache"}.get(
            build, "_qc_alt_cache"
        )
        monkeypatch.setattr(genfun, cache, [UniPolynomial.one()])
        assert build(top).to_counts() == expected[top]
        monkeypatch.setattr(genfun, cache, [UniPolynomial.one()])
        assert [build(n).to_counts() for n in range(top + 1)] == expected

    def test_slots_wide_enough_at_the_top(self):
        # F_60 holds 60!-sized coefficients: a slot one byte too narrow
        # would carry into its neighbour and break the total mass.
        f = lbsum_polynomial(60)
        assert f.evaluate(1) == factorial(60)
        assert f.coefficient(0) == 1 and f.coefficient(comb(60, 2)) == 1


class TestUniPolynomial:
    def test_arithmetic(self):
        p = UniPolynomial({0: 1, 2: 3})
        q = UniPolynomial({1: 2})
        assert (p + q).to_counts() == {0: 1, 1: 2, 2: 3}
        assert (p * q).to_counts() == {1: 2, 3: 6}
        assert p.shifted(2).to_counts() == {2: 1, 4: 3}
        assert (p - p).to_counts() == {}

    def test_results_hold_no_zero_coefficient(self):
        # Sums, products and merged keys that cancel drop the term; a
        # polynomial built from the same terms compares equal.
        p, q = UniPolynomial({0: 1, 1: 1}), UniPolynomial({0: 1, 1: -1})
        assert (p * q).to_counts() == {0: 1, 2: -1} == (p * q)._coeffs
        assert (p + q).to_counts() == {0: 2}
        assert UniPolynomial({1: 1, 2: -1}).merged(0).to_counts() == {}
        assert p.scaled(0).to_counts() == {} and p.scaled(0) == UniPolynomial()
        assert (p * q) == UniPolynomial({0: 1, 1: 0, 2: -1})

    def test_evaluate_and_derivative(self):
        p = UniPolynomial({0: 1, 1: 1, 2: 3, 3: 1})
        assert p.evaluate(1) == 6
        assert p.evaluate(-1) == 2
        # The derivative the moments test takes as its reference.
        assert naive_derivative(p.to_counts()) == {0: 1, 1: 6, 2: 3}

    def test_reversal(self):
        p = UniPolynomial({0: 1, 1: 1, 2: 2, 3: 1})
        assert p.reversed_on_degree(3).to_counts() == {3: 1, 2: 1, 1: 2, 0: 1}
        with pytest.raises(ValueError):
            p.reversed_on_degree(2)


class TestAreaPolynomial:
    def test_small_values(self):
        assert lbsum_polynomial(0).to_counts() == {0: 1}
        assert lbsum_polynomial(2).to_counts() == {0: 1, 1: 1}
        assert lbsum_polynomial(3).to_counts() == {0: 1, 1: 1, 2: 3, 3: 1}

    def test_matches_enumeration(self):
        for n in range(8):
            truth = naive_statistic_distribution(
                n, lambda w: sum(left_borders(w))
            )
            assert lbsum_polynomial(n).to_counts() == truth

    def test_total_mass(self):
        for n in range(21):
            assert lbsum_polynomial(n).evaluate(1) == factorial(n)

    def test_degree_bound(self):
        for n in range(13):
            f = lbsum_polynomial(n)
            assert f.degree == comb(n, 2)
            assert f.coefficient(comb(n, 2)) == 1

    def test_range_guard(self):
        with pytest.raises(ValueError):
            lbsum_polynomial(61)


class TestParity:
    def test_imbalance_values(self):
        table = parity_table(8)
        assert table.delta[1:8:2] == (1, 2, 16, 272)
        assert table.delta[2:9:2] == (0, 0, 0, 0)

    def test_small_split(self):
        table = parity_table(3)
        assert (table.even[3], table.odd[3]) == (4, 2)

    def test_matches_enumeration(self):
        table = parity_table(7)
        for n in range(8):
            truth = naive_statistic_distribution(n, lambda w: sum(left_borders(w)))
            even = sum(c for v, c in truth.items() if v % 2 == 0)
            odd = factorial(n) - even
            assert (table.even[n], table.odd[n]) == (even, odd)

    def test_polynomial_link(self):
        table = parity_table(20)
        for n in range(21):
            assert lbsum_polynomial(n).evaluate(-1) == table.delta[n]


class TestTangentNumbers:
    def test_values(self):
        assert tangent_numbers(5) == [1, 2, 16, 272, 7936]

    def test_matches_imbalance(self):
        table = parity_table(13)
        for k, t in enumerate(tangent_numbers(7), start=1):
            assert t == table.delta[2 * k - 1]

    def test_guard(self):
        with pytest.raises(ValueError):
            tangent_numbers(0)
        with pytest.raises(ValueError):
            tangent_numbers(16)

    def test_fractional_coefficient_is_a_value_error(self, monkeypatch):
        monkeypatch.setattr(
            genfun, "_tanh_series", lambda order: [Fraction(1, 3)] * (order + 1)
        )
        with pytest.raises(ValueError, match="not integral"):
            tangent_numbers(3)


def max_exponents(g):
    """The largest exponent of each of x, y, p and q over g's terms, 0 for none."""
    keys = [key for key, _ in g.terms()]
    return tuple(max((key[v] for key in keys), default=0) for v in range(4))


class TestQuadPolynomial:
    def test_g2(self):
        assert quad_polynomial(2).terms() == [
            ((0, 0, 0, 0), 1),
            ((1, 1, 1, 1), 1),
        ]

    def test_total_mass(self):
        for n in range(9):
            assert quad_polynomial(n).marginal("x").evaluate(1) == factorial(n)

    def test_specializes_to_area_polynomial(self):
        for n in range(13):
            assert quad_polynomial(n).marginal("x") == lbsum_polynomial(n)

    def test_joint_distribution(self):
        for n in range(7):
            truth: dict = {}
            for word in itertools.permutations(range(1, n + 1)):
                descents = descent_positions(word)
                key = (
                    sum(left_borders(word)),
                    len(descents),
                    descents[-1] if descents else 0,
                    n - lr_maxima_count(word),
                )
                truth[key] = truth.get(key, 0) + 1
            assert dict(quad_polynomial(n).terms()) == truth

    def test_exponent_box(self):
        for n in range(2, 10):
            ex, ey, ep, eq = max_exponents(quad_polynomial(n))
            assert ex == comb(n, 2)
            assert max(ey, ep, eq) <= n - 1

    def test_arithmetic_helpers(self):
        g = QuadPolynomial({(1, 1, 2, 1): 3, (1, 1, 0, 2): 1})
        assert g.with_p_one().terms() == [((1, 1, 0, 1), 3), ((1, 1, 0, 2), 1)]
        assert dict(g.with_q_one().terms())[1, 1, 2, 0] == 3
        assert dict(g.times_monomial((1, 0, 0, 0), 2).terms())[2, 1, 2, 1] == 6

    def test_terms_in_tuple_order(self):
        keys = [(2, 0, 0, 0), (1, 9, 0, 0), (1, 0, 7, 3), (0, 0, 0, 20000)]
        g = QuadPolynomial({k: 1 for k in keys})
        assert [k for k, _ in g.terms()] == sorted(keys)
        assert max_exponents(g) == (2, 9, 7, 20000)
        assert max_exponents(QuadPolynomial()) == (0, 0, 0, 0)
        assert g.marginal("y").to_counts() == {0: 3, 9: 1}

    def test_x_is_unbounded(self):
        g = QuadPolynomial({(10**6, 1, 1, 1): 2})
        assert (g * g).terms() == [((2 * 10**6, 2, 2, 2), 4)]

    def test_field_overflow_raises(self):
        big = 1 << 15
        bad = [(0, big, 0, 0), (0, 0, big, 0), (0, 0, 0, big), (-1, 0, 0, 0), (0, 0, -1, 0)]
        for key in bad:
            with pytest.raises(ValueError):
                QuadPolynomial({key: 1})
        half = QuadPolynomial({(0, 0, big // 2, 0): 1})
        with pytest.raises(ValueError):
            half * half
        with pytest.raises(ValueError):
            half.times_monomial((0, 0, big // 2, 0))
        almost = QuadPolynomial({(0, 0, big - 1, 0): 1})
        assert almost.times_monomial((0, 1, 0, 0)).terms() == [((0, 1, big - 1, 0), 1)]

    def test_equality_stays_within_one_variable_set(self):
        assert QuadPolynomial.one() != UniPolynomial.one()
        assert len({QuadPolynomial.one(), UniPolynomial.one()}) == 2
        assert QuadPolynomial.one() == QuadPolynomial({(0, 0, 0, 0): 1})
        assert hash(QuadPolynomial.one()) == hash(QuadPolynomial({(0, 0, 0, 0): 1}))
        assert (QuadPolynomial.one() - QuadPolynomial.one()) == QuadPolynomial()


class TestQCatalan:
    def test_area_route(self):
        assert q_catalan(3).to_counts() == {0: 1, 1: 1, 2: 2, 3: 1}

    def test_alt_route_is_reversal(self):
        assert q_catalan_alt(3).to_counts() == {0: 1, 1: 2, 2: 1, 3: 1}
        for n in range(16):
            assert q_catalan_alt(n) == q_catalan(n).reversed_on_degree(comb(n, 2))

    def test_catalan_mass(self):
        for n in range(21):
            assert q_catalan(n).evaluate(1) == catalan(n)

    def test_matches_avoider_inversions(self):
        for n in range(9):
            counts: dict = {}
            for word in avoiders_132(n):
                v = inversion_count(word)
                counts[v] = counts.get(v, 0) + 1
            assert q_catalan(n).to_counts() == counts

    def test_area_equals_inversions_on_avoiders(self):
        # Same polynomial whether inversions or border sums are counted.
        for n in range(9):
            counts: dict = {}
            for word in avoiders_132(n):
                v = sum(left_borders(word))
                counts[v] = counts.get(v, 0) + 1
            assert q_catalan(n).to_counts() == counts


class TestMoments:
    def test_spot_values(self):
        assert moments(2).mean == Fraction(1, 2)
        assert moments(2).variance == Fraction(1, 4)
        assert moments(3).mean == Fraction(5, 3)
        assert moments(8).mean == Fraction(5471, 280)

    def test_routes_agree_up_to_50(self):
        # The closed forms the report holds, against the recursion's moments.
        for n in range(2, 51):
            report = moments(n)
            _, d1, d2 = genfun._derivatives_at_one(n)
            mean = Fraction(d1, factorial(n))
            assert report.mean == mean
            assert report.variance == Fraction(d2 + d1, factorial(n)) - mean * mean

    def test_matches_enumeration(self):
        for n in range(2, 8):
            dist = naive_statistic_distribution(n, lambda w: sum(left_borders(w)))
            total = factorial(n)
            mean = Fraction(sum(v * c for v, c in dist.items()), total)
            second = Fraction(sum(v * v * c for v, c in dist.items()), total)
            report = moments(n)
            assert report.mean == mean
            assert report.variance == second - mean * mean

    def test_polynomial_derivative_route(self):
        for n in range(2, 21):
            f = lbsum_polynomial(n)
            total = factorial(n)
            mean = Fraction(sum(naive_derivative(f.to_counts()).values()), total)
            assert moments(n).mean == mean

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            moments(1)

    def test_cache_order_does_not_matter(self, monkeypatch):
        # The recursion grows one cache on demand: asked from the top down
        # with an empty cache, it gives what it gives from the bottom up.
        upward = [moments(n) for n in range(2, 31)]
        monkeypatch.setattr(genfun, "_moment_cache", ([1], [0], [0]))
        downward = [moments(n) for n in range(30, 1, -1)]
        assert downward[::-1] == upward
        assert len(genfun._moment_cache[0]) == 31

    def test_failed_mass_check_is_a_value_error(self, monkeypatch):
        real = genfun.factorial
        monkeypatch.setattr(genfun, "_moment_cache", ([1], [0], [0]))
        monkeypatch.setattr(genfun, "factorial", lambda m: real(m) + (m == 5))
        moments(4)
        with pytest.raises(ValueError, match="recursion mass check failed"):
            moments(5)

    def test_report_requires_agreement(self, monkeypatch):
        real = genfun._derivatives_at_one

        def disagreeing(n):  # the recursion's mean at n = 2 one too high
            value, d1, d2 = real(n)
            return value, d1 + 2, d2

        monkeypatch.setattr(genfun, "_derivatives_at_one", disagreeing)
        with pytest.raises(ValueError, match="^mean routes disagree at n=2: 1/2 vs 3/2$"):
            moments(2)


class TestSeries:
    def test_low_order_coefficients(self):
        g = series_coefficients(3)
        assert g[0] == {(0, 0, 0, 0): Fraction(1)}
        assert g[1] == {(0, 0, 0, 0): Fraction(1)}
        # x^1 G_2(1/x, y, p, q) / 2! = (x + ypq) / 2
        assert g[2] == {
            (1, 0, 0, 0): Fraction(1, 2),
            (0, 1, 1, 1): Fraction(1, 2),
        }

    def test_identities_hold(self):
        report = verify_series_identities(9)
        assert report.ok
        assert report.equation_status == (True,) * 9
        assert report.tanh_status == (True,) * 10
        assert report.failing_residual is None

    def test_tanh_coefficients(self):
        values = [dict_value(g_k, (-1, 1, 1, 1)) for g_k in series_coefficients(7)]
        assert values[0] == 1
        assert values[3] == Fraction(-1, 3)
        assert values[5] == Fraction(2, 15)
        assert values[7] == Fraction(-17, 315)

    @pytest.mark.parametrize("order", range(1, 11))
    def test_integer_route_matches_fraction_route(self, order):
        assert verify_series_identities(order) == fraction_series_report(order)

    @pytest.mark.parametrize(
        "n, fault",
        [
            (0, lambda g: g.times_monomial((0, 0, 0, 0), 2)),
            (2, lambda g: g.times_monomial((0, 0, 0, 0), 2)),
            (3, lambda g: g + QuadPolynomial({(1, 1, 0, 0): 1})),
            (5, lambda g: g - QuadPolynomial({(2, 1, 1, 0): 1})),
            (3, lambda g: QuadPolynomial({(x, q, p, y): c for (x, y, p, q), c in g.terms()})),
        ],
        ids=["doubled-G0", "doubled-G2", "extra-term-G3", "missing-term-G5", "swapped-y-q-G3"],
    )
    def test_routes_agree_on_a_planted_fault(self, n, fault, monkeypatch):
        real = genfun.quad_polynomial
        monkeypatch.setattr(
            genfun, "quad_polynomial", lambda m: fault(real(m)) if m == n else real(m)
        )
        for order in (1, 4, 6):
            report = verify_series_identities(order)
            assert report == fraction_series_report(order)
        assert not report.ok

    def test_only_the_dict_route_sees_a_faulty_product(self, monkeypatch):
        # A product that doubles its top coefficient whenever both factors
        # have two or more terms.  G_0..G_5 are built before the plant, so
        # both routes read the true G_n; only the library's products err.
        quad_polynomial(5)
        real = UniPolynomial.__mul__

        def doubled_top(a, b):
            product = real(a, b)
            if len(a.terms()) > 1 and len(b.terms()) > 1:
                top = product.degree
                return product + UniPolynomial({top: product.coefficient(top)})
            return product

        monkeypatch.setattr(UniPolynomial, "__mul__", doubled_top)
        report = fraction_series_report(5)
        assert report.ok
        assert verify_series_identities(5) != report

    def test_order_guard(self):
        with pytest.raises(ValueError):
            verify_series_identities(0)
        with pytest.raises(ValueError):
            verify_series_identities(11)

    def test_report_json(self):
        report = verify_series_identities(4)
        assert report.ok


# Every public entry takes an int size; a float, even a whole one, or a bool
# is a ValueError before any work, as in the enumeration's own check.
@pytest.mark.parametrize(
    "entry",
    [
        lbsum_polynomial,
        quad_polynomial,
        q_catalan,
        q_catalan_alt,
        moments,
        parity_table,
        tangent_numbers,
        verify_series_identities,
    ],
)
@pytest.mark.parametrize("size", [2.5, 3.0, True])
def test_a_size_that_is_not_an_int_is_a_value_error(entry, size):
    with pytest.raises(ValueError, match=r"^\w+ must be an int, got (2\.5|3\.0|True)$"):
        entry(size)
