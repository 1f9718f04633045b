import hashlib
import itertools
import json
from fractions import Fraction
from math import comb, factorial

import pytest

from permshape.genfun import (
    MomentReport,
    QuadPolynomial,
    TruncatedSeries,
    UniPolynomial,
    lbsum_polynomial,
    moments,
    parity_table,
    q_catalan,
    q_catalan_alt,
    quad_polynomial,
    series_g,
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

from naive_oracles import naive_statistic_distribution


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


class TestUniPolynomial:
    def test_arithmetic(self):
        p = UniPolynomial({0: 1, 2: 3})
        q = UniPolynomial({1: 2})
        assert (p + q).to_counts() == {0: 1, 1: 2, 2: 3}
        assert (p * q).to_counts() == {1: 2, 3: 6}
        assert p.shifted(2).to_counts() == {2: 1, 4: 3}
        assert (p - p).is_zero()

    def test_evaluate_and_derivative(self):
        p = UniPolynomial({0: 1, 1: 1, 2: 3, 3: 1})
        assert p.evaluate(1) == 6
        assert p.evaluate(-1) == 2
        assert p.derivative().to_counts() == {0: 1, 1: 6, 2: 3}

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


class TestQuadPolynomial:
    def test_g2(self):
        assert quad_polynomial(2).terms() == [
            ((0, 0, 0, 0), 1),
            ((1, 1, 1, 1), 1),
        ]

    def test_total_mass(self):
        for n in range(9):
            assert quad_polynomial(n).evaluate(1, 1, 1, 1) == factorial(n)

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
            ex, ey, ep, eq = quad_polynomial(n).max_exponents()
            assert ex == comb(n, 2)
            assert max(ey, ep, eq) <= n - 1

    def test_arithmetic_helpers(self):
        g = QuadPolynomial({(1, 1, 2, 1): 3, (1, 1, 0, 2): 1})
        assert g.with_p_one().terms() == [((1, 1, 0, 1), 3), ((1, 1, 0, 2), 1)]
        assert g.with_q_one().coefficient((1, 1, 2, 0)) == 3
        assert g.times_monomial((1, 0, 0, 0), 2).coefficient((2, 1, 2, 1)) == 6

    def test_terms_in_tuple_order(self):
        keys = [(2, 0, 0, 0), (1, 9, 0, 0), (1, 0, 7, 3), (0, 0, 0, 20000)]
        g = QuadPolynomial({k: 1 for k in keys})
        assert [k for k, _ in g.terms()] == sorted(keys)
        assert g.max_exponents() == (2, 9, 7, 20000)
        assert QuadPolynomial().max_exponents() == (0, 0, 0, 0)
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
        assert (QuadPolynomial.one() - QuadPolynomial.one()) == QuadPolynomial.zero()


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
        for n in range(2, 51):
            report = moments(n)
            assert report.mean_closed_form == report.mean_from_recursion
            assert report.variance_closed_form == report.variance_from_recursion

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
            mean = Fraction(f.derivative().evaluate(1), total)
            assert moments(n).mean == mean

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            moments(1)

    def test_report_requires_agreement(self):
        with pytest.raises(ValueError):
            MomentReport(
                n=2,
                harmonic1=Fraction(3, 2),
                harmonic2=Fraction(5, 4),
                mean_closed_form=Fraction(1, 2),
                variance_closed_form=Fraction(1, 4),
                mean_from_recursion=Fraction(1, 3),
                variance_from_recursion=Fraction(1, 4),
            )


class TestSeries:
    def test_low_order_coefficients(self):
        g = series_g(3)
        assert g.coefficient(0) == {(0, 0, 0, 0): Fraction(1)}
        assert g.coefficient(1) == {(0, 0, 0, 0): Fraction(1)}
        # x^1 G_2(1/x, y, p, q) / 2! = (x + ypq) / 2
        assert g.coefficient(2) == {
            (1, 0, 0, 0): Fraction(1, 2),
            (0, 1, 1, 1): Fraction(1, 2),
        }

    def test_identities_hold(self):
        report = verify_series_identities(9)
        assert report.ok
        assert report.equation_status == (True,) * 9
        assert report.tanh_status == (True,) * 10
        assert report.first_failing_order is None

    def test_tanh_coefficients(self):
        g = series_g(7)
        values = g.evaluate_coefficients(
            Fraction(-1), Fraction(1), Fraction(1), Fraction(1)
        )
        assert values[0] == 1
        assert values[3] == Fraction(-1, 3)
        assert values[5] == Fraction(2, 15)
        assert values[7] == Fraction(-17, 315)

    def test_series_arithmetic(self):
        # (1 + x z)(1 - x z) = 1 - x^2 z^2 through z^2
        a = TruncatedSeries([{(0, 0, 0, 0): 1}, {(1, 0, 0, 0): 1}, {}], 2)
        b = TruncatedSeries.constant(2, 2) - a
        assert (a * b).coefficient(2) == {(2, 0, 0, 0): Fraction(-1)}
        assert (a * b).coefficient(1) == {}
        assert a.subst_z_scaled((0, 1, 0, 0)).coefficient(1) == {(1, 1, 0, 0): 1}
        assert a.derivative_z().coefficient(0) == {(1, 0, 0, 0): 1}
        assert a.times_monomial((0, 0, 1, 0), Fraction(1, 2)).coefficient(0) == {
            (0, 0, 1, 0): Fraction(1, 2)
        }
        assert (a + b).truncated(1).coefficient(0) == {(0, 0, 0, 0): Fraction(2)}

    def test_order_guard(self):
        with pytest.raises(ValueError):
            verify_series_identities(0)
        with pytest.raises(ValueError):
            verify_series_identities(11)

    def test_report_json(self):
        report = verify_series_identities(4)
        assert report.ok
