"""
Exact generating polynomials and truncated series for the area statistic.

Everything here is exact: polynomial coefficients are Python integers,
series coefficients are fractions.  The central objects are

* ``F_n``, the distribution of the summed left border numbers over S_n,
  built from the splitting recursion
  F_n = sum_k binom(n-1, k-1) F_{k-1} F_{n-k} x^{k(n-k)};
* the even/odd split of that statistic and the tangent numbers;
* ``G_n``, the joint distribution of (area, descents, last descent,
  number of nonzero parts) with variables (x, y, p, q);
* the q-Catalan polynomials counting 1-3-2-avoiders by inversions;
* exact factorial moments of the area; and
* the exponential-type series g(x, y, p, q, z) assembled from the G_n,
  together with checks of its differential functional equation and of the
  specialization g(-1, 1, 1, 1, z) = 1 + tanh(z).

All polynomial arithmetic runs on one sparse core, :class:`UniPolynomial`:
int exponent -> exact ``int`` or ``Fraction`` coefficient.
:class:`QuadPolynomial` is a view on it that packs (x, y, p, q) into the key
``x << 48 | y << 32 | p << 16 | q``: y, p and q stay below 2**15 in 16-bit
fields whose top bit catches a carry (an overflow raises ValueError), and x
is unbounded.  Int order on keys is tuple order, and setting variables to
one masks their fields away.  :class:`TruncatedSeries` is a list of such
views with fraction coefficients, one per power of z.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb, factorial
from operator import or_
from typing import Callable, Iterable, Mapping, Sequence

__all__ = [
    "UniPolynomial",
    "QuadPolynomial",
    "TruncatedSeries",
    "ParityTable",
    "MomentReport",
    "SeriesReport",
    "SERIES_MAX_ORDER",
    "lbsum_polynomial",
    "parity_table",
    "tangent_numbers",
    "quad_polynomial",
    "q_catalan",
    "q_catalan_alt",
    "moments",
    "series_g",
    "verify_series_identities",
]

Coeff = int | Fraction


class UniPolynomial:
    """A sparse polynomial in x with exact int or Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Coeff] | None = None) -> None:
        data = {e: c for e, c in (coeffs or {}).items() if c}
        object.__setattr__(self, "_coeffs", data)

    @classmethod
    def zero(cls) -> "UniPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "UniPolynomial":
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: Coeff = 1) -> "UniPolynomial":
        return cls({exponent: coeff})

    def coefficient(self, exponent: int) -> Coeff:
        return self._coeffs.get(exponent, 0)

    def terms(self) -> list[tuple[int, Coeff]]:
        return sorted(self._coeffs.items())

    @property
    def degree(self) -> int:
        return max(self._coeffs, default=-1)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    @classmethod
    def sum_of(cls, polys: Iterable["UniPolynomial"]) -> "UniPolynomial":
        """The sum of ``polys``, gathered in one dict."""
        out: dict[int, Coeff] = {}
        for poly in polys:
            for e, c in poly._coeffs.items():
                out[e] = out.get(e, 0) + c
        return cls(out)

    def __add__(self, other: "UniPolynomial") -> "UniPolynomial":
        return UniPolynomial.sum_of((self, other))

    def __neg__(self) -> "UniPolynomial":
        return UniPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other: "UniPolynomial") -> "UniPolynomial":
        return self + -other

    def __mul__(self, other: "UniPolynomial") -> "UniPolynomial":
        out: dict[int, Coeff] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return UniPolynomial(out)

    def scaled(self, factor: Coeff) -> "UniPolynomial":
        if factor == 1:
            return self
        return UniPolynomial({e: factor * c for e, c in self._coeffs.items()})

    def shifted(self, exponent: int) -> "UniPolynomial":
        """Multiply by x**exponent, or by the monomial of a packed key."""
        return UniPolynomial({e + exponent: c for e, c in self._coeffs.items()})

    def merged(self, keep: int, shift: int = 0) -> "UniPolynomial":
        """Send each key e to (e & keep) >> shift, adding the coefficients
        that meet: on packed keys, set the variables ``keep`` clears to 1."""
        out: dict[int, Coeff] = {}
        for e, c in self._coeffs.items():
            e = (e & keep) >> shift
            out[e] = out.get(e, 0) + c
        return UniPolynomial(out)

    def derivative(self) -> "UniPolynomial":
        return UniPolynomial({e - 1: e * c for e, c in self._coeffs.items() if e > 0})

    def evaluate(self, point):
        return self._weighted_sum(lambda e: point**e)

    def _weighted_sum(self, monomial_value: Callable[[int], object]):
        """The sum of c * monomial_value(e) over the terms c x^e."""
        return sum(c * monomial_value(e) for e, c in self._coeffs.items())

    def reversed_on_degree(self, degree: int) -> "UniPolynomial":
        """x**degree * P(1/x), valid when degree bounds the actual degree."""
        if any(e > degree for e in self._coeffs):
            raise ValueError("reversal pivot below the degree")
        return UniPolynomial({degree - e: c for e, c in self._coeffs.items()})

    def to_counts(self) -> dict[int, Coeff]:
        return dict(self._coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        for e, c in self.terms():
            if e == 0:
                bits.append(str(c))
            elif e == 1:
                bits.append(f"{c}*x" if c != 1 else "x")
            else:
                bits.append(f"{c}*x^{e}" if c != 1 else f"x^{e}")
        return " + ".join(bits)


QuadKey = tuple[int, int, int, int]  # exponents of (x, y, p, q)

_BITS = 16  # width of the y, p and q fields of a packed key
_LIMIT = 1 << (_BITS - 1)  # y, p and q exponents stay below this
_FIELD = (1 << _BITS) - 1
_FIELDS = {  # variable -> (its bits in a packed key, the shift down to them)
    "x": (-1 << 3 * _BITS, 3 * _BITS),
    "y": (_FIELD << 2 * _BITS, 2 * _BITS),
    "p": (_FIELD << _BITS, _BITS),
    "q": (_FIELD, 0),
}
_CARRY = _LIMIT << 2 * _BITS | _LIMIT << _BITS | _LIMIT  # the fields' top bits


def _pack(key: QuadKey) -> int:
    x, y, p, q = key
    if x < 0 or not (0 <= y < _LIMIT and 0 <= p < _LIMIT and 0 <= q < _LIMIT):
        raise ValueError(
            f"exponent {tuple(key)} outside x >= 0 and 0 <= y, p, q < {_LIMIT}"
        )
    return x << 3 * _BITS | y << 2 * _BITS | p << _BITS | q


def _unpack(e: int) -> QuadKey:
    return (e >> 3 * _BITS, e >> 2 * _BITS & _FIELD, e >> _BITS & _FIELD, e & _FIELD)


def _no_carry(poly: UniPolynomial) -> UniPolynomial:
    """``poly``, whose keys are sums of packed keys, once no sum carried."""
    if reduce(or_, poly._coeffs, 0) & _CARRY:
        raise ValueError(f"a y, p or q exponent reached {_LIMIT}")
    return poly


class QuadPolynomial:
    """
    A sparse polynomial in (x, y, p, q) with exact coefficients: a view on a
    :class:`UniPolynomial` whose keys pack the four exponents.
    """

    __slots__ = ("_poly",)

    def __init__(self, coeffs: Mapping[QuadKey, Coeff] | None = None) -> None:
        self._poly = UniPolynomial({_pack(k): c for k, c in (coeffs or {}).items()})

    @classmethod
    def _of(cls, poly: UniPolynomial) -> "QuadPolynomial":
        view = cls.__new__(cls)
        view._poly = poly
        return view

    @classmethod
    def zero(cls) -> "QuadPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "QuadPolynomial":
        return cls({(0, 0, 0, 0): 1})

    @classmethod
    def monomial(cls, key: QuadKey, coeff: Coeff = 1) -> "QuadPolynomial":
        return cls({key: coeff})

    def coefficient(self, key: QuadKey) -> Coeff:
        return self._poly.coefficient(_pack(key))

    def terms(self) -> list[tuple[QuadKey, Coeff]]:
        return [(_unpack(e), c) for e, c in self._poly.terms()]

    def __len__(self) -> int:
        return len(self._poly._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadPolynomial):
            return NotImplemented
        return self._poly == other._poly

    def __hash__(self) -> int:
        return hash((QuadPolynomial, self._poly))

    @classmethod
    def sum_of(cls, polys: Iterable["QuadPolynomial"]) -> "QuadPolynomial":
        return cls._of(UniPolynomial.sum_of(p._poly for p in polys))

    def __add__(self, other: "QuadPolynomial") -> "QuadPolynomial":
        return QuadPolynomial._of(self._poly + other._poly)

    def __sub__(self, other: "QuadPolynomial") -> "QuadPolynomial":
        return QuadPolynomial._of(self._poly - other._poly)

    def __mul__(self, other: "QuadPolynomial") -> "QuadPolynomial":
        return QuadPolynomial._of(_no_carry(self._poly * other._poly))

    def times_monomial(self, key: QuadKey, coeff: Coeff = 1) -> "QuadPolynomial":
        shifted = _no_carry(self._poly.shifted(_pack(key)))
        return QuadPolynomial._of(shifted.scaled(coeff))

    def with_p_one(self) -> "QuadPolynomial":
        return QuadPolynomial._of(self._poly.merged(~_FIELDS["p"][0]))

    def with_q_one(self) -> "QuadPolynomial":
        return QuadPolynomial._of(self._poly.merged(~_FIELDS["q"][0]))

    def marginal(self, variable: str) -> UniPolynomial:
        """Set the other three variables to 1 and keep ``variable``."""
        return self._poly.merged(*_FIELDS[variable])

    def evaluate(self, x, y, p, q):
        def monomial_value(e: int):
            ex, ey, ep, eq = _unpack(e)
            return x**ex * y**ey * p**ep * q**eq

        return self._poly._weighted_sum(monomial_value)

    def max_exponents(self) -> QuadKey:
        x, y, p, q = (max(self.marginal(v).degree, 0) for v in _FIELDS)
        return x, y, p, q


# -- F_n: the area distribution over S_n ---------------------------------------

_F_MAX = 60
_f_cache: list[UniPolynomial] = [UniPolynomial.one()]


def _split_recursion(
    cache: list[UniPolynomial], n: int, weight: Callable[[int, int], tuple[int, int]]
) -> UniPolynomial:
    """
    P_n from the splitting recursion P_m = sum_{k=1}^{m} c P_{k-1} P_{m-k} x^s,
    with (c, s) = weight(m, k), extending ``cache`` = [P_0, P_1, ...] as needed.
    """
    while len(cache) <= n:
        m = len(cache)
        terms = []
        for k in range(1, m + 1):
            c, s = weight(m, k)
            terms.append((cache[k - 1] * cache[m - k]).scaled(c).shifted(s))
        cache.append(UniPolynomial.sum_of(terms))
    return cache[n]


def lbsum_polynomial(n: int) -> UniPolynomial:
    """
    The polynomial F_n whose coefficient at x^m counts permutations of
    {1..n} with summed left border numbers m.  F_0 = 1 and

        F_n = sum_{k=1}^{n} binom(n-1, k-1) F_{k-1} F_{n-k} x^{k(n-k)}.

    >>> lbsum_polynomial(3)
    1 + x + 3*x^2 + x^3
    """
    if not 0 <= n <= _F_MAX:
        raise ValueError(f"lbsum_polynomial supports 0 <= n <= {_F_MAX}")
    return _split_recursion(_f_cache, n, lambda m, k: (comb(m - 1, k - 1), k * (m - k)))


# -- Parity of the area and tangent numbers ------------------------------------


@dataclass(frozen=True)
class ParityTable:
    """Counts of even/odd area values per n, plus their difference."""

    even: tuple[int, ...]
    odd: tuple[int, ...]
    delta: tuple[int, ...]

    def __post_init__(self) -> None:
        for m, (e, o, d) in enumerate(zip(self.even, self.odd, self.delta)):
            if e + o != factorial(m):
                raise ValueError(f"even + odd != {m}! at n={m}")
            if e - o != d:
                raise ValueError(f"delta disagrees with even - odd at n={m}")


def parity_table(n_max: int) -> ParityTable:
    """
    Even/odd counts e_n, o_n of the area statistic.  Odd n follows the
    splitting recursion (the cross term k(n-k) is always even there); even
    n >= 2 is an exact half-half split.  The difference is recomputed
    independently through its own recursion over even split points and the
    two routes are required to agree.
    """
    if not 0 <= n_max <= 40:
        raise ValueError("parity_table supports 0 <= n_max <= 40")
    even = [1]
    odd = [0]
    for m in range(1, n_max + 1):
        if m % 2 == 0:
            half = factorial(m) // 2
            even.append(half)
            odd.append(half)
        else:
            e = sum(
                comb(m - 1, k - 1)
                * (even[k - 1] * even[m - k] + odd[k - 1] * odd[m - k])
                for k in range(1, m + 1)
            )
            even.append(e)
            odd.append(factorial(m) - e)
    delta = [1]
    for m in range(1, n_max + 1):
        if m == 1:
            delta.append(1)
        elif m % 2 == 0:
            delta.append(0)
        else:
            delta.append(
                sum(
                    comb(m - 1, k - 1) * delta[k - 1] * delta[m - k]
                    for k in range(2, m, 2)
                )
            )
    return ParityTable(tuple(even), tuple(odd), tuple(delta))


def _tanh_series(order: int) -> list[Fraction]:
    """Coefficients of tanh(z) through z**order, by dividing sinh by cosh."""
    sinh = [
        Fraction(1, factorial(k)) if k % 2 == 1 else Fraction(0)
        for k in range(order + 1)
    ]
    cosh = [
        Fraction(1, factorial(k)) if k % 2 == 0 else Fraction(0)
        for k in range(order + 1)
    ]
    out: list[Fraction] = []
    for k in range(order + 1):
        acc = sinh[k] - sum(out[i] * cosh[k - i] for i in range(k))
        out.append(acc / cosh[0])
    return out


def tangent_numbers(m: int) -> list[int]:
    """
    The first m tangent numbers 1, 2, 16, 272, ... read off the exact
    series of tanh(z): T_k = |[z^{2k-1}] tanh(z)| * (2k-1)!.
    """
    if not 1 <= m <= 15:
        raise ValueError("tangent_numbers supports 1 <= m <= 15")
    series = _tanh_series(2 * m - 1)
    out: list[int] = []
    for k in range(1, m + 1):
        value = series[2 * k - 1] * factorial(2 * k - 1)
        if value.denominator != 1:
            raise AssertionError("tangent coefficient is not integral")
        out.append(abs(value.numerator))
    return out


# -- G_n: the joint (area, descents, last descent, nonzero parts) ---------------

_G_MAX = 25
_g_cache: list[QuadPolynomial] = [QuadPolynomial.one(), QuadPolynomial.one()]
_g_sides: list[tuple[QuadPolynomial, QuadPolynomial]] = []  # G_k at p = 1, at q = 1


def quad_polynomial(n: int) -> QuadPolynomial:
    """
    The polynomial G_n over S_n with x tracking the area, y the number of
    descents, p the last descent and q the number of nonzero parts of the
    shape (n minus the number of left-to-right maxima).  G_0 = G_1 = 1 and,
    splitting at the position k of the value n,

        G_n = G_{n-1}(x,y,p,q)
            + sum_{k=1}^{n-1} binom(n-1, k-1) G_{k-1}(x,y,1,q)
              G_{n-k}(x,y,p,1) x^{k(n-k)} y p^k q^{n-k}.

    The q-power in the summand is q^{n-k}: every entry right of the maximum
    is shadowed by it, so all n-k of them count as nonzero parts at once.

    >>> quad_polynomial(2).terms()
    [((0, 0, 0, 0), 1), ((1, 1, 1, 1), 1)]
    """
    if not 0 <= n <= _G_MAX:
        raise ValueError(f"quad_polynomial supports 0 <= n <= {_G_MAX}")
    while len(_g_cache) <= n:
        m = len(_g_cache)
        _g_sides.extend(
            (g.with_p_one(), g.with_q_one()) for g in _g_cache[len(_g_sides) :]
        )
        terms = [
            (_g_sides[k - 1][0] * _g_sides[m - k][1]).times_monomial(
                (k * (m - k), 1, k, m - k), comb(m - 1, k - 1)
            )
            for k in range(1, m)
        ]
        _g_cache.append(QuadPolynomial.sum_of([_g_cache[m - 1], *terms]))
    return _g_cache[n]


# -- q-Catalan polynomials ------------------------------------------------------

_QC_MAX = 30
_qc_cache: list[UniPolynomial] = [UniPolynomial.one()]
_qc_alt_cache: list[UniPolynomial] = [UniPolynomial.one()]


def q_catalan(n: int) -> UniPolynomial:
    """
    The inversion-counting polynomial over the 1-3-2-avoiders of {1..n},
    from the area recursion C_n = sum_k C_{k-1} C_{n-k} q^{k(n-k)}.

    >>> q_catalan(3)
    1 + x + 2*x^2 + x^3
    """
    if not 0 <= n <= _QC_MAX:
        raise ValueError(f"q_catalan supports 0 <= n <= {_QC_MAX}")
    return _split_recursion(_qc_cache, n, lambda m, k: (1, k * (m - k)))


def q_catalan_alt(n: int) -> UniPolynomial:
    """
    The companion convention C_n = sum_k C_{k-1} C_{n-k} q^{k-1}.  Its output
    is the degree-reversal of :func:`q_catalan` (checked by the test suite);
    both are provided rather than silently picking one.

    >>> q_catalan_alt(3)
    1 + 2*x + x^2 + x^3
    """
    if not 0 <= n <= _QC_MAX:
        raise ValueError(f"q_catalan_alt supports 0 <= n <= {_QC_MAX}")
    return _split_recursion(_qc_alt_cache, n, lambda m, k: (1, k - 1))


# -- Exact moments of the area --------------------------------------------------


def _derivatives_at_one(n: int) -> tuple[list[int], list[int], list[int]]:
    """(F_m(1), F_m'(1), F_m''(1)) for m = 0..n, from the differentiated
    splitting recursion; everything stays integral."""
    value = [1]
    d1 = [0]
    d2 = [0]
    for m in range(1, n + 1):
        v_acc = s1_acc = s2_acc = 0
        for k in range(1, m + 1):
            b = comb(m - 1, k - 1)
            s = k * (m - k)
            fv, gv = value[k - 1], value[m - k]
            f1, g1 = d1[k - 1], d1[m - k]
            f2, g2 = d2[k - 1], d2[m - k]
            v_acc += b * fv * gv
            s1_acc += b * (f1 * gv + fv * g1 + s * fv * gv)
            s2_acc += b * (
                f2 * gv
                + 2 * f1 * g1
                + fv * g2
                + 2 * s * (f1 * gv + fv * g1)
                + s * (s - 1) * fv * gv
            )
        if v_acc != factorial(m):
            raise AssertionError("recursion mass check failed")
        value.append(v_acc)
        d1.append(s1_acc)
        d2.append(s2_acc)
    return value, d1, d2


def _harmonic(n: int, order: int) -> Fraction:
    return sum((Fraction(1, i**order) for i in range(1, n + 1)), Fraction(0))


@dataclass(frozen=True)
class MomentReport:
    """Mean and variance of the area, by closed form and from the recursion."""

    n: int
    harmonic1: Fraction
    harmonic2: Fraction
    mean_closed_form: Fraction
    variance_closed_form: Fraction
    mean_from_recursion: Fraction
    variance_from_recursion: Fraction

    def __post_init__(self) -> None:
        if self.mean_closed_form != self.mean_from_recursion:
            raise ValueError(
                f"mean routes disagree at n={self.n}: "
                f"{self.mean_closed_form} vs {self.mean_from_recursion}"
            )
        if self.variance_closed_form != self.variance_from_recursion:
            raise ValueError(
                f"variance routes disagree at n={self.n}: "
                f"{self.variance_closed_form} vs {self.variance_from_recursion}"
            )

    @property
    def mean(self) -> Fraction:
        return self.mean_closed_form

    @property
    def variance(self) -> Fraction:
        return self.variance_closed_form


def moments(n: int) -> MomentReport:
    """
    Exact mean and variance of the area of a uniformly random permutation of
    {1..n}, for n >= 2: the harmonic-number closed forms

        E = (n+1)(n/2 - H_{n,1}) + n
        Var = 2n(n+2) - (n+1)H_{n,1} - (n+1)^2 H_{n,2}

    against the same quantities derived from the splitting recursion.

    >>> moments(3).mean
    Fraction(5, 3)
    """
    if n < 2:
        raise ValueError("moments are defined for n >= 2")
    h1 = _harmonic(n, 1)
    h2 = _harmonic(n, 2)
    mean_closed = (n + 1) * (Fraction(n, 2) - h1) + n
    var_closed = 2 * n * (n + 2) - (n + 1) * h1 - (n + 1) ** 2 * h2
    _, d1, d2 = _derivatives_at_one(n)
    total = factorial(n)
    mean_rec = Fraction(d1[n], total)
    second_moment = Fraction(d2[n] + d1[n], total)
    var_rec = second_moment - mean_rec * mean_rec
    return MomentReport(
        n=n,
        harmonic1=h1,
        harmonic2=h2,
        mean_closed_form=mean_closed,
        variance_closed_form=var_closed,
        mean_from_recursion=mean_rec,
        variance_from_recursion=var_rec,
    )


# -- The exponential-type series g and its identities ---------------------------

SERIES_MAX_ORDER = 10  # the highest order verify_series_identities accepts


class TruncatedSeries:
    """
    A series in z, exact through z**order; the coefficient of z**k is a
    :class:`QuadPolynomial` in (x, y, p, q) with fraction coefficients.
    Substituting z -> m*z for a monomial m multiplies the k-th coefficient
    by m**k.
    """

    __slots__ = ("order", "_coeffs")

    def __init__(self, coeffs: Sequence[Mapping | QuadPolynomial], order: int) -> None:
        if len(coeffs) != order + 1:
            raise ValueError("coefficient list does not match the order")
        self.order = order
        self._coeffs = [
            c if isinstance(c, QuadPolynomial) else QuadPolynomial(c) for c in coeffs
        ]

    @classmethod
    def constant(cls, order: int, value: Fraction | int) -> "TruncatedSeries":
        head = QuadPolynomial.monomial((0, 0, 0, 0), Fraction(value))
        return cls([head] + [QuadPolynomial.zero()] * order, order)

    def coefficient(self, k: int) -> dict[QuadKey, Fraction]:
        return dict(self._coeffs[k].terms())

    def truncated(self, order: int) -> "TruncatedSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self._coeffs[: order + 1], order)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        pairs = zip(self._coeffs, other._coeffs)
        return TruncatedSeries([a + b for a, b in pairs], min(self.order, other.order))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        pairs = zip(self._coeffs, other._coeffs)
        return TruncatedSeries([a - b for a, b in pairs], min(self.order, other.order))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        order = min(self.order, other.order)
        a, b = self._coeffs, other._coeffs
        out = [
            sum((a[i] * b[k - i] for i in range(k + 1)), QuadPolynomial.zero())
            for k in range(order + 1)
        ]
        return TruncatedSeries(out, order)

    def _map(self, f: Callable[[int, QuadPolynomial], QuadPolynomial]) -> "TruncatedSeries":
        """The series whose z^k coefficient is f(k, [z^k] self)."""
        return TruncatedSeries([f(k, c) for k, c in enumerate(self._coeffs)], self.order)

    def times_monomial(self, key: QuadKey, scalar: Fraction | int = 1) -> "TruncatedSeries":
        return self._map(lambda _, c: c.times_monomial(key, Fraction(scalar)))

    def subst_z_scaled(self, key: QuadKey) -> "TruncatedSeries":
        """Substitute z -> (x^a y^b p^c q^d) z for the monomial exponents."""
        return self._map(lambda k, c: c.times_monomial(tuple(k * d for d in key)))

    def with_p_one(self) -> "TruncatedSeries":
        return self._map(lambda _, c: c.with_p_one())

    def with_q_one(self) -> "TruncatedSeries":
        return self._map(lambda _, c: c.with_q_one())

    def derivative_z(self) -> "TruncatedSeries":
        scaled = self._map(lambda k, c: c.times_monomial((0, 0, 0, 0), k))
        return TruncatedSeries(scaled._coeffs[1:], self.order - 1)

    def evaluate_coefficients(self, x, y, p, q) -> list[Fraction]:
        return [c.evaluate(x, y, p, q) for c in self._coeffs]


def series_g(order: int) -> TruncatedSeries:
    """
    The series g(x, y, p, q, z) whose z^n coefficient is
    x^binom(n,2) G_n(1/x, y, p, q) / n!; the x-reversal keeps every
    coefficient a genuine polynomial because the area never exceeds
    binom(n, 2).
    """
    coeffs: list[dict[QuadKey, Fraction]] = []
    for m in range(order + 1):
        pivot = comb(m, 2)
        inv_fact = Fraction(1, factorial(m))
        poly = quad_polynomial(m)
        coeffs.append(
            {
                (pivot - ex, ey, ep, eq): c * inv_fact
                for (ex, ey, ep, eq), c in poly.terms()
            }
        )
    return TruncatedSeries(coeffs, order)


@dataclass(frozen=True)
class SeriesReport:
    """Per-order outcome of the two series identities."""

    order: int
    equation_status: tuple[bool, ...]
    first_failing_order: int | None
    failing_residual: dict[str, str] | None
    tanh_status: tuple[bool, ...]
    tanh_first_mismatch: int | None

    @property
    def equation_ok(self) -> bool:
        return all(self.equation_status)

    @property
    def tanh_ok(self) -> bool:
        return all(self.tanh_status)

    @property
    def ok(self) -> bool:
        return self.equation_ok and self.tanh_ok


def verify_series_identities(order: int) -> SeriesReport:
    """
    Verify, exactly and per z-order, that

        dg/dz = g(x,y,p,q,xz) - y p g(x,y,1,q,xpz) (1 - g(x,y,p,1,qz))

    holds through z^(order-1), and that g(-1,1,1,1,z) matches 1 + tanh(z)
    coefficientwise through z^order.
    """
    if not 1 <= order <= SERIES_MAX_ORDER:
        raise ValueError(
            f"verify_series_identities supports 1 <= order <= {SERIES_MAX_ORDER}"
        )
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
    first_fail = _first_false(equation_status)
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
        tanh_first_mismatch=_first_false(tanh_status),
    )


def _first_false(status: tuple[bool, ...]) -> int | None:
    return next((k for k, ok in enumerate(status) if not ok), None)
