"""Kernel checks for the exact power series and polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyakit.series import BivariateSeries, RationalSeries, UPoly

ORDER = 12


def geometric(order: int) -> RationalSeries:
    return RationalSeries.from_coeffs([1] * (order + 1))


def test_constructors_and_indexing():
    s = RationalSeries.from_coeffs([1, Fraction(1, 2), "1/3"])
    assert s.order == 2
    assert s[0] == 1
    assert s[1] == Fraction(1, 2)
    assert s[2] == Fraction(1, 3)
    assert RationalSeries.identity(5)[1] == 1
    assert RationalSeries.one(5)[0] == 1
    assert RationalSeries.zero(5).is_zero()


def test_reciprocal_of_one_minus_z():
    one = RationalSeries.one(ORDER)
    z = RationalSeries.identity(ORDER)
    inv = (one - z).reciprocal()
    assert all(inv[n] == 1 for n in range(ORDER + 1))
    assert ((one - z) * inv - one).is_zero()


def test_exp_matches_factorials():
    z = RationalSeries.identity(ORDER)
    e = z.exp()
    fact = 1
    for n in range(ORDER + 1):
        fact *= max(n, 1)
        assert e[n] == Fraction(1, fact)


def test_exp_is_multiplicative():
    z = RationalSeries.identity(ORDER)
    a = z + z * z
    b = z.scale(Fraction(1, 3)) - z * z * z
    assert ((a + b).exp() - a.exp() * b.exp()).is_zero()


def test_compose_with_geometric():
    # 1/(1-z) composed with z/(1+z) telescopes to 1 + z
    z = RationalSeries.identity(ORDER)
    inner = z * (RationalSeries.one(ORDER) + z).reciprocal()
    composed = geometric(ORDER).compose(inner)
    assert composed[0] == 1 and composed[1] == 1
    assert all(composed[n] == 0 for n in range(2, ORDER + 1))


def test_reversion_round_trip():
    z = RationalSeries.identity(ORDER)
    f = z + z * z + z * z * z.scale(5)
    g = f.reversion()
    assert (f.compose(g) - z).is_zero()
    assert (g.compose(f) - z).is_zero()


def test_stretch_and_shift():
    s = RationalSeries.from_coeffs([0, 1, 1, 0, 0, 0])
    st2 = s.stretch(2)
    assert st2[2] == 1 and st2[4] == 1 and st2[1] == 0
    # shift keeps the truncation order, dropping overflowing terms
    sh = s.shift(3)
    assert sh.order == s.order
    assert sh[3] == 0 and sh[4] == 1 and sh[5] == 1


def test_derivative_and_eval():
    z = RationalSeries.identity(ORDER)
    f = (RationalSeries.one(ORDER) - z).reciprocal()
    d = f.derivative()
    # d/dz 1/(1-z) = 1/(1-z)^2 with coefficients n+1
    assert all(d[n] == n + 1 for n in range(ORDER))
    assert f.eval_fraction(Fraction(1, 2)) == sum(Fraction(1, 2) ** n
                                                  for n in range(ORDER + 1))
    assert f.eval_float(0.5) == 2 - 0.5 ** ORDER  # exact in binary floating point
    # a constant's derivative keeps the z^0 slot
    assert RationalSeries.from_coeffs([5]).derivative() == RationalSeries.zero(0)


def test_negation():
    s = RationalSeries.from_coeffs([1, Fraction(-1, 2), 0, 3])
    assert (-s).coeffs == (-1, Fraction(1, 2), 0, -3)
    assert -s == s.scale(-1) and -(-s) == s
    assert (s + -s).is_zero()


small_rationals = st.fractions(min_value=-3, max_value=3,
                               max_denominator=6)
coeff_lists = st.lists(small_rationals, min_size=1, max_size=8)


@settings(max_examples=60, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_multiplication_distributes(a, b, c):
    n = min(len(a), len(b), len(c)) - 1
    A = RationalSeries.from_coeffs(a).truncate(n)
    B = RationalSeries.from_coeffs(b).truncate(n)
    C = RationalSeries.from_coeffs(c).truncate(n)
    assert ((A + B) * C - (A * C + B * C)).is_zero()
    assert (A * B - B * A).is_zero()


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_reciprocal_inverts(coeffs):
    s = RationalSeries.from_coeffs([1] + coeffs)
    assert (s * s.reciprocal() - RationalSeries.one(s.order)).is_zero()


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_reversion_inverts(tail):
    f = RationalSeries.from_coeffs([0, 1] + tail)
    g = f.reversion()
    z = RationalSeries.identity(f.order)
    assert (f.compose(g) - z).is_zero()


@settings(max_examples=40, deadline=None)
@given(coeff_lists)
def test_exp_log_derivative_identity(tail):
    # (exp f)' = f' exp f for series with f(0) = 0
    f = RationalSeries.from_coeffs([0] + tail)
    e = f.exp()
    assert (e.derivative() - (f.derivative() * e).truncate(f.order - 1)).is_zero()


def test_upoly_basics():
    p = UPoly.from_coeffs([0, Fraction(1, 2), 0, Fraction(1, 2)])
    assert p.degree == 3
    assert p.coefficient(1) == Fraction(1, 2)
    assert p.eval(1) == 1
    assert p.derivative().eval(1) == 2
    q = UPoly.from_coeffs([0, 1]) * UPoly.from_coeffs([0, 1])
    assert (q * p).degree == 5
    # shift_marker multiplies by u^k
    assert p.shift_marker(2).coefficient(3) == Fraction(1, 2)
    assert p.shift_marker(2).coefficient(5) == Fraction(1, 2)
    assert p.shift_marker(2).coefficient(2) == 0
    # the zero polynomial stays trimmed: no leading zeros, degree -1
    assert p.scale(0) == UPoly.zero() and p.scale(0).degree == -1
    assert UPoly.zero().shift_marker(2) == UPoly.zero()


def test_upoly_product_matches_eval():
    p = UPoly.from_coeffs([1, 2, 3])
    q = UPoly.from_coeffs([-1, 0, 5])
    assert (p * q).eval(7) == p.eval(7) * q.eval(7)


def _horner(p, v):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * v + c
    return acc


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(fractions, max_size=6), st.lists(fractions, max_size=6))
def test_upoly_operators_keep_trimmed_fraction_coefficients(a, b):
    # the operators no longer wrap each coefficient again; their results are
    # the wrapped route's, with Fraction coefficients and no trailing zero
    p, q = UPoly.from_coeffs(a), UPoly.from_coeffs(b)
    n = max(len(p.coeffs), len(q.coeffs))
    product = [Fraction(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, x in enumerate(p.coeffs):
        for j, y in enumerate(q.coeffs):
            product[i + j] += x * y
    for got, want in ((p + q, [p.coefficient(k) + q.coefficient(k) for k in range(n)]),
                      (p - q, [p.coefficient(k) - q.coefficient(k) for k in range(n)]),
                      (p * q, product)):
        assert got == UPoly.from_coeffs(want)  # the wrapping route
        assert all(type(c) is Fraction for c in got.coeffs)
        assert not got.coeffs or got.coeffs[-1] != 0
    # at 1 the value is the coefficient sum, at any other point Horner's
    for v in (1, Fraction(1), -1, Fraction(2, 3)):
        assert p.eval(v) == _horner(p, v) and type(p.eval(v)) is Fraction


def test_bivariate_row_sums_and_marker():
    rows = [UPoly.constant(1), UPoly.from_coeffs([0, 1]),
            UPoly.from_coeffs([0, Fraction(1, 2), Fraction(1, 2)])]
    b = BivariateSeries(tuple(rows))
    assert b.order == 2
    assert b.row_sum(2) == 1
    assert b.at_marker_one()[2] == 1
    assert b.marked_mean_series()[2] == Fraction(3, 2)


def test_bivariate_exp_matches_univariate():
    # rows carrying no marker reduce to the scalar exp
    order = 8
    z = RationalSeries.identity(order)
    f = z + z * z
    rows = [UPoly.constant(f[n]) for n in range(order + 1)]
    eb = BivariateSeries(tuple(rows)).exp()
    es = f.exp()
    for n in range(order + 1):
        assert eb.row_sum(n) == es[n]


def test_index_out_of_range():
    s = RationalSeries.from_coeffs([1, 2])
    with pytest.raises(IndexError):
        s[5]
