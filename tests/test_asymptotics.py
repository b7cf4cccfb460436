"""Numeric constants, parity asymptotics, and the exact max-forest law."""

import copy
import functools
import gc
import hashlib
import math
import random
import weakref
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, count, repeat
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyakit.asymptotics as asy
import polyakit.families as fam
from polyakit.asymptotics import (
    MAX_ORDER,
    ROOT_SHIFT_ORDERS,
    _count_table,
    _derivative_table,
    _forest_terms,
    _horner_sum,
    decomposition_constants,
    forest_asymptotics,
    lmax_cdf_exact,
    lmax_exact_mean,
    solve_polya_singularity,
    solve_variant_singularity,
)
from polyakit.oracle import (
    _labeled_children,
    _subtree_sizes,
    aut_order,
    enumerate_trees,
    naive_automorphisms,
)
from polyakit.series import RationalSeries

def test_singularity_constants(sing):
    assert sing.rho == pytest.approx(0.338321856899, abs=1e-9)
    assert sing.b == pytest.approx(2.681128147, abs=1e-6)
    assert sing.c == pytest.approx(sing.b ** 2 / 3, rel=1e-12)
    assert abs(sing.residual) < 1e-12
    # the defining equation e rho D(rho) = 1
    assert sing.rho * sing.d_rho * math.e == pytest.approx(1.0, abs=1e-10)
    assert sing.d_rho == pytest.approx(1.087365281520, abs=1e-9)
    assert sing.d_prime_rho == pytest.approx(0.694237917, abs=1e-6)


# Otter's growth constant 1/rho and his constant C in t_n ~ C rho^-n n^(-3/2)
# (Finch, Mathematical Constants, section 5.6; OEIS A051491)
OTTER_INV_RHO = Decimal("2.9557652856519949747")
OTTER_C = Decimal("0.4399240125710253")
# The error after two Richardson steps falls like n^-3: at n = 1000/2000/4000
# (a 3.3 s table) both limits agree to 2.5e-10 relative or better, so 1e-9
# holds with a margin of 4; at 500/1000/2000 (0.6 s) they agree only to
# 9.1e-10 and 2.0e-9.
EXTRAPOLATION_SIZES = (1000, 2000, 4000)


@pytest.fixture(scope="module")
def large_counts():
    """t_0 .. t_4000 from a count table grown for this module alone, as the
    table tests of test_families.py grow theirs, so no other test reads it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fam, "_grown", fam._Grown())
        return fam.polya_int_table(EXTRAPOLATION_SIZES[-1])


def _extrapolated(f) -> Decimal:
    """lim f(n) for f(n) = L + a/n + b/n^2 + O(n^-3), from n, 2n and 4n by
    two Richardson steps in 1/n."""
    with localcontext() as ctx:
        ctx.prec = 40
        f1, f2, f4 = map(f, EXTRAPOLATION_SIZES)
        return (4 * (2 * f4 - f2) - (2 * f2 - f1)) / 3


def test_count_ratios_extrapolate_to_otters_growth_constant(large_counts, sing):
    # the Domb-Sykes ratios t_n/t_(n-1) = (1/rho)(1 - 3/(2n) + O(n^-2)):
    # the limit agrees to 1.1e-10 relative, the solver's 1/rho to 3.3e-16
    t = large_counts
    limit = _extrapolated(lambda n: Decimal(t[n]) / Decimal(t[n - 1]))
    assert abs(limit / OTTER_INV_RHO - 1) < 1e-9
    assert 1 / sing.rho == pytest.approx(float(OTTER_INV_RHO), rel=1e-13)


def test_scaled_counts_extrapolate_to_otters_constant(large_counts, sing):
    # t_n rho^n n^(3/2) = C (1 + O(1/n)), C = b sqrt(rho) / (2 sqrt(pi)): a
    # check of b that does not replay its formula: the limit agrees to
    # 2.5e-10 relative, the solver's b and rho to 2.2e-16
    t, rho = large_counts, 1 / OTTER_INV_RHO
    limit = _extrapolated(lambda n: t[n] * rho ** n * (n * Decimal(n).sqrt()))
    assert abs(limit / OTTER_C - 1) < 1e-9
    c = sing.b * math.sqrt(sing.rho) / (2 * math.sqrt(math.pi))
    assert c == pytest.approx(float(OTTER_C), rel=1e-13)


def test_second_solve_at_the_same_order_is_remembered(fresh_state, monkeypatch):
    solved, built = [], []
    solve = asy._solve

    class RecordedTable(asy._FloatTable):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)
    monkeypatch.setattr(
        asy, "_solve",
        lambda family, order: solved.append(order) or solve(family, order))
    monkeypatch.setattr(asy, "_FloatTable", RecordedTable)
    first = solve_polya_singularity(60)
    assert solved == [60]
    assert solve_polya_singularity(60) == first
    decomposition_constants(60)
    forest_asymptotics(60)
    assert solved == [60]
    # the solve builds the tables at orders 60 and 140 (a sum at order 60 is
    # cut short, so the raised order is solved) and one derivative table; the
    # remembered solve hands a fresh count table at 60 to each later request,
    # from which the decomposition constants build the first and second
    # derivative tables and the forest constants their own derivative table;
    # no table converts past its order
    assert [t.order for t in built] == [60, 140, 59, 60, 60, 59, 58, 60, 59]
    assert all(len(t.coeffs) <= t.order + 1 for t in built)
    # the Polya root reads t_0 .. t_78, so a solve at 200 covers every order
    # from 78 to MAX_ORDER: a solve at 400 or an L_n law at the default
    # order is not run again, and one at 60, below the reach, is
    assert solve_polya_singularity(200).order == 200
    assert solve_polya_singularity(400).order == 400
    assert solved == [60, 200]
    assert lmax_exact_mean(40) == lmax_exact_mean(40)
    forest_asymptotics(asy.DEFAULT_ORDER)
    lmax_cdf_exact(40, 40)
    lmax_exact_mean(50)
    assert solved == [60, 200]
    assert solve_polya_singularity(60) == first
    assert solved == [60, 200, 60]
    fresh_state.solves.clear()
    assert solve_polya_singularity(60) == first  # the same bits when re-solved


def test_forest_constants(forest):
    assert forest.xi_plus == pytest.approx(1.159401991, abs=1e-6)
    assert forest.xi_minus == pytest.approx(0.969123357, abs=1e-6)
    assert forest.gamma_rho == pytest.approx(0.191837403, abs=1e-7)
    assert forest.mu_even == pytest.approx(0.271458812, abs=1e-5)
    assert forest.mu_odd == pytest.approx(3.785271023, abs=1e-5)
    assert forest.component_count_limit(150) == pytest.approx(3.2715, abs=1e-3)
    assert forest.component_count_limit(151) == pytest.approx(6.7853, abs=1e-3)


def test_forest_count_estimate_parity(forest):
    d = fam.dforest_coeffs(160)
    for n in range(150, 161):
        exact = float(d[n])
        est = forest.dn_estimate(n)
        assert abs(est / exact - 1) < 0.05
        # the parity term alternates the sign of the correction
        assert forest.dn_parity_sign(n) == (1 if n % 2 == 0 else -1)


def exact_csize_variance_per_node(n: int) -> Fraction:
    """var|C_n|/n from the exact moments: t_n E|C_n| = [z^n] P and
    t_n E|C_n|^2 = [z^n] P (1+P)^2, with P = T/(1-T), by big-int
    convolutions of the pointed table."""
    p = fam._grow_pointed(1, n)[:n + 1]
    t_n = fam.polya_int_table(n)[n]
    lifted = [1] + p[1:]  # 1 + P
    squared = [sum(lifted[k] * lifted[j - k] for k in range(j + 1))
               for j in range(n + 1)]
    second = sum(p[k] * squared[n - k] for k in range(1, n + 1))
    mean = Fraction(p[n], t_n)
    return (Fraction(second, t_n) - mean * mean) / n


def test_decomposition_constants(deco):
    assert deco.c_share == pytest.approx(0.822365336, abs=1e-7)
    assert deco.y_share == pytest.approx(0.157760431, abs=1e-7)
    # the quasi-powers variance against the exact moments, Richardson
    # extrapolated: the error of var|C_n|/n falls like 1/n, and
    # 2 v(1000) - v(500) = 0.3638152
    v500 = exact_csize_variance_per_node(500)
    v1000 = exact_csize_variance_per_node(1000)
    assert float(v500) == pytest.approx(0.364806, abs=1e-6)
    assert float(v1000) == pytest.approx(0.364311, abs=1e-6)
    assert deco.c_var_coeff == pytest.approx(float(2 * v1000 - v500), abs=1e-5)
    assert deco.mean_forest_size == pytest.approx(1 / deco.c_share - 1, rel=1e-10)


def test_forest_size_distribution(deco):
    row = deco.forest_size_distribution(7)
    frozen = (0.9196542, 0.0, 0.0526326, 0.0118712,
              0.0105427, 0.0014947, 0.0026912, 0.0002494)
    assert row == pytest.approx(frozen, abs=1e-6)
    cond = deco.conditional_forest_size(9)
    assert cond[0] == pytest.approx(row[2] / (1 - row[0]), rel=1e-12)
    assert len(cond) == 8


def test_forest_size_entry_past_the_float_range_of_rho_power(deco):
    # rho^700 is below the smallest normal float and a plain float product
    # reads 0.0 here; the entry is about 1e-169
    entry = deco.forest_size_distribution(700)[700]
    exact = fam.dforest_coeffs(700)[700] * Fraction(deco.rho) ** 700 / Fraction(deco.d_rho)
    assert entry == pytest.approx(float(exact), rel=1e-12)
    assert entry > 0


def forest_term(d_m: Fraction, rho: float, m: int) -> float:
    """Reference route: d_m rho^m from the Fraction d_m and a fresh power."""
    return float(d_m * Fraction(rho) ** m)


def test_forest_terms_match_the_fraction_route(sing):
    d = fam.dforest_coeffs(300)
    reference = [forest_term(d[m], sing.rho, m) for m in range(301)]
    assert [v.hex() for v in _forest_terms(sing.rho, 300)] == [
        v.hex() for v in reference]


def test_forest_rows_stop_where_the_terms_underflow(deco, monkeypatch):
    # at rho = 1e-30 the terms round to 0.0 from m = 11 on: a row through
    # m = 10^6 reads D no further than its first chunk and pads with zeros
    tiny = deco._replace(rho=1e-30)
    d = fam.dforest_coeffs(60)
    terms = [forest_term(d[m], tiny.rho, m) for m in range(61)]
    stop = next(m for m in range(2, 61) if terms[m - 1] == terms[m] == 0.0) + 1
    assert terms[stop:] == [0.0] * (61 - stop)
    tops = []
    grow = fam._grow_forests
    monkeypatch.setattr(asy, "_grow_forests",
                        lambda sigma, n: tops.append(n) or grow(sigma, n))
    mmax = 10 ** 6
    row = tiny.forest_size_distribution(mmax)
    assert row == [v / tiny.d_rho for v in terms[:stop]] + [0.0] * (mmax + 1 - stop)
    cond = tiny.conditional_forest_size(mmax)
    assert cond == [v / (tiny.d_rho - 1.0) for v in terms[2:stop]] + [0.0] * (mmax + 1 - stop)
    assert tops == [asy._FOREST_CHUNK - 1] * 2


def test_forest_term_with_d_m_above_the_float_range(monkeypatch):
    # a table with d_m = 3^m: float(3^850) would overflow, the term
    # (3 rho)^850 is about 3e5
    rho, m = 0.3383218568992077, 850
    table = list(accumulate(range(1, m + 1), lambda f, k: f * 3 * k, initial=1))
    monkeypatch.setattr(asy, "_grow_forests", lambda sigma, n: table)
    with pytest.raises(OverflowError):
        float(3 ** m)
    with localcontext() as ctx:
        ctx.prec = 60
        expected = (3 * Decimal(rho)) ** m
    assert _forest_terms(rho, m)[m] == pytest.approx(float(expected), rel=1e-15)


def test_exact_row_approaches_asymptotic(deco):
    row300 = [float(x) for x in fam.exact_forest_size_row(120, 7)]
    asym = deco.forest_size_distribution(7)
    assert row300 == pytest.approx(asym, abs=2e-3)


def test_hierarchy_singularity():
    v = solve_variant_singularity("hierarchy", 500)
    assert v.tau == pytest.approx(0.4567332096, abs=1e-8)
    assert v.mu == pytest.approx(0.6246006690, abs=1e-8)
    assert abs(v.residual) < 1e-10


def test_binary_singularity():
    v = solve_variant_singularity("binary", 500)
    assert v.tau == pytest.approx(0.6345845126, abs=1e-8)
    assert v.mu == pytest.approx(0.2769762002, abs=1e-8)
    assert abs(v.residual) < 1e-10
    # coefficient ratios approach tau^2 with a 1/n correction
    table = fam.binary_int_table(260)

    def ratio(n):
        return math.sqrt(table[n] / table[n + 2])

    n1, n2 = 155, 255
    extrapolated = (n2 * ratio(n2) - n1 * ratio(n1)) / (n2 - n1)
    assert extrapolated == pytest.approx(v.tau, abs=1e-3)


@pytest.mark.parametrize("family", ["polya", "nonsense"])
def test_variant_solver_takes_only_the_variant_families(family):
    with pytest.raises(ValueError, match="unknown variant family"):
        solve_variant_singularity(family, 60)


def test_variant_share_matches_exact_moments():
    # E c_n / n -> 1/(1 + mu); exact marked series, Richardson in 1/n
    for family, ns in (("hierarchy", (64, 256, 1024)),
                       ("binary", (65, 257, 1025))):
        v = solve_variant_singularity(family, 500)
        means = [_variant_mean_csize(family, n) / n for n in ns]
        # n quadruples per step, corrections are a/n + b/n^2
        r1a = (4 * means[1] - means[0]) / 3
        r1b = (4 * means[2] - means[1]) / 3
        r2 = (16 * r1b - r1a) / 15
        assert r2 == pytest.approx(v.c_share, abs=1e-4)
        assert (1 - r2) / r2 == pytest.approx(v.mu, abs=5e-4)


def _variant_mean_csize(family: str, n: int) -> float:
    from fractions import Fraction
    if family == "hierarchy":
        a = fam.hierarchy_int_table(n)
        series = fam.hierarchy_coeffs(n)
        # M = A/((1+z)(1-A))
        one = type(series).one(n)
        z = type(series).identity(n)
        m = series * ((one + z) * (one - series)).reciprocal()
    else:
        a = fam.binary_int_table(n)
        series = fam.binary_polya_coeffs(n)
        one = type(series).one(n)
        z = type(series).identity(n)
        m = series * (one - z * series).reciprocal()
    return float(Fraction(m[n]) / a[n])


def brute_force_lmax_cdf(n: int) -> list[float]:
    """Distribution of the largest per-node forest over (tree, automorphism)
    pairs, each tree weighted 1/|Aut|."""
    t_n = len(enumerate_trees(n))
    cdf = [0.0] * (n + 1)
    for tree in enumerate_trees(n):
        ch = _labeled_children(tree)
        sizes = _subtree_sizes(ch)
        order = aut_order(tree)
        for perm in naive_automorphisms(ch):
            lmax = 0
            for v in range(len(perm)):
                if perm[v] != v:
                    continue
                forest = sum(sizes[w] for w in ch[v] if perm[w] != w)
                lmax = max(lmax, forest)
            for k in range(lmax, n + 1):
                cdf[k] += 1.0 / order
    return [x / t_n for x in cdf]


@pytest.mark.parametrize("n", [6, 8])
def test_lmax_cdf_matches_brute_force(n):
    exact = lmax_cdf_exact(n, n)
    brute = brute_force_lmax_cdf(n)
    assert exact == pytest.approx(brute, abs=1e-12)


def test_lmax_cdf_matches_exact_rational_route():
    # P[L_n <= K] = [z^n] C(z D_K(z)) / t_n, D_K the degree-K truncation of
    # D: a rational number for every K, independent of rho
    n = 24
    d, c = fam.dforest_coeffs(n), fam.cayley_coeffs(n)
    t_n = fam.polya_int_table(n)[n]
    exact = []
    for k in range(n + 1):
        d_k = RationalSeries(d.coeffs[: k + 1] + (Fraction(0),) * (n - k))
        exact.append(float(c.compose(d_k.shift(1))[n] / t_n))
    assert exact[-1] == 1.0
    assert lmax_cdf_exact(n, n) == pytest.approx(exact, abs=1e-15)


def test_lmax_cdf_shape():
    cdf = lmax_cdf_exact(50, 50)
    assert all(type(p) is float for p in cdf)
    assert all(b >= a - 1e-15 for a, b in zip(cdf, cdf[1:]))
    assert cdf[-1] == pytest.approx(1.0, abs=1e-12)
    assert cdf[0] == cdf[1]  # a nonempty forest has at least two nodes


def test_lmax_exact_means():
    assert type(lmax_exact_mean(40)) is float
    assert lmax_exact_mean(40) == pytest.approx(3.438439, abs=1e-5)
    assert lmax_exact_mean(500) == pytest.approx(6.638253, abs=1e-5)


def per_cap_lmax_cdf(n: int, kmax: int, rho: float) -> list[float]:
    """Reference route: one full composition Y_K = z e^(Y_K) D_K(z) per cap K,
    in the scaled variable z -> rho z, with the scaled forest read off the
    exact series D."""
    d = fam.dforest_coeffs(n)
    d_scaled = np.array([float(d[m]) * rho ** m for m in range(n + 1)])

    def compose(forest: np.ndarray) -> float:
        y = np.zeros(n + 1)
        ey = np.zeros(n + 1)
        ey[0] = 1.0
        for m in range(1, n + 1):
            y[m] = rho * (forest[:m] @ ey[m - 1 :: -1][:m])
            ey[m] = (np.arange(1, m + 1) * y[1 : m + 1]) @ ey[m - 1 :: -1][:m] / m
        return y[n]

    tn = compose(d_scaled)
    out = []
    for k in range(kmax + 1):
        trunc = d_scaled.copy()
        trunc[k + 1 :] = 0.0
        out.append(compose(trunc) / tn)
    return out


@pytest.mark.parametrize("n,kmax", [(60, 60), (500, 64)])
def test_lmax_cdf_matches_per_cap_route(sing, n, kmax):
    batched = lmax_cdf_exact(n, kmax)
    reference = per_cap_lmax_cdf(n, kmax, sing.rho)
    assert batched == pytest.approx(reference, abs=1e-12)


def _scaled_polya_coeffs(n: int, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Reference route: t_m rho^m for m <= n by the scaled Euler recurrence,
    built afresh, and its divisor sums, each t_d added at the multiples of d
    as soon as it is known, as the L_n law did before it grew one column."""
    t = np.zeros(n + 1)
    s = np.zeros(n + 1)
    for m in range(1, n + 1):
        t[m] = rho if m == 1 else (t[m - 1 : 0 : -1] @ s[1:m]) / (m - 1)
        s[m::m] += m * t[m] * rho ** (m * np.arange(n // m))
    return t, s


def reference_lmax_cdf(n: int, kmax: int, rho: float) -> list[float]:
    """Reference route: the L_n law computed afresh, every cap K = 0..kmax
    a row, with the forest terms from the Fraction route."""
    width = min(kmax, n) + 1
    d = fam.dforest_coeffs(width - 1)
    terms = [forest_term(d[m], rho, m) for m in range(width)]
    trunc = np.tril(np.tile(terms, (kmax + 1, 1)))
    idx = np.arange(n + 1)
    y = np.zeros((kmax + 1, n + 1))
    ey = np.zeros((kmax + 1, n + 1))
    ey[:, 0] = 1.0
    for m in range(1, n + 1):
        back = ey[:, m - 1 :: -1]
        j = min(m, width)
        y[:, m] = rho * np.einsum("ij,ij->i", trunc[:, :j], back[:, :j])
        ey[:, m] = np.einsum("j,ij,ij->i", idx[1 : m + 1], y[:, 1 : m + 1],
                             back[:, :m]) / m
    return (y[:, n] / _scaled_polya_coeffs(n, rho)[0][n]).tolist()


def test_remembered_law_is_bit_identical_to_a_fresh_law(sing, fresh_state):
    # rising sizes extend one law, a smaller size reads a column already
    # there, and the last two requests replace it
    for n in (250, 500, 750, 1000, 500, 2000, 8000, 24, 30):
        kmax = 500 if n == 30 else min(n, max(64, int(8 * math.log(n))))
        got = lmax_cdf_exact(n, kmax)
        want = reference_lmax_cdf(n, kmax, sing.rho)
        assert [v.hex() for v in got] == [v.hex() for v in want], (n, kmax)


def held_law() -> SimpleNamespace:
    """The remembered L_n law, its cap count and degree read off y's shape."""
    rho, y, ey, t, s = fam._grown.law
    return SimpleNamespace(rho=rho, caps=len(y) - 1, degree=y.shape[1] - 1,
                           y=y, ey=ey, t=t, s=s)


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def test_only_the_last_law_is_held(fresh_state):
    lmax_cdf_exact(40, 64)
    law = held_law()
    assert (law.caps, law.degree) == (39, 40)
    first = [weakref.ref(a) for a in (law.y, law.ey, law.t, law.s)]
    del law
    lmax_cdf_exact(60, 20)
    gc.collect()
    assert [ref() for ref in first] == [None] * 4  # the column went with it
    law = held_law()
    assert (law.caps, law.degree, law.ey.shape, law.t.shape, law.s.shape) == (
        20, 60, (21, 61), (61,), (61,))
    lmax_cdf_exact(30, 20)  # a column already there
    assert held_law().y is law.y and held_law().degree == 60
    # caps past n - 1 copy cap n - 1 and get no row of their own
    cdf = lmax_cdf_exact(10, 10 ** 6)
    assert held_law().y.shape == (10, 11)
    assert len(cdf) == 10 ** 6 + 1
    assert cdf[:11] == lmax_cdf_exact(10, 10)
    assert cdf[9:] == cdf[9:10] * (10 ** 6 - 8)


def test_grown_column_is_bit_identical_to_a_fresh_column(sing, fresh_state):
    # the law's column t_m rho^m and its divisor sums grow with the law, are
    # built afresh with it when the cap count changes, and are read where
    # they are held for smaller n
    for n in (250, 500, 750, 1000, 500, 2000, 40):
        lmax_cdf_exact(n, 6 if n == 500 else 4)
        law = held_law()
        want_t, want_s = _scaled_polya_coeffs(law.degree, sing.rho)
        assert hexes(law.t) == hexes(want_t) and hexes(law.s) == hexes(want_s), n
    # small steps under one cap, where the known t_d still reach the last
    # bit of each new s_j (past 250, where d <= j/2, they add about rho^125
    # of it or less)
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144):
        lmax_cdf_exact(n, 0)
        law = held_law()
        want_t, want_s = _scaled_polya_coeffs(n, sing.rho)
        assert (law.caps, law.degree) == (0, n)
        assert hexes(law.t) == hexes(want_t) and hexes(law.s) == hexes(want_s), n
    # a law of another rho is replaced, not extended, even at the same caps
    fam._grown.law = (sing.rho * (1 - 2 ** -30), np.ones((5, 41)),
                      np.ones((5, 41)), np.ones(41), np.ones(41))
    lmax_cdf_exact(60, 4)
    law = held_law()
    assert law.rho == sing.rho
    assert hexes(law.t) == hexes(_scaled_polya_coeffs(60, sing.rho)[0])


def test_scaled_counts_match_integer_table(sing, fresh_state):
    # the exact route: rho = p/q exactly, and t_m p^m / q^m is one correctly
    # rounded integer division.  The float recurrence's largest relative
    # error through n = 2000 is 2.18e-14 (at m = 1994; 4.6e-15 through 400),
    # growing about like m; the bound is twice that
    n = 2000
    lmax_cdf_exact(n, 0)
    scaled = held_law().t
    p, q = sing.rho.as_integer_ratio()
    exact = [t * p ** m / q ** m for m, t in enumerate(fam.polya_int_table(n))]
    assert scaled[0] == exact[0] == 0
    assert list(scaled[1:]) == pytest.approx(exact[1:], rel=2 * 2.18e-14)


@pytest.mark.parametrize("n,kmax", [(0, 0), (-3, 5), (5, -1)])
def test_lmax_cdf_rejects_invalid_sizes(n, kmax):
    with pytest.raises(ValueError):
        lmax_cdf_exact(n, kmax)


def test_lmax_interval_and_estimate(deco):
    lo, hi = deco.lmax_interval(2000, 0.5)
    center = deco.lmax_location(2000)
    assert lo < center < hi
    assert deco.lmax_location(2000) == pytest.approx(
        -2 * math.log(2000) / math.log(deco.rho), rel=1e-12)

def full_horner(table, y: float) -> float:
    """Reference route: Horner's rule over every coefficient of the table."""
    acc = 0.0
    for c in reversed(table.read(table.order)):
        acc = acc * y + c
    return acc


def _solver_results(family: str, order: int) -> str:
    if family == "polya":
        sing = solve_polya_singularity(order)
        return repr((sing._asdict(), forest_asymptotics(order)._asdict(),
                     decomposition_constants(order)._asdict()))
    return repr(solve_variant_singularity(family, order)._asdict())


CUT_ORDERS = (1, 5, 20, 60, 200, 400, 584)
SOLVER_CASES = [
    *((family, order) for family in ("polya", "hierarchy", "binary")
      for order in CUT_ORDERS),
    ("hierarchy", 839), ("binary", 1504)]


def test_solvers_match_their_pinned_digest(fresh_state):
    # sha256 of every constant of every solver, computed while each family
    # had its own hand-written root solve; re-pinned when c_var_coeff became
    # the quasi-powers variance, the only field that moved, and again when
    # the unsourced lmax_c1 was deleted: the earlier strings with only that
    # item dropped hash to this digest, so no other constant moved
    results = []
    for family, order in SOLVER_CASES:
        fresh_state.solves.clear()
        results.append(_solver_results(family, order))
    assert hashlib.sha256("\n".join(results).encode()).hexdigest() == (
        "94eb419114f4997465b1a768ccd8187e8d3e43f02e022f6900cd314c10d1ed9f")


def test_remembered_solves_match_fresh_solves_in_any_order(fresh_state):
    # every order 1..128 and every solver case of each family, walked rising,
    # falling and shuffled without clearing the slots: each request, reused
    # or solved, gives the characters of a fresh solve at its order
    walks = {family: sorted({*range(1, 129), *(o for f, o in SOLVER_CASES
                                                if f == family)})
             for family in ("polya", "hierarchy", "binary")}
    fresh = {}
    for family, orders in walks.items():
        for order in orders:
            fresh_state.solves.clear()
            fresh[family, order] = _solver_results(family, order)
    for family, orders in walks.items():
        shuffled = random.Random(36).sample(orders, len(orders))
        for walk in (orders, orders[::-1], shuffled):
            for order in walk:
                assert _solver_results(family, order) == fresh[family, order], (
                    family, order)


@pytest.mark.parametrize("family", ["polya", "hierarchy", "binary"])
def test_a_solve_is_reused_only_from_its_reach_on(family, fresh_state, monkeypatch):
    # the reaches are 78 (Polya), 155 (hierarchy) and 265 (binary); below
    # the reach, and after a solve that read its whole table, _bisect runs
    solved = []
    bisect = asy._bisect
    monkeypatch.setattr(asy, "_bisect",
                        lambda g, lo, hi: solved.append(lo) or bisect(g, lo, hi))
    solve = (solve_polya_singularity if family == "polya" else
             functools.partial(solve_variant_singularity, family))
    solve(400)
    reach, top = fam._grown.solves[family][:2]
    assert (reach, top) == ({"polya": 78, "hierarchy": 155, "binary": 265}[family],
                            MAX_ORDER[family])
    for order in (reach, 584, MAX_ORDER[family], 400):
        assert solve(order).order == order
    assert len(solved) == 1
    solve(reach - 1)  # below the reach: solved again, and cut short there
    assert len(solved) > 1 and fam._grown.solves[family][:2] == (reach - 1,) * 2
    runs = len(solved)
    solve(reach - 1)  # the same order is read from the slot
    assert len(solved) == runs
    solve(400)  # after a cut-short solve, every other order solves again
    assert len(solved) > runs
    with pytest.raises(asy.OrderTooLarge):
        solve(MAX_ORDER[family] + 1)


@pytest.mark.parametrize("family, order", SOLVER_CASES)
def test_cut_evaluation_matches_full_route(family, order, fresh_state, monkeypatch):
    # every constant of every solver, to the last bit, against Horner's rule
    # over the whole table; forest_asymptotics covers the negative arguments
    cut = _solver_results(family, order)
    # a tail margin of e^(-10^9) keeps every coefficient: the cut would need
    # more than 10^9/745 terms, far past every table.  The slots are emptied
    # after the patch, so that no root is reused across margins
    monkeypatch.setattr(asy, "_LN_TAIL_MARGIN", -1e9)
    fresh_state.solves.clear()
    assert cut == _solver_results(family, order)


def x_power_derivative_sum(dtable, x, weights, power=1):
    """sum over i >= 2 of w_i * x^(power (i-1)) * series'(x^i), each argument
    x ** i, from the derivative's table (the second derivative's for power
    2): the route the chain-rule weights of _substituted_sum replaced."""
    args, scaled = [], []
    for i, w in zip(range(2, 2000), weights):
        arg = x ** i
        if arg < 1e-25:
            break
        args.append(arg)
        scaled.append(w * x ** (power * (i - 1)))
    return _horner_sum(dtable, args, scaled)


@pytest.mark.parametrize("family, order",
                         [case for case in SOLVER_CASES if case[0] != "binary"])
def test_chain_rule_sums_match_the_x_power_route(family, order):
    # each derivative sum the solvers read, to the last bit: x^i built by
    # repeated products against x ** i.  Hierarchy mu; for Polya D'(rho),
    # gamma'(rho) and the two parts of G''(rho).  Off these orders they can
    # differ in the last bit (hierarchy mu at order 29 moved by one ulp)
    table = _count_table(family, order)
    dt = _derivative_table(table)
    if family == "hierarchy":
        x = solve_variant_singularity(family, order).tau
        sums = [(dt, lambda i: x ** (i - 1), repeat(1.0), 1)]
    else:
        x = solve_polya_singularity(order).rho
        sums = [(dt, lambda i: x ** (i - 1), repeat(1.0), 1),
                (dt, lambda i: i * x ** (i - 1), map(float, count(2)), 1),
                (dt, lambda i: (i - 1) * x ** (i - 1), map(float, count(1)), 1),
                (_derivative_table(dt), lambda i: i * x ** (2 * i - 2),
                 map(float, count(2)), 2)]
    for d, weight, old_weights, power in sums:
        assert (asy._substituted_sum(d, x, 2, map(weight, count(2)))
                == x_power_derivative_sum(d, x, old_weights, power))


def solver_table(name: str):
    """The solvers' tables at order 480 (the raised order of 400), and their
    derivative tables, by name: T, T', T'', H, H', B, B'; each is converted
    only as far as it is read."""
    family = {"T": "polya", "H": "hierarchy", "B": "binary"}[name[0]]
    table = _count_table(family, 480)
    for _ in range(name.count("'")):
        table = _derivative_table(table)
    return table


# the bisection bracket of the solver that evaluates each table
BRACKETS = {"T": (0.25, 0.45), "H": (0.3, 0.6), "B": (0.5, 0.75)}
SQRT_RHO = math.sqrt(0.338321856899)


def _argument(name: str):
    lo, hi = BRACKETS[name[0]]
    x = st.floats(lo, hi) | st.sampled_from((SQRT_RHO, -SQRT_RHO))
    return st.tuples(st.just(name), x, st.integers(2, 80))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(("T", "T'", "T''", "H", "H'", "B", "B'")).flatmap(_argument))
def test_cut_horner_is_bit_identical(case):
    name, x, i = case
    table, y = solver_table(name), x ** i
    assert _horner_sum(table, [y], [1.0]).hex() == full_horner(table, y).hex(), case


def terms_read(table, y: float) -> int:
    """How many leading coefficients the cut pass at y reads: a NaN placed at
    index k reaches the result exactly when coefficient k is read."""
    coeffs = table.read(table.order)

    def reads(k: int) -> bool:
        marked = copy.copy(table)
        marked.coeffs = [*coeffs[:k], math.nan, *coeffs[k + 1:]]
        return math.isnan(_horner_sum(marked, [y], [1.0]))
    return sum(map(reads, range(len(coeffs))))


def test_cut_leaves_out_most_of_the_table():
    # at the arguments of the Polya constants the pass stops after a few
    # dozen terms; near the radius it keeps the whole table
    t = solver_table("T")
    rho = 0.338321856899
    assert t.order == 480 and t.first == 1
    assert t.ratio == pytest.approx(1 / rho, rel=1e-2)
    assert terms_read(t, rho ** 2) == 74
    assert terms_read(t, -SQRT_RHO ** 3) == 145
    assert len(t.coeffs) == 481
    assert terms_read(t, rho) == len(t.coeffs)
    assert terms_read(t, 0.0) == len(t.coeffs)


def test_table_converts_only_the_terms_a_sum_reads():
    # a sum grows the table to the terms it reads, and reads the same terms
    # whatever the table already holds; only a sum that wants terms past the
    # order is cut short
    t = solver_table("T")
    rho = 0.338321856899
    assert _horner_sum(t, [rho ** 2], [1.0]) == full_horner(t, rho ** 2)
    fresh = solver_table("T")
    assert _horner_sum(fresh, [rho ** 2], [1.0]) == full_horner(t, rho ** 2)
    assert len(fresh.coeffs) == terms_read(t, rho ** 2) and not fresh.cut_short
    _horner_sum(fresh, [rho], [1.0])
    assert len(fresh.coeffs) == 481 and fresh.cut_short


def plain_bisect(g, lo: float, hi: float) -> float:
    """Reference route: bisection of [lo, hi] on the sign of g down to one
    ulp, evaluating g at every midpoint."""
    glo = g(lo)
    if glo > 0 or g(hi) < 0:
        raise ValueError("root not bracketed")
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if g(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def counted(g):
    """g, and a list whose length is the number of calls made to it."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)
    return wrapped, calls


BISECT_CASES = {
    "root at lo": (lambda x: x - 0.3, 0.3, 0.6),
    "root at hi": (lambda x: x - 0.6, 0.3, 0.6),
    "root on a dyadic midpoint": (lambda x: x - 0.375, 0.25, 0.5),
    "sign step": (lambda x: -1.0 if x < 0.4 else 1.0, 0.25, 0.45),
    "step flat at zero": (lambda x: 0.0 if x < 0.4 else 1.0, 0.25, 0.45),
    "zero": (lambda x: 0.0, 0.3, 0.6),
    "steep": (lambda x: math.expm1(300 * (x - 0.31)), 0.25, 0.45),
    # the float spacing here (4.7e-10) is far wider than _NEAR
    "far from 0": (lambda x: x - 3e6, 1e6, 5e6),
    "far from 0, off the grid": (lambda x: x - 3.3e6, 1e6, 5e6),
}


@pytest.mark.parametrize("name", BISECT_CASES)
def test_bisect_matches_plain_route_on_degenerate_cases(name):
    g, lo, hi = BISECT_CASES[name]
    counted_g, calls = counted(g)
    plain_g, plain_calls = counted(g)
    assert asy._bisect(counted_g, lo, hi).hex() == plain_bisect(plain_g, lo, hi).hex()
    # the secant phase takes at most 40 steps, and the replay evaluates g at
    # no more midpoints than plain bisection does
    assert len(calls) <= len(plain_calls) + 40


@pytest.mark.parametrize("g, lo, hi", [
    (lambda x: x - 1.0, 0.25, 0.45), (lambda x: x, 0.25, 0.45)])
def test_bisect_rejects_an_unbracketed_root(g, lo, hi):
    with pytest.raises(ValueError, match="root not bracketed"):
        asy._bisect(g, lo, hi)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(0.05, 0.8), st.floats(1e-6, 0.5), st.floats(0.0, 1.0),
       st.floats(1e-3, 700.0), st.booleans())
def test_bisect_never_evaluates_the_bracket_ends(lo, width, at, scale, linear):
    # the evaluated bracket comes from bisection's midpoints: when g <= 0 at
    # some float above lo and g > 0 at some float below hi, g is read at
    # neither end, and the root is still plain bisection's
    hi = lo + width
    r = lo + at * (hi - lo)
    assume(lo < r < math.nextafter(hi, lo))
    if linear:
        def g(x):
            return scale * (x - r)
    else:
        def g(x):
            return math.expm1(scale / width * (x - r))
    counted_g, calls = counted(g)
    assert asy._bisect(counted_g, lo, hi).hex() == plain_bisect(g, lo, hi).hex()
    assert lo not in calls and hi not in calls


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.floats(0.05, 0.8), st.floats(1e-6, 0.5), st.floats(0.0, 1.0),
       st.floats(1e-3, 700.0), st.booleans())
def test_bisect_matches_plain_route_on_monotone_g(lo, width, at, scale, linear):
    hi = lo + width
    r = lo + at * (hi - lo)
    if linear:
        def g(x):
            return scale * (x - r)
    else:
        def g(x):
            return math.expm1(scale / width * (x - r))
    assert asy._bisect(g, lo, hi).hex() == plain_bisect(g, lo, hi).hex()


def two_table_solve(family: str, order: int):
    """Reference route: _solve as it was before the raised order could be
    skipped, bisecting on the tables at the order and at order +
    ROOT_SHIFT_ORDERS every time."""
    g, (lo, hi) = asy._FAMILIES[family][1:3]
    tables = [_count_table(family, n) for n in (order, order + ROOT_SHIFT_ORDERS)]
    x, raised = [asy._bisect(lambda y: g(t, y), lo, hi) for t in tables]
    return tables[0], x, abs(g(tables[0], x)), abs(x - raised)


def _solve_hexes(solve, family: str, order: int) -> tuple[str, str, str]:
    _, x, residual, shift = solve(family, order)
    return x.hex(), residual.hex(), shift.hex()


# every 7th order and each family's largest order; every order of every
# family agreed when the secant phase was introduced, and again when the
# raised solve became conditional
WALKED_ORDERS = [(family, order) for family, top in MAX_ORDER.items()
                 for order in [*range(1, top, 7), top]]


def test_replayed_bisection_matches_plain_route(monkeypatch):
    # root, residual and shift to the last bit
    fast = [_solve_hexes(asy._solve, *case) for case in WALKED_ORDERS]
    monkeypatch.setattr(asy, "_bisect", plain_bisect)
    assert fast == [_solve_hexes(asy._solve, *case) for case in WALKED_ORDERS]


def test_skipped_raised_solve_matches_two_table_route():
    # where no sum reaches the end of the table, the shift is 0.0 because
    # the raised solve would return the same root; elsewhere it is solved
    assert ([_solve_hexes(asy._solve, *case) for case in WALKED_ORDERS]
            == [_solve_hexes(two_table_solve, *case) for case in WALKED_ORDERS])


# how many times a solve at order 400 bisects: no sum reaches past the table
# (binary's did while g was read at its bracket end 0.75, past the radius),
# so no family solves the raised order as well
BISECTIONS_AT_400 = {"polya": 1, "hierarchy": 1, "binary": 1}


@pytest.mark.parametrize("family", list(BISECTIONS_AT_400))
def test_bisect_evaluates_g_a_few_dozen_times(family, monkeypatch):
    # plain bisection from the solvers' brackets evaluates g 53 or 54 times
    counts = []
    bisect = asy._bisect

    def counting_bisect(g, lo, hi):
        counted_g, calls = counted(g)
        x = bisect(counted_g, lo, hi)
        counts.append(len(calls))
        return x
    monkeypatch.setattr(asy, "_bisect", counting_bisect)
    asy._solve(family, 400)
    assert len(counts) == BISECTIONS_AT_400[family] and max(counts) <= 30, counts


def _consecutive_ratios(values) -> list[tuple[Fraction, int]]:
    """(c_b/c_a, b - a) over consecutive nonzero entries c_a, c_b."""
    nonzero = [k for k, v in enumerate(values) if v]
    return [(Fraction(values[b], values[a]), b - a)
            for a, b in zip(nonzero, nonzero[1:])]


@pytest.mark.parametrize("family", list(MAX_ORDER))
def test_growth_bounds_cover_the_largest_tables(family):
    # each bound holds for every consecutive ratio from its anchor on of the
    # exact table at the largest order a solve builds (the derivatives' at
    # MAX_ORDER), exactly, and is within 1 % of the largest, so that the cuts
    # stay tight; the Polya row also bounds the second derivative
    # decomposition_constants reads, whose early ratios (6 at its index 0)
    # lie above its bound
    counts, _, _, bounds, _ = asy._FAMILIES[family]
    top = MAX_ORDER[family]
    base = counts(top + ROOT_SHIFT_ORDERS)[:top + ROOT_SHIFT_ORDERS + 1]
    derivative = [k * base[k] for k in range(1, top + 1)]
    second = [k * (k - 1) * base[k] for k in range(2, top + 1)]
    assert len(bounds) == (3 if family == "polya" else 2)
    anchors = [anchor for anchor, _ in bounds]
    assert anchors == ([0, 0, 5] if family == "polya" else [0, 0])
    for (anchor, bound), values in zip(bounds, (base, derivative, second)):
        ratios = _consecutive_ratios(values[anchor:])
        assert all(Fraction(bound) ** gap >= r for r, gap in ratios)
        assert bound <= 1.01 * max(float(r) ** (1 / gap) for r, gap in ratios)
    if family == "polya":  # the anchor leaves out ratios above the bound
        assert max(r for r, _ in _consecutive_ratios(second)) == 6


@pytest.mark.parametrize("family, held, limit", [
    pytest.param("polya", lambda: fam._grown.counts[1], 79, id="polya"),
    pytest.param("hierarchy", lambda: fam._grown.hierarchy.a, 156, id="hierarchy"),
    pytest.param("binary", lambda: fam._grown.binary.a, 266, id="binary"),
    pytest.param("decomposition", lambda: fam._grown.counts[1], 145,
                 id="decomposition")])
def test_solve_grows_the_count_table_only_as_far_as_it_reads(
        family, held, limit, fresh_state, monkeypatch):
    # counted work, not time: from fresh count tables, a solve at order 400
    # converts only the terms its sums read, and no sum reaches past 400, so
    # no family solves the raised order.  The Polya root reads t_0 .. t_78;
    # the constants of a full singularity command read through t_144, for
    # -sqrt(rho)^3 in forest_asymptotics, and the T'' sum no further
    solved = []
    bisect = asy._bisect
    monkeypatch.setattr(asy, "_bisect",
                        lambda g, lo, hi: solved.append(lo) or bisect(g, lo, hi))
    if family == "polya":
        solve_polya_singularity(400)
    elif family == "decomposition":
        forest_asymptotics(400)
        decomposition_constants(400)
    else:
        solve_variant_singularity(family, 400)
    assert len(held()) <= limit
    assert len(solved) == BISECTIONS_AT_400.get(family, 1)


@pytest.mark.parametrize("family, counts", [
    ("polya", fam.polya_int_table), ("hierarchy", fam.hierarchy_int_table),
    ("binary", fam.binary_int_table)])
def test_max_order_is_the_float_range_of_the_raised_table(family, counts):
    top = MAX_ORDER[family] + ROOT_SHIFT_ORDERS
    table = counts(top + 1)
    assert all(math.isfinite(float(v)) for v in table[: top + 1])
    with pytest.raises(OverflowError):
        float(table[top + 1])


@pytest.mark.parametrize("solve, family", [
    (solve_polya_singularity, "polya"), (decomposition_constants, "polya"),
    *(pytest.param(functools.partial(solve_variant_singularity, family), family,
                   id=f"solve_variant-{family}")
      for family in ("hierarchy", "binary"))])
def test_orders_past_the_float_range_are_a_value_error(solve, family):
    top = MAX_ORDER[family]
    with pytest.raises(ValueError, match=f"largest order is {top}"):
        solve(top + 1)
