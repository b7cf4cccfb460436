"""Frozen coefficient values and cross-route identities for the tree families."""

import pickle
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyakit.families as fam
from polyakit.oracle import enumerate_dforests, forest_weight
from polyakit.series import BivariateSeries, RationalSeries, UPoly

F = Fraction

POLYA_COUNTS = (0, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719)
DFOREST_HEAD = (F(1), F(0), F(1, 2), F(1, 3), F(7, 8), F(11, 30),
                F(281, 144), F(449, 840))
IDENTITY_COUNTS = (0, 1, 1, 1, 2, 3, 6, 12, 25, 52)
DSTAR_HEAD = (F(1), F(0), F(-1, 2), F(1, 3), F(-5, 8), F(1, 30),
              F(11, 144), F(-139, 840))
IDENTITY_POINTED = (0, 1, 2, 4, 9, 20, 46)
POINTED_HEAD = (0, 1, 2, 5, 13, 35, 95)
E_HEAD = (F(1), F(0), F(1, 2), F(-1, 3), F(11, 8), F(-6, 5), F(629, 144))


def test_polya_counts():
    assert tuple(fam.polya_int_table(10)) == POLYA_COUNTS
    t = fam.polya_coeffs(10)
    assert tuple(t[n] for n in range(11)) == POLYA_COUNTS


def test_divisor_weight_table():
    # the s list the sampler reads in place: s(k) = sum of d t_d over d | k
    t, s = fam._grow_counts(1, 12)
    for k in range(1, 13):
        assert s[k] == sum(d * t[d] for d in range(1, k + 1) if k % d == 0)


def test_divisors_ascend():
    # their order is the summation order of every divisor sum, the L_n
    # law's float column among them
    for n in range(1, 3001):
        assert fam._divisors(n) == [d for d in range(1, n + 1) if n % d == 0], n


def test_exact_quotient_names_the_recurrence_it_guards():
    assert fam._exact_quotient(7 * 3 ** 90, 7, "tree recurrence") == 3 ** 90
    with pytest.raises(ArithmeticError, match="^cycle-index row not divisible by 7$"):
        fam._exact_quotient(7 * 3 ** 90 + 1, 7, "cycle-index row")


@lru_cache(maxsize=None)
def plain_counts(sigma, N):
    """Reference route: the term-by-term recurrence the count table used at
    every length before it doubled, (n - 1) a_n = sum_i a_(n-i) s_i."""
    a, s = [0, 1], [0, 1]
    for n in range(2, N + 1):
        total = 0
        for i in range(1, n):
            total += a[n - i] * s[i]
        q, r = divmod(total, n - 1)
        assert r == 0
        a.append(q)
        s.append(sum(sigma ** (n // m - 1) * m * a[m] for m in fam._divisors(n)))
    return tuple(a[: N + 1]), tuple(s[: N + 1])


def modular_counts(sigma, N, p=(1 << 61) - 1):
    """Independent route: a and s mod p, each a_d added to s at the multiples
    of d once known, each division by n - 1 an inverse mod p."""
    a, s, pending = [0] * (N + 1), [0] * (N + 1), [0] * (N + 1)
    for n in range(1, N + 1):
        a[n] = 1 if n == 1 else (
            sum(map(mul, a[n - 1:0:-1], s[1:n])) * pow(n - 1, -1, p) % p)
        for j in range(n, N + 1, n):
            pending[j] += sigma ** (j // n - 1) * n * a[n]
        s[n] = pending[n] % p
    return a, s


CUTOFF, LEAF = 512, fam._LEAF


@pytest.mark.parametrize("sigma", (1, -1))
@pytest.mark.parametrize("N", (0, 1, 2, CUTOFF - 1, CUTOFF, CUTOFF + 1, 575, 576,
                               CUTOFF + LEAF - 1, CUTOFF + LEAF, 2 * CUTOFF, 1500))
def test_count_table_matches_plain_route(fresh_state, sigma, N):
    a, s = fam._grow_counts(sigma, N)
    want_a, want_s = plain_counts(sigma, 1500)
    assert (tuple(a[: N + 1]), tuple(s[: N + 1])) == (want_a[: N + 1], want_s[: N + 1])


@pytest.mark.parametrize("sigma", (1, -1))
@pytest.mark.parametrize("steps", ((300, 700, 1500), (1499, 1500),
                                   (CUTOFF, 2 * CUTOFF + 1)))
def test_count_table_grows_in_place_as_prefixes(fresh_state, sigma, steps):
    want_a, want_s = plain_counts(sigma, 1500)
    held = fam._grown.counts[sigma], fam._grown.weights[sigma]
    for N in steps:
        a, s = fam._grow_counts(sigma, N)
        assert a is held[0] and s is held[1]
        assert (tuple(a), tuple(s)) == (want_a[: N + 1], want_s[: N + 1])


@pytest.mark.parametrize("sigma", (1, -1))
def test_count_table_matches_modular_recurrence(sigma):
    p, N = (1 << 61) - 1, 2000
    a, s = fam._grow_counts(sigma, N)
    assert ([v % p for v in a[: N + 1]], [v % p for v in s[: N + 1]]) == (
        modular_counts(sigma, N))


def modular_pointed(sigma, N, p=(1 << 61) - 1):
    """Independent route: the pointed table mod p, p_n = a_n + sum_(i>=1)
    a_i p_(n-i), term by term on modular_counts."""
    a, q = modular_counts(sigma, N, p)[0], [0]
    for n in range(1, N + 1):
        q.append((a[n] + sum(map(mul, a[1:n], q[n - 1:0:-1]))) % p)
    return q


@pytest.mark.parametrize("sigma", (1, -1))
def test_pointed_table_matches_modular_recurrence(fresh_state, sigma):
    p, N = (1 << 61) - 1, 2000
    assert [v % p for v in fam._grow_pointed(sigma, N)] == modular_pointed(sigma, N, p)


def digits(values):
    return [str(Decimal(v)) for v in values]


def naive_product(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, u in enumerate(x):
        for j, v in enumerate(y):
            out[i + j] += u * v
    return out


def packed(pairs, lo, hi):
    """_packed_sum on int coefficients, read back as ints."""
    return [int(v) for v in fam._packed_sum([(digits(x), digits(y)) for x, y in pairs],
                                            lo, hi)]


@pytest.mark.parametrize("x, y", [
    ([10 ** 4400 + 7, 3 ** 9000, 0, 5], [2 ** 15000 + 1, 10 ** 4500 - 1, 11]),  # > 4300 digits
    ([0, 0, 5, 0], [0, 3, 0]),
    ([0, 0], [0]),
    ([7], [0, 0, 0, 9]),
    ([10 ** 12 - 1] * 9, [10 ** 5 - 1] * 20),  # every slot at its digit count's top
    ([10 ** 12 - 1] * 10, [10 ** 5 - 1] * 10),
    ([10 ** 300 - 1] * 99, [9] * 100),
    ([10 ** 80 - 1, 10 ** 40 - 1, 99, 9], [10 ** 60 - 1, 999, 9, 9]),  # falling lengths
])
def test_packed_product_matches_naive_convolution(x, y):
    want = naive_product(x, y)
    assert packed([(x, y)], 0, len(want)) == want


def test_packed_product_reads_a_window():
    x = [3 ** k for k in range(40, 90)]
    y = [5 ** k + k for k in range(30)]
    want = naive_product(x, y)
    assert packed([(x, y)], 31, 57) == want[31:57]
    # slots past the product's top read as zero
    assert packed([(x, y)], 75, 85) == want[75:] + [0] * 6


def test_packed_sum_window_ignores_overflowing_slots_above_it():
    # the width covers x[:hi] and y[:hi] only; the coefficients above hi are
    # far wider, and so are the product slots they would fill
    x = [9, 99, 10 ** 500 - 1, 10 ** 900 - 1]
    y = [99, 9, 10 ** 700 - 1, 10 ** 600 - 1, 10 ** 800 - 1]
    want = naive_product(x, y)
    assert packed([(x, y)], 0, 2) == want[:2]
    assert packed([(x, y)], 1, 2) == want[1:2]
    assert packed([(x, y)], 0, 3) == want[:3]


def test_packed_sum_adds_two_pairs():
    x1, y1 = [10 ** 50 - 1] * 30, [10 ** 20 - 1] * 40
    x2, y2 = [7 ** k for k in range(25)], [11 ** k for k in range(40)]
    p1, p2 = naive_product(x1, y1), naive_product(x2, y2)
    want = [u + v for u, v in zip(p1, p2 + [0] * (len(p1) - len(p2)))]
    assert packed([(x1, y1), (x2, y2)], 0, len(want)) == want
    assert packed([(x1, y1), (x2, y2)], 20, 40) == want[20:40]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 10 ** 60), min_size=1, max_size=12),
       st.lists(st.integers(0, 10 ** 60), min_size=1, max_size=12),
       st.integers(0, 30), st.integers(1, 30))
def test_packed_sum_property(x, y, lo, span):
    # lengths mixed by the draw: 0 up to 61 digits, in any order
    want = naive_product(x, y) + [0] * (lo + span)
    assert packed([(x, y)], lo, lo + span) == want[lo:lo + span]


def test_packed_product_refuses_negative_coefficients():
    with pytest.raises(ValueError):
        packed([([1, -2], [3])], 0, 2)
    with pytest.raises(ValueError):
        packed([([1], [0, -3])], 0, 2)
    with pytest.raises(ValueError):
        packed([([1], [3]), ([-1], [3])], 0, 2)


@lru_cache(maxsize=None)
def plain_pointed(sigma, N):
    """Reference route: the term-by-term loop the pointed table used at every
    length before it shared the online divide-and-conquer,
    p_n = a_n + sum_(i>=1) a_i p_(n-i), on the plain count table."""
    a = plain_counts(sigma, 1500)[0]
    p = [0]
    for n in range(1, N + 1):
        p.append(a[n] + sum(a[i] * p[n - i] for i in range(1, n)))
    return tuple(p)


@pytest.mark.parametrize("sigma", (1, -1))
@pytest.mark.parametrize("N", (0, 1, 2, 40, 400, 1100))
def test_pointed_table_matches_plain_route(fresh_state, sigma, N):
    assert tuple(fam._grow_pointed(sigma, N)) == plain_pointed(sigma, 1100)[: N + 1]


@pytest.mark.parametrize("sigma", (1, -1))
@pytest.mark.parametrize("steps", ((300, 700, 1100), (CUTOFF - 1, CUTOFF, CUTOFF + 1),
                                   (CUTOFF + LEAF + 1, 1100)))
def test_pointed_table_grows_in_place_as_prefixes(fresh_state, sigma, steps):
    want = plain_pointed(sigma, 1100)
    held = fam._grown.pointed[sigma]
    for N in steps:
        p = fam._grow_pointed(sigma, N)
        assert p is held
        assert tuple(p) == want[: N + 1]


@pytest.mark.parametrize("leaf", (1, 2, 3, 8))
def test_online_grower_at_a_tiny_leaf(fresh_state, monkeypatch, leaf):
    # every doubling, split and leaf boundary shows at sizes this small
    monkeypatch.setattr(fam, "_LEAF", leaf)
    for sigma in (1, -1):
        want_a, want_s = plain_counts(sigma, 150)
        want_p = plain_pointed(sigma, 150)
        for N in (1, 2, 5, 9, 17, 40, 41, 100, 150):
            a, s = fam._grow_counts(sigma, N)
            assert (tuple(a), tuple(s)) == (want_a[: N + 1], want_s[: N + 1])
            assert tuple(fam._grow_pointed(sigma, N)) == want_p[: N + 1]
        # the pointed table from empty against a count table held longer
        fam._grown.pointed[sigma][1:] = []
        assert tuple(fam._grow_pointed(sigma, 150)) == want_p


def test_polya_routes_agree():
    n = 30
    base = fam.polya_coeffs(n)
    assert (base - fam.omega_polya_coeffs(fam.OmegaSet.parse("all"), n)).is_zero()
    assert (base - fam.polya_composition_route(n)).is_zero()


def test_cayley_coefficients():
    c = fam.cayley_coeffs(9)
    fact = 1
    for n in range(1, 10):
        fact *= n
        assert c[n] == F(n ** (n - 1), fact)


def test_dforest_head_and_exp_route():
    d = fam.dforest_coeffs(7)
    assert tuple(d[n] for n in range(8)) == DFOREST_HEAD
    n = 25
    assert (fam.dforest_coeffs(n) - fam.dforest_coeffs_exp_route(n)).is_zero()


def substituted_exp_weights(sigma, N):
    """Reference route: w_j = j [z^j] sum_{i>=2} sigma^(i-1) A(z^i)/i by the
    substitution itself, entry i k getting sigma^(i-1) k a_k."""
    return fam._substituted(fam._grow_counts(sigma, N)[0], N,
                            lambda i, k: sigma ** (i - 1) * k)


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("N", [0, 1, 2, 50, 400])
def test_exp_weights_match_substituted_route(sigma, N):
    # the table reads w_j = s_j - j a_j off the count table
    assert fam._exp_weights(sigma, N) == substituted_exp_weights(sigma, N)


def plain_exp(f, sign, w, N):
    """Reference route: the falling-factorial loop the exp tables used before
    they were scaled by one N!, f_n = n! [z^n] exp(sign G) from
    f_n = sign sum_(i>=2) w_i f_(n-i) (n-1)!/(n-i)!, grown in place."""
    while len(f) <= N:
        n = len(f)
        total, falling = 0, 1  # falling = (n-1)!/(n-i)!
        for i in range(2, n + 1):
            falling *= n - i + 1
            if w[i]:
                total += f[n - i] * w[i] * falling
        f.append(sign * total)
    return f


@lru_cache(maxsize=None)
def plain_forests(sigma, N):
    return tuple(plain_exp([1], 1, fam._exp_weights(sigma, N), N))


@pytest.mark.parametrize("sigma", (1, -1))
@pytest.mark.parametrize("steps", ((0, 1, 2, 3), (400,), (60, 90, 180),
                                   (127, 128, 129, 400)))
def test_forest_table_matches_plain_route(fresh_state, sigma, steps):
    # fresh, and grown in place across the 128-term chunks asymptotics asks for
    want = plain_forests(sigma, 400)
    held = fam._grown.forests[sigma]
    for N in steps:
        f = fam._grow_forests(sigma, N)
        assert f is held
        assert tuple(f) == want[: N + 1]


@pytest.mark.parametrize("sigma", (1, -1))
@pytest.mark.parametrize("sign", (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
def test_exp_powers_match_plain_route(sigma, sign):
    # sign -1 is 1/D (or 1/D*); the scaled table is the plain one times N!/n!
    N = 200
    w = fam._exp_weights(sigma, N)
    want = plain_exp([1], sign, w, N)
    scaled = [v * (factorial(N) // factorial(n)) for n, v in enumerate(want)]
    assert fam._grow_exp([1], sign, w, N) == want
    assert fam._scaled_exp([1], sign, w, N) == scaled
    assert fam._scaled_exp(want[:77], sign, w, N) == scaled
    held = want[:77]
    assert fam._grow_exp(held, sign, w, N) is held and held == want


def test_kronecker_exp_matches_plain_route():
    # the weights of D(z,v), v^i packed as 2^(B i)
    N = 30
    B = max(fam._grow_forests(1, N)[: N + 1]).bit_length() + 1
    w = fam._substituted(fam.polya_int_table(N), N, lambda i, k: k << B * i)
    want = plain_exp([1], 1, w, N)
    assert fam._grow_exp([1], 1, w, N) == want
    assert fam._scaled_exp([1], 1, w, N) == [
        v * (factorial(N) // factorial(n)) for n, v in enumerate(want)]


@pytest.mark.parametrize("sigma", (1, -1))
def test_forest_table_matches_modular_recurrence(sigma):
    # independent of both exp loops: d_n mod p from n d_n = sum_i w_i d_(n-i),
    # each division by n an inverse mod p, then n! d_n mod p
    p, N = (1 << 61) - 1, 1000
    a, s = modular_counts(sigma, N, p)
    w = [(s[j] - j * a[j]) % p for j in range(N + 1)]
    d, want, fact = [1], [1], 1
    for n in range(1, N + 1):
        d.append(sum(map(mul, w[2:n + 1], d[n - 2::-1])) * pow(n, -1, p) % p)
        fact = fact * n % p
        want.append(fact * d[n] % p)
    assert [v % p for v in fam._grow_forests(sigma, N)[: N + 1]] == want


def test_dforest_regression_value():
    assert fam.dforest_coeffs(10)[10] == F(3066769, 403200)


def test_composition_identity():
    # T = C(z D) ties the three families together
    n = 25
    t = fam.cayley_coeffs(n).compose(fam.dforest_coeffs(n).shift(1))
    assert (t - fam.polya_coeffs(n)).is_zero()


def test_pointed_head():
    p = fam.pointed_coeffs(6)
    assert tuple(p[n] for n in range(7)) == POINTED_HEAD


def test_identity_tree_families():
    r, dstar, rc = fam.identity_tree_coeffs(9)
    assert tuple(r[n] for n in range(10)) == IDENTITY_COUNTS
    assert tuple(dstar[n] for n in range(8)) == DSTAR_HEAD
    assert tuple(rc[n] for n in range(7)) == IDENTITY_POINTED


def test_identity_dstar_regression_value():
    _, dstar, _ = fam.identity_tree_coeffs(10)
    assert dstar[10] == F(-253961, 403200)


def test_identity_pointed_is_integral():
    _, _, rc = fam.identity_tree_coeffs(40)
    assert all(rc[n].denominator == 1 for n in range(41))


def test_identity_tables_match_exp_of_their_exponents():
    # R = z exp(sum_{i>=1} (-1)^(i-1) R(z^i)/i) and D* = exp(sum_{i>=2} ...),
    # the exponents built here from the table's own R
    n = 60
    r, dstar, _ = fam.identity_tree_coeffs(n)
    tail = RationalSeries.zero(n)
    for i in range(2, n + 1):
        tail = tail + r.stretch(i).scale(F((-1) ** (i - 1), i))
    assert (dstar - tail.exp()).is_zero()
    assert (r - (r + tail).exp().shift(1)).is_zero()


def test_pointed_tables_match_reciprocal_route():
    n = 200
    r, _, rc = fam.identity_tree_coeffs(n)
    for a, pointed in ((fam.polya_coeffs(n), fam.pointed_coeffs(n)), (r, rc)):
        assert (pointed - a * (RationalSeries.one(n) - a).reciprocal()).is_zero()


def test_tables_grow_as_prefixes():
    small, large = fam.dforest_coeffs(60), fam.dforest_coeffs(90)
    again = fam.dforest_coeffs(60)
    assert large.coeffs[:61] == small.coeffs == again.coeffs
    assert all(isinstance(c, F) for c in large.coeffs)


def test_families_keep_no_per_order_cache():
    assert not [name for name, obj in vars(fam).items()
                if hasattr(obj, "cache_info")]


def test_identity_composition():
    # R = C(z D*) mirrors the unrestricted composition with signed weights
    n = 25
    r, dstar, _ = fam.identity_tree_coeffs(n)
    assert (fam.cayley_coeffs(n).compose(dstar.shift(1)) - r).is_zero()


def test_e_series_head():
    e = fam.e_series(6)
    assert tuple(e[n] for n in range(7)) == E_HEAD


def reversion_e_series(N):
    """Reference route: z E as the Fraction series reversion of z D*(z)."""
    _, dstar, _ = fam.identity_tree_coeffs(N)
    z_dstar = RationalSeries((F(0),) + dstar.coeffs)  # order N + 1
    return RationalSeries(z_dstar.reversion().coeffs[1:])


def power_marked_rows(forest, N):
    """Reference route: [u^k z^n] C(u z F) = c_k [z^(n-k)] F^k from the
    successive Fraction powers of F."""
    c = fam.cayley_coeffs(N)
    rows = [[F(0)] * (n + 1) for n in range(N + 1)]
    power = RationalSeries.one(N)
    for k in range(1, N + 1):
        power = power.truncate(N - k) * forest  # F^k through z^(N-k)
        for n in range(k, N + 1):
            rows[n][k] = c[k] * power[n - k]
    return BivariateSeries(tuple(UPoly.from_coeffs(r) for r in rows))


def test_e_series_matches_reversion_route():
    for N in range(41):
        assert fam.e_series(N) == reversion_e_series(N)


def test_skeleton_rows_match_fraction_power_route():
    for N in range(41):
        dstar = fam.identity_tree_coeffs(N)[1]
        assert fam.ctree_polynomials(N) == power_marked_rows(fam.dforest_coeffs(N), N)
        assert fam.identity_ctree_polynomials(N) == power_marked_rows(dstar, N)


def test_gamma_series_definitions():
    # gamma = sum_{i>=2} T(z^i), gamma_2 = sum_{i>=2} i T(z^i)
    n = 20
    t = fam.polya_coeffs(n)
    g = RationalSeries.zero(n)
    g2 = RationalSeries.zero(n)
    for i in range(2, n + 1):
        g = g + t.stretch(i)
        g2 = g2 + t.stretch(i).scale(i)
    assert (g - fam.gamma_series(n)).is_zero()
    assert (g2 - fam.gamma2_series(n)).is_zero()


def test_gamma_weights_forest_components():
    # zD'/D = sum_{i>=2} z^i T'(z^i) counts nodes, gamma counts components;
    # both agree at the leading forest {leaf x m}
    n = 8
    d = fam.dforest_coeffs(n)
    lhs = d.derivative().shift(1)
    over_d = lhs * d.reciprocal().truncate(lhs.order)
    # node count and component count of {leaf x m} coincide
    assert over_d[2] == fam.gamma_series(n)[2]


def _forest_size_q(N):
    """q = (T/(1-T)) / D through order N, read off the public rows.  Row m is
    d_m z^m q: its [z^n] over [z^n] T/(1-T) is P(the forest at a random
    fixed node of a size-n tree has size m), so with d_0 = 1 the row of size
    k gives q_k at m = 0 times p_k; q_0 = p_0 = 0."""
    p = fam.pointed_coeffs(N)
    return RationalSeries((F(0),) + tuple(fam.exact_forest_size_row(k, 0)[0] * p[k]
                                         for k in range(1, N + 1)))


def test_forest_size_rows_sum_to_one():
    n = 40
    d, q = fam.dforest_coeffs(n), _forest_size_q(n)
    total = RationalSeries.zero(n)
    for m in range(n + 1):
        total = total + q.scale(d[m]).shift(m)
    assert (total - fam.pointed_coeffs(n)).is_zero()


def test_exact_forest_size_row_sums_to_one():
    row = fam.exact_forest_size_row(30, 30)
    assert sum(row) == 1
    assert row[1] == 0
    # rows past the tree size: a forest has fewer than n nodes
    row = fam.exact_forest_size_row(5, 9)
    assert sum(row) == 1
    assert all(p == 0 for p in row[5:])


def test_forest_size_rows_match_reciprocal_route():
    # q = (T/(1-T)) / D through the Fraction reciprocal of D, against the
    # n!-scaled 1/D table the exact rows use
    n = 60
    d, pointed = fam.dforest_coeffs(n), fam.pointed_coeffs(n)
    q = pointed * d.reciprocal()
    rows = _forest_size_q(n)
    assert rows.scale(d[0]).shift(0) == q
    assert rows.scale(d[7]).shift(7) == q.scale(d[7]).shift(7)
    row = fam.exact_forest_size_row(n, 12)
    assert row == tuple(d[m] * q[n - m] / pointed[n] for m in range(13))


def test_csize_moments_small_n():
    # size 3: P(c=3) = 3/4, P(c=1) = 1/4, so E c = 5/2 and E c^2 = 7;
    # the series carry the moments times t_n
    first, second = fam.csize_moment_series(3)
    t3 = fam.polya_coeffs(3)[3]
    assert first[3] / t3 == F(5, 2)
    assert second[3] / t3 == F(7)


def test_dtree_count_series_small_n():
    # forests of size 4: {leaf x4} with weight !4/4! = 3/8 and 4 components,
    # {chain2 x2} with weight !2/2! = 1/2 and 2 components
    A, _ = fam.dtree_count_series(6)
    d = fam.dforest_coeffs(6)
    assert d[4] == F(7, 8)
    assert A[4] == F(3, 8) * 4 + F(1, 2) * 2


def dtree_second_moment_t_route(N):
    """The T-form V the pointed-series route replaced, nine Fraction products:
    V = T^2 (2-T)/(1-T)^3 gamma^2 + T/(1-T) (gamma^2 + gamma_2 - gamma)."""
    t = fam.polya_coeffs(N)
    g = fam.gamma_series(N)
    g2 = fam.gamma2_series(N)
    pointed = fam.pointed_coeffs(N)
    inv = RationalSeries.one(N) + pointed  # 1/(1-T) = 1 + T/(1-T)
    inv3 = inv * inv * inv
    two = RationalSeries.one(N).scale(2)
    part1 = t * t * (two - t) * inv3 * g * g
    part2 = pointed * (g * g + g2 - g)
    return part1 + part2


def test_dtree_second_moment_matches_t_route():
    for N in [*range(61), 200]:
        assert fam.dtree_second_moment_series(N) == dtree_second_moment_t_route(N)


def test_hierarchy_counts_match_brute_force():
    from polyakit.oracle import enumerate_trees
    table = fam.hierarchy_int_table(9)
    for n in range(1, 10):
        assert table[n] == len(enumerate_trees(n, outdegrees=fam.OmegaSet.parse(
            "all-except:1")))


def test_binary_counts_match_brute_force():
    from polyakit.oracle import enumerate_trees
    table = fam.binary_int_table(11)
    for n in range(1, 12):
        assert table[n] == len(enumerate_trees(n, outdegrees=fam.OmegaSet.parse(
            "0,2")))


def test_omega_all_recovers_polya():
    omega = fam.OmegaSet.parse("all")
    got = fam.omega_polya_coeffs(omega, 12)
    assert (got - fam.polya_coeffs(12)).is_zero()


# the brute-force and reference-route cases: finite sets with and without
# unary nodes or gaps, cofinite sets, no leaves at all, and the empty set
OMEGA_TEXTS = ("0", "0,1", "0,2", "0,3", "0,1,2", "0,2,3", "0,2,5", "all-except:1",
               "all-except:2", "all-except:1,2", "all-except:0", ",")


def omega_fraction_route(omega, N):
    """The Fraction fixed-point solve the integer table replaced: the cycle-index
    rows for every k up to the largest listed outdegree, whatever N is, and
    exp(sum_i A(z^i)/i) one exp step per degree for a cofinite omega."""
    a = [F(0)] * (N + 1)
    if not omega.cofinite:
        tracked = max(omega.listed, default=0)
    else:
        tracked = max(omega.listed, default=0)
    p = [[F(0)] * (N + 1) for _ in range(tracked + 1)]
    p[0][0] = F(1)
    g = [F(0)] * (N + 1)
    e = [F(1)] + [F(0)] * N
    for n in range(1, N + 1):
        m = n - 1
        if m >= 1:
            for k in range(1, tracked + 1):
                acc = F(0)
                for i in range(1, k + 1):
                    for j in range(i, m + 1, i):
                        c = a[j // i]
                        if c and p[k - i][m - j]:
                            acc += c * p[k - i][m - j]
                p[k][m] = acc / k
            if omega.cofinite:
                g[m] = sum((a[m // i] / i for i in fam._divisors(m) if a[m // i]), F(0))
                acc = F(0)
                for k in range(1, m + 1):
                    if g[k] and e[m - k]:
                        acc += k * g[k] * e[m - k]
                e[m] = acc / m
        if not omega.cofinite:
            a[n] = sum((p[k][m] for k in omega.listed if k <= tracked), F(0))
        else:
            a[n] = e[m] - sum((p[k][m] for k in omega.listed), F(0))
    return tuple(a)


def binary_hand_route(N):
    """The hand-written {0, 2} recurrence the integer table replaced:
    2 b_n = sum_(i+j=n-1) b_i b_j + b_((n-1)/2) at odd n."""
    t = [0, 1]
    for n in range(2, N + 1):
        if n % 2 == 0:
            t.append(0)
            continue
        q, r = divmod(sum(t[i] * t[n - 1 - i] for i in range(1, n - 1)) + t[(n - 1) // 2], 2)
        assert r == 0
        t.append(q)
    return tuple(t[: N + 1])


@pytest.mark.parametrize("text", OMEGA_TEXTS)
def test_omega_counts_match_brute_force(text):
    from polyakit.oracle import enumerate_trees
    omega = fam.OmegaSet.parse(text)
    got = fam.omega_polya_coeffs(omega, 9)
    assert [got[n] for n in range(1, 10)] == [
        len(enumerate_trees(n, outdegrees=omega)) for n in range(1, 10)]


@pytest.mark.parametrize("text", OMEGA_TEXTS)
def test_omega_table_matches_fraction_route(text):
    omega = fam.OmegaSet.parse(text)
    for N in (0, 1, 2, 3, 7, 40):
        assert fam.omega_polya_coeffs(omega, N).coeffs == omega_fraction_route(omega, N)


def test_binary_table_matches_hand_route():
    from polyakit.asymptotics import MAX_ORDER, ROOT_SHIFT_ORDERS
    N = MAX_ORDER["binary"] + ROOT_SHIFT_ORDERS  # the largest table a solver builds
    assert fam.binary_int_table(N) == binary_hand_route(N)


def test_hierarchy_table_matches_hand_route(fresh_state):
    # the solvers, hierarchy_coeffs and verify read the held cycle-index
    # table; the hand-written recurrence holds nothing and only checks it
    from polyakit.asymptotics import MAX_ORDER, ROOT_SHIFT_ORDERS
    N = MAX_ORDER["hierarchy"] + ROOT_SHIFT_ORDERS  # the largest table a solver builds
    before = pickle.dumps(fresh_state)
    hand = fam.hierarchy_int_table(N)
    assert pickle.dumps(fresh_state) == before
    assert tuple(fam._grow_omega(fresh_state.hierarchy, N)[: N + 1]) == hand
    assert fam.hierarchy_coeffs(N).coeffs == hand


@pytest.mark.parametrize("text, big", [("0,2", "0,2,1000000"),
                                       ("all-except:1", "all-except:1,1000000")])
def test_listed_outdegrees_past_the_order_cost_nothing(text, big):
    # an outdegree k needs k + 1 nodes, so k = 10^6 must cost nothing at n = 30
    want = fam.omega_polya_coeffs(fam.OmegaSet.parse(text), 30)
    assert fam.omega_polya_coeffs(fam.OmegaSet.parse(big), 30) == want


def test_omega_parse_and_describe():
    assert fam.OmegaSet.parse("0,2").describe() == "{0,2}"
    assert "except" in fam.OmegaSet.parse("all-except:1").describe()
    # text -> (describe(), the outdegrees k <= 5 it allows)
    accepted = {"all": ("all", [0, 1, 2, 3, 4, 5]),
                "all-except:": ("all", [0, 1, 2, 3, 4, 5]),
                "all-except:1,2": ("all-except:1,2", [0, 3, 4, 5]),
                " ALL-EXCEPT:3 ": ("all-except:3", [0, 1, 2, 4, 5]),
                "0,2": ("{0,2}", [0, 2]),
                ",": ("{}", [])}
    for text, (described, allowed) in accepted.items():
        omega = fam.OmegaSet.parse(text)
        assert omega.describe() == described
        assert [k for k in range(6) if omega.allows(k)] == allowed
    for text in ("all,2", "allx", "all-except", "0,-1"):
        with pytest.raises(ValueError):
            fam.OmegaSet.parse(text)


def test_ctree_polynomial_rows():
    rows = fam.ctree_polynomials(4)
    assert rows.row(1).coefficient(1) == 1
    assert rows.row(2).coefficient(2) == 1
    p3 = rows.row(3)
    assert p3.coefficient(3) == F(3, 2) and p3.coefficient(1) == F(1, 2)
    p4 = rows.row(4)
    assert (p4.coefficient(4), p4.coefficient(2), p4.coefficient(1)) == (
        F(8, 3), F(1), F(1, 3))


def test_ctree_polynomial_row_sums_are_counts():
    rows = fam.ctree_polynomials(10)
    t = fam.polya_int_table(10)
    for n in range(1, 11):
        assert rows.row_sum(n) == t[n]


def test_identity_ctree_rows_at_one():
    # r_{c,n}(1) counts identity trees
    rows = fam.identity_ctree_polynomials(9)
    r, _, _ = fam.identity_tree_coeffs(9)
    for n in range(1, 10):
        assert rows.row_sum(n) == r[n]


def test_dforest_component_bivariate_collapses():
    rows = fam.dforest_component_bivariate(10)
    d = fam.dforest_coeffs(10)
    for n in range(11):
        assert rows.row_sum(n) == d[n]


def test_dforest_component_mean_matches_count_series():
    rows = fam.dforest_component_bivariate(10)
    A, _ = fam.dtree_count_series(10)
    mean = rows.marked_mean_series()
    for n in range(11):
        assert mean[n] == A[n]


def fraction_component_bivariate(N):
    """Reference route: D(z,v) as the Fraction bivariate exp of its argument
    sum_{i>=2} v^i T(z^i)/i, built on UPoly rows."""
    t = fam.polya_int_table(N)
    rows = [UPoly.zero() for _ in range(N + 1)]
    for i in range(2, N + 1):
        mono = UPoly.from_coeffs([0] * i + [1]).scale(F(1, i))  # v^i / i
        for k in range(1, N // i + 1):
            rows[k * i] = rows[k * i] + mono.scale(t[k])
    return BivariateSeries(tuple(rows)).exp()


@pytest.mark.parametrize("N", (0, 1, 2, 5, 20, 40))
def test_dforest_component_rows_match_fraction_exp_route(N):
    assert fam.dforest_component_bivariate(N) == fraction_component_bivariate(N)


def test_dforest_component_rows_match_forest_enumeration():
    # row n, coefficient by coefficient: the forests of size n, each weighted
    # by forest_weight and marked by v^(number of copies)
    rows = fam.dforest_component_bivariate(10)
    for n in range(11):
        expected = [F(0)] * (n + 1)
        for forest in enumerate_dforests(n):
            expected[sum(m for _, m in forest.components)] += forest_weight(forest)
        assert rows.row(n) == UPoly.from_coeffs(expected)
