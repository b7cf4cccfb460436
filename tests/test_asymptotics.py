"""Numeric constants, parity asymptotics, and the exact max-forest law."""

import math

import numpy as np
import pytest

import polyakit.families as fam
from polyakit.asymptotics import (
    _scaled_polya_coeffs,
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

ORDER = 400


@pytest.fixture(scope="module")
def sing():
    return solve_polya_singularity(ORDER)


@pytest.fixture(scope="module")
def forest(sing):
    return forest_asymptotics(ORDER, sing)


@pytest.fixture(scope="module")
def deco():
    return decomposition_constants(ORDER)


def test_singularity_constants(sing):
    assert sing.rho == pytest.approx(0.338321856899, abs=1e-9)
    assert sing.b == pytest.approx(2.681128147, abs=1e-6)
    assert sing.c == pytest.approx(sing.b ** 2 / 3, rel=1e-12)
    assert abs(sing.residual) < 1e-12
    # the defining equation e rho D(rho) = 1
    assert sing.rho * sing.d_rho * math.e == pytest.approx(1.0, abs=1e-10)
    assert sing.d_rho == pytest.approx(1.087365281520, abs=1e-9)
    assert sing.d_prime_rho == pytest.approx(0.694237917, abs=1e-6)


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


def test_decomposition_constants(deco):
    assert deco.c_share == pytest.approx(0.822365336, abs=1e-7)
    assert deco.y_share == pytest.approx(0.157760431, abs=1e-7)
    assert deco.c_var_coeff == pytest.approx(0.376917446, abs=1e-7)
    assert deco.mean_forest_size == pytest.approx(1 / deco.c_share - 1, rel=1e-10)
    assert deco.lmax_c1 == pytest.approx(1.367309345, abs=1e-6)


def test_forest_size_distribution(deco):
    row = deco.forest_size_distribution(7)
    frozen = (0.9196542, 0.0, 0.0526326, 0.0118712,
              0.0105427, 0.0014947, 0.0026912, 0.0002494)
    assert row == pytest.approx(frozen, abs=1e-6)
    cond = deco.conditional_forest_size(9)
    assert cond[0] == pytest.approx(row[2] / (1 - row[0]), rel=1e-12)
    assert len(cond) == 8


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
    batched = lmax_cdf_exact(n, kmax, rho=sing.rho)
    reference = per_cap_lmax_cdf(n, kmax, sing.rho)
    assert batched == pytest.approx(reference, abs=1e-12)


def test_scaled_counts_match_integer_table(sing):
    scaled = _scaled_polya_coeffs(400, sing.rho)
    exact = [t * sing.rho ** m for m, t in enumerate(fam.polya_int_table(400))]
    assert scaled[0] == exact[0] == 0
    assert list(scaled[1:]) == pytest.approx(exact[1:], rel=1e-12)


@pytest.mark.parametrize("n,kmax", [(0, 0), (-3, 5), (5, -1)])
def test_lmax_cdf_rejects_invalid_sizes(n, kmax):
    with pytest.raises(ValueError):
        lmax_cdf_exact(n, kmax)


def test_lmax_exact_mean_rejects_negative_cap():
    with pytest.raises(ValueError):
        lmax_exact_mean(5, kmax=-1)


def test_lmax_interval_and_estimate(deco):
    lo, hi = deco.lmax_interval(2000, 0.5)
    center = deco.lmax_location(2000)
    assert lo < center < hi
    assert deco.lmax_location(2000) == pytest.approx(
        -2 * math.log(2000) / math.log(deco.rho), rel=1e-12)