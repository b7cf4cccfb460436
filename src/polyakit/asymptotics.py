"""Dominant singularities and the constants of the square-root expansions.

Everything is computed from the exact integer/rational coefficient tables in
families.py, evaluated in floating point at arguments safely inside the
radius of convergence.  The one place a series would have to be evaluated AT
its own singularity (where partial sums converge like n^(-1/2)) is avoided
by substituting the known singular value into the functional equation: the
tree series satisfies y = F(z, y) with y(rho) = 1, so rho solves
e * x * D(x) - 1 = 0, and D's argument stays deep inside its disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .families import (
    binary_int_table,
    dforest_coeffs,
    hierarchy_int_table,
    polya_int_table,
)

DEFAULT_ORDER = 400


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _derivative_floats(coeffs: Sequence[float]) -> list[float]:
    return [k * c for k, c in enumerate(coeffs)][1:]


def _bisect(g: Callable[[float], float], lo: float, hi: float) -> float:
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


def _substituted_sum(coeffs: Sequence[float], x: float, start: int,
                     weight: Callable[[int], float]) -> float:
    """sum over i >= start of weight(i) * series(x^i); |x| < 1 required.

    The arguments x^i shrink geometrically, so each evaluation sits far
    inside the radius; the i-sum is cut when x^i underflows the tolerance.
    """
    total = 0.0
    xi = x ** (start - 1)
    for i in range(start, 2000):
        xi *= x
        if abs(xi) < 1e-25:
            break
        total += weight(i) * _horner(coeffs, xi)
    return total


# ---------------------------------------------------------------------------
# the main tree family


@dataclass(frozen=True)
class PolyaSingularity:
    rho: float
    b: float
    c: float
    d_rho: float        # D(rho) = 1/(e rho)
    d_prime_rho: float  # from the series; equals (b^2 rho/2 - 1)/(e rho^2)
    residual: float     # |rho * e * D(rho) - 1|
    rho_shift: float    # root movement when the truncation order is raised
    order: int


def solve_polya_singularity(order: int = DEFAULT_ORDER) -> PolyaSingularity:
    """rho, and the square-root expansion T = 1 - b sqrt(rho-z) + c(rho-z)."""
    t = [float(v) for v in polya_int_table(order)]
    tp = _derivative_floats(t)

    def dval(x: float) -> float:
        return math.exp(_substituted_sum(t, x, 2, lambda i: 1.0 / i))

    def dprime(x: float) -> float:
        # D' = D * d/dx sum_{i>=2} T(x^i)/i = D * sum_{i>=2} i x^(i-1) T'(x^i) / i
        total = 0.0
        for i in range(2, 2000):
            arg = x ** i
            if arg < 1e-25:
                break
            total += (x ** (i - 1)) * _horner(tp, arg)
        return dval(x) * total

    rho = _bisect(lambda x: math.e * x * dval(x) - 1.0, 0.25, 0.45)
    d_rho = dval(rho)
    d_prime_rho = dprime(rho)
    b = math.sqrt(2 * math.e * (d_rho + rho * d_prime_rho))

    t2 = [float(v) for v in polya_int_table(order + 80)]

    def dval2(x: float) -> float:
        return math.exp(_substituted_sum(t2, x, 2, lambda i: 1.0 / i))

    rho2 = _bisect(lambda x: math.e * x * dval2(x) - 1.0, 0.25, 0.45)

    return PolyaSingularity(
        rho=rho,
        b=b,
        c=b * b / 3,
        d_rho=d_rho,
        d_prime_rho=d_prime_rho,
        residual=abs(rho * math.e * d_rho - 1.0),
        rho_shift=abs(rho - rho2),
        order=order,
    )


# ---------------------------------------------------------------------------
# constants of the forest series D around +-sqrt(rho)


@dataclass(frozen=True)
class ForestAsymptotics:
    rho: float
    b: float
    xi_plus: float    # xi(sqrt(rho)),  xi(z) = exp(sum_{i>=3} T(z^i)/i)
    xi_minus: float   # xi(-sqrt(rho))
    gamma_rho: float          # gamma(rho),  gamma(z) = sum_{i>=2} T(z^i)
    gamma_prime_rho: float
    gamma2_rho: float         # sum_{i>=2} i T(rho^i)
    mu_even: float    # E X_n - 3 limit along even n
    mu_odd: float     # along odd n

    def dn_estimate(self, n: int) -> float:
        """Two-singularity coefficient asymptotic for the forest series."""
        amp = self.xi_plus + (-1) ** n * self.xi_minus
        return (amp * self.b * math.sqrt(self.rho * math.e / (8 * math.pi))
                * self.rho ** (-n / 2) * n ** -1.5)

    def dn_parity_sign(self, n: int) -> int:
        """Sign of the oscillating part of d_n around the even envelope."""
        return 1 if n % 2 == 0 else -1

    def component_count_limit(self, n_parity: int) -> float:
        """Limit of E X_n (components of a random size-n forest) by parity."""
        return 3 + (self.mu_even if n_parity % 2 == 0 else self.mu_odd)


def forest_asymptotics(order: int = DEFAULT_ORDER,
                       sing: PolyaSingularity | None = None) -> ForestAsymptotics:
    sing = sing or solve_polya_singularity(order)
    t = [float(v) for v in polya_int_table(order)]
    tp = _derivative_floats(t)
    r = math.sqrt(sing.rho)

    def xi(x: float) -> float:
        return math.exp(_substituted_sum(t, x, 3, lambda i: 1.0 / i))

    def tail3(x: float) -> float:
        return _substituted_sum(t, x, 3, lambda i: 1.0)

    xi_p, xi_m = xi(r), xi(-r)
    # the i=2 term of gamma(+-sqrt(rho)) is T(rho) = 1 exactly; the truncated
    # series converges like n^(-1/2) there and must not be used
    v_p, v_m = tail3(r), tail3(-r)
    mu_even = (xi_p * v_p + xi_m * v_m) / (xi_p + xi_m)
    mu_odd = (xi_p * v_p - xi_m * v_m) / (xi_p - xi_m)

    gamma_rho = _substituted_sum(t, sing.rho, 2, lambda i: 1.0)
    gamma2_rho = _substituted_sum(t, sing.rho, 2, lambda i: float(i))

    gp = 0.0
    for i in range(2, 2000):
        arg = sing.rho ** i
        if arg < 1e-25:
            break
        gp += i * sing.rho ** (i - 1) * _horner(tp, arg)

    return ForestAsymptotics(
        rho=sing.rho, b=sing.b,
        xi_plus=xi_p, xi_minus=xi_m,
        gamma_rho=gamma_rho, gamma_prime_rho=gp, gamma2_rho=gamma2_rho,
        mu_even=mu_even, mu_odd=mu_odd,
    )


# ---------------------------------------------------------------------------
# decomposition constants of a random tree


@dataclass(frozen=True)
class DecompositionConstants:
    rho: float
    b: float
    c_share: float          # 2/(b^2 rho): limit of E|C_n|/n
    c_var_coeff: float      # 11/(12 b^2 rho): limit of Var|C_n|/n
    mean_forest_size: float  # b^2 rho/2 - 1
    y_share: float          # 2 gamma(rho)/(b^2 rho): limit of E Y_n/n
    gamma_rho: float
    d_rho: float
    lmax_c1: float          # scale constant of the max-forest-size law

    def forest_size_distribution(self, mmax: int) -> list[float]:
        """Limiting P(|F(v)| = m) for a random skeleton node, m = 0..mmax."""
        d = dforest_coeffs(mmax)
        return [float(d[m]) * self.rho ** m / self.d_rho for m in range(mmax + 1)]

    def conditional_forest_size(self, mmax: int) -> list[float]:
        """Same conditioned on a nonempty forest, m = 2..mmax."""
        d = dforest_coeffs(mmax)
        denom = self.d_rho - 1.0
        return [float(d[m]) * self.rho ** m / denom for m in range(2, mmax + 1)]

    def lmax_location(self, n: int) -> float:
        return -2 * math.log(n) / math.log(self.rho)

    def lmax_interval(self, n: int, s: float) -> tuple[float, float]:
        center = self.lmax_location(n)
        eps = math.log(n) ** (-s)
        return ((1 - eps) * center, (1 + eps) * center)


def decomposition_constants(order: int = DEFAULT_ORDER) -> DecompositionConstants:
    sing = solve_polya_singularity(order)
    fa = forest_asymptotics(order, sing)
    b2rho = sing.b ** 2 * sing.rho
    c1 = sing.b / (2 * math.sqrt(math.pi) * (1 - math.sqrt(sing.rho))
                   * (sing.d_rho + sing.rho * sing.d_prime_rho))
    return DecompositionConstants(
        rho=sing.rho, b=sing.b,
        c_share=2 / b2rho,
        c_var_coeff=11 / (12 * b2rho),
        mean_forest_size=b2rho / 2 - 1,
        y_share=2 * fa.gamma_rho / b2rho,
        gamma_rho=fa.gamma_rho,
        d_rho=sing.d_rho,
        lmax_c1=c1,
    )


# ---------------------------------------------------------------------------
# outdegree-restricted variants


@dataclass(frozen=True)
class VariantSingularity:
    family: str
    tau: float
    mu: float        # E|C_n|/n -> 1/(1+mu)
    residual: float
    tau_shift: float
    order: int

    @property
    def c_share(self) -> float:
        """Limit of E|C_n|/n, the expected fixed-node share."""
        return 1.0 / (1.0 + self.mu)


def solve_hierarchy_singularity(order: int = DEFAULT_ORDER) -> VariantSingularity:
    """Trees without outdegree 1: H = (z/(1+z)) exp(sum_i H(z^i)/i).

    At the singularity H(tau) = 1, so tau solves
    (tau/(1+tau)) * e * exp(sum_{i>=2} H(tau^i)/i) = 1.
    """

    def solve_at(n: int) -> float:
        h = [float(v) for v in hierarchy_int_table(n)]

        def g(x: float) -> float:
            tail = _substituted_sum(h, x, 2, lambda i: 1.0 / i)
            return (x / (1 + x)) * math.e * math.exp(tail) - 1.0

        return _bisect(g, 0.3, 0.6)

    tau = solve_at(order)
    tau2 = solve_at(order + 80)
    h = [float(v) for v in hierarchy_int_table(order)]
    hp = _derivative_floats(h)
    xi_tail = _substituted_sum(h, tau, 2, lambda i: 1.0 / i)
    xi_val = math.exp(xi_tail)
    xi_deriv = 0.0
    for i in range(2, 2000):
        arg = tau ** i
        if arg < 1e-25:
            break
        xi_deriv += tau ** (i - 1) * _horner(hp, arg)
    mu = tau ** 2 * math.e * xi_val * xi_deriv
    residual = abs((tau / (1 + tau)) * math.e * xi_val - 1.0)
    return VariantSingularity("hierarchy", tau, mu, residual,
                              abs(tau - tau2), order)


def solve_binary_singularity(order: int = DEFAULT_ORDER) -> VariantSingularity:
    """Outdegrees {0, 2}: B = z + (z/2)B^2 + (z/2)B(z^2).

    B(tau) = 1/tau at the singularity, which the functional equation turns
    into tau^2 B(tau^2) + 2 tau^2 - 1 = 0 (argument tau^2, well inside).
    """

    def solve_at(n: int) -> float:
        b = [float(v) for v in binary_int_table(n)]
        return _bisect(lambda x: x * x * _horner(b, x * x) + 2 * x * x - 1.0,
                       0.5, 0.75)

    tau = solve_at(order)
    tau2 = solve_at(order + 80)
    b = [float(v) for v in binary_int_table(order)]
    bp = _derivative_floats(b)
    # mu = tau^2/B(tau) * d/dx[(B(tau)^2 + B(x^2))/2] at x=tau; the first slot
    # of the pair cycle index is held fixed, so only B(x^2) contributes.
    mu = tau ** 4 * _horner(bp, tau * tau)
    residual = abs(tau * tau * _horner(b, tau * tau) + 2 * tau * tau - 1.0)
    return VariantSingularity("binary", tau, mu, residual,
                              abs(tau - tau2), order)


def solve_variant_singularity(family: str,
                              order: int = DEFAULT_ORDER) -> VariantSingularity:
    if family == "hierarchy":
        return solve_hierarchy_singularity(order)
    if family == "binary":
        return solve_binary_singularity(order)
    raise ValueError(f"unknown variant family: {family}")


# ---------------------------------------------------------------------------
# exact scaled-float coefficients at large n (max forest size law)


def _scaled_polya_coeffs(n: int, rho: float) -> "np.ndarray":
    """t_m rho^m for m <= n, stable float recurrence (all terms positive).

    (m-1) t_m = sum_{i<m} t_(m-i) s_i with s_j = sum_{d|j} d t_d rho^(j-d);
    each t_d is added to s at the multiples of d as soon as it is known, so
    s_i is complete before any t_m with m > i reads it.
    """
    import numpy as np

    t = np.zeros(n + 1)
    s = np.zeros(n + 1)
    for m in range(1, n + 1):
        t[m] = rho if m == 1 else (t[m - 1 : 0 : -1] @ s[1:m]) / (m - 1)
        s[m::m] += m * t[m] * rho ** (m * np.arange(n // m))
    return t


def lmax_cdf_exact(n: int, kmax: int, rho: float | None = None) -> list[float]:
    """P[L_n <= K] for K = 0..kmax from the composition with truncated forests.

    Capping every skeleton node's forest at size K replaces the forest series
    by its degree-K truncation inside Y = z e^Y D(z), so the K-th CDF value
    is the coefficient ratio [z^n]Y_K / t_n.  Computed in the scaled variable
    z -> rho z, where every series involved has bounded positive
    coefficients, so plain floats are accurate to roundoff.

    All caps advance together, one degree at a time: row K of y/e^y holds
    Y_K and the last row the uncapped Y, whose degree-n value is t_n rho^n.
    A capped forest has at most K + 1 terms, so its y step costs O(kmax)
    per row and degree; the exp step runs once over all rows.
    """
    if n < 1:
        raise ValueError(f"lmax_cdf_exact needs n >= 1, got {n}")
    if kmax < 0:
        raise ValueError(f"lmax_cdf_exact needs kmax >= 0, got {kmax}")
    import numpy as np

    if rho is None:
        rho = solve_polya_singularity().rho
    t_scaled = _scaled_polya_coeffs(n, rho)
    idx = np.arange(n + 1)

    # scaled forest series: D(rho z) = exp(sum_{i>=2} T((rho z)^i)/i)
    darg = np.zeros(n + 1)
    for i in range(2, n + 1):
        block = t_scaled[1 : n // i + 1]
        # T(x^i) contributes t_m rho^(i m) at degree i m; t_scaled holds
        # t_m rho^m, so multiply by rho^((i-1) m)
        darg[i::i] += block * rho ** ((i - 1) * idx[1 : block.size + 1]) / i
    d_scaled = np.zeros(n + 1)
    d_scaled[0] = 1.0
    for m in range(1, n + 1):
        d_scaled[m] = (idx[1 : m + 1] * darg[1 : m + 1]) @ d_scaled[m - 1 :: -1] / m

    # row K of trunc is the forest capped at degree K
    width = min(kmax, n) + 1
    trunc = np.tril(np.tile(d_scaled[:width], (kmax + 1, 1)))
    y = np.zeros((kmax + 2, n + 1))
    ey = np.zeros((kmax + 2, n + 1))
    ey[:, 0] = 1.0
    for m in range(1, n + 1):
        # y_m = [w^m] (rho w) e^y forest: the scaled z carries a rho
        back = ey[:, m - 1 :: -1]
        j = min(m, width)
        y[:-1, m] = rho * np.einsum("ij,ij->i", trunc[:, :j], back[:-1, :j])
        y[-1, m] = rho * (d_scaled[:m] @ back[-1, :m])
        ey[:, m] = np.einsum("j,ij,ij->i", idx[1 : m + 1], y[:, 1 : m + 1],
                             back[:, :m]) / m
    return (y[:-1, n] / y[-1, n]).tolist()


def lmax_exact_mean(n: int, rho: float | None = None,
                    kmax: int | None = None) -> float:
    """E L_n from the exact CDF (kmax chosen past the distribution's tail)."""
    if kmax is None:
        # a node's forest holds at most n - 1 nodes, so kmax = n is always exact
        kmax = min(n, max(64, int(8 * math.log(n))))
    cdf = lmax_cdf_exact(n, kmax, rho)
    if 1.0 - cdf[-1] > 1e-9:
        raise ValueError("kmax too small for the requested size")
    return float(sum(1.0 - p for p in cdf))
