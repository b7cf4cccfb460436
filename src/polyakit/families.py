"""Generating-function families for rooted-tree enumeration.

The families all hang off the Polya-tree numbers t_n (rooted unlabeled
non-plane trees, 1, 1, 2, 4, 9, 20, ...):

  T(z)    Polya trees, via the Euler-transform recurrence
  C(z)    labeled rooted (Cayley) trees divided by n!, n^(n-1)/n! z^n
  D(z)    derangement-weighted forests: multisets of Polya trees with every
          component repeated at least twice; T(z) = C(z D(z))
  T_c     bivariate refinement marking nodes fixed by a random automorphism,
          T_c(z,u) = C(u z D(z)), read off the powers of D
  R(z)    rooted identity trees (trivial automorphism group) and the signed
          analogues D*(z), R_c(z) with R(z) = C(z D*(z))
  E(z)    the compositional bridge z E(z) = R^(-1)(C(z)), the reversion of z D*(z)

plus restricted-outdegree variants (hierarchies, binary) and the general
cycle-index solver for an arbitrary allowed-outdegree set.

Integer tables are computed with plain ints and grown in place, so asking
for a longer prefix never recomputes the part already known.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .series import BivariateSeries, Q, RationalSeries, UPoly, exp_step

# ---------------------------------------------------------------------------
# integer tables (shared with the sampler, which needs exact big-int weights)

_t_table: list[int] = [0, 1]  # t_0 = 0 by convention (no empty tree), t_1 = 1
_s_table: list[int] = [0, 1]  # s[i] = sum over divisors m of i of m * t_m


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def polya_int_table(N: int) -> list[int]:
    """t_0 .. t_N as plain ints; (n-1) t_n = sum_i t_{n-i} s(i)."""
    while len(_t_table) <= N:
        n = len(_t_table)
        total = 0
        for i in range(1, n):
            total += _t_table[n - i] * _s_table[i]
        q, r = divmod(total, n - 1)
        if r:
            raise ArithmeticError(f"tree recurrence not divisible at n={n}")
        _t_table.append(q)
        _s_table.append(sum(m * _t_table[m] for m in _divisors(n)))
    return _t_table[: N + 1]


def divisor_weight_table(N: int) -> list[int]:
    """s(0..N) with s(i) = sum over divisors m of i of m * t_m."""
    polya_int_table(N)
    return _s_table[: N + 1]


def polya_coeffs(N: int) -> RationalSeries:
    """Polya-tree counting series T(z) to order N."""
    return RationalSeries.from_coeffs(polya_int_table(N))


@lru_cache(maxsize=None)
def hierarchy_int_table(N: int) -> tuple[int, ...]:
    """Counts of Polya trees with no outdegree-1 node: 1, 0, 1, 1, 2, 3, ..."""
    t = [0] * (N + 1)
    if N >= 1:
        t[1] = 1
    s = [0] * (N + 1)
    if N >= 1:
        s[1] = 1

    for n in range(2, N + 1):
        total = 0
        for i in range(1, n - 1):
            total += (t[n - i] + t[n - i - 1]) * s[i]
        total += s[n - 1] - (n - 1) * t[n - 1]  # proper divisors of n-1 only
        q, r = divmod(total, n - 1)
        if r:
            raise ArithmeticError(f"hierarchy recurrence not divisible at n={n}")
        t[n] = q
        s[n] = sum(m * t[m] for m in _divisors(n))
    return tuple(t)


def hierarchy_coeffs(N: int) -> RationalSeries:
    return RationalSeries.from_coeffs(hierarchy_int_table(N))


@lru_cache(maxsize=None)
def binary_int_table(N: int) -> tuple[int, ...]:
    """Counts of Polya trees with outdegrees in {0, 2}; zero at even sizes."""
    t = [0] * (N + 1)
    if N >= 1:
        t[1] = 1
    for n in range(3, N + 1, 2):
        conv = sum(t[i] * t[n - 1 - i] for i in range(1, n - 1))
        total = conv + t[(n - 1) // 2]
        q, r = divmod(total, 2)
        if r:
            raise ArithmeticError(f"binary recurrence not even at n={n}")
        t[n] = q
    return tuple(t)


def binary_polya_coeffs(N: int) -> RationalSeries:
    return RationalSeries.from_coeffs(binary_int_table(N))


# ---------------------------------------------------------------------------
# rational families around the decomposition T(z) = C(z D(z))


@lru_cache(maxsize=None)
def cayley_coeffs(N: int) -> RationalSeries:
    """C(z) = sum n^(n-1)/n! z^n; the n = 0 coefficient is 0 (no empty tree)."""
    coeffs = [Q(0)]
    fact = 1
    for n in range(1, N + 1):
        fact *= n
        coeffs.append(Q(n ** (n - 1), fact))
    return RationalSeries(tuple(coeffs))


@lru_cache(maxsize=None)
def dforest_coeffs(N: int) -> RationalSeries:
    """D(z) by the divisor recurrence n d_n = sum_{i>=2} d_{n-i} s'(i).

    s'(i) sums m t_m over proper divisors m of i (m != i): attaching a
    repeated component never uses the full-size divisor.
    """
    t = polya_int_table(N)
    s = divisor_weight_table(N)
    d = [Q(1)] + [Q(0)] * N
    for n in range(2, N + 1):
        acc = Q(0)
        for i in range(2, n + 1):
            sp = s[i] - i * t[i]
            if sp and d[n - i]:
                acc += d[n - i] * sp
        d[n] = acc / n
    return RationalSeries(tuple(d))


@lru_cache(maxsize=None)
def dforest_coeffs_exp_route(N: int) -> RationalSeries:
    """D(z) = exp(sum_{i>=2} T(z^i)/i), the definitional route."""
    t = polya_int_table(N)
    arg = [Q(0)] * (N + 1)
    for i in range(2, N + 1):
        for k in range(1, N // i + 1):
            if t[k]:
                arg[k * i] += Q(t[k], i)
    return RationalSeries(tuple(arg)).exp()


@lru_cache(maxsize=None)
def polya_composition_route(N: int) -> RationalSeries:
    """T(z) as the genuine composition C(z D(z)), via Horner."""
    inner = dforest_coeffs(N).shift(1)
    return cayley_coeffs(N).compose(inner)


@lru_cache(maxsize=None)
def pointed_coeffs(N: int) -> RationalSeries:
    """T/(1-T): nodes fixed under a random automorphism, summed over trees."""
    t = polya_coeffs(N)
    if t[0] != 0:
        raise ValueError("pointing needs a series with zero constant term")
    one_minus = RationalSeries.one(N) - t
    return t * one_minus.reciprocal()


@lru_cache(maxsize=None)
def gamma_series(N: int) -> RationalSeries:
    """gamma(z) = sum_{i>=2} T(z^i)."""
    t = polya_int_table(N)
    out = [0] * (N + 1)
    for i in range(2, N + 1):
        for k in range(1, N // i + 1):
            out[k * i] += t[k]
    return RationalSeries.from_coeffs(out)


@lru_cache(maxsize=None)
def gamma2_series(N: int) -> RationalSeries:
    """gamma_2(z) = sum_{i>=2} i T(z^i)."""
    t = polya_int_table(N)
    out = [0] * (N + 1)
    for i in range(2, N + 1):
        for k in range(1, N // i + 1):
            out[k * i] += i * t[k]
    return RationalSeries.from_coeffs(out)


def _pointed_over_dforest(N: int) -> RationalSeries:
    """q = (T/(1-T)) / D: fixed nodes counted with the forest at the node cut
    off, so the fixed nodes of size-n trees whose forest has size m number
    d_m [z^(n-m)] q."""
    return pointed_coeffs(N) * dforest_coeffs(N).reciprocal()


def forest_size_marked(N: int, m: int) -> RationalSeries:
    """Series whose n-th coefficient, divided by [z^n] T/(1-T), is P(the
    forest at a random fixed node has size m): d_m z^m q(z)."""
    if not 0 <= m <= N:
        raise ValueError("marked forest size must lie within the truncation order")
    return _pointed_over_dforest(N).scale(dforest_coeffs(N)[m]).shift(m)


def exact_forest_size_row(n: int, mmax: int) -> tuple[Fraction, ...]:
    """P(forest size = m) at a uniform fixed node of a uniform size-n
    (tree, automorphism) pair, m = 0..mmax; the finite-n row whose limit is
    d_m rho^m / D(rho).  A forest has fewer than n nodes, so m >= n gives 0."""
    if n < 1:
        raise ValueError("the exact forest-size row needs n >= 1")
    d, q, tc = dforest_coeffs(n), _pointed_over_dforest(n), pointed_coeffs(n)
    return tuple(d[m] * q[n - m] / tc[n] if m < n else Q(0)
                 for m in range(mmax + 1))


@lru_cache(maxsize=None)
def dtree_count_series(N: int) -> tuple[RationalSeries, RationalSeries]:
    """(A, B) with E X_n = [z^n]A / d_n and E Y_n = [z^n]B / t_n.

    A = D(z) gamma(z) marks components of a random forest, B = T_c(z) gamma(z)
    marks components over all forests of a random tree.
    """
    g = gamma_series(N)
    return dforest_coeffs(N) * g, pointed_coeffs(N) * g


@lru_cache(maxsize=None)
def csize_moment_series(N: int) -> tuple[RationalSeries, RationalSeries]:
    """(T/(1-T), T/(1-T)^3): first moment and exact second moment of the
    fixed-node count, each divided by t_n at coefficient n."""
    t = polya_coeffs(N)
    inv = (RationalSeries.one(N) - t).reciprocal()
    first = t * inv
    return first, first * inv * inv


@lru_cache(maxsize=None)
def dtree_second_moment_series(N: int) -> RationalSeries:
    """Series V with E[Y_n (Y_n - 1)] = [z^n]V / t_n.

    From T(z,v) = C(z D(z,v)) and x C'(x) = C/(1-C), x^2 C''(x) =
    C^2 (2-C)/(1-C)^3 evaluated at x = z D(z):
    V = T^2 (2-T)/(1-T)^3 gamma^2 + T/(1-T) (gamma^2 + gamma_2 - gamma).
    """
    t = polya_coeffs(N)
    g = gamma_series(N)
    g2 = gamma2_series(N)
    inv = (RationalSeries.one(N) - t).reciprocal()
    inv3 = inv * inv * inv
    two = RationalSeries.one(N).scale(2)
    part1 = t * t * (two - t) * inv3 * g * g
    part2 = t * inv * (g * g + g2 - g)
    return part1 + part2


# ---------------------------------------------------------------------------
# identity trees and signed companions


@lru_cache(maxsize=None)
def identity_tree_coeffs(N: int) -> tuple[RationalSeries, RationalSeries, RationalSeries]:
    """(R, D*, R_c): identity trees R = z exp(sum_i (-1)^(i-1) R(z^i)/i),
    the signed forest series D* = exp(sum_{i>=2} ...), and R_c = R/(1-R)."""
    a = [Q(0)] * (N + 1)
    g = [Q(0)] * (N + 1)  # full alternating exponent, i >= 1
    e = [Q(1)] + [Q(0)] * N

    def exponent(m: int) -> Fraction:
        return sum(((a[m // i] if i % 2 else -a[m // i]) / i
                    for i in _divisors(m) if a[m // i]), Q(0))

    for n in range(1, N + 1):
        m = n - 1
        if m >= 1:
            g[m] = exponent(m)
            e[m] = exp_step(g, e, m)
        a[n] = e[m]
    g[N] = exponent(N)  # the loop stops filling g at N - 1; D* needs it at N too
    r = RationalSeries(tuple(a))
    tail = RationalSeries(tuple(g)) - r  # drop the i = 1 term to start at i = 2
    dstar = tail.exp()
    rc = r * (RationalSeries.one(N) - r).reciprocal()
    return r, dstar, rc


@lru_cache(maxsize=None)
def e_series(N: int) -> RationalSeries:
    """E(z) with z E(z) = R^(-1)(C(z)); starts 1 + 0 z + z^2/2 - z^3/3 + ...

    R = C(z D*) gives R^(-1)(C(z)) = (z D*)^(-1)(z), so z E is the reversion
    of z D*(z) and C is never composed.
    """
    _, dstar, _ = identity_tree_coeffs(N)
    z_dstar = RationalSeries((Q(0),) + dstar.coeffs)  # order N + 1
    return RationalSeries(z_dstar.reversion().coeffs[1:])


# ---------------------------------------------------------------------------
# bivariate families


def _marked_rows(forest: RationalSeries, N: int) -> BivariateSeries:
    """Rows of C(u z F(z)), u marking the skeleton nodes (the fixed nodes):
    [u^k z^n] = c_k [z^(n-k)] F^k, from the successive powers of F."""
    c = cayley_coeffs(N)
    rows = [[Q(0)] * (n + 1) for n in range(N + 1)]
    power = RationalSeries.one(N)
    for k in range(1, N + 1):
        power = power.truncate(N - k) * forest  # F^k through z^(N-k)
        for n in range(k, N + 1):
            rows[n][k] = c[k] * power[n - k]
    return BivariateSeries(tuple(UPoly.from_coeffs(r) for r in rows))


@lru_cache(maxsize=None)
def ctree_polynomials(N: int) -> BivariateSeries:
    """T_c(z,u) = C(u z D(z)): row n is the fixed-node polynomial summed over
    all trees of size n; row sums recover t_n."""
    return _marked_rows(dforest_coeffs(N), N)


@lru_cache(maxsize=None)
def identity_ctree_polynomials(N: int) -> BivariateSeries:
    """R_c(z,u) = C(u z D*(z)): signed fixed-node polynomials."""
    _, dstar, _ = identity_tree_coeffs(N)
    return _marked_rows(dstar, N)


@lru_cache(maxsize=None)
def dforest_component_bivariate(N: int) -> BivariateSeries:
    """D(z,v) = exp(sum_{i>=2} v^i T(z^i)/i): v marks forest components."""
    t = polya_int_table(N)
    rows = [UPoly.zero() for _ in range(N + 1)]
    for i in range(2, N + 1):
        mono = UPoly.from_coeffs([0] * i + [1]).scale(Q(1, i))  # v^i / i
        for k in range(1, N // i + 1):
            if t[k]:
                rows[k * i] = rows[k * i] + mono.scale(t[k])
    return BivariateSeries(tuple(rows)).exp()


# ---------------------------------------------------------------------------
# arbitrary allowed-outdegree sets via symmetric-group cycle indices


@dataclass(frozen=True)
class OmegaSet:
    """An allowed-outdegree set: either finite, or all of N0 minus a finite set."""

    allowed: Optional[frozenset[int]]  # None means cofinite
    excluded: frozenset[int] = frozenset()

    @staticmethod
    def finite(values) -> "OmegaSet":
        return OmegaSet(allowed=frozenset(int(v) for v in values))

    @staticmethod
    def cofinite(excluded=()) -> "OmegaSet":
        return OmegaSet(allowed=None, excluded=frozenset(int(v) for v in excluded))

    @staticmethod
    def parse(text: str) -> "OmegaSet":
        """Accepts 'all', 'all-except:1,2', or a comma list like '0,2'."""
        text = text.strip().lower()
        if text == "all":
            return OmegaSet.cofinite()
        cofinite = text.startswith("all-except:")
        values = [int(v) for v in text.removeprefix("all-except:").split(",")
                  if v.strip()]
        if any(v < 0 for v in values):
            raise ValueError(f"outdegrees cannot be negative: {text!r}")
        return OmegaSet.cofinite(values) if cofinite else OmegaSet.finite(values)

    def describe(self) -> str:
        if self.allowed is not None:
            return "{" + ",".join(str(v) for v in sorted(self.allowed)) + "}"
        if not self.excluded:
            return "all"
        return "all-except:" + ",".join(str(v) for v in sorted(self.excluded))


def omega_polya_coeffs(omega: OmegaSet, N: int) -> RationalSeries:
    """Counting series of Polya trees whose every outdegree lies in omega:
    A = z sum_{k in omega} Z(S_k; A(z), A(z^2), ..., A(z^k))."""
    a = [Q(0)] * (N + 1)
    if omega.allowed is not None:
        tracked = max(omega.allowed, default=0)
    else:
        tracked = max(omega.excluded, default=0)
    # p[k][m] = [z^m] Z(S_k; A(z), ..., A(z^k)), filled degree-synchronously
    p = [[Q(0)] * (N + 1) for _ in range(tracked + 1)]
    if tracked >= 0:
        p[0][0] = Q(1)
    g = [Q(0)] * (N + 1)  # sum_i A(z^i)/i, cofinite case
    e = [Q(1)] + [Q(0)] * N  # exp(g)

    for n in range(1, N + 1):
        m = n - 1
        if m >= 1:
            for k in range(1, tracked + 1):
                acc = Q(0)
                for i in range(1, k + 1):
                    for j in range(i, m + 1, i):
                        c = a[j // i]
                        if c and p[k - i][m - j]:
                            acc += c * p[k - i][m - j]
                p[k][m] = acc / k
            if omega.allowed is None:
                g[m] = sum((a[m // i] / i for i in _divisors(m) if a[m // i]), Q(0))
                e[m] = exp_step(g, e, m)
        if omega.allowed is not None:
            a[n] = sum((p[k][m] for k in omega.allowed if k <= tracked), Q(0))
        else:
            a[n] = e[m] - sum((p[k][m] for k in omega.excluded), Q(0))
    return RationalSeries(tuple(a))
