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

T, D, T/(1-T) and their identity-tree analogues R, D*, R_c come from one
signed Euler-transform recurrence on integer tables (D and D* scaled by n!),
and the counts for any allowed-outdegree set, binary trees among them, from
one integer cycle-index table (hierarchies also from a hand-written one).  All
are grown in place, so asking for a longer prefix never recomputes the part
already known; everything else is computed from them on demand, with no
per-order cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from operator import mul
from typing import Optional

from .series import BivariateSeries, Q, RationalSeries, UPoly

# ---------------------------------------------------------------------------
# signed Euler-transform tables, grown in place
#
# A = z exp(sum_i sigma^(i-1) A(z^i)/i) gives the Polya trees T for sigma = +1
# and the identity trees R for sigma = -1.  Each sign keeps four integer
# tables, shared with the sampler for sigma = +1:
#   a[n]  the counts t_n or r_n, from (n-1) a_n = sum_i a_(n-i) s(i);
#   s[i]  sum over divisors m of i of sigma^(i/m-1) m a_m;
#   f[n]  n! d_n for D or D* = exp(G), G = sum_{i>=2} sigma^(i-1) A(z^i)/i,
#         from n d_n = sum_{i>=2} d_(n-i) w_i, w_j = j [z^j] G;
#   p[n]  the pointed series A/(1-A) (T/(1-T) or R_c), from P = A + A P.
# For sigma = +1 a fifth table holds n! [z^n] 1/D = exp(-G): the recurrence of
# D with the weights negated.  Any power F^k = exp(k G) has the weights times
# k; E and the skeleton rows read their coefficients off such tables.

_counts: dict[int, list[int]] = {1: [0, 1], -1: [0, 1]}  # a_0 = 0: no empty tree
_weights: dict[int, list[int]] = {1: [0, 1], -1: [0, 1]}
_forests: dict[int, list[int]] = {1: [1], -1: [1]}
_pointed: dict[int, list[int]] = {1: [0], -1: [0]}
_inverse_forests: list[int] = [1]  # n! [z^n] 1/D, the same recurrence negated

_PLAIN_BELOW = 512  # count tables shorter than this grow term by term
_LEAF = 64  # the largest range the doubling step sums term by term


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


def _packed_product(x: list[str], y: list[str], lo: int, hi: int) -> list[int]:
    """Coefficients lo .. hi-1 of the product of two polynomials whose
    coefficients, all nonnegative, are given as their decimal digit strings.

    Each polynomial is packed into one Decimal, a slot of `width` digits per
    coefficient, and the two are multiplied once by libmpdec, which switches
    to a number-theoretic transform on large operands.  A product coefficient
    sums fewer than 10^len(str(min(len(x), len(y)))) terms, each below
    10^(digits of x + digits of y), so no slot carries into the next.  The
    context is a local exact one; Decimal <-> int conversions are not subject
    to the int/str digit limit, so slots of any width read back."""
    if any(v.startswith("-") for v in x) or any(v.startswith("-") for v in y):
        raise ValueError("packed products need nonnegative coefficients")
    width = (max(map(len, x)) + max(map(len, y))
             + len(str(min(len(x), len(y)))) + 1)
    exact = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)
    product = str(exact.multiply(Decimal("".join(v.zfill(width) for v in reversed(x))),
                                 Decimal("".join(v.zfill(width) for v in reversed(y)))))
    end = len(product)
    return [int(Decimal(product[max(end - width * (k + 1), 0):end - width * k]))
            if end > width * k else 0 for k in range(lo, hi)]


def _append_count(sigma: int, a: list[int], s: list[int], total: int) -> None:
    """Append a_n = total / (n - 1) and s_n, for n = len(a)."""
    n = len(a)
    q, r = divmod(total, n - 1)
    if r:
        raise ArithmeticError(f"tree recurrence not divisible at n={n}")
    a.append(q)
    s.append(sum(sigma ** (n // m - 1) * m * a[m] for m in _divisors(n)))


def _grow_counts(sigma: int, N: int) -> tuple[list[int], list[int]]:
    """The tables a and s of sign sigma, grown through N.

    (n - 1) a_n is entry n of the product a s (a_0 = s_0 = 0).  Below
    _PLAIN_BELOW entries, and for the last _LEAF entries or fewer of a
    request, each a_n is that sum, term by term: a doubling step packs the
    whole held table whatever its span, so for a few entries the sums are
    cheaper.  Otherwise the table doubles (_double_counts)."""
    a, s = _counts[sigma], _weights[sigma]
    while len(a) <= N:
        n = len(a)
        if n < _PLAIN_BELOW or N - n < _LEAF:
            _append_count(sigma, a, s, sum(map(mul, a[n - 1:0:-1], s[1:n])))
        else:
            _double_counts(sigma, a, s, min(N, 2 * n - 1))
    return a, s


def _double_counts(sigma: int, a: list[int], s: list[int], top: int) -> None:
    """Grow a and s from their L entries through top <= 2L - 1.

    Every n in [L, top] takes its pairs with both indices below L from one
    packed product; no pair has both indices at L or above, since 2L > top.
    The pairs with one index i >= L come from an online divide-and-conquer
    over [L, top]: once the entries of [l, mid) are known, a[l:mid] s[0:r-l]
    and s[l:mid] a[0:r-l] add their share to [mid, r), every partner index
    below r - l <= L, and a leaf of at most _LEAF entries sums the pairs
    inside it before it divides."""
    L = len(a)
    da = [str(Decimal(v)) for v in a]  # digit strings, for this call only
    ds = [str(Decimal(v)) for v in s]
    acc = _packed_product(da, ds, L, top + 1)  # acc[n - L]: pairs known so far

    def grow(l: int, r: int) -> None:
        if r - l > _LEAF:
            mid = (l + r) // 2
            grow(l, mid)
            for x, y in ((da, ds), (ds, da)):
                for n, v in enumerate(_packed_product(x[l:mid], y[:r - l], mid - l, r - l),
                                      mid - L):
                    acc[n] += v
            grow(mid, r)
            return
        for n in range(l, r):  # the pairs (i, n - i) with l <= i < n
            k = n - l
            _append_count(sigma, a, s, acc[n - L] + sum(map(mul, a[l:n], s[k:0:-1]))
                          + sum(map(mul, s[l:n], a[k:0:-1])))
            da.append(str(Decimal(a[n])))
            ds.append(str(Decimal(s[n])))

    grow(L, top + 1)


def _substituted(a: list[int], N: int, coeff) -> list:
    """sum_{i>=2} sum_k coeff(i, k) a_k z^(i k) through z^N, as a list."""
    out = [0] * (N + 1)
    for i in range(2, N + 1):
        for k in range(1, N // i + 1):
            out[i * k] += coeff(i, k) * a[k]
    return out


def _exp_weights(sigma: int, N: int) -> list[int]:
    """w_0 .. w_N, w_j = j [z^j] sum_{i>=2} sigma^(i-1) A(z^i)/i."""
    return _substituted(_grow_counts(sigma, N)[0], N, lambda i, k: sigma ** (i - 1) * k)


def _grow_exp(f: list[int], sign: int, w: list[int], N: int) -> list[int]:
    """Grow f, the table of n! [z^n] exp(sign G), through N from the weights
    w_j = j [z^j] G (w_0 = w_1 = 0).  sign is any integer exponent: the table
    is F^sign for F = exp(G), so 1 gives F, -1 its inverse, k its k-th power."""
    while len(f) <= N:
        n = len(f)
        total, falling = 0, 1  # falling = (n-1)!/(n-i)!
        for i in range(2, n + 1):
            falling *= n - i + 1
            if w[i]:
                total += f[n - i] * w[i] * falling
        f.append(sign * total)
    return f


def _grow_forests(sigma: int, N: int) -> list[int]:
    """The table f of n! d_n for D (sigma = +1) or D* (sigma = -1)."""
    return _grow_exp(_forests[sigma], 1, _exp_weights(sigma, N), N)


def _grow_pointed(sigma: int, N: int) -> list[int]:
    """The table p of A/(1-A), grown through N."""
    a, _ = _grow_counts(sigma, N)
    p = _pointed[sigma]
    while len(p) <= N:
        n = len(p)
        p.append(a[n] + sum(a[i] * p[n - i] for i in range(1, n)))
    return p


def _over_factorials(scaled: list[int], N: int) -> RationalSeries:
    """The series with coefficients scaled[n] / n!, n = 0..N."""
    return RationalSeries(tuple(Q(scaled[n], math.factorial(n)) for n in range(N + 1)))


def polya_int_table(N: int) -> list[int]:
    """t_0 .. t_N as plain ints; (n-1) t_n = sum_i t_{n-i} s(i)."""
    return _grow_counts(1, N)[0][: N + 1]


def divisor_weight_table(N: int) -> list[int]:
    """s(0..N) with s(i) = sum over divisors m of i of m * t_m."""
    return _grow_counts(1, N)[1][: N + 1]


def polya_coeffs(N: int) -> RationalSeries:
    """Polya-tree counting series T(z) to order N."""
    return RationalSeries.from_coeffs(polya_int_table(N))


def dforest_coeffs(N: int) -> RationalSeries:
    """D(z) = exp(sum_{i>=2} T(z^i)/i), from the integer table of n! d_n."""
    return _over_factorials(_grow_forests(1, N), N)


def pointed_coeffs(N: int) -> RationalSeries:
    """T/(1-T): nodes fixed under a random automorphism, summed over trees."""
    return RationalSeries.from_coeffs(_grow_pointed(1, N)[: N + 1])


def identity_tree_coeffs(N: int) -> tuple[RationalSeries, RationalSeries, RationalSeries]:
    """(R, D*, R_c): identity trees R = z exp(sum_i (-1)^(i-1) R(z^i)/i),
    the signed forest series D* = exp(sum_{i>=2} ...), and R_c = R/(1-R)."""
    return (RationalSeries.from_coeffs(_grow_counts(-1, N)[0][: N + 1]),
            _over_factorials(_grow_forests(-1, N), N),
            RationalSeries.from_coeffs(_grow_pointed(-1, N)[: N + 1]))


# ---------------------------------------------------------------------------
# the hierarchy count table, grown in place: a hand-written recurrence kept
# apart from the omega table as the independent route for all-except:1

_h_counts: list[int] = [0, 1]
_h_weights: list[int] = [0, 1]  # s[i] = sum over divisors m of i of m * h_m


def hierarchy_int_table(N: int) -> tuple[int, ...]:
    """Counts of Polya trees with no outdegree-1 node: 1, 0, 1, 1, 2, 3, ..."""
    t, s = _h_counts, _h_weights
    while len(t) <= N:
        n = len(t)
        total = 0
        for i in range(1, n - 1):
            total += (t[n - i] + t[n - i - 1]) * s[i]
        total += s[n - 1] - (n - 1) * t[n - 1]  # proper divisors of n-1 only
        q, r = divmod(total, n - 1)
        if r:
            raise ArithmeticError(f"hierarchy recurrence not divisible at n={n}")
        t.append(q)
        s.append(sum(m * t[m] for m in _divisors(n)))
    return tuple(t[: N + 1])


def hierarchy_coeffs(N: int) -> RationalSeries:
    return RationalSeries.from_coeffs(hierarchy_int_table(N))


# ---------------------------------------------------------------------------
# rational families around the decomposition T(z) = C(z D(z))


def cayley_coeffs(N: int) -> RationalSeries:
    """C(z) = sum n^(n-1)/n! z^n; the n = 0 coefficient is 0 (no empty tree)."""
    coeffs = [Q(0)]
    fact = 1
    for n in range(1, N + 1):
        fact *= n
        coeffs.append(Q(n ** (n - 1), fact))
    return RationalSeries(tuple(coeffs))


def dforest_coeffs_exp_route(N: int) -> RationalSeries:
    """D(z) = exp(sum_{i>=2} T(z^i)/i), the definitional route."""
    arg = _substituted(polya_int_table(N), N, lambda i, k: Q(1, i))
    return RationalSeries.from_coeffs(arg).exp()


def polya_composition_route(N: int) -> RationalSeries:
    """T(z) as the genuine composition C(z D(z)), via Horner."""
    inner = dforest_coeffs(N).shift(1)
    return cayley_coeffs(N).compose(inner)


def gamma_series(N: int) -> RationalSeries:
    """gamma(z) = sum_{i>=2} T(z^i)."""
    return RationalSeries.from_coeffs(_substituted(polya_int_table(N), N, lambda i, k: 1))


def gamma2_series(N: int) -> RationalSeries:
    """gamma_2(z) = sum_{i>=2} i T(z^i)."""
    return RationalSeries.from_coeffs(_substituted(polya_int_table(N), N, lambda i, k: i))


def _pointed_over_dforest(k: int, w: list[int]) -> Fraction:
    """[z^k] q with q = (T/(1-T)) / D: fixed nodes counted with the forest at
    the node cut off, so the fixed nodes of size-n trees whose forest has
    size m number d_m [z^(n-m)] q.  With U_j = j! [z^j] 1/D it is
    sum_j p_(k-j) U_j / j!, summed over k! as one integer.  w holds the
    weights of D, _exp_weights(1, N) for some N >= k."""
    p = _grow_pointed(1, k)
    u = _grow_exp(_inverse_forests, -1, w, k)
    total, falling = 0, 1  # falling = k!/j!
    for j in range(k, -1, -1):
        total += p[k - j] * u[j] * falling
        falling *= j
    return Q(total, math.factorial(k))


def exact_forest_size_row(n: int, mmax: int) -> tuple[Fraction, ...]:
    """P(forest size = m) at a uniform fixed node of a uniform size-n
    (tree, automorphism) pair, m = 0..mmax; the finite-n row whose limit is
    d_m rho^m / D(rho).  A forest has fewer than n nodes, so m >= n gives 0."""
    if n < 1:
        raise ValueError("the exact forest-size row needs n >= 1")
    d, tc, w = dforest_coeffs(n), pointed_coeffs(n), _exp_weights(1, n)
    return tuple(d[m] * _pointed_over_dforest(n - m, w) / tc[n] if m < n else Q(0)
                 for m in range(mmax + 1))


def dtree_count_series(N: int) -> tuple[RationalSeries, RationalSeries]:
    """(A, B) with E X_n = [z^n]A / d_n and E Y_n = [z^n]B / t_n.

    A = D(z) gamma(z) marks components of a random forest, B = T_c(z) gamma(z)
    marks components over all forests of a random tree.
    """
    g = gamma_series(N)
    return dforest_coeffs(N) * g, pointed_coeffs(N) * g


def csize_moment_series(N: int) -> tuple[RationalSeries, RationalSeries]:
    """(T/(1-T), T/(1-T)^3): first moment and exact second moment of the
    fixed-node count, each divided by t_n at coefficient n."""
    first = pointed_coeffs(N)
    inv = RationalSeries.one(N) + first  # 1/(1-T) = 1 + T/(1-T)
    return first, first * inv * inv


def dtree_second_moment_series(N: int) -> RationalSeries:
    """Series V with E[Y_n (Y_n - 1)] = [z^n]V / t_n.

    From T(z,v) = C(z D(z,v)) and x C'(x) = C/(1-C), x^2 C''(x) =
    C^2 (2-C)/(1-C)^3 evaluated at x = z D(z):
    V = T^2 (2-T)/(1-T)^3 gamma^2 + T/(1-T) (gamma^2 + gamma_2 - gamma).
    """
    t = polya_coeffs(N)
    g = gamma_series(N)
    g2 = gamma2_series(N)
    pointed = pointed_coeffs(N)
    inv = RationalSeries.one(N) + pointed  # 1/(1-T) = 1 + T/(1-T)
    inv3 = inv * inv * inv
    two = RationalSeries.one(N).scale(2)
    part1 = t * t * (two - t) * inv3 * g * g
    part2 = pointed * (g * g + g2 - g)
    return part1 + part2


# ---------------------------------------------------------------------------
# the bridge between identity trees and Cayley trees


def e_series(N: int) -> RationalSeries:
    """E(z) with z E(z) = R^(-1)(C(z)); starts 1 + 0 z + z^2/2 - z^3/3 + ...

    R = C(z D*) gives R^(-1)(C(z)) = (z D*)^(-1)(z), so z E is the reversion
    of z D*(z) and C is never composed.  Lagrange inversion reads it off the
    powers of D*: n [z^n] zE = [z^(n-1)] D*^(-n), and D*^(-n) is the exp
    table of sign -n, so n! [z^n] zE is its entry n - 1.
    """
    w = _exp_weights(-1, N)
    return RationalSeries(tuple(
        Q(_grow_exp([1], -n, w, n - 1)[n - 1], math.factorial(n))
        for n in range(1, N + 2)))


# ---------------------------------------------------------------------------
# bivariate families


def _marked_rows(sigma: int, N: int) -> BivariateSeries:
    """Rows of C(u z F(z)) for the forest series F = D (sigma = +1) or D*
    (sigma = -1), u marking the skeleton nodes (the fixed nodes):
    [u^k z^n] = c_k [z^j] F^k with j = n - k, and F^k is the exp table of
    sign k, whose entry j is j! [z^j] F^k."""
    rows = [[0] * (n + 1) for n in range(N + 1)]
    w = _exp_weights(sigma, N)
    for k in range(1, N + 1):
        power = _grow_exp([1], k, w, N - k)
        for j in range(N - k + 1):
            rows[k + j][k] = Q(k ** (k - 1) * power[j],
                               math.factorial(k) * math.factorial(j))
    return BivariateSeries(tuple(UPoly.from_coeffs(r) for r in rows))


def ctree_polynomials(N: int) -> BivariateSeries:
    """T_c(z,u) = C(u z D(z)): row n is the fixed-node polynomial summed over
    all trees of size n; row sums recover t_n."""
    return _marked_rows(1, N)


def identity_ctree_polynomials(N: int) -> BivariateSeries:
    """R_c(z,u) = C(u z D*(z)): signed fixed-node polynomials."""
    return _marked_rows(-1, N)


def dforest_component_bivariate(N: int) -> BivariateSeries:
    """D(z,v) = exp(sum_{i>=2} v^i T(z^i)/i): v marks forest components.

    The exp table with v^i packed as 2^(B i) (Kronecker substitution).  Each
    term summed into n! D_n(v) has nonnegative integer coefficients at most
    n! d_n < 2^B, so no slot carries; row n is its B-bit slots over n!."""
    B = max(_grow_forests(1, N)[: N + 1]).bit_length() + 1
    w = _substituted(polya_int_table(N), N, lambda i, k: k << B * i)
    mask = (1 << B) - 1
    return BivariateSeries(tuple(
        UPoly.from_coeffs([Q(f >> B * j & mask, math.factorial(n)) for j in range(n + 1)])
        for n, f in enumerate(_grow_exp([1], 1, w, N))))


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


class _OmegaTable:
    """Integer counts a of the Polya trees with outdegrees in omega, from
    A = z sum_(k in omega) Z(S_k; A(z), A(z^2), ...).  Row p[k][m] is [z^m] of
    Z(S_k; ...), the multisets of k trees of total size m, from
    k p_k = sum_i A(z^i) p_(k-i).  A cofinite omega also needs e[m], all
    multisets of trees, from m e_m = sum_j s_j e_(m-j), s_j = sum_(d|j) d a_d.
    A node of outdegree k needs k + 1 nodes, so p_k(m) = 0 for m < k and row
    k starts only once m reaches k."""

    def __init__(self, omega: OmegaSet) -> None:
        self.omega, self.a, self.p, self.s, self.e = omega, [0], [[1]], [0], [1]


def _grow_omega(table: _OmegaTable, N: int) -> list[int]:
    """Grow the table through N: a_(m+1) is the sum of p_k(m) over k in omega
    or, for a cofinite omega, e_m minus that sum over the excluded k."""
    omega, a, p, s, e = table.omega, table.a, table.p, table.s, table.e
    listed = omega.allowed if omega.allowed is not None else omega.excluded
    top = max(listed, default=0)
    while len(a) <= N:
        m = len(a) - 1
        if m:
            p[0].append(0)
            if m <= top:
                p.append([0] * m)
            for k in range(1, len(p)):
                total = 0 if m % k else a[m // k]  # i = k: A(z^k) p_0 = A(z^k)
                for i in range(1, k):  # a_j p_(k-i)(m - i j) until row k - i starts
                    total += sum(map(mul, a[1:(m - k + i) // i + 1], p[k - i][m - i::-i]))
                q, r = divmod(total, k)
                if r:
                    raise ArithmeticError(f"cycle-index row {k} not divisible at m={m}")
                p[k].append(q)
            if omega.allowed is None:
                s.append(sum(d * a[d] for d in _divisors(m)))
                q, r = divmod(sum(map(mul, s[1:], e[::-1])), m)
                if r:
                    raise ArithmeticError(f"multiset recurrence not divisible at m={m}")
                e.append(q)
        rows = sum(p[k][m] for k in listed if k < len(p))
        a.append(rows if omega.allowed is not None else e[m] - rows)
    return a


def omega_polya_coeffs(omega: OmegaSet, N: int) -> RationalSeries:
    """Counting series of Polya trees whose every outdegree lies in omega:
    A = z sum_{k in omega} Z(S_k; A(z), A(z^2), ..., A(z^k))."""
    return RationalSeries.from_coeffs(_grow_omega(_OmegaTable(omega), N))


_binary = _OmegaTable(OmegaSet.finite((0, 2)))


def binary_int_table(N: int) -> tuple[int, ...]:
    """Counts of Polya trees with outdegrees in {0, 2}; zero at even sizes."""
    return tuple(_grow_omega(_binary, N)[: N + 1])


def binary_polya_coeffs(N: int) -> RationalSeries:
    return RationalSeries.from_coeffs(binary_int_table(N))
