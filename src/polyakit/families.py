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
and the counts for any allowed-outdegree set, hierarchies and binary trees
among them, from one integer cycle-index table; hierarchy_int_table, a
hand-written recurrence that holds nothing, checks it.  All are grown in
place, in one object _grown, so asking for a longer prefix never recomputes
the part already known; everything else is computed from them on demand, with
no per-order cache.  The counts and the pointed series grow by one online
convolution (_grow_online) on packed exact Decimal products.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple

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
#         from n d_n = sum_{i>=2} d_(n-i) w_i, w_j = j [z^j] G = s_j - j a_j;
#   p[n]  the pointed series A/(1-A) (T/(1-T) or R_c), from P = A + A P.
# Any power F^k = exp(k G), 1/D among them, has the weights times k; E, the
# skeleton rows and the exact forest-size row read their coefficients off such
# tables, built on demand.


class _Grown:
    """The grown tables (the signed Euler tables and the cycle-index tables of
    the hierarchies and binary trees), and the solves and L_n law read from
    them (so a fresh _Grown() drops a root or law with the counts it read)."""

    __slots__ = ("counts", "weights", "forests", "pointed", "hierarchy",
                 "binary", "solves", "law")

    def __init__(self) -> None:
        self.counts = {1: [0, 1], -1: [0, 1]}  # a_0 = 0: no empty tree
        self.weights = {1: [0, 1], -1: [0, 1]}
        self.forests = {1: [1], -1: [1]}
        self.pointed = {1: [0], -1: [0]}
        self.hierarchy = _OmegaTable(OmegaSet(frozenset((1,)), cofinite=True))
        self.binary = _OmegaTable(OmegaSet(frozenset((0, 2)), cofinite=False))
        self.solves: dict[str, tuple] = {}  # see asymptotics._solved
        self.law: tuple | None = None  # (rho, y, e^y, t, s): lmax_cdf_exact


_LEAF = 256  # the largest range the online divide-and-conquer sums term by term
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)  # no Decimal rounds
_ZERO = Decimal(0)


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


def _term_digits(x: list[str], y: list[str], hi: int) -> int:
    """A bound on the digit count of every term x_i y_j with i + j < hi.  A
    term has at most len(x_i) + my[j] digits, my[j] being the largest digit
    count in y[:j + 1]; my only rises with j, so the largest j allowed bounds
    every j, even where the digit counts fall."""
    my = list(accumulate(map(len, y[:hi]), max))
    last = len(my) - 1
    return max(len(v) + my[min(hi - 1 - i, last)] for i, v in enumerate(x[:hi]))


def _packed_sum(pairs: list[tuple[list[str], list[str]]], lo: int, hi: int) -> list[Decimal]:
    """Coefficients lo .. hi-1 of the sum of the products x y over `pairs`,
    polynomials whose coefficients, all nonnegative, are given as their
    decimal digit strings; each coefficient an exact integer Decimal.

    Each polynomial is packed into one Decimal, a slot of `width` digits per
    coefficient, each pair is multiplied by libmpdec, which switches to a
    number-theoretic transform on large operands, and the products are added
    before the slots are read back once.  Carries run upward, so only the
    slots below hi must not overflow and coefficients of index hi or more are
    not packed: a coefficient k < hi sums at most `terms` products, each
    bounded by _term_digits.  Every operation runs on the module's exact
    context _EXACT, never on the thread's."""
    pairs = [(x[:hi], y[:hi]) for x, y in pairs]
    if any(v.startswith("-") for x, y in pairs for v in x + y):
        raise ValueError("packed products need nonnegative coefficients")
    terms = sum(min(len(x), len(y)) for x, y in pairs)
    width = max(_term_digits(x, y, hi) for x, y in pairs) + len(str(terms))
    total = _ZERO
    for x, y in pairs:
        total = _EXACT.add(total, _EXACT.multiply(
            Decimal("".join(v.zfill(width) for v in reversed(x))),
            Decimal("".join(v.zfill(width) for v in reversed(y)))))
    digits = str(total)
    end = len(digits)
    return [Decimal(digits[max(end - width * (k + 1), 0):end - width * k])
            if end > width * k else _ZERO for k in range(lo, hi)]


def _digits(v: int) -> str:
    """The decimal digits of v; Decimal <-> int conversions are not subject
    to the int/str digit limit, so any length converts."""
    return str(Decimal(v))


def _exact_quotient(total: int, k: int, what: str) -> int:
    """total / k, a division that the recurrence named by what makes exact."""
    q, r = divmod(total, k)
    if r:
        raise ArithmeticError(f"{what} not divisible by {k}")
    return q


def _append_count(sigma: int, a: list[int], s: list[int], total: int) -> None:
    """Append a_n = total / (n - 1) and s_n, for n = len(a)."""
    n = len(a)
    a.append(_exact_quotient(total, n - 1, "tree recurrence"))
    s.append(sum(sigma ** (n // m - 1) * m * a[m] for m in _divisors(n)))


def _grow_online(x: list[int], y: list[int], N: int, append) -> None:
    """Grow y through N by an online convolution: append(n, c) adds entry n
    of y, and of x too when x grows with y, from
    c = sum_(i+j=n, i,j>=1) x_i y_j.

    For the last _LEAF entries or fewer of a request each c is that sum,
    term by term: a packed step packs the whole held table whatever its span,
    so for a few entries the sums are cheaper.  Otherwise y grows from its L
    entries by an online divide-and-conquer (the relaxed convolution) on
    packed exact Decimal products, and the input picks the variant:
    - x known through N: y grows to N at once.  One product x y[:L] takes
      the pairs with y-index below L; each split [l, mid) adds
      y[l:mid] x[:r-l] to [mid, r).
    - x growing with y: the table doubles, to top = min(N, 2L - 1).  One
      product x y[:L] takes the pairs with both indices below L (none has
      both at L or above); each split adds y[l:mid] x[:r-l] and
      x[l:mid] y[:r-l].
    Every partner index is below r - l, so already known.  The pending sums
    stay Decimal until a leaf of at most _LEAF entries [l, r) adds, for each
    n, the pairs whose split-side index lies in [l, n), term by term."""
    known = len(x) > N
    while len(y) <= N:
        L = len(y)
        if N - L < _LEAF:
            append(L, sum(map(mul, x[1:L], y[L - 1:0:-1])))
            continue
        top = N if known else min(N, 2 * L - 1)
        dx = [_digits(v) for v in x[:top + 1]]  # digit strings, for this step only
        dy = [_digits(v) for v in y]
        # y_0 = 0, so at L = 1 the product x y[:L] is zero
        acc = _packed_sum([(dy, dx)], L, top + 1) if L > 1 else [_ZERO] * (top + 1 - L)

        def grow(l: int, r: int) -> None:
            if r - l > _LEAF:
                mid = (l + r) // 2
                grow(l, mid)
                pairs = [(dy[l:mid], dx[:r - l])]
                if not known:
                    pairs.append((dx[l:mid], dy[:r - l]))
                for n, v in enumerate(_packed_sum(pairs, mid - l, r - l), mid - L):
                    acc[n] = _EXACT.add(acc[n], v)
                grow(mid, r)
                return
            for n in range(l, r):
                k = n - l
                c = int(acc[n - L]) + sum(map(mul, y[l:n], x[k:0:-1]))
                if not known:
                    c += sum(map(mul, x[l:n], y[k:0:-1]))
                append(n, c)
                dy.append(_digits(y[n]))
                if not known:
                    dx.append(_digits(x[n]))

        grow(L, top + 1)


def _grow_counts(sigma: int, N: int) -> tuple[list[int], list[int]]:
    """The tables a and s of sign sigma, grown through N: (n - 1) a_n is
    entry n of the product a s (a_0 = s_0 = 0)."""
    a, s = _grown.counts[sigma], _grown.weights[sigma]
    _grow_online(a, s, N, lambda n, c: _append_count(sigma, a, s, c))
    return a, s


def _substituted(a: list[int], N: int, coeff) -> list:
    """sum_{i>=2} sum_k coeff(i, k) a_k z^(i k) through z^N, as a list."""
    out = [0] * (N + 1)
    for i in range(2, N + 1):
        for k in range(1, N // i + 1):
            out[i * k] += coeff(i, k) * a[k]
    return out


def _exp_weights(sigma: int, N: int) -> list[int]:
    """w_0 .. w_N, w_j = j [z^j] sum_{i>=2} sigma^(i-1) A(z^i)/i: the weight
    s_j without its divisor term m = j, which is j a_j."""
    a, s = _grow_counts(sigma, N)
    return [s[j] - j * a[j] for j in range(N + 1)]


def _scaled_exp(f: list[int], sign: int, w: list[int], N: int) -> list[int]:
    """F_n = N! [z^n] exp(sign G), n = 0..N, from w_j = j [z^j] G (w_0 = w_1 = 0)
    and the held prefix f of n! [z^n] exp(sign G); sign is any integer exponent
    (1 gives F = exp(G), -1 its inverse, k its k-th power).  Scaled by one N!,
    the recurrence is the plain convolution n F_n = sign sum_(i>=2) w_i F_(n-i)."""
    F = [v * math.perm(N, N - j) for j, v in enumerate(f[:N + 1])]
    for n in range(len(F), N + 1):  # F_j is a multiple of N!/j!, so n divides every term
        F.append(sign * sum(map(mul, w[2:n + 1], F[n - 2::-1])) // n)
    return F


def _grow_exp(f: list[int], sign: int, w: list[int], N: int) -> list[int]:
    """Grow f, the table of n! [z^n] exp(sign G), through N: the new entries
    of _scaled_exp, each over N!/n!."""
    if len(f) <= N:
        F = _scaled_exp(f, sign, w, N)
        f.extend(F[n] // math.perm(N, N - n) for n in range(len(f), N + 1))
    return f


def _grow_forests(sigma: int, N: int) -> list[int]:
    """The table f of n! d_n for D (sigma = +1) or D* (sigma = -1)."""
    return _grow_exp(_grown.forests[sigma], 1, _exp_weights(sigma, N), N)


def _grow_pointed(sigma: int, N: int) -> list[int]:
    """The table p of A/(1-A), grown through N, from p_n = a_n + sum_(i>=1)
    a_i p_(n-i); a is known through N, so the table grows to N at once."""
    a, _ = _grow_counts(sigma, N)
    p = _grown.pointed[sigma]
    _grow_online(a, p, N, lambda n, c: p.append(a[n] + c))
    return p


def _over_factorials(scaled: list[int], N: int) -> RationalSeries:
    """The series with coefficients scaled[n] / n!, n = 0..N."""
    return RationalSeries(tuple(Q(scaled[n], math.factorial(n)) for n in range(N + 1)))


def polya_int_table(N: int) -> list[int]:
    """t_0 .. t_N as plain ints; (n-1) t_n = sum_i t_{n-i} s(i)."""
    return _grow_counts(1, N)[0][: N + 1]


def polya_coeffs(N: int) -> RationalSeries:
    """Polya-tree counting series T(z) to order N."""
    return RationalSeries.from_coeffs(polya_int_table(N))


def dforest_coeffs(N: int) -> RationalSeries:
    """D(z) = exp(sum_{i>=2} T(z^i)/i), from the integer table of n! d_n."""
    return _over_factorials(_grow_forests(1, N), N)


def pointed_coeffs(N: int) -> RationalSeries:
    """T/(1-T): nodes fixed under a random automorphism, summed over trees."""
    return RationalSeries.from_coeffs(_grow_pointed(1, N)[: N + 1])


def identity_coeffs(N: int) -> RationalSeries:
    """Identity trees R = z exp(sum_i (-1)^(i-1) R(z^i)/i) to order N."""
    return RationalSeries.from_coeffs(_grow_counts(-1, N)[0][: N + 1])


def identity_pointed_coeffs(N: int) -> RationalSeries:
    """R_c = R/(1-R) to order N."""
    return RationalSeries.from_coeffs(_grow_pointed(-1, N)[: N + 1])


def identity_tree_coeffs(N: int) -> tuple[RationalSeries, RationalSeries, RationalSeries]:
    """(R, D*, R_c): identity trees, the signed forest series
    D* = exp(sum_{i>=2} (-1)^(i-1) R(z^i)/i), and R_c = R/(1-R).  D* costs
    about N^4; a caller that needs only R or R_c reads it alone."""
    return (identity_coeffs(N), _over_factorials(_grow_forests(-1, N), N),
            identity_pointed_coeffs(N))


# ---------------------------------------------------------------------------
# hierarchies: the counts come from the held cycle-index table; a hand-written
# recurrence, which holds nothing, is kept as the independent check on it


def hierarchy_int_table(N: int) -> tuple[int, ...]:
    """Counts of Polya trees with no outdegree-1 node, 1, 0, 1, 1, 2, 3, ...,
    by the hand-written recurrence, recomputed on every call."""
    t, s = [0, 1], [0, 1]  # s_i = sum_(m|i) m h_m
    pairs = [0, 1]  # t_k + t_(k-1)
    while len(t) <= N:
        n = len(t)
        total = sum(map(mul, pairs[n - 1 : 1 : -1], s[1 : n - 1]))
        total += s[n - 1] - (n - 1) * t[n - 1]  # proper divisors of n-1 only
        t.append(_exact_quotient(total, n - 1, "hierarchy recurrence"))
        pairs.append(t[n] + t[n - 1])
        s.append(sum(m * t[m] for m in _divisors(n)))
    return tuple(t[: N + 1])


def hierarchy_coeffs(N: int) -> RationalSeries:
    return RationalSeries.from_coeffs(_grow_omega(_grown.hierarchy, N)[: N + 1])


# ---------------------------------------------------------------------------
# rational families around the decomposition T(z) = C(z D(z))


def cayley_coeffs(N: int) -> RationalSeries:
    """C(z) = sum n^(n-1)/n! z^n; the n = 0 coefficient is 0 (no empty tree)."""
    return _over_factorials([0, *(n ** (n - 1) for n in range(1, N + 1))], N)


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


def exact_forest_size_row(n: int, mmax: int) -> tuple[Fraction, ...]:
    """P(forest size = m) at a uniform fixed node of a uniform size-n
    (tree, automorphism) pair, m = 0..mmax; the finite-n row whose limit is
    d_m rho^m / D(rho).  A forest has fewer than n nodes, so m >= n gives 0.
    The fixed nodes of size-n trees whose forest has size m number
    d_m [z^(n-m)] q, q = (T/(1-T)) / D, and n! q_k = sum_j p_(k-j) n! [z^j] 1/D."""
    if n < 1:
        raise ValueError("the exact forest-size row needs n >= 1")
    d, p = dforest_coeffs(min(mmax, n - 1)), _grow_pointed(1, n)
    u = _scaled_exp([1], -1, _exp_weights(1, n), n)
    scale = math.factorial(n) * p[n]
    return tuple(d[m] * Q(sum(map(mul, p[n - m::-1], u)), scale) if m < n else Q(0)
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

    With v marking components, D(z,v) = exp(sum_{i>=2} v^i T(z^i)/i) has
    D gamma and D (gamma^2 + gamma_2 - gamma) as its first two v-derivatives
    at v = 1, so T(z,v) = C(z D(z,v)) gives
    V = x^2 C''(x) gamma^2 + x C'(x) (gamma^2 + gamma_2 - gamma) at x = z D(z).
    There C = T and both factors are polynomials in P = T/(1-T):
    x C' = C/(1-C) = P and x^2 C'' = C^2 (2-C)/(1-C)^3 = P^2 (2+P), so
    V = P (((1+P) gamma)^2 + gamma_2 - gamma).
    Every operand is a nonnegative integer series, gamma_2 - gamma being
    sum_{i>=2} (i-1) T(z^i).
    """
    pointed = pointed_coeffs(N)
    g = gamma_series(N)
    lifted = (RationalSeries.one(N) + pointed) * g  # gamma/(1-T)
    return pointed * (lifted * lifted + gamma2_series(N) - g)


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
        Q(_scaled_exp([1], -n, w, n - 1)[n - 1], math.factorial(n))
        for n in range(1, N + 2)))


# ---------------------------------------------------------------------------
# bivariate families


def _marked_rows(sigma: int, N: int) -> BivariateSeries:
    """Rows of C(u z F(z)) for the forest series F = D (sigma = +1) or D*
    (sigma = -1), u marking the skeleton nodes (the fixed nodes):
    [u^k z^n] = c_k [z^j] F^k with j = n - k, and F^k is the exp table of
    sign k, whose entry j is (N - k)! [z^j] F^k."""
    rows = [[0] * (n + 1) for n in range(N + 1)]
    w = _exp_weights(sigma, N)
    for k in range(1, N + 1):
        scale = math.factorial(k) * math.factorial(N - k)
        for j, v in enumerate(_scaled_exp([1], k, w, N - k)):
            rows[k + j][k] = Q(k ** (k - 1) * v, scale)
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


class OmegaSet(NamedTuple):
    """An allowed-outdegree set: the listed outdegrees or, if cofinite, every
    outdegree but the listed ones."""

    listed: frozenset[int]
    cofinite: bool

    @staticmethod
    def parse(text: str) -> "OmegaSet":
        """Accepts 'all', 'all-except:1,2', or a comma list like '0,2'."""
        text = text.strip().lower()
        cofinite = text == "all" or text.startswith("all-except:")
        body = "" if text == "all" else text.removeprefix("all-except:")
        values = [int(v) for v in body.split(",") if v.strip()]
        if any(v < 0 for v in values):
            raise ValueError(f"outdegrees cannot be negative: {text!r}")
        return OmegaSet(frozenset(values), cofinite)

    def allows(self, k: int) -> bool:
        return (k in self.listed) != self.cofinite

    def describe(self) -> str:
        listed = ",".join(str(v) for v in sorted(self.listed))
        if not self.cofinite:
            return "{" + listed + "}"
        return "all-except:" + listed if listed else "all"


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
    """Grow the table through N: a_(m+1) is the sum of p_k(m) over the listed
    k or, for a cofinite omega, e_m minus that sum."""
    omega, a, p, s, e = table.omega, table.a, table.p, table.s, table.e
    top = max(omega.listed, default=0)
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
                p[k].append(_exact_quotient(total, k, "cycle-index row"))
            if omega.cofinite:
                s.append(sum(d * a[d] for d in _divisors(m)))
                e.append(_exact_quotient(sum(map(mul, s[1:], e[::-1])), m,
                                         "multiset recurrence"))
        rows = sum(p[k][m] for k in omega.listed if k < len(p))
        a.append(e[m] - rows if omega.cofinite else rows)
    return a


def omega_polya_coeffs(omega: OmegaSet, N: int) -> RationalSeries:
    """Counting series of Polya trees whose every outdegree lies in omega:
    A = z sum_{k in omega} Z(S_k; A(z), A(z^2), ..., A(z^k))."""
    return RationalSeries.from_coeffs(_grow_omega(_OmegaTable(omega), N))


_grown = _Grown()


def binary_int_table(N: int) -> tuple[int, ...]:
    """Counts of Polya trees with outdegrees in {0, 2}; zero at even sizes."""
    return tuple(_grow_omega(_grown.binary, N)[: N + 1])


def binary_polya_coeffs(N: int) -> RationalSeries:
    return RationalSeries.from_coeffs(binary_int_table(N))
