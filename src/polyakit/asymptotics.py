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
from itertools import count, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from . import families
from .families import _divisors, _grow_counts, _grow_forests, _grow_hierarchy, _grow_omega

DEFAULT_ORDER = 400

# every root is also solved at order + ROOT_SHIFT_ORDERS to see how far it
# moves; past MAX_ORDER the count at that raised order no longer fits in a float
ROOT_SHIFT_ORDERS = 80
MAX_ORDER = {"polya": 584, "hierarchy": 839, "binary": 1504}

# A Horner pass leaves out the terms whose sum stays below TAIL_MARGIN times
# the term where the table's growth bound starts: 2^-110 is the square of the
# double unit roundoff with four bits to spare, so the cut tail never reaches
# the last bit of the result.  The full loop is the reference route in the
# tests.
TAIL_MARGIN = 2.0 ** -110
_LN_TAIL_MARGIN = math.log(TAIL_MARGIN)

# the forest-size rows read the table of D this many terms at a time
_FOREST_CHUNK = 128

# _bisect evaluates g only within this distance of its secant bracket: each
# solver's g rises by g' * _NEAR there, far above its float error (1e-15 and
# 1e-14 gave the same roots at every order)
_NEAR = 1e-13


class OrderTooLarge(ValueError):
    """A truncation order past the float range of a solver's tables."""


class _FloatTable:
    """Float coefficients c_0 .. c_order of a power series, each converted
    when a sum first reads it, with a fixed bound r on their growth from an
    anchor index on: |c_k| <= |c_first| r^(k-first) for every k past first,
    the first nonzero coefficient at or after the anchor.  more(lo, hi)
    gives c_lo .. c_hi; bounds holds the pair (anchor, r), then the pairs of
    the tables of the successive derivatives.  cut_short records whether a
    sum wanted terms past c_order."""

    def __init__(self, more: Callable[[int, int], Iterable[float]], order: int,
                 bounds: tuple[tuple[int, float], ...]) -> None:
        self.more, self.order, self.bounds = more, order, bounds
        anchor, self.ratio = bounds[0]
        self.coeffs: list[float] = []
        self.cut_short = False
        self.first = next((k for k in range(anchor, order + 1)
                           if self.read(k)[k]), anchor)

    def read(self, top: int) -> list[float]:
        """The coefficients, converted at least through c_top."""
        if len(self.coeffs) <= top:
            self.coeffs += self.more(len(self.coeffs), top)
        return self.coeffs


def _count_table(family: str, order: int) -> _FloatTable:
    """The float table of the family's counts t_0 .. t_order, with the row's
    growth bounds; each read converts only the new counts of the held list."""
    counts, _, _, bounds, _ = _FAMILIES[family]
    return _FloatTable(lambda lo, hi: map(float, counts(hi)[lo:hi + 1]), order,
                       bounds)


def _derivative_table(table: _FloatTable) -> _FloatTable:
    """The table of the series' derivative, (k + 1) c_(k+1) at k, grown from
    the floats of table as far as it is read."""
    def more(lo: int, hi: int) -> list[float]:
        coeffs = table.read(hi + 1)
        return [k * coeffs[k] for k in range(lo + 1, hi + 2)]
    return _FloatTable(more, table.order - 1, table.bounds[1:])


def _horner_sum(table: _FloatTable, args: Sequence[float],
                weights: Iterable[float]) -> float:
    """sum of w * series(y) over the pairs (y, w) of args and weights, each
    series value by Horner's rule over the coefficients c_0 .. c_K, K the
    degree past which the terms cannot reach the last bit, or c_order if
    that comes first.

    With q = r|y| < 1 the terms after K sum to at most
    q^(K+1-first)/(1-q) times the term at first, which is below TAIL_MARGIN
    for K = first + 1 + ceil((ln TAIL_MARGIN + ln(1-q)) / ln q); the terms
    before first are always summed.  When q is too close to 1 for that K to
    fall inside the table, every term is used and the table records that
    the sum was cut short.  K does not depend on how much of the table is
    converted, so every sum is the one the whole table gives.
    """
    first, ratio, order = table.first, table.ratio, table.order
    total = 0.0
    for y, w in zip(args, weights):
        q = ratio * abs(y)
        top = order + 1
        if 0.0 < q < 1.0:
            top = first + 1 + math.ceil(
                (_LN_TAIL_MARGIN + math.log1p(-q)) / math.log(q))
        if top > order:
            table.cut_short, top = True, order
        acc = 0.0
        for c in reversed(table.read(top)[:top + 1]):
            acc = acc * y + c
        total += w * acc
    return total


def _bisect(g: Callable[[float], float], lo: float, hi: float) -> float:
    """The point where bisection of [lo, hi] on the sign of g ends, found
    with under half of its evaluations of g for the solvers' equations.

    The evaluated bracket g(a) <= 0 < g(b) comes from bisection's own first
    midpoints: they are halved as bisection halves them until one has
    g <= 0 and another g > 0.  Only when every midpoint falls on one side
    is g evaluated at lo or hi, and the bracket is checked there; the check
    assumes an increasing g, whose midpoints then need no check.  The ends
    are never read otherwise, and an end can lie past a series' radius of
    convergence, where its sum would read the whole table.

    Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) then closes the
    bracket to width _NEAR; then the bisection runs from (lo, hi) as it
    always did, but a midpoint _NEAR or more below a goes low and one _NEAR
    or more above b goes high without evaluating g.  For an increasing g
    whose float error is below g' * _NEAR, g's sign at such a midpoint is
    the one bisection would read, so the result is the plain bisection's to
    the last bit.
    """
    a, b, ga, gb = lo, hi, None, None
    while ga is None or gb is None:
        mid = (a + b) / 2
        if mid in (a, b):
            break
        gm = g(mid)
        if gm <= 0:
            a, ga = mid, gm
        else:
            b, gb = mid, gm
    if ga is None:  # every midpoint had g > 0, so a is still lo
        ga = g(lo)
    if gb is None:
        gb = g(hi)
    if ga > 0 or gb < 0:
        raise ValueError("root not bracketed")
    side = 0
    # the solvers take 8 or 9 steps; a g that is flat left of its root, or
    # very steep right of it, moves a by only _NEAR/2 a step, so the steps are
    # bounded, and the bisection below is right from any bracket
    for _ in range(40):
        if b - a <= _NEAR or gb <= ga:  # narrow enough, or no secant (g = 0)
            break
        # the secant point, kept _NEAR/2 inside so that the far end moves too;
        # where floats are spaced wider than _NEAR/2 it can land on a or b
        x = min(max(a - ga * (b - a) / (gb - ga), a + _NEAR / 2), b - _NEAR / 2)
        if not a < x < b:
            break
        gx = g(x)
        if gx <= 0:
            a, ga = x, gx
            if side < 0:
                gb /= 2
            side = -1
        else:
            b, gb = x, gx
            if side > 0:
                ga /= 2
            side = 1
    low, high = a - _NEAR, b + _NEAR
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if mid <= low or (mid < high and g(mid) <= 0):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def _substituted_sum(table: _FloatTable, x: float, start: int,
                     weights: Iterable[float]) -> float:
    """sum over i >= start of w_i * series(x^i), the weights w_start,
    w_(start+1), ... in order; |x| < 1 required.

    The arguments x^i shrink geometrically, so each evaluation sits far
    inside the radius; the i-sum is cut when x^i underflows the tolerance.
    A derivative of such a sum is another, by the chain rule: d/dx of
    A(x^i) is i x^(i-1) A'(x^i), read from the derivative's table.
    """
    args = []
    xi = x ** (start - 1)
    for _ in range(start, 2000):
        xi *= x
        if abs(xi) < 1e-25:
            break
        args.append(xi)
    return _horner_sum(table, args, weights)


def _forest_value(t: _FloatTable, x: float, start: int = 2) -> float:
    """exp(sum_{i>=start} A(x^i)/i) from the float coefficients of A: the
    forest series D(x) for A = T and start 2."""
    return math.exp(_substituted_sum(t, x, start,
                                     (1.0 / i for i in count(start))))


# each family's held count list grown through n, the equation g(table, x) whose
# root in the bracket is its singularity, that bracket, the growth bounds of
# its float table and of its derivative's table, and for a variant the rule
# mu(table, tau) for E|C_n|/n -> 1/(1+mu).  Each bound is a pair (anchor,
# r): r is the largest consecutive ratio |c_b/c_a|^(1/(b-a)), a >= anchor, of
# the exact table at the largest order a solve builds, rounded up:
# MAX_ORDER + ROOT_SHIFT_ORDERS for the counts (reached there, as the ratios
# rise towards 1/rho), MAX_ORDER for the derivatives (reached at a small
# index: 3, 5/2 and sqrt(3) for the first).  The ratios of the Polya second
# derivative, which only decomposition_constants reads, fall from 6 at its
# first index towards 1/rho, so its bound holds from index 5, where the
# largest later ratio is 3.1975...; that anchor makes its sum at rho^2
# shortest, 84 terms where the bound 6 from index 0 needs 208
_FAMILIES = {
    # e x D(x) - 1, from T(rho) = 1 (see the module docstring)
    "polya": (lambda n: _grow_counts(1, n)[0],
              lambda t, x: math.e * x * _forest_value(t, x) - 1.0,
              (0.25, 0.45), ((0, 2.94909), (0, 3.0), (5, 3.197516)), None),
    # no outdegree 1: H = (z/(1+z)) exp(sum_i H(z^i)/i) has H(tau) = 1 at the
    # singularity, so tau solves (tau/(1+tau)) e exp(sum_{i>=2} H(tau^i)/i) = 1
    "hierarchy": (_grow_hierarchy,
                  lambda h, x: (x / (1 + x)) * math.e * _forest_value(h, x) - 1.0,
                  (0.3, 0.6), ((0, 2.185889), (0, 2.5)),
                  lambda h, x: x ** 2 * math.e * _forest_value(h, x)
                  * _substituted_sum(_derivative_table(h), x, 2,
                                     (x ** (i - 1) for i in count(2)))),
    # outdegrees {0, 2}: B = z + (z/2)B^2 + (z/2)B(z^2) with B(tau) = 1/tau at
    # the singularity gives tau^2 B(tau^2) + 2 tau^2 - 1 = 0, tau^2 well inside.
    # mu = tau^2/B(tau) * d/dx[(B(tau)^2 + B(x^2))/2] at x = tau; the first
    # slot of the pair cycle index is held fixed, so only B(x^2) contributes
    "binary": (lambda n: _grow_omega(families._grown.binary, n),
               lambda b, x: _horner_sum(b, [x * x], [x * x]) + 2 * x * x - 1.0,
               (0.5, 0.75), ((0, 1.574341), (0, 1.7320509)),
               lambda b, x: _horner_sum(_derivative_table(b), [x * x], [x ** 4])),
}


def _solve(family: str, order: int) -> tuple[_FloatTable, float, float, float]:
    """The family's float table at the truncation order, the root of its
    equation there, the residual |g(table, root)|, and how far the root moves
    when the order is raised by ROOT_SHIFT_ORDERS.

    The raised order is solved only when a sum of this solve was cut short
    by the end of the table: otherwise every g the raised solve evaluates
    reads the same coefficients at the same points, so its root is this
    one and the shift is exactly 0."""
    if order > MAX_ORDER[family]:
        raise OrderTooLarge(
            f"order {order} is too large for the {family} solver: its "
            f"largest order is {MAX_ORDER[family]}, past which the counts "
            "overflow a float")
    _, g, (lo, hi), _, _ = _FAMILIES[family]
    table = _count_table(family, order)
    x = _bisect(lambda y: g(table, y), lo, hi)
    residual, shift = abs(g(table, x)), 0.0
    if table.cut_short:
        raised = _count_table(family, order + ROOT_SHIFT_ORDERS)
        shift = abs(x - _bisect(lambda y: g(raised, y), lo, hi))
    return table, x, residual, shift


# families._grown.solves holds each family's last solve, (low, high, record);
# the Polya one is the only hand-off of rho.  low, the reach, is the highest
# count the bisection, residual and record read.  A cut sum, also through a
# derivative's table, reads the last count, so a reach below the order shows no
# sum was cut and every order from the reach on reads the same terms: the solve
# covers them.  A solve that read its last count covers only its own order.
def _solved(family: str, order: int) -> tuple[tuple, _FloatTable]:
    """The family's solve record at the order, and its count table there."""
    solves = families._grown.solves
    low, high, held = solves.get(family, (1, 0, None))
    if low <= order <= high:
        return held._replace(order=order), _count_table(family, order)
    table, x, residual, shift = _solve(family, order)
    mu = _FAMILIES[family][4]
    held = (_polya_record(table, x, residual, shift, order) if mu is None else
            VariantSingularity(family, x, mu(table, x), residual, shift, order))
    low = len(table.coeffs) - 1
    solves[family] = (low, MAX_ORDER[family] if low < order else order, held)
    return held, table


# ---------------------------------------------------------------------------
# the main tree family


class PolyaSingularity(NamedTuple):
    rho: float
    b: float
    c: float
    d_rho: float        # D(rho) = 1/(e rho)
    d_prime_rho: float  # from the series; equals (b^2 rho/2 - 1)/(e rho^2)
    residual: float     # |rho * e * D(rho) - 1|
    rho_shift: float    # root movement when the truncation order is raised
    order: int


def _polya_record(t: _FloatTable, rho: float, residual: float,
                  rho_shift: float, order: int) -> PolyaSingularity:
    d_rho = _forest_value(t, rho)
    # D' = D * d/dx sum_{i>=2} T(x^i)/i = D * sum_{i>=2} x^(i-1) T'(x^i)
    d_prime_rho = d_rho * _substituted_sum(_derivative_table(t), rho, 2,
                                           (rho ** (i - 1) for i in count(2)))
    b = math.sqrt(2 * math.e * (d_rho + rho * d_prime_rho))
    return PolyaSingularity(rho, b, b * b / 3, d_rho, d_prime_rho, residual,
                            rho_shift, order)


def solve_polya_singularity(order: int = DEFAULT_ORDER) -> PolyaSingularity:
    """rho, and the square-root expansion T = 1 - b sqrt(rho-z) + c(rho-z)."""
    return _solved("polya", order)[0]


# ---------------------------------------------------------------------------
# constants of the forest series D around +-sqrt(rho)


class ForestAsymptotics(NamedTuple):
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


def forest_asymptotics(order: int = DEFAULT_ORDER) -> ForestAsymptotics:
    sing, t = _solved("polya", order)
    r = math.sqrt(sing.rho)
    xi_p, xi_m = _forest_value(t, r, start=3), _forest_value(t, -r, start=3)
    # the i=2 term of gamma(+-sqrt(rho)) is T(rho) = 1 exactly; the truncated
    # series converges like n^(-1/2) there and must not be used
    v_p = _substituted_sum(t, r, 3, repeat(1.0))
    v_m = _substituted_sum(t, -r, 3, repeat(1.0))
    mu_even = (xi_p * v_p + xi_m * v_m) / (xi_p + xi_m)
    mu_odd = (xi_p * v_p - xi_m * v_m) / (xi_p - xi_m)

    gamma_rho = _substituted_sum(t, sing.rho, 2, repeat(1.0))
    gamma2_rho = _substituted_sum(t, sing.rho, 2, map(float, count(2)))
    gp = _substituted_sum(_derivative_table(t), sing.rho, 2,
                          (i * sing.rho ** (i - 1) for i in count(2)))

    return ForestAsymptotics(
        rho=sing.rho, b=sing.b,
        xi_plus=xi_p, xi_minus=xi_m,
        gamma_rho=gamma_rho, gamma_prime_rho=gp, gamma2_rho=gamma2_rho,
        mu_even=mu_even, mu_odd=mu_odd,
    )


# ---------------------------------------------------------------------------
# decomposition constants of a random tree


def _forest_terms(rho: float, mmax: int) -> list[float]:
    """d_m rho^m for m = 0..mmax, each the correctly rounded float of the
    exact rational f_m num^m / (m! den^m), with f_m = m! d_m read off the
    table of D and rho = num/den: float(d_m) and rho^m leave the float range
    first, and an int quotient rounds as float(Fraction) does.  D is grown
    _FOREST_CHUNK terms at a time.  Even and odd m each decay like
    rho^(m/2), so once two consecutive terms round to 0.0 all later ones do:
    they are padded as zeros, and D is grown no further."""
    num, den = rho.as_integer_ratio()
    power, scale = 1, 1  # num^m and m! den^m
    terms: list[float] = []
    for m in range(mmax + 1):
        if terms[-2:] == [0.0, 0.0]:
            return terms + [0.0] * (mmax + 1 - m)
        if m % _FOREST_CHUNK == 0:
            f = _grow_forests(1, min(mmax, m + _FOREST_CHUNK - 1))
        if m:
            power *= num
            scale *= m * den
        terms.append(f[m] * power / scale)
    return terms


class DecompositionConstants(NamedTuple):
    rho: float
    b: float
    c_share: float          # 2/(b^2 rho): limit of E|C_n|/n
    c_var_coeff: float      # mu^2 + mu^3 (rho^2 G''(rho) - 1): limit of Var|C_n|/n
    mean_forest_size: float  # b^2 rho/2 - 1
    y_share: float          # 2 gamma(rho)/(b^2 rho): limit of E Y_n/n
    gamma_rho: float
    d_rho: float

    def forest_size_distribution(self, mmax: int) -> list[float]:
        """Limiting P(|F(v)| = m) for a random skeleton node, m = 0..mmax."""
        return [v / self.d_rho for v in _forest_terms(self.rho, mmax)]

    def conditional_forest_size(self, mmax: int) -> list[float]:
        """Same conditioned on a nonempty forest, m = 2..mmax."""
        denom = self.d_rho - 1.0
        return [v / denom for v in _forest_terms(self.rho, mmax)[2:]]

    def lmax_location(self, n: int) -> float:
        return -2 * math.log(n) / math.log(self.rho)

    def lmax_interval(self, n: int, s: float) -> tuple[float, float]:
        center = self.lmax_location(n)
        eps = math.log(n) ** (-s)
        return ((1 - eps) * center, (1 + eps) * center)


def decomposition_constants(order: int = DEFAULT_ORDER) -> DecompositionConstants:
    """The limits of the skeleton and forest statistics of a random tree.

    |C_n| has mean and variance per node from the quasi-powers theorem
    (Flajolet-Sedgewick, Analytic Combinatorics, Thm IX.9) applied to
    rho(u), the root of 1 + log u + log z + G(z) = 0 with G = log D =
    sum_{i>=2} T(z^i)/i: mu = 1/(1 + rho G'(rho)) = 2/(b^2 rho), and
    sigma^2 = -(log rho)''(log u) = mu^2 + mu^3 (rho^2 G''(rho) - 1), where
    G''(z) = sum_{i>=2} (i-1) z^(i-2) T'(z^i) + i z^(2i-2) T''(z^i).
    """
    sing, t = _solved("polya", order)
    rho = sing.rho
    gamma_rho = _substituted_sum(t, rho, 2, repeat(1.0))
    b2rho = sing.b ** 2 * rho
    mu = 2 / b2rho
    dt = _derivative_table(t)
    g2 = (_substituted_sum(dt, rho, 2,
                           ((i - 1) * rho ** (i - 1) for i in count(2))) / rho
          + _substituted_sum(_derivative_table(dt), rho, 2,
                             (i * rho ** (2 * i - 2) for i in count(2))))
    return DecompositionConstants(
        rho=rho, b=sing.b,
        c_share=mu,
        c_var_coeff=mu ** 2 + mu ** 3 * (rho ** 2 * g2 - 1),
        mean_forest_size=b2rho / 2 - 1,
        y_share=2 * gamma_rho / b2rho,
        gamma_rho=gamma_rho,
        d_rho=sing.d_rho,
    )


# ---------------------------------------------------------------------------
# outdegree-restricted variants


class VariantSingularity(NamedTuple):
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


def solve_variant_singularity(family: str,
                              order: int = DEFAULT_ORDER) -> VariantSingularity:
    """The singularity tau and mu of a variant family, "hierarchy" (no
    outdegree 1) or "binary" (outdegrees {0, 2}), from its row of _FAMILIES."""
    if family not in _FAMILIES or _FAMILIES[family][4] is None:
        raise ValueError(f"unknown variant family: {family}")
    return _solved(family, order)[0]


# ---------------------------------------------------------------------------
# exact scaled-float coefficients at large n (max forest size law)


def lmax_cdf_exact(n: int, kmax: int) -> list[float]:
    """P[L_n <= K] for K = 0..kmax from the composition with truncated forests.

    Capping every skeleton node's forest at size K replaces the forest series
    by its degree-K truncation inside Y = z e^Y D(z), so the K-th CDF value
    is the coefficient ratio [z^n]Y_K / t_n.  Computed in the scaled variable
    z -> rho z (rho at the default order), where every series involved has
    bounded positive coefficients, so plain floats are accurate to roundoff.

    The capped forests are the terms d_m rho^m of _forest_terms, the list the
    limit rows divide, and t_n rho^n comes from the scaled Euler recurrence.
    All caps advance together, one degree at a time: row K of y/e^y holds
    Y_K.  A capped forest has at most K + 1 terms, so its y step costs
    O(kmax) per row and degree; the exp step runs once over all rows.  A
    forest of a size-n tree has at most n - 1 nodes, so the caps past n - 1
    equal cap n - 1 and only rows 0..min(kmax, n - 1) are computed.

    The last law is families._grown.law, (rho, y, e^y, t, s), t and s the
    column t_m rho^m and its divisor sums, grown in the same degree loop: row
    count caps + 1 and degree n are read off y's shape.  A request with the
    same rho and cap count extends it from the degree reached, and the
    degree-m step reads only columns below m, so every column is the one a
    fresh law computes; any other replaces it.
    """
    if n < 1:
        raise ValueError(f"lmax_cdf_exact needs n >= 1, got {n}")
    if kmax < 0:
        raise ValueError(f"lmax_cdf_exact needs kmax >= 0, got {kmax}")
    import numpy as np

    grown = families._grown
    rho = solve_polya_singularity().rho
    caps = min(kmax, n - 1)
    if grown.law is None or grown.law[0] != rho or len(grown.law[1]) != caps + 1:
        grown.law = (rho, np.zeros((caps + 1, 1)), np.ones((caps + 1, 1)),
                     np.zeros(1), np.zeros(1))
    _, y, ey, t, s = grown.law
    grown.law = None  # the held arrays go as their grown copies are made
    degree = y.shape[1] - 1
    if n > degree:
        # row K of trunc is the forest capped at degree K
        trunc = np.tril(np.tile(_forest_terms(rho, caps), (caps + 1, 1)))
        y = np.pad(y, ((0, 0), (0, n - degree)))
        ey = np.pad(ey, ((0, 0), (0, n - degree)))
        t, s = np.pad(t, (0, n - degree)), np.pad(s, (0, n - degree))
        idx = np.arange(n + 1)
        power = (rho ** np.arange(n)).tolist()  # rho^k for k < n
        for m in range(degree + 1, n + 1):
            # y_m = [w^m] (rho w) e^y forest: the scaled z carries a rho
            back = ey[:, m - 1 :: -1]
            j = min(m, caps + 1)
            y[:, m] = rho * np.einsum("ij,ij->i", trunc[:, :j], back[:, :j])
            ey[:, m] = np.einsum("j,ij,ij->i", idx[1 : m + 1], y[:, 1 : m + 1],
                                 back[:, :m]) / m
            # (m-1) t_m = sum_(i<m) t_(m-i) s_i, s_m = sum_(d|m) d t_d rho^(m-d)
            t[m] = rho if m == 1 else (t[m - 1 : 0 : -1] @ s[1:m]) / (m - 1)
            for d in _divisors(m):  # in increasing d, as a fresh column adds
                s[m] += d * t[d] * power[m - d]
    grown.law = (rho, y, ey, t, s)
    cdf = (y[:, n] / t[n]).tolist()
    return cdf + cdf[-1:] * (kmax - caps)


def lmax_exact_mean(n: int) -> float:
    """E L_n from the exact CDF, cut past the distribution's tail."""
    # a node's forest holds at most n - 1 nodes, so kmax = n is always exact
    cdf = lmax_cdf_exact(n, min(n, max(64, int(8 * math.log(n)))))
    if 1.0 - cdf[-1] > 1e-9:
        raise ValueError("kmax too small for the requested size")
    return float(sum(1.0 - p for p in cdf))
