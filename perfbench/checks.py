"""Correctness checks for the benchmark, run outside every timed region.

Each check compares a timed output with a route that does not share the code
being timed: the brute-force oracle for n <= ORACLE_MAX, a second recurrence
(`dforest_coeffs_exp_route`, `hierarchy_int_table`, plain integer
convolutions written here), known constants, or the output of a smaller
request.  A check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import math
from fractions import Fraction

ORACLE_MAX = 10
EXP_ROUTE_ORDER = 30
RESIDUAL_TOL = 1e-10
SHIFT_TOL = 1e-6
# radius of convergence of the Polya-tree series (Otter's constant)
OTTER_RHO = 0.3383218568992076951961126
# growth constant of the Wedderburn-Etherington numbers; binary tau = WE^(-1/2)
WE_GROWTH = 2.4832535361726368585
# exact E L_500 from the exact finite-n law (acceptance criterion 9)
LMAX_MEAN_500 = 6.6383


def _mismatches(label: str, got, want) -> list[str]:
    """Compare the common prefix; callers check lengths themselves."""
    return [f"{label}[{k}]: {g} != {w}"
            for k, (g, w) in enumerate(zip(got, want)) if g != w][:3]


class References:
    """Independent reference values, each computed once per process."""

    def __init__(self) -> None:
        from polyakit import families, oracle
        self.families, self.oracle = families, oracle
        trees = [()] + [oracle.enumerate_trees(n)
                        for n in range(1, ORACLE_MAX + 1)]
        hier = families.OmegaSet.parse("all-except:1")
        self.tree_counts = [0] + [len(ts) for ts in trees[1:]]
        self.pointed = [0] + [sum(oracle.pointed_tree_count(t) for t in ts)
                              for ts in trees[1:]]
        self.identity = [0] + [sum(1 for t in ts if oracle.is_identity_tree(t))
                               for ts in trees[1:]]
        self.hierarchy = [0] + [len(oracle.enumerate_trees(n, hier))
                                for n in range(1, ORACLE_MAX + 1)]
        self.forest = [sum((oracle.forest_weight(f)
                            for f in oracle.enumerate_dforests(n)), Fraction(0))
                       for n in range(ORACLE_MAX + 1)]
        self.fixed_point_rows = {
            n: sum((oracle.fixed_point_polynomial(t) for t in trees[n]),
                   oracle.UPoly.zero()).coeffs
            for n in range(1, 9)}
        self.dforest_exp = families.dforest_coeffs_exp_route(EXP_ROUTE_ORDER).coeffs
        self.composition_t = families.polya_composition_route(EXP_ROUTE_ORDER).coeffs

    def polya(self, n: int) -> list[int]:
        return self.families.polya_int_table(n)

    def pointed_from_ints(self, n: int) -> list[int]:
        """[z^k] T/(1-T) from P = T + T P, in plain integers."""
        t = self.polya(n)
        p = [0] * (n + 1)
        for k in range(1, n + 1):
            p[k] = t[k] + sum(t[i] * p[k - i] for i in range(1, k))
        return p


# ---------------------------------------------------------------------------
# series families (shared by the CLI and the library sweep)


def check_polya_prefix(refs: References, t) -> list[str]:
    return (_mismatches("t", t, refs.tree_counts)
            + _mismatches("t(C(zD))", t, refs.composition_t))


def check_dforest(refs: References, d) -> list[str]:
    return (_mismatches("d vs exp route", d, refs.dforest_exp)
            + _mismatches("d vs oracle", d, refs.forest))


def check_pointed(refs: References, p) -> list[str]:
    n = len(p) - 1
    return (_mismatches("pointed vs oracle", p, refs.pointed)
            + _mismatches("pointed vs T+TP", p, refs.pointed_from_ints(n)))


def check_identity(refs: References, r) -> list[str]:
    return _mismatches("r vs oracle", r, refs.identity)


def check_e_series(refs: References, e) -> list[str]:
    """R(z E(z)) = C(z) through z^ORACLE_MAX, with R from the oracle census."""
    n = min(len(e), ORACLE_MAX)
    w = [Fraction(0)] + list(e[:n])            # z E(z), through z^n
    lhs = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n  # w^k
    for k in range(1, n + 1):
        power = [sum(power[i] * w[m - i] for i in range(m + 1))
                 for m in range(n + 1)]
        for m in range(n + 1):
            lhs[m] += refs.identity[k] * power[m]
    cayley = [Fraction(0)] + [Fraction(m ** (m - 1), math.factorial(m))
                              for m in range(1, n + 1)]
    return _mismatches("R(zE) vs C", lhs, cayley)


def check_ctree_rows(refs: References, rows) -> list[str]:
    """rows[n] is the coefficient list of the fixed-node polynomial."""
    t = refs.polya(len(rows) - 1)
    sums = [sum(r, Fraction(0)) for r in rows]
    bad = _mismatches("ctree row sums vs t_n", sums, t) \
        + check_polya_prefix(refs, sums)
    for n, want in refs.fixed_point_rows.items():
        if n < len(rows) and tuple(rows[n]) + (0,) * (len(want) - len(rows[n])) \
                != tuple(want):
            bad.append(f"ctree row {n} != oracle fixed-point polynomial sum")
    return bad


def check_dforest_components(refs: References, rows) -> list[str]:
    sums = [sum(r, Fraction(0)) for r in rows]
    return _mismatches("D(z,1) vs exp route", sums, refs.dforest_exp)


def check_hierarchy(refs: References, a) -> list[str]:
    n = len(a) - 1
    ints = refs.families.hierarchy_int_table(n)
    return (_mismatches("omega all-except:1 vs oracle", a, refs.hierarchy)
            + _mismatches("omega all-except:1 vs hierarchy table", a, ints))


def check_polya_singularity(rho: float, residual: float, shift: float) -> list[str]:
    bad = []
    if not (residual < RESIDUAL_TOL and shift < SHIFT_TOL):
        bad.append(f"polya solve not converged: residual {residual}, shift {shift}")
    if abs(rho - OTTER_RHO) > 1e-7:
        bad.append(f"rho {rho} != Otter's constant")
    return bad


def check_variant(family: str, tau: float, residual: float,
                  shift: float) -> list[str]:
    bad = []
    if not (residual < RESIDUAL_TOL and shift < SHIFT_TOL):
        bad.append(f"{family} solve not converged: residual {residual}, shift {shift}")
    if family == "binary" and abs(1 / tau ** 2 - WE_GROWTH) > 1e-5:
        bad.append(f"binary tau {tau}: 1/tau^2 != Wedderburn-Etherington growth")
    return bad


def check_forest_size_table(refs: References, payload: dict) -> list[str]:
    """Asymptotic row = d_m rho^m / D(rho) with D(rho) = 1/(e rho); the exact
    finite-n row is a sub-probability law close to it."""
    asym, exact = payload["asymptotic"], payload["exact"]
    bad = []
    for m, (a, x) in enumerate(zip(asym, exact)):
        want = float(refs.dforest_exp[m]) * OTTER_RHO ** (m + 1) * math.e
        if abs(a - want) > 1e-6:
            bad.append(f"asymptotic[{m}] {a} != {want}")
        if not 0 <= x <= 1 or abs(x - a) > 0.01:
            bad.append(f"exact[{m}] {x} not a probability near {a}")
    if exact[1] != 0 or sum(exact) > 1 + 1e-12:
        bad.append("exact row: size 1 is impossible and the row sums to <= 1")
    return bad


def check_lmax_cdf(cdf: list[float], mean: float) -> list[str]:
    bad = []
    if any(b < a for a, b in zip(cdf, cdf[1:])):
        bad.append("L_n CDF decreases")
    if abs(1 - cdf[-1]) > 1e-9:
        bad.append(f"L_n CDF ends at {cdf[-1]}, not within 1e-9 of 1")
    if sum(1.0 - p for p in cdf) != mean:
        bad.append("E L_n differs from the sum over its CDF")
    return bad


# ---------------------------------------------------------------------------
# sampled trees


def canonical_encoding(encoding: str) -> str:
    """Re-canonicalise a parenthesis encoding: children sorted by (size, text)."""
    stack: list[list[str]] = [[]]
    for ch in encoding:
        if ch == "(":
            stack.append([])
        elif ch == ")" and len(stack) > 1:
            kids = stack.pop()
            kids.sort(key=lambda s: (len(s), s))
            stack[-1].append("(" + "".join(kids) + ")")
        else:
            return ""
    return stack[0][0] if len(stack) == 1 and len(stack[0]) == 1 else ""


def check_tree(n: int, encoding: str, size: int) -> list[str]:
    bad = []
    if size != n or len(encoding) != 2 * n:
        bad.append(f"tree size {size} (encoding {len(encoding) // 2}) != {n}")
    if canonical_encoding(encoding) != encoding:
        bad.append("tree does not re-canonicalise to its own encoding")
    return bad


def check_decomposition(n: int, c_size: int, l_max: int, y_count: int,
                        hist: dict[int, int]) -> list[str]:
    nonempty = sum(c for m, c in hist.items() if m > 0)
    if (c_size >= 1 and sum(hist.values()) == c_size
            and c_size + sum(m * c for m, c in hist.items()) == n
            and l_max == max(hist) and y_count >= 2 * nonempty):
        return []
    return [f"decomposition ({c_size}, {l_max}, {y_count}) inconsistent at n={n}"]
