"""Enumeration-vs-series equivalence matrix.

Every check recomputes one quantity along two structurally independent
routes (explicit tree/forest enumeration vs coefficient recurrences, or a
closed form vs brute-force automorphism enumeration) and demands exact
rational equality.  A single report row summarizes each equivalence over its
size range; `oracle_max` caps every range so the whole matrix stays cheap.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .families import (OmegaSet, binary_int_table, cayley_coeffs,
                       ctree_polynomials, dforest_coeffs, hierarchy_int_table,
                       identity_coeffs, identity_tree_coeffs, pointed_coeffs,
                       polya_int_table)
from .oracle import (aut_order, ctree_weight, enumerate_dforests,
                     enumerate_trees, fixed_point_polynomial, forest_weight,
                     is_identity_tree, naive_automorphisms,
                     naive_forest_weight, naive_signed_forest_weight,
                     odd_permutation, plane_embeddings, pointed_tree_count,
                     signed_fixed_point_polynomial, signed_forest_weight,
                     _labeled_children)
from .series import UPoly


class CheckRow(NamedTuple):
    name: str
    max_n: int
    passed: bool
    detail: str


class VerificationReport(NamedTuple):
    oracle_max: int
    rows: tuple[CheckRow, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {"oracle_max": self.oracle_max,
                "all_passed": self.all_passed,
                "rows": [r._asdict() for r in self.rows]}


def _row(name: str, max_n: int, failures: list[str]) -> CheckRow:
    if failures:
        return CheckRow(name, max_n, False, "; ".join(failures[:4]))
    return CheckRow(name, max_n, True, "exact match")


# A check maps the largest size to its list of failures.  Each is built by
# one of two row builders (the outdegree census runs one per outdegree set):
# enumerated weights summing to a series coefficient, or an invariant
# agreeing with an independent reference per object.


def _sums(objects, weight, series, zero=0):
    """At every size n, the weights of the objects of size n sum to entry n
    of series(max_n)."""
    def check(max_n: int) -> list[str]:
        expected = series(max_n)
        bad = []
        for n in range(1, max_n + 1):
            total = sum(map(weight, objects(n)), zero)
            if total != expected[n]:
                bad.append(f"n={n}: {total} != {expected[n]}")
        return bad
    return check


def _agrees(objects, value, reference):
    """value equals the independent reference on every object of every size."""
    def check(max_n: int) -> list[str]:
        return [f"{x!r}: {value(x)} != {reference(x)}"
                for n in range(1, max_n + 1) for x in objects(n)
                if value(x) != reference(x)]
    return check


def _one(_) -> int:
    return 1


def _identity_trees(n: int) -> list:
    return [t for t in enumerate_trees(n) if is_identity_tree(t)]


def _identity_forests(n: int) -> tuple:
    return enumerate_dforests(n, identity_only=True)


def _catalan(max_n: int) -> list[int]:
    """Plane rooted trees of size n: the Catalan number C_(n-1)."""
    return [0] + [math.comb(2 * (n - 1), n - 1) // n for n in range(1, max_n + 1)]


def _brute_force_aut_order(tree) -> int:
    return sum(1 for _ in naive_automorphisms(_labeled_children(tree)))


def _outdegree_census(max_n: int) -> list[str]:
    bad = []
    for label, text, table in (("hierarchy", "all-except:1", hierarchy_int_table),
                               ("binary", "0,2", binary_int_table)):
        omega = OmegaSet.parse(text)
        census = _sums(lambda n: enumerate_trees(n, omega), _one, table)
        bad += [f"{label} {failure}" for failure in census(max_n)]
    return bad


def _probability_law(tree) -> tuple:
    """(t_T(1), no negative coefficient, t_T'(1)) of the fixed-point law."""
    poly = fixed_point_polynomial(tree)
    return poly.eval(1), min(poly.coeffs) >= 0, poly.derivative().eval(1)


def _all_automorphisms_even(tree) -> int:
    """1 if every automorphism permutes the nodes evenly, else 0; the
    enumeration stops at the first odd one."""
    perms = naive_automorphisms(_labeled_children(tree))
    return 0 if any(map(odd_permutation, perms)) else 1


# (row name, check, nominal largest size), in report order
_CHECKS = (
    ("tree census = t_n", _sums(enumerate_trees, _one, polya_int_table), 10),
    ("outdegree-filtered census", _outdegree_census, 10),
    ("rigid-tree census = r_n", _sums(_identity_trees, _one, identity_coeffs), 10),
    ("aut order = brute-force count",
     _agrees(enumerate_trees, _brute_force_aut_order, aut_order), 8),
    ("sum of t_T(u) = row polynomial",
     _sums(enumerate_trees, fixed_point_polynomial,
           lambda k: ctree_polynomials(k).rows, UPoly.zero()), 8),
    ("t_T(u) is a probability law with mean |P(T)|",
     _agrees(enumerate_trees, _probability_law,
             lambda t: (1, True, pointed_tree_count(t))), 8),
    ("sum of |P(T)| = [z^n] T/(1-T)",
     _sums(enumerate_trees, pointed_tree_count, pointed_coeffs), 8),
    ("plane embeddings sum to Catalan",
     _sums(enumerate_trees, plane_embeddings, _catalan), 8),
    ("sum of w(T) = n^(n-1)/n!", _sums(enumerate_trees, ctree_weight, cayley_coeffs), 8),
    ("sum of forest weights = d_n",
     _sums(enumerate_dforests, forest_weight, dforest_coeffs), 10),
    ("forest weight = fixed-point-free fraction",
     _agrees(enumerate_dforests, forest_weight, naive_forest_weight), 8),
    ("sum of signed weights = d*_n",
     _sums(_identity_forests, signed_forest_weight,
           lambda k: identity_tree_coeffs(k)[1]), 10),
    ("signed weight = signed enumeration",
     _agrees(_identity_forests, signed_forest_weight, naive_signed_forest_weight), 8),
    ("r_T(1) = [all automorphisms even]",
     _agrees(enumerate_trees, lambda t: signed_fixed_point_polynomial(t).eval(1),
             _all_automorphisms_even), 7),
    ("sum of r_T(1) over rigid trees = r_n",
     _sums(_identity_trees, lambda t: signed_fixed_point_polynomial(t).eval(1),
           identity_coeffs), 8),
)


def run_verification(oracle_max: int = 8) -> VerificationReport:
    """Run every equivalence up to min(its nominal range, oracle_max)."""
    if oracle_max < 1:
        raise ValueError("oracle_max must be at least 1")
    rows = []
    for name, check, nominal in _CHECKS:
        max_n = min(nominal, oracle_max)
        rows.append(_row(name, max_n, check(max_n)))
    return VerificationReport(oracle_max, tuple(rows))
