"""Enumeration oracle checks: canonical trees, automorphisms, forests."""

import hashlib
import itertools
from fractions import Fraction

import pytest

import polyakit.families as fam
import polyakit.oracle as oracle
from polyakit.oracle import (
    FOREST_ENUMERATION_CAP,
    LEAF,
    TREE_ENUMERATION_CAP,
    aut_order,
    chain,
    ctree_weight,
    cycle_type,
    enumerate_dforests,
    enumerate_trees,
    fixed_point_polynomial,
    forest_weight,
    is_identity_tree,
    make_forest,
    make_tree,
    naive_automorphisms,
    naive_forest_weight,
    naive_signed_forest_weight,
    plane_embeddings,
    pointed_tree_count,
    signed_fixed_point_polynomial,
    signed_forest_weight,
    tree_from_classes,
    _labeled_children,
    _sign_balance,
    _subtree_sizes,
)
from polyakit.series import RationalSeries

F = Fraction


def cherry():
    return make_tree([LEAF, LEAF])


def star(leaves: int):
    return make_tree([LEAF] * leaves)


def test_enumeration_counts_match_table():
    t = fam.polya_int_table(10)
    for n in range(1, 11):
        assert len(enumerate_trees(n)) == t[n]


def test_enumeration_is_duplicate_free():
    trees = enumerate_trees(8)
    assert len({tr.encoding for tr in trees}) == len(trees)


def test_size_four_shapes():
    trees = enumerate_trees(4)
    assert len(trees) == 4
    assert sorted(aut_order(tr) for tr in trees) == [1, 1, 2, 6]


def test_chain_and_star():
    assert chain(5).size == 5
    assert aut_order(chain(5)) == 1
    assert is_identity_tree(chain(5))
    assert star(3).size == 4
    assert aut_order(star(3)) == 6


def test_cherry_polynomials():
    t = fixed_point_polynomial(cherry())
    assert t.coefficient(3) == F(1, 2) and t.coefficient(1) == F(1, 2)
    assert t.eval(1) == 1
    r = signed_fixed_point_polynomial(cherry())
    assert r.coefficient(3) == F(1, 2) and r.coefficient(1) == F(-1, 2)
    assert r.eval(1) == 0


def test_star_four_signed_polynomial():
    # 4 nodes: (1/6)(u^4 - 3u^2 + 2u)
    r = signed_fixed_point_polynomial(star(3))
    assert r.coefficient(4) == F(1, 6)
    assert r.coefficient(2) == F(-1, 2)
    assert r.coefficient(1) == F(1, 3)
    assert r.eval(1) == 0


def test_chain_polynomial_is_pure_power():
    t = fixed_point_polynomial(chain(6))
    assert t.coefficient(6) == 1 and t.degree == 6
    r = signed_fixed_point_polynomial(chain(6))
    assert r.coefficient(6) == 1


def test_even_automorphism_regression():
    # swapping two 2-chains is an even vertex permutation, so the signed
    # value at 1 is 1 although the tree is not an identity tree
    twin = make_tree([chain(2), chain(2)])
    assert not is_identity_tree(twin)
    assert signed_fixed_point_polynomial(twin).eval(1) == 1


def reference_automorphisms(children):
    """The enumerator naive_automorphisms replaced: the queue is copied at
    every level and leaf pairs are queued like any other."""
    sizes = _subtree_sizes(children)
    n = len(children)
    perm = [-1] * n

    def extend(queue):
        if not queue:
            yield tuple(perm)
            return
        u, v = queue[0]
        rest = queue[1:]
        cu, cv = children[u], children[v]
        for image in itertools.permutations(cv):
            if any(sizes[a] != sizes[b] for a, b in zip(cu, image)):
                continue
            for a, b in zip(cu, image):
                perm[a] = b
            yield from extend(rest + list(zip(cu, image)))
        for a in cu:
            perm[a] = -1

    perm[0] = 0
    yield from extend([(0, 0)])


def test_automorphisms_match_reference_route():
    # the shared queue without leaf pairs yields the same tuples in the same
    # order as the copied queue with them, on every tree of size <= 9 and
    # every forest of size <= 7 (labelled as the tree whose root joins its
    # component roots): 499 objects, 64,686 automorphisms
    objects = [_labeled_children(t) for n in range(1, 10) for t in enumerate_trees(n)]
    objects += [_labeled_children(tree_from_classes(f.components))
                for n in range(8) for f in enumerate_dforests(n)]
    assert len(objects) == 499
    total = 0
    for ch in objects:
        got = list(naive_automorphisms(ch))
        assert got == list(reference_automorphisms(ch))
        total += len(got)
    assert total == 64686


def test_automorphism_counts_match_aut_order():
    for n in range(1, 11):
        for tree in enumerate_trees(n):
            count = sum(1 for _ in naive_automorphisms(_labeled_children(tree)))
            assert count == aut_order(tree), tree


def test_automorphisms_are_distinct_root_fixing_tree_maps():
    for ch in (_labeled_children(t) for n in range(1, 9) for t in enumerate_trees(n)):
        n = len(ch)
        perms = list(naive_automorphisms(ch))
        assert len(set(perms)) == len(perms)
        for perm in perms:
            assert perm[0] == 0
            assert sorted(perm) == list(range(n))
            for v in range(n):
                assert sorted(perm[c] for c in ch[v]) == sorted(ch[perm[v]])


def test_signed_value_detects_even_groups():
    # value 1 iff every automorphism is even, else 0
    for n in range(1, 8):
        for tree in enumerate_trees(n):
            ch = _labeled_children(tree)
            all_even = True
            for perm in naive_automorphisms(ch):
                parity = sum((length - 1) * count
                             for length, count in cycle_type(perm).items())
                if parity % 2 == 1:
                    all_even = False
                    break
            got = signed_fixed_point_polynomial(tree).eval(1)
            assert got == (1 if all_even else 0)


def test_fixed_point_polynomial_matches_naive():
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            ch = _labeled_children(tree)
            counts: dict[int, int] = {}
            order = 0
            for perm in naive_automorphisms(ch):
                order += 1
                fixed = sum(1 for i, j in enumerate(perm) if i == j)
                counts[fixed] = counts.get(fixed, 0) + 1
            assert order == aut_order(tree)
            poly = fixed_point_polynomial(tree)
            for k, c in counts.items():
                assert poly.coefficient(k) == F(c, order)


def test_row_sums_match_ctree_polynomials():
    rows = fam.ctree_polynomials(7)
    for n in range(1, 8):
        total = {}
        for tree in enumerate_trees(n):
            p = fixed_point_polynomial(tree)
            for k in range(p.degree + 1):
                total[k] = total.get(k, F(0)) + p.coefficient(k)
        row = rows.row(n)
        for k, v in total.items():
            assert row.coefficient(k) == v


def test_pointed_counts():
    per_size = [0] * 7
    for n in range(1, 7):
        for tree in enumerate_trees(n):
            per_size[n] += pointed_tree_count(tree)
    p = fam.pointed_coeffs(6)
    assert per_size[1:] == [p[n] for n in range(1, 7)]


def test_plane_embeddings_and_catalan():
    import math
    assert plane_embeddings(chain(4)) == 1
    assert plane_embeddings(star(3)) == 1
    assert plane_embeddings(make_tree([LEAF, chain(2)])) == 2
    for n in range(1, 8):
        total = sum(plane_embeddings(t) for t in enumerate_trees(n))
        assert total == math.comb(2 * (n - 1), n - 1) // n


def test_forest_counts_small():
    assert len(enumerate_dforests(5)) == 1
    assert len(enumerate_dforests(6)) == 5


def test_forest_weights():
    pair = make_forest([(LEAF, 2)])
    assert forest_weight(pair) == F(1, 2)
    assert signed_forest_weight(pair) == F(-1, 2)
    # derangements of 4 items: 9 of 24
    quad = make_forest([(LEAF, 4)])
    assert forest_weight(quad) == F(9, 24)


def test_forest_weight_totals_match_series():
    d = fam.dforest_coeffs(9)
    for n in range(2, 10):
        total = sum(forest_weight(f) for f in enumerate_dforests(n))
        assert total == d[n]


def test_signed_forest_totals_match_series():
    _, dstar, _ = fam.identity_tree_coeffs(9)
    for n in range(2, 10):
        total = sum(signed_forest_weight(f)
                    for f in enumerate_dforests(n, identity_only=True))
        assert total == dstar[n]


def test_identity_tree_counts():
    r, _, _ = fam.identity_tree_coeffs(8)
    for n in range(1, 9):
        count = sum(1 for t in enumerate_trees(n) if is_identity_tree(t))
        assert count == r[n]


def test_outdegree_restricted_enumeration():
    binary = fam.OmegaSet.parse("0,2")
    for n in range(1, 10):
        for tree in enumerate_trees(n, outdegrees=binary):
            assert all(deg in (0, 2) for deg in _outdegrees(tree))


def test_variant_marked_series_match_fixed_node_sums():
    # t_T'(1) is the mean number of automorphism-fixed nodes of T, so the
    # sum over the trees of size n is [z^n] of the family's marked series:
    # B/(1 - zB) for outdegrees {0, 2}, H/((1+z)(1-H)) without outdegree 1.
    # These are the series whose growth gives the variants' mu.
    one = RationalSeries.one(11)
    z = RationalSeries.identity(11)
    b = fam.binary_polya_coeffs(11)
    h = fam.hierarchy_coeffs(10)
    for text, marked in (("0,2", b.divide(one - z * b)),
                         ("all-except:1", h.divide((one + z) * (one - h)))):
        omega = fam.OmegaSet.parse(text)
        for n in range(1, marked.order + 1):
            total = sum((fixed_point_polynomial(t).derivative().eval(1)
                         for t in enumerate_trees(n, outdegrees=omega)), F(0))
            assert total == marked[n], (text, n)


def _outdegrees(tree):
    out = [len(_expand(tree))]
    for child, mult in tree.children:
        out.extend(_outdegrees(child) * mult)
    return out


def _expand(tree):
    return [c for c, m in tree.children for _ in range(m)]


def test_component_count_moments_match_brute_force():
    # Y = number of forest components over all fixed nodes of a uniform
    # (tree, automorphism) pair: the children w of a fixed node with
    # sigma(w) != w.  Counted by brute force over every automorphism, this is
    # independent of the gamma-series algebra behind B and V.
    N = 9
    _, b_series = fam.dtree_count_series(N)
    v_series = fam.dtree_second_moment_series(N)
    for n in range(1, N + 1):
        trees = enumerate_trees(n)
        t_n = len(trees)
        first = second = F(0)
        for tree in trees:
            ch = _labeled_children(tree)
            ys = [sum(1 for v in range(n) if perm[v] == v
                      for w in ch[v] if perm[w] != w)
                  for perm in naive_automorphisms(ch)]
            first += F(sum(ys), len(ys))
            second += F(sum(y * (y - 1) for y in ys), len(ys))
        assert first / t_n == b_series[n] / t_n  # E[Y]
        assert second / t_n == v_series[n] / t_n  # E[Y(Y-1)]


ORACLE_PIN = "55df8d5cf0b2e65c3d30689b02b0583df35355a7433bfa6be77ea95a03065367"


def oracle_values():
    """Every oracle value over the trees and forests up to size 10, the
    brute-force forest weights up to size 8."""
    out = []
    for n in range(1, 11):
        for t in enumerate_trees(n):
            out.append((t.encoding, aut_order(t), pointed_tree_count(t),
                        fixed_point_polynomial(t).coeffs,
                        signed_fixed_point_polynomial(t).coeffs,
                        plane_embeddings(t), ctree_weight(t), _sign_balance(t),
                        _labeled_children(t)))
    for n in range(11):
        for f in enumerate_dforests(n):
            identity = all(is_identity_tree(t) for t, _ in f.components)
            out.append((repr(f), forest_weight(f),
                        signed_forest_weight(f) if identity else None,
                        _labeled_children(tree_from_classes(f.components))))
            if n <= 8:
                out.append((naive_forest_weight(f), naive_signed_forest_weight(f)))
    return out


def test_oracle_values_are_pinned():
    # sha256 of the values above, computed before the oracle's cycle-index,
    # factorial and forest-labelling helpers were merged
    digest = hashlib.sha256(repr(oracle_values()).encode()).hexdigest()
    assert digest == ORACLE_PIN


@pytest.mark.parametrize("enumerate_, cap", [
    (enumerate_trees, TREE_ENUMERATION_CAP),
    (enumerate_dforests, FOREST_ENUMERATION_CAP),
])
def test_enumeration_refuses_sizes_past_the_cap(enumerate_, cap):
    with pytest.raises(ValueError, match="exceeds the cap"):
        enumerate_(cap + 1)


ENUMERATION_PIN = "97604c74419c5786da06a1a4342e6183465601b3ad97c081f7de164ba8cf4a88"


def test_enumerations_are_pinned():
    # sha256 of every enumeration in order, computed while each outdegree set
    # had its own backtracking table and the forests their own enumerator
    lines = []
    for text in (None, "all-except:1", "0,2", "0,1,2", "all-except:0", "1"):
        omega = None if text is None else fam.OmegaSet.parse(text)
        for n in range(14):
            lines.append(f"{text} {n} " + " ".join(
                t.encoding for t in enumerate_trees(n, omega)))
    for flag in (False, True):
        for n in range(13):
            lines.append(f"forests {flag} {n} " + " ".join(
                repr(f) for f in enumerate_dforests(n, flag)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ENUMERATION_PIN


def test_outdegree_sets_share_one_tree_table():
    # twelve outdegree sets up to size 11 are filters of one table per size
    for text in ("0,2", "0,1,2", "0,3", "0,2,3", "0,1,2,3", "0,4", "all",
                 "all-except:1", "all-except:2", "all-except:3",
                 "all-except:1,2", "all-except:2,3"):
        for n in range(1, 12):
            enumerate_trees(n, fam.OmegaSet.parse(text))
    held = sum(len(v) for name, v in vars(oracle).items()
               if not name.startswith("__") and isinstance(v, (dict, list)))
    assert held <= TREE_ENUMERATION_CAP + 1
