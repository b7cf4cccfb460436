"""Enumeration oracle checks: canonical trees, automorphisms, forests."""

import copy
import functools
import hashlib
import itertools
import math
import operator
import pickle
import sys
from fractions import Fraction

import pytest

import polyakit.families as fam
import polyakit.oracle as oracle
from polyakit.oracle import (
    CanonicalTree,
    FOREST_ENUMERATION_CAP,
    LEAF,
    TREE_ENUMERATION_CAP,
    aut_order,
    chain,
    ctree_weight,
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
    odd_permutation,
    plane_embeddings,
    pointed_tree_count,
    signed_fixed_point_polynomial,
    signed_forest_weight,
    tree_from_classes,
    _labeled_children,
    _subtree_sizes,
)
from polyakit.series import RationalSeries, UPoly
from polyakit.verify import run_verification

F = Fraction


def _sign_balance(tree):
    """Average of (-1)^(number of node cycles) over Aut(T)."""
    return Fraction(oracle._automorphism_sums(tree)[2], aut_order(tree))


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


def _outdegree_factorials(tree) -> int:
    """prod over the nodes v of T of outdeg(v)!, by a walk that counts each
    child class once per copy."""
    product, stack = 1, [(tree, 1)]
    while stack:
        node, copies = stack.pop()
        product *= math.factorial(node.outdegree) ** copies
        stack += [(child, copies * m) for child, m in node.children]
    return product


def test_ctree_weight_is_its_definition():
    # w(T) = e(T) prod_v 1/outdeg(v)!, read off the plane embeddings and the
    # outdegrees, not off aut_order
    trees = [t for n in range(1, 13) for t in enumerate_trees(n)]
    assert len(trees) == 7813
    for tree in (*trees, chain(5000)):
        assert ctree_weight(tree) == F(plane_embeddings(tree), _outdegree_factorials(tree))


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


def test_automorphisms_match_reference_route_on_the_largest_forests():
    # the size check is skipped where every child of u and of v has one
    # size; the forests of size 8 hold its largest cases, the star of 8
    # leaves among them with 8! automorphisms
    objects = [_labeled_children(tree_from_classes(f.components))
               for f in enumerate_dforests(8)]
    assert len(objects) == 10
    counts = []
    for ch in objects:
        got = list(naive_automorphisms(ch))
        assert got == list(reference_automorphisms(ch))
        counts.append(len(got))
    assert sum(counts) == 40508
    assert max(counts) == math.factorial(8)


def _reference_labelling(forest):
    """The forest as the tree whose virtual root joins the component roots,
    and every node but that root."""
    children = _labeled_children(tree_from_classes(forest.components))
    return children, range(1, len(children))


def reference_forest_weight(forest):
    """naive_forest_weight as it was before the two forest weights shared
    one enumeration pass: its own pass."""
    children, nodes = _reference_labelling(forest)
    total = free = 0
    for perm in reference_automorphisms(children):
        total += 1
        if all(map(operator.ne, perm[1:], nodes)):
            free += 1
    return F(free, total)


def odd_by_inversions(perm):
    """Permutation parity by its own rule, the number of inversions, so the
    references below share no code with oracle.odd_permutation."""
    return sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 1


def test_odd_permutation_matches_inversion_parity():
    # every permutation of 0 to 8 points: 46,234 of them
    perms = [p for n in range(9) for p in itertools.permutations(range(n))]
    assert len(perms) == 46234
    assert all(odd_permutation(p) == odd_by_inversions(p) for p in perms)


def reference_signed_forest_weight(forest):
    """naive_signed_forest_weight as it was before the two forest weights
    shared one enumeration pass: its own pass, the sign taken on the induced
    permutation of component copies."""
    children, nodes = _reference_labelling(forest)
    roots = children[0]
    position = {r: i for i, r in enumerate(roots)}
    total = acc = 0
    for perm in reference_automorphisms(children):
        total += 1
        if all(map(operator.ne, perm[1:], nodes)):
            acc += -1 if odd_by_inversions([position[perm[r]] for r in roots]) else 1
    return F(acc, total)


def test_naive_forest_weights_match_their_separate_passes():
    # one pass per forest returns exactly the Fractions of the two loops it
    # replaced, on every forest of size <= 8 (non-identity ones included)
    forests = [f for n in range(1, 9) for f in enumerate_dforests(n)]
    assert len(forests) == 22
    for f in forests:
        assert naive_forest_weight(f) == reference_forest_weight(f)
        assert naive_signed_forest_weight(f) == reference_signed_forest_weight(f)


def test_verification_enumerates_each_forest_once():
    # the plain row enumerates the 22 forests of size <= 8; the signed row
    # reads the 18 identity forests among them from the cache
    oracle._naive_forest_counts.cache_clear()
    run_verification(8)
    info = oracle._naive_forest_counts.cache_info()
    assert (info.misses, info.hits) == (22, 18)
    assert info.currsize == 22 <= info.maxsize


def reference_cycle_index(slots):
    """Z(S_m; s_1, ..., s_m) for m = len(slots), by the standard recurrence
    k Z_k = sum_{i=1..k} s_i Z_(k-i), in Fraction polynomials."""
    zs = [UPoly.constant(1)]
    for k in range(1, len(slots) + 1):
        part = UPoly.zero()
        for i in range(1, k + 1):
            part = part + slots[i - 1] * zs[k - i]
        zs.append(part.scale(F(1, k)))
    return zs[-1]


@functools.cache
def reference_fixed_point_polynomial(tree):
    """The route the integer sums replaced: a child class (S, m) contributes
    Z(S_m; t_S(u), 1, ..., 1), since copies on a nontrivial cycle of the
    wreath permutation contain no fixed node."""
    one = UPoly.constant(1)
    acc = one
    for child, m in tree.children:
        acc = acc * reference_cycle_index(
            [reference_fixed_point_polynomial(child)] + [one] * (m - 1))
    return acc.shift_marker(1)


@functools.cache
def reference_sign_balance(tree):
    """Z(S_m; x, ..., x) = x (x+1) ... (x+m-1) / m! per class, x the
    child's average, times -1 for the root's 1-cycle."""
    acc = -F(1)
    for child, m in tree.children:
        x = reference_sign_balance(child)
        acc *= math.prod((x + k for k in range(m)), start=F(1)) / math.factorial(m)
    return acc


@functools.cache
def reference_signed_fixed_point_polynomial(tree):
    """Slot values j = 1: r_S(u); j even: the child's sign balance;
    j odd >= 3: r_S(1)."""
    acc = UPoly.constant(1)
    for child, m in tree.children:
        r_child = reference_signed_fixed_point_polynomial(child)
        even_val = UPoly.constant(reference_sign_balance(child))
        odd_val = UPoly.constant(r_child.eval(1))
        acc = acc * reference_cycle_index(
            [r_child] + [even_val if j % 2 == 0 else odd_val for j in range(2, m + 1)])
    return acc.shift_marker(1)


def test_integer_sums_match_the_cycle_index_route():
    # the automorphism sums in integers, each divided once by |Aut T|, give
    # the cycle-index averages exactly, coefficient types included, on all
    # 1,205 trees of size <= 10
    trees = [t for n in range(1, 11) for t in enumerate_trees(n)]
    assert len(trees) == 1205
    for t in trees:
        assert sum(oracle._automorphism_sums(t)[0]) == aut_order(t)
        got = (fixed_point_polynomial(t).coeffs,
               signed_fixed_point_polynomial(t).coeffs, _sign_balance(t))
        want = (reference_fixed_point_polynomial(t).coeffs,
                reference_signed_fixed_point_polynomial(t).coeffs,
                reference_sign_balance(t))
        assert got == want, t
        assert repr(got) == repr(want), t


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
            perms = naive_automorphisms(_labeled_children(tree))
            all_even = not any(map(odd_by_inversions, perms))
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


def reference_tree_from_classes(classes):
    """The canonicaliser by its definition: sort the classes by (size,
    encoding), merge equal subtrees, concatenate the encodings."""
    merged = []
    for t, m in sorted(classes, key=lambda pair: (pair[0].size, pair[0].encoding)):
        if merged and merged[-1][0].encoding == t.encoding:
            merged[-1] = (merged[-1][0], merged[-1][1] + m)
        else:
            merged.append((t, m))
    size = 1 + sum(t.size * m for t, m in merged)
    encoding = "(" + "".join(t.encoding * m for t, m in merged) + ")"
    return tuple(merged), size, encoding


def _shape(tree):
    return tree.children, tree.size, tree.encoding


def test_class_fast_paths_match_the_general_route():
    # one class skips the sort; every order of up to four classes, repeats
    # included, must give the canonical node
    nested = make_tree([chain(3), star(2)])
    pool = [LEAF, chain(2), chain(3), star(2), nested, make_tree([nested, LEAF])]
    for t in pool:
        for m in (1, 2, 3):
            one = tree_from_classes([(t, m)])
            assert _shape(one) == reference_tree_from_classes([(t, m)])
            assert _shape(one) == _shape(tree_from_classes([(t, 1)] * m))
        assert _shape(tree_from_classes([(t, 2)])) == \
            _shape(tree_from_classes([(t, 1), (t, 1)]))
    for width in (2, 3, 4):
        for picks in itertools.product(range(len(pool)), repeat=width):
            classes = [(pool[i], 1 + j % 2) for j, i in enumerate(picks)]
            assert _shape(tree_from_classes(classes)) == \
                reference_tree_from_classes(classes)


def test_canonicaliser_matches_the_reference_on_every_small_multiset():
    # the classes arrive in reverse canonical order, and a repeated tree
    # comes back as a separate copy, so equal subtrees merge by structure,
    # not only by identity: every multiset of up to three classes over the
    # 85 trees of size <= 7, and of four over the 37 trees of size <= 6
    pool = [t for n in range(1, 8) for t in enumerate_trees(n)]
    twins = [pickle.loads(pickle.dumps(t)) for t in pool]
    for width, trees in ((1, 85), (2, 85), (3, 85), (4, 37)):
        for picks in itertools.combinations_with_replacement(range(trees), width):
            classes = [(twins[i] if j and picks[j - 1] == i else pool[i], 1 + j % 2)
                       for j, i in enumerate(picks)][::-1]
            assert _shape(tree_from_classes(classes)) == \
                reference_tree_from_classes(classes)


def _reference_encoding(tree):
    return "(" + "".join(_reference_encoding(t) * m for t, m in tree.children) + ")"


def _sign(a, b):
    return (a > b) - (a < b)


def test_structural_order_matches_the_encoding_order_on_the_corpus():
    # every node of the pinned sampler corpus: its encoding, its sibling
    # order, and its place among all the corpus nodes agree with strings
    # built by the definition
    import random
    from polyakit.sampler import sample_polya_tree
    nodes = {}
    for n in (5, 12, 36, 60):
        for seed in range(20):
            stack = [sample_polya_tree(n, random.Random(seed))]
            while stack:
                node = stack.pop()
                if nodes.setdefault(id(node), node) is node:
                    stack.extend(t for t, _ in node.children)
    nodes = list(nodes.values())
    text = {id(t): _reference_encoding(t) for t in nodes}
    for node in nodes:
        assert node.encoding == text[id(node)]
        for (a, _), (b, _) in itertools.pairwise(node.children):
            assert (a.size, text[id(a)]) < (b.size, text[id(b)])
        for (a, _), (b, _) in itertools.product(node.children, repeat=2):
            assert oracle._order(a, b) == _sign(text[id(a)], text[id(b)])
    by_string = sorted(nodes, key=lambda t: text[id(t)])
    assert sorted(nodes, key=functools.cmp_to_key(oracle._order)) == by_string
    for a, b in itertools.pairwise(by_string):
        assert oracle._order(a, b) == _sign(text[id(a)], text[id(b)])
        assert oracle._order(b, a) == -oracle._order(a, b)


def test_deep_trees_encode_and_compare_without_recursion():
    # chain(5000) is far deeper than the recursion limit, which stays as is
    limit = sys.getrecursionlimit()
    assert limit < 5000
    a, b = chain(5000), chain(5000)
    assert a is not b and a == b and hash(a) == hash(b)
    assert b.encoding == "(" * 5000 + ")" * 5000
    twin = copy.deepcopy(a)
    assert twin == a and twin is not a and twin.children[0][0] is not a.children[0][0]
    bent = make_tree([chain(4998), LEAF])  # "(()((...)))" sorts after a
    assert a != bent and oracle._order(a, bent) == -1 == -oracle._order(bent, a)
    assert a.encoding < bent.encoding
    assert sys.getrecursionlimit() == limit


def test_per_tree_invariants_of_a_deep_tree_need_no_recursion():
    # each invariant is filled in children first and kept on the nodes; a
    # chain's polynomials are pure powers, as the identity fixes every node
    tree, power = chain(5000), (0,) * 5000 + (1,)
    assert (aut_order(tree), is_identity_tree(tree), pointed_tree_count(tree),
            plane_embeddings(tree), ctree_weight(tree)) == (1, True, 5000, 1, 1)
    assert fixed_point_polynomial(tree).coeffs == power
    assert signed_fixed_point_polynomial(tree).coeffs == power


def test_reading_invariants_leaves_the_pickle_bytes_unchanged():
    for tree in enumerate_trees(9):
        before = pickle.dumps(tree)
        for read in (aut_order, pointed_tree_count, plane_embeddings, ctree_weight,
                     fixed_point_polynomial):
            read(tree)
        assert pickle.dumps(tree) == before


def test_derangements_match_the_recurrence_past_the_recursion_limit():
    counts = [1, 0]  # !k = (k - 1) (!(k-1) + !(k-2)), a route of its own
    for k in range(2, 1201):
        counts.append((k - 1) * (counts[-1] + counts[-2]))
    assert [oracle._derangements(m) for m in (*range(7), 1200)] == [
        1, 0, 1, 2, 9, 44, 265, counts[1200]]
    assert forest_weight(make_forest([(LEAF, 1200)])) == F(counts[1200], math.factorial(1200))


def test_canonical_tree_compares_and_hashes_by_encoding():
    assert (LEAF.children, LEAF.size, LEAF.encoding) == ((), 1, "()")
    twin = CanonicalTree((), 1, "()")
    assert twin == LEAF and twin is not LEAF and hash(twin) == hash(LEAF)
    assert LEAF != "()" and LEAF != chain(2)
    a, b = make_tree([chain(2), LEAF]), make_tree([LEAF, chain(2)])
    assert a == b and hash(a) == hash(b) == hash("(()(()))")
    assert len({a, b, chain(3), chain(3)}) == 2
    assert repr(a) == "CanonicalTree((()(())))"
    assert a.outdegree == 2 and star(5).outdegree == 5


def test_canonical_tree_rejects_assignment():
    # LEAF and the sampler's shared subtrees are held by many trees at once
    a = make_tree([chain(2), LEAF])
    for node in (LEAF, a):
        before = (node.children, node.size, node.encoding)
        for name in ("children", "size", "encoding", "other"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert (node.children, node.size, node.encoding) == before
    # copies are rebuilt through the constructor
    for twin in (copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == a and twin is not a
        assert (twin.size, twin.encoding) == (a.size, a.encoding)
        assert twin.children[0][0].encoding == "()"
