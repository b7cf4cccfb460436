"""Explicit enumeration of small trees and forests, with exact weights.

Everything here works on concrete tree objects, one structure at a time, so
it is deliberately independent of the series machinery: the recurrences in
families.py are validated against these enumerations in the test suite and
the verify command.

A tree is canonical: children are stored as (subtree, multiplicity) pairs
sorted by (size, encoding), so two trees are equal exactly when their
parenthesis encodings are.  A node holds its children and size; its encoding
is built on first read.  Siblings are ordered by a structural comparison that
gives the encoding order without building either encoding.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cmp_to_key, lru_cache, wraps
from operator import ne
from typing import Iterable, Iterator, Optional, Sequence

from .families import OmegaSet
from .series import Q, UPoly, _Immutable

TREE_ENUMERATION_CAP = 14
FOREST_ENUMERATION_CAP = 12


class CanonicalTree(_Immutable):
    """Rooted unlabeled non-plane tree in canonical form.

    Immutable: assigning or deleting a field raises.  Equal subtrees of a
    sampled tree share one node, and LEAF is shared by every tree, so one
    changed node would change all of them.  The constructor fills the slots
    through their descriptors, which costs less than one
    `object.__setattr__` call per field; the sampler builds one for every
    node it draws.

    The encoding is built on first read and kept on this node only, never
    on its descendants: a tree that is never printed or hashed holds no
    string, where storing every node's encoding would hold
    sum_v |subtree(v)| characters.  _memo holds the invariants read so far
    (_per_tree), None before the first; no comparison, copy or pickle reads it."""

    __slots__ = ("children", "size", "_encoding", "_memo")

    def __init__(self, children: tuple[tuple["CanonicalTree", int], ...],
                 size: int, encoding: Optional[str] = None) -> None:
        _set_children(self, children)
        _set_size(self, size)
        _set_encoding(self, encoding)
        _set_memo(self, None)

    def __reduce__(self):
        # pickle and copy.deepcopy rebuild through the constructor, not by
        # assignment, from one post-order table of the distinct nodes,
        # children as indices, so a deep tree does not recurse once per level
        # and a shared node stays shared; each node carries its encoding only
        # if it was built
        index: dict[int, int] = {}
        table = []
        for node in _post_order(self, lambda t: id(t) in index):
            index[id(node)] = len(table)
            table.append((tuple([(index[id(t)], m) for t, m in node.children]),
                          node.size, node._encoding))
        return _from_table, (table,)

    def __copy__(self) -> "CanonicalTree":
        # a shallow copy shares the children, not rebuilt from the table
        return CanonicalTree(self.children, self.size, self._encoding)

    @property
    def encoding(self) -> str:
        """The parenthesis encoding: "(" + the children's encodings, each
        repeated by its multiplicity, in canonical order + ")"."""
        text = self._encoding
        if text is None:
            text = _encode(self)
            _set_encoding(self, text)
        return text

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CanonicalTree) and self.size == other.size \
            and _order(self, other) == 0

    def __hash__(self) -> int:
        # equal trees have equal encodings; the first hash builds it
        return hash(self._encoding or self.encoding)

    def __repr__(self) -> str:
        return f"CanonicalTree({self.encoding})"

    @property
    def outdegree(self) -> int:
        return sum(m for _, m in self.children)


_set_children = CanonicalTree.children.__set__
_set_size = CanonicalTree.size.__set__
_set_encoding = CanonicalTree._encoding.__set__
_set_memo = CanonicalTree._memo.__set__

LEAF = CanonicalTree((), 1, "()")


def _post_order(tree: CanonicalTree, done) -> Iterator[CanonicalTree]:
    """The nodes of tree with done(node) false, each once and each child before
    its parent, by an explicit walk; the caller makes done true before the next."""
    pending = [tree]
    while pending:
        node = pending[-1]
        fresh = [t for t, _ in node.children if not done(t)]
        if fresh:
            pending += fresh
            continue
        pending.pop()
        if not done(node):
            yield node


def _from_table(table: list) -> CanonicalTree:
    """The tree of a post-order node table from CanonicalTree.__reduce__."""
    nodes: list[CanonicalTree] = []
    for children, size, encoding in table:
        nodes.append(CanonicalTree(tuple([(nodes[i], m) for i, m in children]),
                                   size, encoding))
    return nodes[-1]


def _encode(tree: CanonicalTree) -> str:
    """The encoding of a tree by an explicit walk, so its depth is not bounded
    by the recursion limit.  A node whose encoding is built is copied whole;
    the walk stores nothing on the nodes it passes."""
    parts: list[str] = []
    pending: list = [tree]  # nodes still to write, and their closing ")"
    while pending:
        node = pending.pop()
        if node.__class__ is str:
            parts.append(node)
            continue
        text = node._encoding
        if text is not None:
            parts.append(text)
            continue
        parts.append("(")
        pending.append(")")
        for child, m in reversed(node.children):
            pending.extend([child] * m)
    return "".join(parts)


def _expanded(tree: CanonicalTree) -> Iterator[CanonicalTree]:
    """The children of a node in order, each repeated by its multiplicity."""
    return itertools.chain.from_iterable(
        itertools.repeat(child, m) for child, m in tree.children)


def _order(a: CanonicalTree, b: CanonicalTree) -> int:
    """-1, 0 or 1 as the encoding of a sorts before, equal to or after the
    encoding of b, found from the structure without building either.

    An encoding is a complete parenthesis word and none is a proper prefix
    of another, so two encodings first differ inside the first pair of
    expanded children that differ, and that pair decides.  When one child
    sequence is a prefix of the other, the longer one has "(" where the
    shorter one closes, and "(" sorts before ")": the longer one is smaller.
    The walk keeps its own stack of open pairs, and equal objects are
    skipped without a look inside."""
    if a is b:
        return 0
    pending = []
    xs, ys = _expanded(a), _expanded(b)
    while True:
        x, y = next(xs, None), next(ys, None)
        if x is y:
            if x is None:  # both sequences closed together
                if not pending:
                    return 0
                xs, ys = pending.pop()
            continue
        if x is None or y is None:
            return 1 if x is None else -1
        pending.append((xs, ys))
        xs, ys = _expanded(x), _expanded(y)


def _class_order(p: tuple[CanonicalTree, int], q: tuple[CanonicalTree, int]) -> int:
    """Two (subtree, multiplicity) classes by subtree size, then encoding."""
    return p[0].size - q[0].size or _order(p[0], q[0])


_class_key = cmp_to_key(_class_order)


def tree_from_classes(classes: Sequence[tuple[CanonicalTree, int]]) -> CanonicalTree:
    """Root (subtree, multiplicity) pairs: the classes are sorted by (size,
    encoding) and equal subtrees, now adjacent, merge their multiplicities.
    Subtrees are compared by structure, the same object at once; no
    encoding is built or hashed."""
    if len(classes) > 1:
        ordered = sorted(classes, key=_class_key)
        classes = [ordered[0]]
        for pair in ordered[1:]:
            if _class_order(pair, classes[-1]):
                classes.append(pair)
            else:
                last, seen = classes[-1]
                classes[-1] = (last, seen + pair[1])
    if len(classes) == 1:
        # most sampled nodes have one class: nothing to sort or merge
        pair = classes[0]
        return CanonicalTree((pair,), 1 + pair[0].size * pair[1])
    size = 1
    for t, m in classes:
        size += t.size * m
    return CanonicalTree(tuple(classes), size)


def make_tree(subtrees: Iterable[CanonicalTree]) -> CanonicalTree:
    """Root a multiset of subtrees, canonicalizing order."""
    return tree_from_classes([(t, 1) for t in subtrees])


def chain(n: int) -> CanonicalTree:
    t = LEAF
    for _ in range(n - 1):
        t = make_tree([t])
    return t


# ---------------------------------------------------------------------------
# enumeration

_trees: list[tuple[CanonicalTree, ...]] = [(), (LEAF,)]  # [n]: the trees of size n


def _outdegrees_within(tree: CanonicalTree, omega: OmegaSet) -> bool:
    """Whether every node of the tree has its outdegree in omega."""
    return omega.allows(tree.outdegree) and all(
        _outdegrees_within(child, omega) for child, _ in tree.children)


def enumerate_trees(n: int, outdegrees: Optional[OmegaSet] = None) -> tuple[CanonicalTree, ...]:
    """All canonical trees of size n, optionally with restricted outdegrees,
    sorted by encoding.

    One table of every tree per size is grown in place; a restricted set is a
    filter of it.  Refuses n > TREE_ENUMERATION_CAP: the counts grow like
    2.956^n and the point of the oracle is small-size ground truth, not bulk
    generation.
    """
    if n > TREE_ENUMERATION_CAP:
        raise ValueError(f"enumerate_trees(n={n}) exceeds the cap {TREE_ENUMERATION_CAP}")
    if n < 1:
        return ()
    while len(_trees) <= n:
        # root every multiset of smaller trees of total size len(_trees) - 1,
        # picked in non-increasing pool order so that each multiset comes once
        pool = [t for trees in _trees for t in trees]
        found: list[CanonicalTree] = []

        def build(remaining: int, max_index: int, chosen: list[CanonicalTree]) -> None:
            if remaining == 0:
                found.append(make_tree(chosen))
                return
            for idx in range(max_index, -1, -1):
                t = pool[idx]
                if t.size > remaining:
                    continue
                chosen.append(t)
                build(remaining - t.size, idx, chosen)
                chosen.pop()

        build(len(_trees) - 1, len(pool) - 1, [])
        _trees.append(tuple(sorted(found, key=lambda t: t.encoding)))
    if outdegrees is None:
        return _trees[n]
    return tuple(t for t in _trees[n] if _outdegrees_within(t, outdegrees))


# ---------------------------------------------------------------------------
# per-tree invariants


def _per_tree(body):
    """body(tree) kept in the node's _memo, filled children first: the body
    reads each child's value off the child, so a deep tree does not recurse."""
    def held(node: CanonicalTree) -> bool:
        return body in (node._memo or ())

    @wraps(body)
    def invariant(tree: CanonicalTree):
        if not held(tree):
            for node in _post_order(tree, held):
                _set_memo(node, node._memo or {})
                node._memo[body] = body(node)
        return tree._memo[body]

    return invariant


@_per_tree
def aut_order(tree: CanonicalTree) -> int:
    """|Aut(T)| = prod over child classes of m! |Aut(child)|^m."""
    order = 1
    for child, m in tree.children:
        order *= math.factorial(m) * aut_order(child) ** m
    return order


def is_identity_tree(tree: CanonicalTree) -> bool:
    return aut_order(tree) == 1


@_per_tree
def pointed_tree_count(tree: CanonicalTree) -> int:
    """Number of node orbits under Aut(T): copies of a child class merge."""
    return 1 + sum(pointed_tree_count(child) for child, _ in tree.children)


# Each node-level automorphism of T fixes the root and, per child class
# (S, m), permutes the m copies by some pi in S_m and maps copy j onto copy
# pi(j) by an element of Aut(S).  The sums below run over Aut(T) in integers:
#   a_T(u) = sum_g u^(fixed nodes of g),
#   s_T(u) = sum_g (-1)^(even node cycles of g) u^(fixed nodes of g),
#   sigma_T = sum_g (-1)^(node cycles of g),
# and the public averages divide each once by |Aut T| = a_T(1).


def _times(p: Sequence[int], q: Sequence[int]) -> list[int]:
    """The product of two integer polynomials, coefficient lists by power."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _copy_cycles(first: Sequence[int], rest: Sequence[int]) -> list[int]:
    """W_m = sum over pi in S_m of the product over the cycles of pi of
    V_(cycle length), m = len(rest) + 1, where V_1 = first is a polynomial
    and V_i = rest[i - 2] an integer for i >= 2.

    This is m! Z(S_m; V_1, ..., V_m): from k Z_k = sum_i V_i Z_(k-i),
    W_k = sum_(i=1..k) (k-1)!/(k-i)! V_i W_(k-i) with W_0 = 1."""
    ws = [[1]]
    for k in range(1, len(rest) + 2):
        w = _times(first, ws[k - 1])
        for i in range(2, k + 1):
            factor = math.perm(k - 1, i - 1) * rest[i - 2]
            for d, c in enumerate(ws[k - i]):
                w[d] += factor * c
        ws.append(w)
    return ws[-1]


@_per_tree
def _automorphism_sums(tree: CanonicalTree) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(a_T(u), s_T(u), sigma_T), the polynomials as integer coefficients,
    from the children's own triples, with |Aut S| = a_S(1).

    A copy cycle of length i over S has fixed nodes only when i = 1; its
    inner maps range over |Aut S|^i tuples.  Unsigned, V_1 = a_S(u) and
    V_i = |Aut S|^i.  Signed, the i inner maps compose to one element h of
    Aut(S), reached by |Aut S|^(i-1) tuples, and a node cycle of h of length
    l becomes one of length i*l: V_1 = s_S(u), V_i = |Aut S|^(i-1) sigma_S
    for even i (every cycle even) and |Aut S|^(i-1) s_S(1) for odd i >= 3.

    The root is one 1-cycle.  A copy cycle yields one node cycle per cycle
    of h, so a class sums sigma_S^c(pi) |Aut S|^(m-c(pi)) over S_m, which
    is the rising product prod_(k<m) (sigma_S + k |Aut S|).
    """
    fixed, signed, sigma = [0, 1], [0, 1], -1  # the root is always fixed
    for child, m in tree.children:
        a, s, sigma_child = _automorphism_sums(child)
        g, odd = sum(a), sum(s)
        fixed = _times(fixed, _copy_cycles(a, [g ** i for i in range(2, m + 1)]))
        signed = _times(signed, _copy_cycles(s, [
            g ** (i - 1) * (sigma_child if i % 2 == 0 else odd)
            for i in range(2, m + 1)]))
        sigma *= math.prod(sigma_child + k * g for k in range(m))
    return tuple(fixed), tuple(signed), sigma


def _averaged(sums: Sequence[int], order: int) -> UPoly:
    # the identity contributes u^n with coefficient 1, so no trailing zero
    return UPoly(tuple(Q(c, order) for c in sums))


def fixed_point_polynomial(tree: CanonicalTree) -> UPoly:
    """t_T(u) = average of u^(number of fixed nodes) over Aut(T)."""
    a, _, _ = _automorphism_sums(tree)
    return _averaged(a, sum(a))


def signed_fixed_point_polynomial(tree: CanonicalTree) -> UPoly:
    """r_T(u) = average of (-1)^(even node cycles) u^(fixed nodes) over
    Aut(T); r_T(1) is 1 for identity trees, and in general 1 when every
    automorphism is an even node permutation, else 0."""
    a, s, _ = _automorphism_sums(tree)
    return _averaged(s, sum(a))


@_per_tree
def plane_embeddings(tree: CanonicalTree) -> int:
    """Number of plane (ordered) trees collapsing to T: the root orders its
    child multiset in multinomial(d; m_1, ..., m_k) ways, children recurse."""
    count = math.factorial(tree.outdegree)
    for child, m in tree.children:
        count //= math.factorial(m)
        count *= plane_embeddings(child) ** m
    return count


def ctree_weight(tree: CanonicalTree) -> Fraction:
    """Labeled-tree weight w(T) = e(T) prod_k (1/k!)^(nodes of outdegree k),
    which is 1/|Aut T|: its fold over child classes, prod w(child)^m / m!,
    is the reciprocal of aut_order's, prod m! |Aut(child)|^m."""
    return Q(1, aut_order(tree))


# ---------------------------------------------------------------------------
# forests of repeated components


class ForestSpec(_Immutable):
    """Multiset of trees, every distinct component repeated at least twice,
    as (tree, multiplicity) pairs in canonical order.  Immutable, like
    CanonicalTree."""

    __slots__ = ("components",)

    def __repr__(self) -> str:
        inner = " ".join(f"{t.encoding}^{m}" for t, m in self.components)
        return f"ForestSpec({inner})"


def make_forest(pairs: Iterable[tuple[CanonicalTree, int]]) -> ForestSpec:
    pairs = sorted(pairs, key=_class_key)
    for _, m in pairs:
        if m < 2:
            raise ValueError("every forest component must repeat at least twice")
    return ForestSpec(tuple(pairs))


def enumerate_dforests(n: int, identity_only: bool = False) -> tuple[ForestSpec, ...]:
    """All forests of total size n with every component multiplicity >= 2,
    sorted by repr: the child classes of the size-(n+1) trees whose every
    class repeats."""
    if n > FOREST_ENUMERATION_CAP:
        raise ValueError(f"enumerate_dforests(n={n}) exceeds the cap {FOREST_ENUMERATION_CAP}")
    if n < 0:
        return ()
    forests = (ForestSpec(t.children) for t in enumerate_trees(n + 1)
               if all(m >= 2 and (not identity_only or is_identity_tree(c))
                      for c, m in t.children))
    return tuple(sorted(forests, key=repr))


def _derangements(m: int) -> int:
    """!m = sum_k (-1)^k m!/k!, the permutations of m with no fixed point."""
    return sum((-1) ** k * math.perm(m, m - k) for k in range(m + 1))


def forest_weight(forest: ForestSpec) -> Fraction:
    """Fraction of automorphisms that avoid fixed nodes, given none exist
    at the top: prod over classes of !m / m!.

    A node-level automorphism has no fixed node exactly when every class
    permutes its copies without fixed copies (a fixed copy pins its root),
    and inner maps on moved copies are unconstrained, so they cancel.
    """
    w = Q(1)
    for _, m in forest.components:
        w *= Q(_derangements(m), math.factorial(m))
    return w


def signed_forest_weight(forest: ForestSpec) -> Fraction:
    """Signed companion for identity-tree forests.

    The sign lives on the cycle type of the copy permutation (one factor -1
    per even-length copy cycle, i.e. its sgn); summing sgn over derangements
    of S_m gives (-1)^(m-1) (m-1).
    """
    for t, m in forest.components:
        if not is_identity_tree(t):
            raise ValueError("signed weights are defined for identity-tree forests")
    w = Q(1)
    for _, m in forest.components:
        w *= Q((-1) ** (m - 1) * (m - 1), math.factorial(m))
    return w


# ---------------------------------------------------------------------------
# naive cross-checks: explicit node-level automorphism enumeration


def _labeled_children(tree: CanonicalTree) -> list[list[int]]:
    """Adjacency as child index lists, root = 0, labels in DFS order."""
    children: list[list[int]] = []

    def visit(t: CanonicalTree) -> int:
        idx = len(children)
        children.append([])
        for child, m in t.children:
            for _ in range(m):
                children[idx].append(visit(child))
        return idx

    visit(tree)
    return children


def _subtree_sizes(children: list[list[int]]) -> list[int]:
    n = len(children)
    sizes = [1] * n
    for idx in range(n - 1, -1, -1):
        for c in children[idx]:
            sizes[idx] += sizes[c]
    return sizes


def naive_automorphisms(children: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """All root-fixing adjacency-preserving node bijections, by backtracking.

    No isomorphism shortcuts: sibling images are tried permutation by
    permutation (pruned only by raw subtree size), so this is structurally
    independent of the canonical-form recursions it cross-checks.  Where
    the children of u and of v all have one size, every image passes that
    check, so it is skipped there.

    Mapped pairs (u, v) wait in one shared FIFO queue, read at depth i and
    cut back to its length on return.  Only pairs whose u has children are
    queued: equal raw subtree size makes v a leaf whenever u is one, and a
    leaf pair has exactly one (empty) image, so skipping it yields the same
    tuples in the same order.  An image that leaves no pair waiting is
    yielded at once, not through one more generator.
    """
    size = _subtree_sizes(children).__getitem__
    perm = [0] * len(children)  # the root is fixed; the rest is set before each yield
    queue = [(0, 0)] if children[0] else []

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        u, v = queue[i]
        cu = children[u]
        wanted = list(map(size, cu))
        mixed = len(set(wanted)) > 1 or wanted != list(map(size, children[v]))
        base, last = len(queue), i + 1
        for image in itertools.permutations(children[v]):
            if mixed and list(map(size, image)) != wanted:
                continue
            for a, b in zip(cu, image):
                perm[a] = b
                if children[a]:
                    queue.append((a, b))
            if len(queue) == last:
                yield tuple(perm)
            else:
                yield from extend(last)
                del queue[base:]

    if queue:
        yield from extend(0)
    else:
        yield tuple(perm)


def odd_permutation(perm: Sequence[int]) -> bool:
    """Whether perm is odd: a cycle of length L is L - 1 transpositions.
    Each cycle is walked once, from its smallest point, flipping the flag at
    every step; the later points are marked seen."""
    seen = [False] * len(perm)
    odd = False
    for start, v in enumerate(perm):
        if seen[start]:
            continue
        while v != start:
            seen[v] = True
            v = perm[v]
            odd = not odd
    return odd


@lru_cache(maxsize=32)
def _naive_forest_counts(forest: ForestSpec) -> tuple[int, int, int]:
    """(automorphisms, fixed-point-free ones, signed sum of those) of the
    forest, by explicit enumeration in one pass.

    The forest is labelled as the tree whose virtual root joins the
    component roots.  The sign is computed on the induced permutation of
    component copies, not on node cycles: that is the convention under which
    the signed weights sum to the coefficients of
    exp(sum_{i>=2} (-1)^(i-1) R(z^i)/i).
    """
    children = _labeled_children(tree_from_classes(forest.components))
    roots = children[0]
    position = {r: i for i, r in enumerate(roots)}
    nodes = range(1, len(children))  # every node but the virtual root
    total = free = signed = 0
    for perm in naive_automorphisms(children):
        total += 1
        if all(map(ne, perm[1:], nodes)):
            free += 1
            signed += -1 if odd_permutation([position[perm[r]] for r in roots]) else 1
    return total, free, signed


def naive_forest_weight(forest: ForestSpec) -> Fraction:
    """forest_weight by explicit enumeration over node-level automorphisms."""
    total, free, _ = _naive_forest_counts(forest)
    return Q(free, total)


def naive_signed_forest_weight(forest: ForestSpec) -> Fraction:
    """signed_forest_weight by explicit enumeration (see _naive_forest_counts)."""
    total, _, signed = _naive_forest_counts(forest)
    return Q(signed, total)
