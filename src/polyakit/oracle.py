"""Explicit enumeration of small trees and forests, with exact weights.

Everything here works on concrete tree objects, one structure at a time, so
it is deliberately independent of the series machinery: the recurrences in
families.py are validated against these enumerations in the test suite and
the verify command.

A tree is canonical: children are stored as (subtree, multiplicity) pairs
sorted by (size, encoding), so structural equality is string equality on the
parenthesis encoding.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

from .families import OmegaSet
from .series import Q, UPoly

TREE_ENUMERATION_CAP = 14
FOREST_ENUMERATION_CAP = 12


@dataclass(frozen=True, eq=False, slots=True)
class CanonicalTree:
    """Rooted unlabeled non-plane tree in canonical form."""

    children: tuple[tuple["CanonicalTree", int], ...]
    size: int
    encoding: str

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CanonicalTree) and self.encoding == other.encoding

    def __hash__(self) -> int:
        return hash(self.encoding)

    def __repr__(self) -> str:
        return f"CanonicalTree({self.encoding})"

    @property
    def outdegree(self) -> int:
        return sum(m for _, m in self.children)


LEAF = CanonicalTree((), 1, "()")


def _class_order(pair: tuple[CanonicalTree, int]) -> tuple[int, str]:
    return pair[0].size, pair[0].encoding


def tree_from_classes(classes: Sequence[tuple[CanonicalTree, int]]) -> CanonicalTree:
    """Root (subtree, multiplicity) pairs: the classes are sorted by (size,
    encoding) and equal subtrees, now adjacent, merge their multiplicities.
    Subtrees are compared by their encoding strings, never hashed."""
    if len(classes) > 1:
        ordered = sorted(classes, key=_class_order)
        classes = [ordered[0]]
        for t, m in ordered[1:]:
            last, seen = classes[-1]
            if t.encoding == last.encoding:
                classes[-1] = (last, seen + m)
            else:
                classes.append((t, m))
    size = 1
    for t, m in classes:
        size += t.size * m
    encoding = "(" + "".join([t.encoding * m for t, m in classes]) + ")"
    return CanonicalTree(tuple(classes), size, encoding)


def make_tree(subtrees: Iterable[CanonicalTree]) -> CanonicalTree:
    """Root a multiset of subtrees, canonicalizing order."""
    return tree_from_classes([(t, 1) for t in subtrees])


def chain(n: int) -> CanonicalTree:
    t = LEAF
    for _ in range(n - 1):
        t = make_tree([t])
    return t


def star(leaves: int) -> CanonicalTree:
    return make_tree([LEAF] * leaves)


# ---------------------------------------------------------------------------
# enumeration

_trees: list[tuple[CanonicalTree, ...]] = [(), (LEAF,)]  # [n]: the trees of size n


def _outdegrees_within(tree: CanonicalTree, omega: OmegaSet) -> bool:
    """Whether every node of the tree has its outdegree in omega."""
    k = tree.outdegree
    if (k not in omega.allowed) if omega.allowed is not None else (k in omega.excluded):
        return False
    return all(_outdegrees_within(child, omega) for child, _ in tree.children)


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


@lru_cache(maxsize=None)
def aut_order(tree: CanonicalTree) -> int:
    """|Aut(T)| = prod over child classes of m! |Aut(child)|^m."""
    order = 1
    for child, m in tree.children:
        order *= math.factorial(m) * aut_order(child) ** m
    return order


def is_identity_tree(tree: CanonicalTree) -> bool:
    return aut_order(tree) == 1


@lru_cache(maxsize=None)
def pointed_tree_count(tree: CanonicalTree) -> int:
    """Number of node orbits under Aut(T): copies of a child class merge."""
    return 1 + sum(pointed_tree_count(child) for child, _ in tree.children)


def _cycle_index(slots: Sequence[UPoly]) -> UPoly:
    """Z(S_m; s_1, ..., s_m) for m = len(slots), by the standard recurrence
    k Z_k = sum_{i=1..k} s_i Z_(k-i)."""
    zs = [UPoly.constant(1)]
    for k in range(1, len(slots) + 1):
        part = UPoly.zero()
        for i in range(1, k + 1):
            part = part + slots[i - 1] * zs[k - i]
        zs.append(part.scale(Q(1, k)))
    return zs[-1]


@lru_cache(maxsize=None)
def fixed_point_polynomial(tree: CanonicalTree) -> UPoly:
    """t_T(u) = average of u^(number of fixed nodes) over Aut(T).

    A child class (S, m) contributes Z(S_m; t_S(u), 1, ..., 1): copies on a
    nontrivial cycle of the wreath permutation contain no fixed node at all.
    """
    one = UPoly.constant(1)
    acc = one
    for child, m in tree.children:
        acc = acc * _cycle_index([fixed_point_polynomial(child)] + [one] * (m - 1))
    return acc.shift_marker(1)  # the root is always fixed


@lru_cache(maxsize=None)
def _sign_balance(tree: CanonicalTree) -> Fraction:
    """Average of (-1)^(number of cycles) over Aut(T) acting on nodes.

    This is the substitution value of a child class sitting on an even-length
    copy cycle: every induced node cycle gets even total length, hence -1.
    """
    acc = -Q(1)  # the root contributes a single 1-cycle
    for child, m in tree.children:
        # Z(S_m; x, ..., x) = x (x+1) ... (x+m-1) / m! with x the child's value
        x = _sign_balance(child)
        acc *= math.prod((x + k for k in range(m)), start=Q(1)) / math.factorial(m)
    return acc


@lru_cache(maxsize=None)
def signed_fixed_point_polynomial(tree: CanonicalTree) -> UPoly:
    """r_T(u) = average of (-1)^(even node cycles) u^(fixed nodes) over Aut(T).

    Wreath recursion: a copy cycle of length j over child S composes its
    inner maps into one uniform element of Aut(S), and a node cycle of inner
    length l becomes one cycle of length j*l.  Hence the slot values
      j = 1: r_S(u);  j even: average of (-1)^cycles = _sign_balance(S);
      j odd >= 3: r_S(1), which is 1 for identity trees and else 0.
    """
    acc = UPoly.constant(1)
    for child, m in tree.children:
        r_child = signed_fixed_point_polynomial(child)
        even_val = UPoly.constant(_sign_balance(child))
        odd_val = UPoly.constant(r_child.eval(1))
        acc = acc * _cycle_index([r_child] + [even_val if j % 2 == 0 else odd_val
                                              for j in range(2, m + 1)])
    return acc.shift_marker(1)


@lru_cache(maxsize=None)
def plane_embeddings(tree: CanonicalTree) -> int:
    """Number of plane (ordered) trees collapsing to T: the root orders its
    child multiset in multinomial(d; m_1, ..., m_k) ways, children recurse."""
    count = math.factorial(tree.outdegree)
    for child, m in tree.children:
        count //= math.factorial(m)
        count *= plane_embeddings(child) ** m
    return count


@lru_cache(maxsize=None)
def ctree_weight(tree: CanonicalTree) -> Fraction:
    """Labeled-tree weight w(T) = e(T) prod_k (1/k!)^(nodes of outdegree k);
    collapses to prod over child classes w(child)^m / m!."""
    w = Q(1)
    for child, m in tree.children:
        w *= ctree_weight(child) ** m / math.factorial(m)
    return w


# ---------------------------------------------------------------------------
# forests of repeated components


@dataclass(frozen=True, eq=False)
class ForestSpec:
    """Multiset of trees, every distinct component repeated at least twice."""

    components: tuple[tuple[CanonicalTree, int], ...]  # canonical order

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ForestSpec) and self.components == other.components

    def __hash__(self) -> int:
        return hash(tuple((t.encoding, m) for t, m in self.components))

    def __repr__(self) -> str:
        inner = " ".join(f"{t.encoding}^{m}" for t, m in self.components)
        return f"ForestSpec({inner})"

    @property
    def size(self) -> int:
        return sum(t.size * m for t, m in self.components)


def make_forest(pairs: Iterable[tuple[CanonicalTree, int]]) -> ForestSpec:
    pairs = sorted(pairs, key=lambda kv: (kv[0].size, kv[0].encoding))
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


@lru_cache(maxsize=None)
def _derangements(m: int) -> int:
    if m == 0:
        return 1
    if m == 1:
        return 0
    return (m - 1) * (_derangements(m - 1) + _derangements(m - 2))


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
    independent of the canonical-form recursions it cross-checks.

    Mapped pairs (u, v) wait in one shared FIFO queue, read at depth i and
    cut back to its length on return.  Only pairs whose u has children are
    queued: equal raw subtree size makes v a leaf whenever u is one, and a
    leaf pair has exactly one (empty) image, so skipping it yields the same
    tuples in the same order.
    """
    sizes = _subtree_sizes(children)
    perm = [0] * len(children)  # the root is fixed; the rest is set before each yield
    queue = [(0, 0)] if children[0] else []

    def extend(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(queue):
            yield tuple(perm)
            return
        u, v = queue[i]
        cu = children[u]
        wanted = [sizes[a] for a in cu]
        base = len(queue)
        for image in itertools.permutations(children[v]):
            if [sizes[b] for b in image] != wanted:
                continue
            for a, b in zip(cu, image):
                perm[a] = b
                if children[a]:
                    queue.append((a, b))
            yield from extend(i + 1)
            del queue[base:]

    yield from extend(0)


def cycle_type(perm: tuple[int, ...]) -> dict[int, int]:
    """Map cycle length -> number of cycles of that length."""
    seen = [False] * len(perm)
    out: dict[int, int] = {}
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        out[length] = out.get(length, 0) + 1
    return out


def naive_forest_weight(forest: ForestSpec) -> Fraction:
    """forest_weight by explicit enumeration over node-level automorphisms."""
    # the forest with a virtual root joining the component roots
    children = _labeled_children(tree_from_classes(forest.components))
    total = 0
    free = 0
    for perm in naive_automorphisms(children):
        total += 1
        if all(perm[i] != i for i in range(1, len(perm))):
            free += 1
    return Q(free, total)


def naive_signed_forest_weight(forest: ForestSpec) -> Fraction:
    """signed_forest_weight by explicit enumeration.

    The sign is computed on the induced permutation of component copies, not
    on node cycles: that is the convention under which the signed weights
    sum to the coefficients of exp(sum_{i>=2} (-1)^(i-1) R(z^i)/i).
    """
    children = _labeled_children(tree_from_classes(forest.components))
    roots = children[0]
    position = {r: i for i, r in enumerate(roots)}
    total = 0
    acc = 0
    for perm in naive_automorphisms(children):
        total += 1
        if any(perm[i] == i for i in range(1, len(perm))):
            continue
        induced = tuple(position[perm[r]] for r in roots)
        evens = sum(c for length, c in cycle_type(induced).items()
                    if length % 2 == 0)
        acc += (-1) ** evens
    return Q(acc, total)
