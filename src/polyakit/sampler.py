"""Uniform random tree generation and automorphism-decomposition statistics.

Trees are drawn by the recursive method on the counting recurrence

    (n - 1) t_n = sum over m*d <= n-1 of t_(n-m*d) * m * t_m,

realized as: pick a term with probability proportional to its value, sample a
head of size n - m*d and one subtree of size m, then attach d identical copies
of that subtree to the head's root.  Each tree of size n has probability
exactly 1/t_n; the walk is over big integers, so nothing is approximated.

A term k = m*d is found by a walk from k = n - 1 (small heads, most of the
mass) or, on the complement of the draw, from k = 1, whichever end is nearer:
since t_n ~ C rho^(-n) n^(-3/2), C Otter's constant, the terms with k <= n/2
hold about 2C/sqrt(n) of the mass.  Both walks give the same k and residual.

The walk keeps an explicit stack, so its depth is not bounded by the
interpreter's recursion limit.  For each node it first draws the whole chain
of peels (m, d), head after head down to a single root, and then draws the
repeated subtrees, last peel first, each by the same procedure; the node is
built once from its (subtree, copies) classes, its leaf copies merged into one
class.  Equal subtrees of one tree share one node object: a node is looked up
by the identities of its classes, (id(subtree), copies) pairs, before it is
built, since its children are shared already.  No encoding string is built; a
node's encoding is built only when it is read.

Every seeded tree, and with it every seeded report, depends on the draw order
above, on the divisor walk order, and on how each number is drawn: a value
below `bound` is `rng.randrange(bound)` inlined, `getrandbits(bound.bit_length())`
repeated until it falls below `bound`.  None of these may change.

A decomposition sample then draws, per fixed node and per isomorphism class of
its children, a uniform permutation of the identical copies: `rng.shuffle`'s
Fisher-Yates order, inlined with the same bounded draws, so the rule above
fixes every seeded decomposition too.  Fixed copies are recursed into; moved
copies contribute their whole subtrees to the forest attached at that node.
Internal symmetries of moved subtrees never change any of the reported
statistics, so they are not drawn.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from typing import NamedTuple

from .families import _divisors, _grow_counts
from .oracle import LEAF, CanonicalTree, tree_from_classes

MAX_SIZE = 10_000
MAX_SAMPLES = 100_000

SEED_RULE = "int.from_bytes(sha256(f'{master}:{label}').digest()[:8], 'big')"


def derived_seed(master_seed: int | str, label: int | str) -> int:
    import hashlib  # loads OpenSSL: only a derived seed needs it

    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _divisors_sampling_order(n: int) -> list[int]:
    """The divisors of n in the order the sampler walks them: those above
    sqrt(n) ascending, then the rest descending; 12 gives [4, 6, 12, 3, 2, 1].
    Every seeded tree depends on this order, so it must not change."""
    ds = _divisors(n)  # ascending
    return [d for d in ds if d * d > n] + [d for d in reversed(ds) if d * d <= n]


_orders: dict[int, list[int]] = {}  # k -> divisor walk order, k < MAX_SIZE


def _node(built: dict, classes: list | tuple) -> CanonicalTree:
    """The node of these classes, looked up before it is built: equal
    subtrees are one object already, so the key is (id(subtree), copies)
    with copies merged, one pair of ints for a node of one class."""
    if len(classes) == 1:
        t, m = classes[0]
        key = (id(t), m)
    else:
        merged: dict[int, int] = {}
        for t, m in classes:
            merged[id(t)] = merged.get(id(t), 0) + m
        key = (next(iter(merged.items())) if len(merged) == 1
               else frozenset(merged.items()))
    tree = built.get(key)
    if tree is None:
        tree = built[key] = tree_from_classes(classes)
    return tree


def sample_polya_tree(n: int, rng: random.Random) -> CanonicalTree:
    """One tree of size n, each of the t_n trees with probability 1/t_n,
    drawn over the shared big-integer count tables."""
    if n < 1:
        raise ValueError("tree size must be positive")
    if n > MAX_SIZE:
        raise ValueError(f"size budget exceeded: {n} > {MAX_SIZE}")
    t, s = _grow_counts(1, n)  # the shared tables, read in place
    getrandbits = rng.getrandbits
    # open nodes: (peels whose subtree is still to draw, classes drawn)
    stack: list[tuple[list[tuple[int, int]], list]] = []
    # a node's key (see _node) -> the node: equal subtrees share one node,
    # so a tree holds about half as many objects for the garbage collector.
    # Every id in a key is a node held here.
    built: dict[object, CanonicalTree] = {}
    size = n
    while True:
        # the node's whole chain of peels (size m, copies) first; a leaf
        # draws nothing, so leaf peels only add to the node's leaf count
        peels, leaves = [], 0
        while size > 1:
            # r = rng.randrange(bound), inlined: the same getrandbits draws
            bound = (size - 1) * t[size]
            bits = bound.bit_length()
            r = getrandbits(bits)
            while r >= bound:
                r = getrandbits(bits)
            # the terms t[size-k] * s[k] sum to bound; the walk starts from
            # k = size - 1 (small heads, most of the mass) or, if r lies in
            # the top 2C/sqrt(size) of the mass (k <= size/2 or so; 57662 =
            # 2C * 2^16, C Otter's constant, see tests/test_sampler.py::
            # test_top_share_follows_otters_constant), from k = 1 on
            # bound - 1 - r, which gives the same k and residual.  Walks up
            # to size 32 are short, and cheaper than the test
            if size > 32 and r >= bound - (bound >> 16) * (57662 // math.isqrt(size)):
                r, k, step = bound - 1 - r, 1, 1
            else:
                k, step = size - 1, -1
            w = t[size - k] * s[k]
            while r >= w:
                r -= w
                k += step
                w = t[size - k] * s[k]
            if step == 1:
                r = w - 1 - r
            # r is uniform below t[size-k]*s[k]; its residue picks the
            # repeated size
            b = r % s[k]
            order = _orders.get(k)
            if order is None:
                order = _orders[k] = _divisors_sampling_order(k)
            for m in order:
                w = m * t[m]
                if b < w:
                    break
                b -= w
            if m == 1:
                leaves += k
            else:
                peels.append((m, k // m))
            size -= k
        if peels:
            stack.append((peels, [(LEAF, leaves)] if leaves else []))
            size = peels[-1][0]
            continue
        # a finished subtree, a star or a leaf: hand it to the open node,
        # which draws its next repeated part or, with none left, is built
        # and handed up
        tree = _node(built, ((LEAF, leaves),)) if leaves else LEAF
        while stack:
            peels, classes = stack[-1]
            classes.append((tree, peels.pop()[1]))
            if peels:
                break
            stack.pop()
            tree = _node(built, classes)
        else:
            return tree
        size = peels[-1][0]


# ---------------------------------------------------------------------------
# decomposition of (tree, uniform automorphism) into fixed-point statistics


class DecompositionSample(NamedTuple):
    n: int
    c_size: int
    l_max: int
    y_count: int
    forest_size_histogram: dict[int, int]
    seed: int | None = None

    def validate(self) -> None:
        hist = self.forest_size_histogram
        if self.c_size < 1:
            raise ValueError("the root is always fixed")
        if self.c_size + sum(m * c for m, c in hist.items()) != self.n:
            raise ValueError("fixed nodes plus forest nodes must cover the tree")
        if sum(hist.values()) != self.c_size:
            raise ValueError("one forest slot per fixed node")


def sample_decomposition(tree: CanonicalTree, rng: random.Random,
                         seed: int | None = None) -> DecompositionSample:
    """Statistics of the fixed-point tree of a uniform automorphism.

    Per fixed node and child class with multiplicity m, a uniform permutation
    of the m copies is drawn; its fixed copies stay in the fixed-point tree
    and every moved copy becomes one component of the forest at that node.
    """
    c_size = 0
    y_count = 0
    l_max = 0
    hist: Counter[int] = Counter()
    getrandbits = rng.getrandbits
    stack = [tree]
    while stack:
        node = stack.pop()
        c_size += 1
        forest_nodes = 0
        for child, mult in node.children:
            if mult == 1:
                stack.append(child)
                continue
            # rng.shuffle(list(range(mult))), inlined with its draws
            perm = list(range(mult))
            for i in range(mult - 1, 0, -1):
                bits = (i + 1).bit_length()
                j = getrandbits(bits)
                while j > i:
                    j = getrandbits(bits)
                perm[i], perm[j] = perm[j], perm[i]
            fixed = sum(1 for i, p in enumerate(perm) if i == p)
            stack.extend([child] * fixed)
            moved = mult - fixed
            forest_nodes += moved * child.size
            y_count += moved
        hist[forest_nodes] += 1
        if forest_nodes > l_max:
            l_max = forest_nodes
    sample = DecompositionSample(tree.size, c_size, l_max, y_count,
                                 dict(hist), seed)
    sample.validate()
    return sample


# ---------------------------------------------------------------------------
# seeded experiments


class StatsReport(NamedTuple):
    n: int
    num_samples: int
    master_seed: str
    seed_rule: str
    first_seeds: tuple[int, ...]
    mean_c_size: float
    var_c_size: float
    half_width_c_size: float
    mean_l_max: float
    var_l_max: float
    half_width_l_max: float
    mean_y_count: float
    var_y_count: float
    half_width_y_count: float
    forest_size_distribution: dict[int, float]


def _mean_var(values: list[int]) -> tuple[float, float, float]:
    n = len(values)
    total = sum(values)
    mean = total / n
    if n == 1:
        return mean, 0.0, 0.0
    sq = sum(v * v for v in values)
    var = (sq - total * total / n) / (n - 1)
    return mean, var, 1.96 * math.sqrt(var / n)


def _seeded_draw(n: int, master_seed: int | str, label: int | str) -> DecompositionSample:
    """A uniform size-n tree and its decomposition, from one seeded generator."""
    seed = derived_seed(master_seed, label)
    rng = random.Random(seed)
    return sample_decomposition(sample_polya_tree(n, rng), rng, seed=seed)


def _check_budget(sizes: list[int] | tuple[int, ...], samples: int) -> None:
    """Every size within MAX_SIZE, and 1..MAX_SAMPLES samples."""
    if any(n > MAX_SIZE for n in sizes) or samples > MAX_SAMPLES:
        raise ValueError(
            f"budget exceeded: n <= {MAX_SIZE}, samples <= {MAX_SAMPLES}")
    if samples < 1:
        raise ValueError("need at least one sample")


def run_experiment(n: int, samples: int,
                   master_seed: int | str = 0) -> StatsReport:
    """Aggregate decomposition samples, bit-for-bit reproducible by seed."""
    _check_budget((n,), samples)
    c_vals, l_vals, y_vals = [], [], []
    hist: Counter[int] = Counter()
    for i in range(samples):
        dec = _seeded_draw(n, master_seed, i)
        c_vals.append(dec.c_size)
        l_vals.append(dec.l_max)
        y_vals.append(dec.y_count)
        hist.update(dec.forest_size_histogram)
    slots = sum(hist.values())
    dist = {m: hist[m] / slots for m in sorted(hist)}
    mc, vc, hc = _mean_var(c_vals)
    ml, vl, hl = _mean_var(l_vals)
    my, vy, hy = _mean_var(y_vals)
    first_seeds = tuple(derived_seed(master_seed, i) for i in range(min(samples, 4)))
    return StatsReport(n, samples, str(master_seed), SEED_RULE, first_seeds,
                       mc, vc, hc, ml, vl, hl, my, vy, hy, dist)


def lmax_check(n_values: list[int], samples: int, s: float = 0.5,
               master_seed: int | str = 0,
               exact_mean: bool = False) -> dict:
    """Largest-forest-size growth report.

    For each n, reports the fraction of samples whose l_max falls in
    (1 +- (log n)^-s) * (-2 log n / log rho) and the empirical mean against
    the second-order location (2 log n - 3 log log n)/|log rho| implied by
    the distribution shape P(L <= m) ~ exp(-c n rho^(m/2) m^(-3/2)).
    """
    if not 0 < s < 1:
        raise ValueError("s must lie in (0, 1)")
    if any(n < 2 for n in n_values):
        raise ValueError("lmax_check needs every n >= 2: the report divides by log n")
    _check_budget(n_values, samples)
    from .asymptotics import decomposition_constants, lmax_exact_mean

    consts = decomposition_constants()
    log_rho = math.log(consts.rho)
    rows = []
    for n in n_values:
        l_vals = [_seeded_draw(n, master_seed, f"{n}:{i}").l_max
                  for i in range(samples)]
        lo, hi = consts.lmax_interval(n, s)
        mean = sum(l_vals) / len(l_vals)
        row = {
            "n": n,
            "samples": samples,
            "interval": [lo, hi],
            "fraction_in_interval":
                sum(lo <= v <= hi for v in l_vals) / len(l_vals),
            "mean_l_max": mean,
            "mean_over_log_n": mean / math.log(n),
            "leading_ratio": -2.0 / log_rho,
            "second_order_location":
                (2.0 * math.log(n) - 3.0 * math.log(math.log(n))) / -log_rho,
        }
        if exact_mean:
            row["exact_mean_l_max"] = lmax_exact_mean(n)
        rows.append(row)
    return {"s": s, "master_seed": str(master_seed), "seed_rule": SEED_RULE,
            "rows": rows}
