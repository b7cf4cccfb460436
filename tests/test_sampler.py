"""Exact uniform sampling and decomposition statistics."""

import copy
import gc
import inspect
import math
import os
import pickle
import random
from collections import Counter

import pytest

import polyakit.families as fam
import polyakit.sampler as sampler
from polyakit.asymptotics import solve_polya_singularity
from polyakit.oracle import (LEAF, CanonicalTree, aut_order, chain, ctree_weight,
                             fixed_point_polynomial, make_forest, make_tree,
                             plane_embeddings, pointed_tree_count,
                             signed_fixed_point_polynomial, signed_forest_weight,
                             tree_from_classes)
from polyakit.sampler import (
    MAX_SIZE,
    DecompositionSample,
    derived_seed,
    lmax_check,
    run_experiment,
    sample_decomposition,
    sample_polya_tree,
)
from polyakit.verify import run_verification

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_derived_seed_rule():
    import hashlib
    got = derived_seed("abc", 7)
    want = int.from_bytes(hashlib.sha256(b"abc:7").digest()[:8], "big")
    assert got == want


def test_sampler_is_deterministic():
    a = sample_polya_tree(40, random.Random(123))
    b = sample_polya_tree(40, random.Random(123))
    assert a == b and a.size == 40


def test_seeded_corpus_is_pinned():
    # every seeded report depends on the exact trees a seed draws: the count
    # tables and the divisor walk order must not change them
    import hashlib
    text = "\n".join(sample_polya_tree(n, random.Random(seed)).encoding
                     for n in (5, 12, 36, 60) for seed in range(20))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "0babbd44b9352ff1cd43449b2df11d472b705a879e91646220b0ebe2b83dbd4f")


def test_seeded_decompositions_are_pinned():
    # larger trees and the decomposition that follows them on the same RNG:
    # sibling order and the draw order of the tree walk both show here
    import hashlib
    rows = []
    for seed in range(10):
        rng = random.Random(seed)
        tree = sample_polya_tree(500, rng)
        d = sample_decomposition(tree, rng)
        rows.append(repr((tree.encoding, d.c_size, d.l_max, d.y_count,
                          sorted(d.forest_size_histogram.items()))))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "946232d3277777698da75d89fdcbba450c0816dfb886cd976248d598ac20cb41")
    report = repr(run_experiment(300, 40, "pin")._asdict())
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "ee9adab1a1b6501cdddb4a9a4483aefe5e263ba47f6237615cc2201b937f24fa")


def test_seeded_decompositions_past_the_plain_table_are_pinned():
    # n = 1200 reads a count table grown by doubling; recorded on the
    # term-by-term table
    import hashlib
    assert 1200 > 512 + fam._LEAF
    rows = []
    for seed in range(3):
        rng = random.Random(seed)
        tree = sample_polya_tree(1200, rng)
        d = sample_decomposition(tree, rng)
        rows.append(repr((tree.encoding, d.c_size, d.l_max, d.y_count,
                          sorted(d.forest_size_histogram.items()))))
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "5c96aa539fa61e40440e9feb576345e417dfa7d35cd0cee7852dfb7967ff77c0")


class RecordingRandom(random.Random):
    """A Random that logs its getrandbits calls.  Overriding getrandbits keeps
    randrange and shuffle on their getrandbits route."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, k):
        value = super().getrandbits(k)
        self.calls.append((k, value))
        return value


def inline_below(rng, bound):
    """The sampler's inlined rng.randrange(bound), line for line."""
    bits = bound.bit_length()
    r = rng.getrandbits(bits)
    while r >= bound:
        r = rng.getrandbits(bits)
    return r


def test_inline_bounded_draw_is_randrange():
    # every seeded output rests on this: the stdlib rule the sampler inlines
    # must be the installed interpreter's randrange, value and state
    t = fam.polya_int_table(300)
    bounds = [1, 2, 3] + [2 ** k + d for k in (2, 3, 5, 8, 31, 32, 33, 63, 64,
                                                65, 200, 3000) for d in (-1, 0, 1)]
    bounds += [(m - 1) * t[m] for m in range(2, 301)]
    for seed in range(5):
        mine, stdlib = random.Random(seed), random.Random(seed)
        for bound in bounds:
            assert inline_below(mine, bound) == stdlib.randrange(bound)
            assert mine.getstate() == stdlib.getstate()


def test_tree_walk_draws_as_randrange():
    # the first draw of a size-m tree is below (m - 1) t_m: the sampler makes
    # exactly the getrandbits calls randrange makes for that bound
    t = fam.polya_int_table(300)
    for m in range(2, 301):
        stdlib = RecordingRandom(m)
        stdlib.randrange((m - 1) * t[m])
        mine = RecordingRandom(m)
        sample_polya_tree(m, mine)
        assert mine.calls[:len(stdlib.calls)] == stdlib.calls


def reference_sample_polya_tree(n, rng):
    """The sampler's tree walk with every head walk from k = n - 1 downward,
    and no node shared: the route the nearer-end walk replaced, kept as its
    check.  Sharing nodes changes no encoding."""
    t, s = fam._grow_counts(1, n)
    stack = []
    size = n
    while True:
        peels, leaves = [], 0
        while size > 1:
            bound = (size - 1) * t[size]
            r = inline_below(rng, bound)
            k = size - 1
            w = s[k]
            while r >= w:
                r -= w
                k -= 1
                w = t[size - k] * s[k]
            b = r % s[k]
            for m in sampler._divisors_sampling_order(k):
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
        tree = tree_from_classes(((LEAF, leaves),)) if leaves else LEAF
        while stack:
            peels, classes = stack[-1]
            classes.append((tree, peels.pop()[1]))
            if peels:
                break
            stack.pop()
            tree = tree_from_classes(classes)
        else:
            return tree
        size = peels[-1][0]


def test_nearer_end_walk_matches_the_downward_walk():
    # the same tree and the same generator state afterwards, so every later
    # draw is unchanged too
    cases = [(n, seed) for n in range(2, 301) for seed in range(20)]
    cases += [(2000, seed) for seed in range(50)]
    for n, seed in cases:
        mine, ref = random.Random(seed), random.Random(seed)
        tree = sample_polya_tree(n, mine)
        assert tree.encoding == reference_sample_polya_tree(n, ref).encoding
        assert mine.getstate() == ref.getstate(), (n, seed)


class ScriptedRandom(random.Random):
    """A Random whose first getrandbits call answers `first`; every later
    call draws as usual."""

    def __init__(self, seed, first):
        super().__init__(seed)
        self.first = first

    def getrandbits(self, k):
        if self.first is None:
            return super().getrandbits(k)
        value, self.first = self.first, None
        return value


def test_head_walks_end_at_either_end():
    # the root's first draw at 0 ends its walk at k = n - 1, the downward
    # walk's first term: one class of n - 1 nodes under the root.  At
    # (n - 1) t_n - 1 it ends at k = 1, the upward walk's first term (from
    # n = 33 on) and the downward walk's last: a leaf under the root
    t = fam.polya_int_table(60)
    for n in range(2, 61):
        for first in (0, (n - 1) * t[n] - 1):
            for seed in range(3):
                mine, ref = ScriptedRandom(seed, first), ScriptedRandom(seed, first)
                tree = sample_polya_tree(n, mine)
                assert tree.encoding == reference_sample_polya_tree(n, ref).encoding
                assert mine.getstate() == ref.getstate(), (n, first, seed)
                if first == 0:
                    assert len(tree.children) == 1
                else:
                    assert tree.children[0][0] is LEAF


def test_top_share_follows_otters_constant():
    # the sampler walks up from k = 1 when its draw lies in the top
    # 57662 / 2^16 / sqrt(size) of the mass.  The exact share of the terms
    # with k <= (S - 1) / 2, times sqrt(S), rises towards 2C, C = b sqrt(rho)
    # / (2 sqrt(pi)) Otter's constant, since t_n ~ C rho^-n n^(-3/2) and
    # s_k ~ k t_k: 0.805, 0.843, 0.861 and 0.867 at S = 64, 256, 1000, 2000
    sing = solve_polya_singularity()
    two_c = sing.b * math.sqrt(sing.rho) / math.sqrt(math.pi)
    assert round(two_c * 2 ** 16) == 57662
    assert "57662 // math.isqrt(size)" in inspect.getsource(sample_polya_tree)
    t, s = fam._grow_counts(1, 2000)
    scaled = []
    for size in (64, 128, 256, 512, 1000, 2000):
        top = sum(s[k] * t[size - k] for k in range(1, (size - 1) // 2 + 1))
        scaled.append(top / ((size - 1) * t[size]) * math.sqrt(size))
    assert scaled == sorted(scaled) and scaled[-1] < two_c
    assert scaled[-1] == pytest.approx(two_c, rel=0.02)


def test_decomposition_draws_as_shuffle():
    # a star of m leaves has one class of m copies: its fixed leaves are the
    # fixed points of rng.shuffle(list(range(m))), from the same draws
    for mult in range(2, 13):
        star = make_tree([LEAF] * mult)
        for seed in range(20):
            mine, stdlib = random.Random(seed), random.Random(seed)
            d = sample_decomposition(star, mine)
            perm = list(range(mult))
            stdlib.shuffle(perm)
            assert d.c_size - 1 == sum(i == p for i, p in enumerate(perm))
            assert mine.getstate() == stdlib.getstate()


def _nodes(tree):
    """Every node object of a tree once, by an explicit walk."""
    seen = {}
    stack = [tree]
    while stack:
        node = stack.pop()
        if seen.setdefault(id(node), node) is node:
            stack.extend(child for child, _ in node.children)
    return list(seen.values())


def test_deep_and_sampled_trees_pickle_as_one_node_table():
    # a tree pickles, and deep-copies, as one post-order table of its
    # distinct nodes: chain(2000) is far deeper than the recursion limit, and
    # a sampled tree comes back with as many node objects as it had, so
    # shared nodes stay shared.  A shallow copy still shares the children
    sampled = sample_polya_tree(2000, random.Random(7))
    assert len(_nodes(sampled)) < sampled.size
    for tree in (chain(2000), sampled):
        for twin in (pickle.loads(pickle.dumps(tree)), copy.deepcopy(tree)):
            assert twin == tree and twin is not tree
            assert twin.encoding == tree.encoding
            assert len(_nodes(twin)) == len(_nodes(tree))
        assert copy.copy(tree).children is tree.children


def test_equal_subtrees_share_one_node():
    # one object per distinct subtree of a tree: a retained tree holds about
    # half the objects, which the garbage collector walks.  Smallest first,
    # each node is labelled by its children's labels and multiplicities;
    # equal subtrees held by two objects would meet under one label.  No
    # encoding is built on the way.
    nodes = sorted(_nodes(sample_polya_tree(500, random.Random(3))),
                   key=lambda t: t.size)
    label, owner = {}, {}
    for node in nodes:
        key = tuple((label[id(child)], m) for child, m in node.children)
        assert owner.setdefault(key, node) is node
        label[id(node)] = len(owner)
    assert len(nodes) > 100
    assert all(node._encoding is None for node in nodes if node.size > 1)


def test_sampled_trees_build_encodings_only_when_read():
    # only the root keeps the encoding it was asked for; copies carry what
    # was built and build nothing more
    rng = random.Random(5)
    tree = sample_polya_tree(2000, rng)
    sample_decomposition(tree, rng)
    assert tree._encoding is None
    text = tree.encoding
    assert len(text) == 4000 and tree._encoding is text
    for twin in (tree, copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert twin == tree and twin._encoding == text
        inner = [node for node in _nodes(twin)
                 if node is not twin and node.size > 1]
        assert len(inner) > 100
        assert all(node._encoding is None for node in inner)


# retained memory per tree at n = 2000 over seeds 0..9, measured as the test
# below does: 125.5 KiB, against 344.1 KiB while every node kept its encoding
RETAINED_KIB_PER_TREE = 125.5


def test_retained_memory_per_tree_stays_small():
    import tracemalloc
    seeds = range(10)
    for seed in seeds:  # the count table and divisor orders these trees read
        sample_polya_tree(2000, random.Random(seed))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [sample_polya_tree(2000, random.Random(seed)) for seed in seeds]
        gc.collect()
        per_tree = (tracemalloc.get_traced_memory()[0] - before) / len(kept) / 1024
    finally:
        tracemalloc.stop()
    assert per_tree < 1.5 * RETAINED_KIB_PER_TREE, per_tree


def test_a_dropped_tree_keeps_no_node_alive():
    # the oracle keeps its invariants on the nodes, not in caches keyed by tree
    tree = sample_polya_tree(2000, random.Random(11))
    for read in (aut_order, pointed_tree_count, plane_embeddings, ctree_weight,
                 fixed_point_polynomial, signed_fixed_point_polynomial):
        read(tree)
    own = {id(node) for node in _nodes(tree)} - {id(LEAF)}
    del tree
    gc.collect()
    assert len(own) > 500 and not [node for node in gc.get_objects()
                                    if type(node) is CanonicalTree and id(node) in own]


def test_sampling_leaves_global_state_alone():
    # a fresh interpreter, so no earlier import has touched any of it: the
    # decimal context, the int/str digit limit and the recursion limit, and
    # numpy stays unloaded (it would add ~12 MiB to every sampling process)
    import subprocess
    import sys
    code = ("import decimal, random, sys\n"
            "def state():\n"
            "    c = decimal.getcontext()\n"
            "    return (c.prec, c.Emax, c.Emin, dict(c.traps), dict(c.flags),\n"
            "            sys.get_int_max_str_digits(), sys.getrecursionlimit())\n"
            "before = state()\n"
            "from polyakit.sampler import sample_polya_tree\n"
            "sample_polya_tree(1200, random.Random(1))\n"
            "assert state() == before, (state(), before)\n"
            "assert 'numpy' not in sys.modules\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr


def test_samples_are_valid_trees():
    rng = random.Random(5)
    for _ in range(50):
        t = sample_polya_tree(25, rng)
        assert t.size == 25


def test_uniformity_exact_at_size_four():
    # 4 shapes, 4000 draws: each frequency near 1/4
    rng = random.Random(99)
    counts = Counter(sample_polya_tree(4, rng).encoding for _ in range(4000))
    assert len(counts) == 4
    for c in counts.values():
        assert abs(c / 4000 - 0.25) < 0.035


def test_uniformity_chi_square_size_seven():
    # 48 shapes; chi-square at the 0.01 level (df=47 critical 72.44)
    rng = random.Random(2024)
    m = 9600
    counts = Counter(sample_polya_tree(7, rng).encoding for _ in range(m))
    assert len(counts) == 48
    expected = m / 48
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < 72.44


def test_decomposition_conservation():
    rng = random.Random(7)
    for _ in range(100):
        tree = sample_polya_tree(60, rng)
        d = sample_decomposition(tree, rng)
        assert d.n == 60
        forest_nodes = sum(k * v for k, v in d.forest_size_histogram.items())
        assert d.c_size + forest_nodes == 60
        assert d.l_max <= 59
        assert (d.y_count == 0) == (d.c_size == 60)


def test_chain_decomposition_is_trivial():
    rng = random.Random(1)
    d = sample_decomposition(chain(12), rng)
    assert d.c_size == 12 and d.l_max == 0 and d.y_count == 0


def test_cherry_decomposition_law():
    # Aut = S_2: identity keeps 3 fixed nodes, the swap keeps 1
    rng = random.Random(11)
    cherry = make_tree([LEAF, LEAF])
    counts = Counter(sample_decomposition(cherry, rng).c_size
                     for _ in range(4000))
    assert set(counts) == {1, 3}
    assert abs(counts[3] / 4000 - 0.5) < 0.04


def test_star_decomposition_law():
    # root and 3 leaves: c_size law (1/6) u^4 + (1/2) u^2 + (1/3) u
    rng = random.Random(13)
    star3 = make_tree([LEAF] * 3)
    n = 6000
    counts = Counter(sample_decomposition(star3, rng).c_size
                     for _ in range(n))
    assert abs(counts[4] / n - 1 / 6) < 0.02
    assert abs(counts[2] / n - 1 / 2) < 0.025
    assert abs(counts[1] / n - 1 / 3) < 0.025


def test_mean_c_size_against_exact_moment():
    n, m = 60, 2000
    rng = random.Random(17)
    total = 0
    for _ in range(m):
        tree = sample_polya_tree(n, rng)
        total += sample_decomposition(tree, rng).c_size
    first, second = fam.csize_moment_series(n)
    t = fam.polya_coeffs(n)
    mean = float(first[n] / t[n])
    var = float(second[n] / t[n]) - mean * mean
    se = math.sqrt(var / m)
    assert abs(total / m - mean) < 4 * se


def test_run_experiment_deterministic_and_sane():
    a = run_experiment(50, 300, master_seed="t")
    b = run_experiment(50, 300, master_seed="t")
    assert a._asdict() == b._asdict()
    assert a.n == 50 and a.num_samples == 300
    assert a.first_seeds[0] == derived_seed("t", 0)
    assert 0 < a.mean_c_size < 50
    dist = a.forest_size_distribution
    assert abs(sum(dist.values()) - 1) < 1e-9
    # conservation in expectation: mean forest nodes per slot
    assert a.mean_c_size + a.mean_y_count <= 50


def test_run_experiment_budget_checks():
    # both entry points share one budget: sizes up to MAX_SIZE and 1 to
    # MAX_SAMPLES samples; each case is refused before any tree is drawn
    for n, samples in ((10_001, 10), (100, 100_001), (100, 0), (100, -3)):
        with pytest.raises(ValueError):
            run_experiment(n, samples)
        with pytest.raises(ValueError):
            lmax_check([n], samples)


def test_lmax_check_rows():
    out = lmax_check((30, 60), 40, s=0.5, master_seed="x", exact_mean=True)
    rows = out["rows"]
    assert [r["n"] for r in rows] == [30, 60]
    for row in rows:
        lo, hi = row["interval"]
        assert lo < hi
        assert 0 <= row["fraction_in_interval"] <= 1
        assert row["mean_l_max"] > 0
        assert type(row["exact_mean_l_max"]) is float
        assert row["leading_ratio"] == pytest.approx(
            -2 / math.log(0.33832185689920769), rel=1e-6)


def test_lmax_check_deterministic():
    a = lmax_check((30,), 25, master_seed="y")
    b = lmax_check((30,), 25, master_seed="y")
    assert a == b


def test_lmax_check_rejects_sizes_below_two():
    # log n = 0 at n = 1, and the report divides by it
    with pytest.raises(ValueError):
        lmax_check((30, 1), 2)


CHERRY = make_tree([LEAF, LEAF])  # its two leaves swap


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: sample_polya_tree(0, random.Random(0)),
                 "tree size must be positive", id="sample-size-0"),
    pytest.param(lambda: sample_polya_tree(MAX_SIZE + 1, random.Random(0)),
                 "size budget exceeded", id="sample-past-max-size"),
    pytest.param(lambda: lmax_check([500], 1, s=1.0),
                 r"s must lie in \(0, 1\)", id="lmax-s-1"),
    pytest.param(lambda: fam.exact_forest_size_row(0, 3),
                 "needs n >= 1", id="forest-size-row-n-0"),
    pytest.param(lambda: run_verification(0),
                 "oracle_max must be at least 1", id="verify-0"),
    pytest.param(lambda: DecompositionSample(1, 0, 0, 0, {}).validate(),
                 "the root is always fixed", id="validate-no-root"),
    pytest.param(lambda: DecompositionSample(3, 1, 0, 0, {0: 1}).validate(),
                 "must cover the tree", id="validate-cover"),
    pytest.param(lambda: DecompositionSample(3, 1, 2, 1, {2: 1, 0: 1}).validate(),
                 "one forest slot per fixed node", id="validate-slots"),
    pytest.param(lambda: make_forest([(LEAF, 1)]),
                 "must repeat at least twice", id="forest-single-copy"),
    pytest.param(lambda: signed_forest_weight(make_forest([(CHERRY, 2)])),
                 "identity-tree forests", id="signed-weight-non-identity"),
])
def test_library_refusals_are_value_errors(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_small_sizes_exact():
    rng = random.Random(3)
    assert sample_polya_tree(1, rng) == LEAF
    assert sample_polya_tree(2, rng).size == 2
    two = {sample_polya_tree(3, rng).encoding for _ in range(64)}
    assert len(two) == 2


def test_sampled_distribution_matches_census():
    # frequencies at n=6 against the 20 exact shapes, loose 4-sigma bound
    rng = random.Random(31)
    m = 8000
    counts = Counter(sample_polya_tree(6, rng).encoding for _ in range(m))
    assert len(counts) == 20
    p = 1 / 20
    bound = 4 * math.sqrt(p * (1 - p) / m)
    for c in counts.values():
        assert abs(c / m - p) < bound
