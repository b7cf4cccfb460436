"""Exact uniform sampling and decomposition statistics."""

import math
import os
import random
from collections import Counter
from fractions import Fraction

import pytest

import polyakit.families as fam
from polyakit.oracle import LEAF, aut_order, chain, enumerate_trees, make_tree
from polyakit.sampler import (
    TreeSampler,
    derived_seed,
    lmax_check,
    run_experiment,
    sample_decomposition,
    sample_polya_tree,
)

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
    report = repr(run_experiment(300, 40, "pin").to_dict())
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "ee9adab1a1b6501cdddb4a9a4483aefe5e263ba47f6237615cc2201b937f24fa")


def test_sampling_leaves_the_recursion_limit_alone():
    # a fresh interpreter, so no earlier import has touched the limit
    import subprocess
    import sys
    code = ("import random, sys\n"
            "before = sys.getrecursionlimit()\n"
            "from polyakit.sampler import sample_polya_tree\n"
            "sample_polya_tree(300, random.Random(1))\n"
            "assert sys.getrecursionlimit() == before, sys.getrecursionlimit()\n")
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


def test_extend_matches_reference_table():
    s = TreeSampler()
    s.extend(30)
    assert s._t[:11] == fam.polya_int_table(10)


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
    assert a.to_dict() == b.to_dict()
    assert a.n == 50 and a.num_samples == 300
    assert a.first_seeds[0] == derived_seed("t", 0)
    assert 0 < a.mean_c_size < 50
    dist = a.forest_size_distribution
    assert abs(sum(dist.values()) - 1) < 1e-9
    # conservation in expectation: mean forest nodes per slot
    assert a.mean_c_size + a.mean_y_count <= 50


def test_run_experiment_budget_checks():
    with pytest.raises(ValueError):
        run_experiment(10_001, 10)
    with pytest.raises(ValueError):
        run_experiment(100, 100_001)


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
