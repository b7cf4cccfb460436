"""One benchmark process: set up, run the timed requests, check, report.

Usage: python3 perfbench/worker.py '<spec as JSON>'

The spec names the kind of work ("cli", "session" or "sample") and its
inputs.  The process imports polyakit layer by layer (set-up), optionally
installs the span recorder, builds its inputs, marks itself ready and then
times each request with the monotonic clock, which is shared by all
processes on the machine, so the parent can measure from the moment it
spawned this process.  Checks run after the timed requests.  The last line
of standard output is a JSON report; the exit code is the CLI's for "cli"
and 0 otherwise.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import random
import resource
import sys
import traceback
from fractions import Fraction
from time import monotonic, perf_counter

import checks
from tracer import LAYERS, Tracer


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


PROBE_EVERY_S = 0.4


def _probe_task() -> float:
    """Time a fixed task mixing big-int recurrences, Fraction sums and
    dict/str/tuple churn, the kinds of work polyakit does."""
    start = perf_counter()
    t, s = [0, 1], [0, 1]
    for n in range(2, 260):
        t.append(sum(t[n - i] * s[i] for i in range(1, n)) // (n - 1))
        s.append(sum(m * t[m] for m in range(1, n + 1) if n % m == 0))
    acc = Fraction(0)
    for k in range(1, 150):
        acc += Fraction(t[k % 60 + 1], k)
    nodes: dict[str, tuple] = {}
    for i in range(8000):
        key = "(" + str(i % 613) + ")"
        nodes[key] = nodes.get(key, ()) + (i,) if i % 7 else ()
    return perf_counter() - start


class Probe:
    """Measures the speed of the CPU the requests run on: the fixed task runs
    between requests, outside their timings, once per PROBE_EVERY_S of
    request time, and three times after the last request."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self._since = 0.0

    def after(self, start: float, end: float) -> None:
        self._since += end - start
        if self._since >= PROBE_EVERY_S:
            self.times.append(_probe_task())
            self._since = 0.0

    def finish(self) -> list[float]:
        return self.times + [_probe_task() for _ in range(3)]


def run_cli(spec: dict, pk: dict, tracer: Tracer | None, report: dict,
            probe: Probe) -> None:
    main = pk["cli"].main
    report["ready"] = monotonic()
    if tracer:
        tracer.request = 0
    start = monotonic()
    try:
        rc = main(list(spec["argv"]))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the request fails; the report still goes out
        report["errors"].append([0, _error(exc)])
        rc = 1
    report["requests"].append([start, monotonic()])
    report["rc"] = rc


def session_plan(spec: dict, pk: dict) -> list[tuple[str, str, object, tuple]]:
    """(phase, label, function, args) in the order a user would raise N."""
    fam, asy = pk["families"], pk["asymptotics"]
    plan = []
    for n in spec["orders"]:
        for name in ("dforest_coeffs", "pointed_coeffs", "identity_tree_coeffs"):
            plan.append(("exact", name, getattr(fam, name), (n,)))
    for n in spec["ctree_orders"]:
        plan.append(("exact", "ctree_polynomials", fam.ctree_polynomials, (n,)))
    for order in spec["solver_orders"]:
        plan.append(("laws", "decomposition_constants",
                     asy.decomposition_constants, (order,)))
        for family in ("hierarchy", "binary"):
            plan.append(("laws", "solve_variant_singularity",
                         asy.solve_variant_singularity, (family, order)))
    for n in spec["lmax_sizes"]:
        plan.append(("laws", "lmax_exact_mean", asy.lmax_exact_mean, (n,)))
    return plan


def run_session(spec: dict, pk: dict, tracer: Tracer | None,
                report: dict, probe: Probe) -> list:
    plan = session_plan(spec, pk)
    report["phases"] = [phase for phase, _, _, _ in plan]
    report["ready"] = monotonic()
    outputs = []
    for i, (_, _, fn, args) in enumerate(plan):
        if tracer:
            tracer.request = i
        start = monotonic()
        try:
            out = fn(*args)
        except Exception as exc:
            report["errors"].append([i, _error(exc)])
            out = None
        report["requests"].append([start, monotonic()])
        probe.after(*report["requests"][-1])
        outputs.append(out)
    report["digests"] = [_digest(repr(out)) for out in outputs]
    return [(label, args, out) for (_, label, _, args), out in zip(plan, outputs)]


def check_session(results: list, pk: dict, report: dict) -> None:
    """Orders extend each other; every family matches an independent route."""
    refs = checks.References()
    asy = pk["asymptotics"]
    last: dict[str, tuple] = {}
    lmax_means = []
    for i, (label, args, out) in enumerate(results):
        if out is None:
            continue
        if label == "identity_tree_coeffs":
            value = tuple(s.coeffs for s in out)
            bad = checks.check_identity(refs, out[0].coeffs)
        elif label == "ctree_polynomials":
            value = tuple(r.coeffs for r in out.rows)
            bad = checks.check_ctree_rows(refs, [list(r) for r in value])
        elif label in ("dforest_coeffs", "pointed_coeffs"):
            value = out.coeffs
            check = (checks.check_dforest if label == "dforest_coeffs"
                     else checks.check_pointed)
            bad = check(refs, value)
        elif label == "decomposition_constants":
            sing = asy.solve_polya_singularity(args[0])
            bad = checks.check_polya_singularity(sing.rho, sing.residual,
                                                 sing.rho_shift)
            if out.rho != sing.rho:
                bad.append("decomposition constants use another rho")
            value = None
        elif label == "solve_variant_singularity":
            bad = checks.check_variant(out.family, out.tau, out.residual,
                                       out.tau_shift)
            value = None
        else:  # lmax_exact_mean
            bad = []
            if lmax_means and out <= lmax_means[-1]:
                bad.append(f"E L_n not increasing at n={args[0]}")
            if args[0] == 500 and abs(out - checks.LMAX_MEAN_500) > 5e-4:
                bad.append(f"E L_500 = {out}, expected {checks.LMAX_MEAN_500}")
            if not lmax_means:
                n = args[0]
                kmax = min(n, max(64, int(8 * math.log(n))))
                bad += checks.check_lmax_cdf(asy.lmax_cdf_exact(n, kmax), out)
            lmax_means.append(out)
            value = None
        if value is not None:
            prev = last.get(label)
            if prev is not None:
                if label == "identity_tree_coeffs":
                    extends = all(s[:len(p)] == p for s, p in zip(value, prev))
                else:
                    extends = value[:len(prev)] == prev
                if not extends:
                    bad.append(f"{label}{args} does not extend the smaller order")
            last[label] = value
        report["errors"] += [[i, msg] for msg in bad]


def run_sample(spec: dict, pk: dict, tracer: Tracer | None,
               report: dict, probe: Probe) -> list:
    sampler = pk["sampler"]
    n, start_index = spec["n"], spec["start"]
    seeds = [sampler.derived_seed(spec["seed"], start_index + j)
             for j in range(spec["count"])]
    sample_tree, decompose = sampler.sample_polya_tree, sampler.sample_decomposition
    report["ready"] = monotonic()
    samples = []
    for j, seed in enumerate(seeds):
        if tracer:
            tracer.request = j
        start = monotonic()
        try:
            rng = random.Random(seed)
            tree = sample_tree(n, rng)
            dec = decompose(tree, rng, seed=seed)
        except Exception as exc:
            report["errors"].append([j, _error(exc)])
            tree = dec = None
        report["requests"].append([start, monotonic()])
        probe.after(*report["requests"][-1])
        samples.append((tree, dec))
    report["digests"] = [
        _digest(f"{t.encoding}|{d.c_size},{d.l_max},{d.y_count}|"
                f"{sorted(d.forest_size_histogram.items())}")
        if t is not None else "" for t, d in samples]
    return samples


def check_sample(spec: dict, samples: list, pk: dict, report: dict) -> None:
    n = spec["n"]
    for j, (tree, dec) in enumerate(samples):
        if tree is None:
            continue
        bad = checks.check_tree(n, tree.encoding, tree.size) + \
            checks.check_decomposition(n, dec.c_size, dec.l_max, dec.y_count,
                                       dec.forest_size_histogram)
        report["errors"] += [[j, msg] for msg in bad]
    if spec["start"] != 0:
        return
    # the loop above must measure what `polyakit sample` runs: its aggregate
    # over the first seeds equals run_experiment for the same master seed
    k = min(4, len(samples))
    if k == 0 or any(tree is None for tree, _ in samples[:k]):
        return
    got = pk["sampler"].run_experiment(n, k, spec["seed"])
    decs = [dec for _, dec in samples[:k]]
    hist: dict[int, int] = {}
    for dec in decs:
        for m, c in dec.forest_size_histogram.items():
            hist[m] = hist.get(m, 0) + c
    slots = sum(hist.values())
    want = (tuple(dec.seed for dec in decs),
            sum(d.c_size for d in decs) / k, sum(d.l_max for d in decs) / k,
            sum(d.y_count for d in decs) / k,
            {m: hist[m] / slots for m in sorted(hist)})
    have = (got.first_seeds, got.mean_c_size, got.mean_l_max,
            got.mean_y_count, got.forest_size_distribution)
    if have != want:
        report["errors"] += [[j, "loop disagrees with run_experiment"]
                             for j in range(k)]


def main() -> int:
    spec = json.loads(sys.argv[1])
    tracer = Tracer() if spec.get("trace") else None
    report: dict = {"requests": [], "errors": []}
    pk = {}
    for layer in LAYERS:
        start = perf_counter()
        pk[layer] = importlib.import_module(f"polyakit.{layer}")
        if tracer:
            tracer.record(f"{layer}.import", start, perf_counter())
    report["version"] = importlib.import_module("polyakit").__version__
    if tracer:
        lru = [f for f in vars(pk["families"]).values()
               if hasattr(f, "cache_info")]
        tracer.install()

    kind, probe = spec["kind"], Probe()
    if kind == "cli":
        run_cli(spec, pk, tracer, report, probe)
    elif kind == "session":
        results = run_session(spec, pk, tracer, report, probe)
    elif kind == "sample":
        samples = run_sample(spec, pk, tracer, report, probe)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    report["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["probes"] = probe.finish()

    if tracer:  # snapshot before the checks, which call polyakit too
        infos = [f.cache_info() for f in lru]
        report["trace"] = {
            "stats": {k: list(v) for k, v in tracer.stats.items()},
            "layers": tracer.layer_totals(),
            "cache": [sum(i.hits for i in infos), sum(i.misses for i in infos),
                      sum(i.currsize for i in infos)],
        }
        tracer.write(spec["spans"])

    if kind == "session" and spec.get("check"):
        check_session(results, pk, report)
    elif kind == "sample":
        check_sample(spec, samples, pk, report)
    print(json.dumps(report))
    return report.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main())
