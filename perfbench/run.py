"""polyakit benchmark: cold CLI requests, an order-sweep session, seeded sampling.

Run from the repository root:

  python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload all --seed 1      # every workload
  python3 perfbench/run.py --smoke                      # tiny sizes, self-test

Each workload is a closed loop with one caller: every request starts after
the previous one ended, and every process runs alone on the machine.  A run
makes max(1, seconds // ROUND_SECONDS) rounds of its workload's request mix,
each round in fresh interpreters, so parent and change do the same work.
Outputs are checked after the timed regions (see checks.py).  The line before
the last is a JSON report with the workload-specific metrics, digests and run
metadata; the last line is the summary: end-to-end metrics with --trace 0,
per-layer metrics from the span recorder with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from time import monotonic

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = ".perfbench_out"
ROUND_SECONDS = 6        # one round's length on the 2-CPU reference machine
RUN_DEADLINE_S = 170.0   # a run ends well inside the 180 s limit

END_TO_END = {
    "setup_s": "s", "round_s": "s", "peak_rss_mib": "MiB",
}
_NAMED_CALLS = ("series.RationalSeries.mul", "series.RationalSeries.exp",
                "series.RationalSeries.reciprocal", "series.RationalSeries.compose",
                "series.RationalSeries.reversion", "series.UPoly.mul",
                "series.BivariateSeries.exp", "oracle.make_tree",
                "asymptotics.lmax_cdf_exact", "sampler.sample_polya_tree")
PER_LAYER = {
    **{f"{layer}.{m}": unit
       for layer in ("series", "families", "oracle", "asymptotics", "sampler",
                     "verify", "cli")
       for m, unit in (("self_s", "s"), ("calls", "count"),
                       ("raised", "count"))},
    **{f"{name}.calls": "count" for name in _NAMED_CALLS},
    "families.cache_hits": "count", "families.cache_misses": "count",
    "families.cache_entries": "count", "cli.output_bytes": "bytes",
}

# one round of cli-cold, each command in its own process; then smoke sizes
CLI_COMMANDS = [c.split() for c in (
    "coeffs --family dforest --n 150",
    "coeffs --family pointed --n 150",
    "coeffs --family identity --n 120",
    "coeffs --family e-series --n 40",
    "coeffs --family ctree-poly --n 35",
    "coeffs --family dforest-components --n 30",
    "coeffs --family omega --omega all-except:1 --n 120",
    "table --which forest-size --mmax 7 --exact-n 80",
    "singularity --family polya --order 400",
    "singularity --family hierarchy --order 400",
    "singularity --family binary --order 400",
    "verify --oracle-max 7",
)]
SMOKE_CLI_COMMANDS = [c.split() for c in (
    "coeffs --family dforest --n 12",
    "coeffs --family pointed --n 12",
    "coeffs --family identity --n 12",
    "coeffs --family e-series --n 8",
    "coeffs --family ctree-poly --n 8",
    "coeffs --family dforest-components --n 8",
    "coeffs --family omega --omega all-except:1 --n 12",
    "table --which forest-size --mmax 7 --exact-n 20",
    "singularity --family polya --order 60",
    "singularity --family hierarchy --order 60",
    "singularity --family binary --order 60",
    "verify --oracle-max 4",
)]
SESSION = {"orders": [60, 90, 120, 150, 180], "ctree_orders": [15, 20, 25, 30, 35],
           "solver_orders": [100, 200, 300, 400], "lmax_sizes": [250, 500, 750, 1000]}
SMOKE_SESSION = {"orders": [10, 14], "ctree_orders": [5, 7],
                 "solver_orders": [60, 80], "lmax_sizes": [40, 60]}
SAMPLE = {"n": 2000, "per_round": 80}
SMOKE_SAMPLE = {"n": 60, "per_round": 6}

WORKLOADS = ("cli-cold", "session-sweep", "sample-2000")

# The shared 2-CPU machine runs up to 1.5x faster or slower for tens of
# seconds at a time.  Each worker times a fixed pure-Python task between and
# after its requests, on the CPU that runs them (worker.Probe).  A round's
# times are multiplied by (PROBE_REFERENCE_S / median probe) ** PROBE_EXPONENT.
# The exponent is below 1 because the small probe speeds up more than
# polyakit's work in the machine's fast phases (measured: 1.6x against 1.25x
# to 1.4x).  The unscaled figures are in the report line.
PROBE_REFERENCE_S = 0.017
PROBE_EXPONENT = 0.75


class Run:
    """The processes of one benchmark run and what they reported."""

    def __init__(self, workload: str, seed: str, rounds: int, trace: bool,
                 smoke: bool) -> None:
        self.workload, self.seed, self.rounds = workload, seed, rounds
        self.trace, self.smoke = trace, smoke
        self.procs: list[dict] = []
        # (busy time, first result, traced, median worker probe) per round
        self.round_spans: list[tuple[float, float, bool, float | None]] = []
        self.failed: set[tuple] = set()
        self.errors: list[str] = []
        self.deadline = monotonic() + RUN_DEADLINE_S
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("PYTHONPATH", "POLYAKIT_ORDER")}
        self.env.update(PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
        self.dir = os.path.join(OUT_DIR, workload)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def spawn(self, spec: dict, rnd: int, expected: int, label=None) -> dict:
        """Start one worker, wait for it, and keep its report."""
        traced = self.trace and rnd % 2 == 0
        index = len(self.procs)
        spec = dict(spec, trace=traced,
                    spans=os.path.join(self.dir, f"spans-{index}.csv.gz"))
        proc = {"round": rnd, "traced": traced, "expected": expected,
                "label": label, "report": None, "spec": spec}
        proc["spawn"] = monotonic()
        try:
            done = subprocess.run(
                [sys.executable, WORKER, json.dumps(spec)], env=self.env,
                capture_output=True, text=True,
                timeout=max(1.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            proc["exit"], proc["rc"] = monotonic(), None
            self._fail(proc, range(expected), "worker timed out")
            self.procs.append(proc)
            return proc
        proc["exit"], proc["rc"] = monotonic(), done.returncode
        lines = done.stdout.strip().splitlines()
        try:
            proc["report"] = json.loads(lines[-1])
        except (IndexError, ValueError):
            tail = done.stderr.strip().splitlines()[-1:] or ["no output"]
            self._fail(proc, range(expected), f"worker crashed: {tail[0]}")
        else:
            for j, msg in proc["report"]["errors"]:
                self._fail(proc, [j], msg)
            if done.returncode != 0:
                self._fail(proc, range(expected),
                           f"exit code {done.returncode}, expected 0")
        self.procs.append(proc)
        return proc

    def _fail(self, proc: dict, requests, msg: str) -> None:
        where = f"{self.workload} round {proc['round']} {proc['label'] or ''}"
        self.errors.append(f"{where.strip()}: {msg}")
        self.failed.update((len(self.procs), j) for j in requests)

    def requests(self, proc: dict) -> list[tuple[float, float]]:
        """(start, end) of each timed request; a CLI request runs from the
        spawn of its process until main() returns."""
        reqs = [tuple(r) for r in (proc["report"] or {}).get("requests", [])]
        if proc["spec"]["kind"] == "cli":
            return [(proc["spawn"], reqs[0][1] if reqs else proc["exit"])]
        return reqs

    def add_round(self, procs: list[dict]) -> None:
        """A round's time is the sum of its request times as the workers
        measured them: set-up (setup_s), probes and checks are left out."""
        busy = sum(sum(e - s for s, e in p["report"]["requests"])
                   if p["report"] else p["exit"] - p["spawn"] for p in procs)
        first = min((e for p in procs for _, e in self.requests(p)),
                    default=procs[-1]["exit"]) - procs[0]["spawn"]
        probes = [t for p in procs if p["report"] for t in p["report"]["probes"]]
        self.round_spans.append((busy, first, procs[0]["traced"],
                                 statistics.median(probes) if probes else None))

    def scale(self, rnd: int) -> float:
        """Factor taking round rnd's times to the reference speed."""
        probe = self.round_spans[rnd][3]
        return (PROBE_REFERENCE_S / probe) ** PROBE_EXPONENT if probe else 1.0

    def durations(self, proc: dict) -> list[float]:
        """Scaled duration of each timed request of one process."""
        f = self.scale(proc["round"])
        return [f * (e - s) for s, e in self.requests(proc)]

    @property
    def attempted(self) -> int:
        return sum(p["expected"] for p in self.procs)


# ---------------------------------------------------------------------------
# workloads


def run_cli_cold(run: Run) -> dict:
    commands = SMOKE_CLI_COMMANDS if run.smoke else CLI_COMMANDS
    outputs: list[list[str]] = []
    for rnd in range(run.rounds):
        procs, paths = [], []
        for i, argv in enumerate(commands):
            path = os.path.join(run.dir, f"r{rnd}-{i}.json")
            spec = {"kind": "cli", "argv": argv + ["--output", path]}
            procs.append(run.spawn(spec, rnd, 1, label=" ".join(argv)))
            paths.append(path)
        run.add_round(procs)
        outputs.append(paths)
    digests = [[_file_digest(p) for p in paths] for paths in outputs]
    check_cli_outputs(run, commands, outputs[0], digests)
    per_command: dict[str, list[float]] = {}
    per_subcommand: dict[str, float] = {}
    for p in run.procs:
        if not p["traced"]:
            t = run.durations(p)[0]
            per_command.setdefault(p["label"], []).append(t)
            cmd = p["label"].split()[0] + "_s"
            per_subcommand[cmd] = per_subcommand.get(cmd, 0.0) + t
    rounds = len([s for s in run.round_spans if not s[2]]) or 1
    detail = {k: v / rounds for k, v in per_subcommand.items()}
    detail["command_median_s"] = {k: _median(v) for k, v in per_command.items()}
    detail["digest"] = _combine(digests[0])
    detail["output_bytes_per_round"] = sum(
        os.path.getsize(p) for p in outputs[0] if os.path.exists(p))
    return detail


def check_cli_outputs(run: Run, commands, paths, digests) -> None:
    """Round 0 against independent routes; later rounds byte for byte."""
    sys.path.insert(0, os.path.abspath("src"))
    import checks
    refs = checks.References()
    n_cmd = len(commands)
    for i, (argv, path) in enumerate(zip(commands, paths)):
        try:
            with open(path, encoding="utf-8") as fh:
                payload = json.load(fh)
            bad = check_cli_payload(checks, refs, argv, payload)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            bad = [f"unreadable output: {exc!r}"]
        for msg in bad:
            run.errors.append(f"{' '.join(argv)}: {msg}")
        if bad:
            run.failed.add((i, 0))
    for rnd, row in enumerate(digests[1:], start=1):
        for i, d in enumerate(row):
            if d != digests[0][i]:
                run.errors.append(f"round {rnd} {' '.join(commands[i])}: "
                                  "output differs from round 0")
                run.failed.add((rnd * n_cmd + i, 0))


def check_cli_payload(checks, refs, argv: list[str], payload: dict) -> list[str]:
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "coeffs":
        family, n = opts["--family"], int(opts["--n"])
        if "rows" in payload:
            rows = [_poly_row(r["coefficients"]) for r in payload["rows"]]
            bad = [] if len(rows) == n + 1 else [f"{len(rows)} rows"]
            check = {"ctree-poly": checks.check_ctree_rows,
                     "dforest-components": checks.check_dforest_components}[family]
            return bad + check(refs, rows)
        coeffs = [Fraction(c) for c in payload["coefficients"]]
        bad = [] if len(coeffs) == n + 1 else [f"{len(coeffs)} coefficients"]
        check = {"dforest": checks.check_dforest,
                 "pointed": checks.check_pointed,
                 "identity": checks.check_identity,
                 "e-series": checks.check_e_series,
                 "omega": checks.check_hierarchy}[family]
        return bad + check(refs, coeffs)
    if argv[0] == "table":
        return checks.check_forest_size_table(refs, payload)
    if argv[0] == "singularity":
        bad = [] if payload["converged"] is True else ["not converged"]
        if opts["--family"] == "polya":
            return bad + checks.check_polya_singularity(
                payload["rho"], payload["residual"], payload["rho_shift"])
        return bad + checks.check_variant(payload["family"], payload["tau"],
                                          payload["residual"], payload["tau_shift"])
    if argv[0] == "verify":
        rows = payload["rows"]
        if payload["all_passed"] is True and len(rows) == 15 \
                and all(r["passed"] for r in rows):
            return []
        return ["verification matrix has failing rows"]
    return [f"no check for {argv[0]}"]


def _poly_row(coeffs: dict[str, str]) -> list[Fraction]:
    row = [Fraction(0)] * (1 + max((int(k) for k in coeffs), default=-1))
    for k, v in coeffs.items():
        row[int(k)] = Fraction(v)
    return row


def run_session_sweep(run: Run) -> dict:
    sizes = SMOKE_SESSION if run.smoke else SESSION
    digests = []
    for rnd in range(run.rounds):
        expected = (3 * len(sizes["orders"]) + len(sizes["ctree_orders"])
                    + 3 * len(sizes["solver_orders"]) + len(sizes["lmax_sizes"]))
        spec = dict(sizes, kind="session", check=rnd == 0)
        proc = run.spawn(spec, rnd, expected)
        run.add_round([proc])
        digests.append((proc["report"] or {}).get("digests", []))
    for rnd, row in enumerate(digests[1:], start=1):
        for i, d in enumerate(row):
            if d != digests[0][i]:
                run.errors.append(f"round {rnd} step {i}: differs from round 0")
                run.failed.add((rnd, i))
    phase_s: dict[str, list[float]] = {"exact": [], "laws": []}
    for p in run.procs:
        if p["report"] and not p["traced"]:
            sums = {"exact": 0.0, "laws": 0.0}
            for phase, t in zip(p["report"]["phases"], run.durations(p)):
                sums[phase] += t
            for phase, v in sums.items():
                phase_s[phase].append(v)
    return {"sweep_exact_s": _median(phase_s["exact"]),
            "sweep_laws_s": _median(phase_s["laws"]),
            "digest": _combine(digests[0])}


def run_sample_2000(run: Run) -> dict:
    sizes = SMOKE_SAMPLE if run.smoke else SAMPLE
    k = sizes["per_round"]
    digests = []
    for rnd in range(run.rounds):
        spec = {"kind": "sample", "n": sizes["n"], "seed": run.seed,
                "start": rnd * k, "count": k}
        proc = run.spawn(spec, rnd, k)
        run.add_round([proc])
        digests += (proc["report"] or {}).get("digests", [])
    # the first tree of a process carries the count-table build, which
    # first_tree_s reports; per-tree figures use the warm trees only
    warm = sorted(t for p in run.procs if not p["traced"]
                  for t in run.durations(p)[1:])
    tail, beyond = _tail(warm)
    return {"trees_per_s": len(warm) / sum(warm) if warm else None,
            "tree_p50_ms": _ms(_median(warm)), "tree_tail_ms": _ms(tail),
            "tree_tail_beyond": beyond, "trees_timed": len(warm),
            "trees_sampled": len(digests), "digest": _combine(digests)}


RUNNERS = {"cli-cold": run_cli_cold, "session-sweep": run_session_sweep,
           "sample-2000": run_sample_2000}


# ---------------------------------------------------------------------------
# metrics


def _median(values) -> float | None:
    return statistics.median(values) if values else None


def _tail(values: list[float]) -> tuple[float, int]:
    """The highest order statistic with at least ten samples beyond it."""
    if not values:
        return None, 0
    i = len(values) - 11 if len(values) >= 11 else len(values) - 1
    return values[i], len(values) - 1 - i


def _ms(seconds: float | None) -> float | None:
    return None if seconds is None else 1e3 * seconds


def _file_digest(path: str) -> str:
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except OSError:
        return ""


def _combine(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def end_to_end(run: Run, scaled: bool = True) -> dict:
    procs = [p for p in run.procs if p["report"] and not p["traced"]]
    f = {r: run.scale(r) if scaled else 1.0 for r in range(len(run.round_spans))}
    rounds = [f[r] * busy for r, (busy, _, traced, _) in enumerate(run.round_spans)
              if not traced]
    setup = [f[p["round"]] * (p["report"]["ready"] - p["spawn"]) for p in procs]
    return {
        "setup_s": _median(setup),
        "round_s": _median(rounds),
        "peak_rss_mib": max((p["report"]["rss_kib"] for p in procs),
                            default=0) / 1024,
    }


def per_layer(run: Run) -> tuple[dict, dict]:
    traced = [p for p in run.procs if p["traced"] and p["report"]]
    out = {name: 0 for name in PER_LAYER}
    functions: dict[str, list] = {}
    for p in traced:
        trace = p["report"]["trace"]
        for layer, (calls, self_s, raised) in trace["layers"].items():
            out[f"{layer}.calls"] += calls
            out[f"{layer}.self_s"] += self_s
            out[f"{layer}.raised"] += raised
        for name, stats in trace["stats"].items():
            acc = functions.setdefault(name, [0, 0.0, 0])
            for i, v in enumerate(stats):
                acc[i] += v
        for key, v in zip(("hits", "misses", "entries"), trace["cache"]):
            out[f"families.cache_{key}"] += v
        if p["spec"]["kind"] == "cli":
            out["cli.output_bytes"] += _size(p["spec"]["argv"][-1])
    for name in _NAMED_CALLS:
        out[f"{name}.calls"] = functions.get(name, [0])[0]
    times = {True: [], False: []}
    for busy, _, traced_round, _ in run.round_spans:
        times[traced_round].append(busy)
    overhead = (_median(times[True]) - _median(times[False])
                if times[True] and times[False] else None)
    detail = {"functions": {k: {"calls": c, "self_s": s, "raised": r}
                            for k, (c, s, r) in sorted(functions.items())
                            if c},
              "trace_overhead_s": overhead,
              "traced_processes": len(traced),
              "spans": sorted(p["spec"]["spans"] for p in traced)}
    return out, detail


def _size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def git_revision() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: str, seconds: int, trace: bool,
                 smoke: bool = False) -> tuple[dict, dict]:
    rounds = 2 if smoke else max(1, seconds // ROUND_SECONDS)
    run = Run(workload, seed, rounds, trace, smoke)
    started = monotonic()
    detail = RUNNERS[workload](run)
    first = _median([run.scale(r) * first for r, (_, first, traced, _)
                     in enumerate(run.round_spans) if not traced])
    detail["first_tree_s" if workload == "sample-2000" else "first_result_s"] = first
    if trace:
        metrics, trace_detail = per_layer(run)
        units = PER_LAYER
        detail.update(trace_detail)
    else:
        metrics, units = end_to_end(run), END_TO_END
    versions = sorted({p["report"]["version"] for p in run.procs if p["report"]})
    detail.update({
        "workload": workload, "seed": seed,
        "seed_used": workload == "sample-2000",
        "trace": trace, "rounds": rounds,
        "processes": len(run.procs), "requests": run.attempted,
        "elapsed_s": monotonic() - started,
        "rounds_unscaled": [
            {"round_s": busy, "first_result_s": first, "traced": traced,
             "probe_s": probe} for busy, first, traced, probe in run.round_spans],
        "unscaled": end_to_end(run, scaled=False),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_revision": git_revision(), "polyakit_version": versions,
        "errors": run.errors[:20],
    })
    summary = {"correct": not run.failed, "attempted": run.attempted,
               "failed": len(run.failed),
               "metrics": {k: {"value": v, "unit": units[k]}
                           for k, v in metrics.items()}}
    return summary, detail


def smoke() -> int:
    """Every workload at tiny sizes, both modes; every listed metric printed."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = {False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              True: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    if listed != {False: END_TO_END, True: PER_LAYER} \
            or [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        raise SystemExit("smoke: BENCHMARK.json and run.py list different "
                         "metrics or workloads")
    for workload in WORKLOADS:
        for trace in (False, True):
            summary, detail = run_workload(workload, "smoke", 0, trace, True)
            print(json.dumps({"report": detail}))
            print(json.dumps(summary))
            got = {k: m["unit"] for k, m in summary["metrics"].items()}
            if got != listed[trace]:
                raise SystemExit(f"smoke: {workload} printed metrics {got}")
            if not summary["correct"] or summary["attempted"] < 1:
                raise SystemExit(f"smoke: {workload} failed: {detail['errors']}")
    print("smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", default="0", help="master seed (any string)")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "polyakit", "__init__.py")):
        print("perfbench: run from the repository root; src/polyakit is missing",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if not args.workload:
        parser.error("--workload is required")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        summary, detail = run_workload(workload, args.seed, args.seconds,
                                       bool(args.trace))
        print(json.dumps({"report": detail}), flush=True)
        if len(workloads) == 1:
            print(json.dumps(summary))
            return 0
        print(json.dumps({"workload": workload, **summary}), flush=True)
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        combined["metrics"].update({f"{workload}/{k}": v for k, v in
                                    summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
