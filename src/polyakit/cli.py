"""Command-line front end: batch access to every capability, JSON or CSV out.

Subcommands
  coeffs       exact coefficient tables for any series family
  singularity  dominant-singularity constants with convergence diagnostics
  table        forest-size distribution tables, asymptotic and exact finite-n
  sample       seeded sampling experiments (decomposition stats, l_max growth)
  verify       the enumeration-vs-series equivalence matrix

Exit code 0 means every internal check passed; rationals are printed as
exact "p/q" strings, never floats.  POLYAKIT_ORDER overrides the default
truncation order used by the analytic commands.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from . import families
from .asymptotics import (DEFAULT_ORDER, decomposition_constants,
                          forest_asymptotics, solve_polya_singularity,
                          solve_variant_singularity)
from .families import OmegaSet
from .sampler import MAX_SAMPLES, MAX_SIZE, lmax_check, run_experiment
from .series import BivariateSeries, RationalSeries, UPoly
from .verify import run_verification

RESIDUAL_TOL = 1e-10
SHIFT_TOL = 1e-6


def _int_in(low: int, high: float):
    """argparse type: an integer in [low, high], rejected with a one-line error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {value}")
        return value
    return parse


def _open_unit(text: str) -> float:
    """argparse type for --s: a float strictly between 0 and 1 (NaN fails)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {text}")
    return value


def _size_list(text: str) -> list[int]:
    """argparse type for --n-values: comma-separated sizes within the sampler
    budget, each >= 2."""
    return [_int_in(2, MAX_SIZE)(v) for v in text.split(",") if v.strip()]


def _omega_set(text: str) -> OmegaSet:
    """argparse type for --omega; an empty text is no set at all."""
    try:
        if not text.strip():
            raise ValueError(text)
        return OmegaSet.parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid outdegree set {text!r}: use 'all', 'all-except:1,2' "
            "or '0,2'") from None


def _default_order(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("POLYAKIT_ORDER", "")
    try:
        return _int_in(1, math.inf)(raw) if raw else DEFAULT_ORDER
    except argparse.ArgumentTypeError as exc:
        parser.error(f"POLYAKIT_ORDER: {exc}")


def _frac(x: Fraction) -> str:
    return str(x)


def _payload(name: str, result: RationalSeries | BivariateSeries, n: int) -> dict:
    """A series as its coefficient list, a bivariate series as its rows of
    nonzero marker coefficients."""
    if isinstance(result, RationalSeries):
        return {"family": name, "n": n,
                "coefficients": [_frac(result[k]) for k in range(n + 1)]}
    out = []
    for k in range(n + 1):
        poly: UPoly = result.row(k)
        out.append({"n": k,
                    "coefficients": {str(j): _frac(poly.coefficient(j))
                                     for j in range(poly.degree + 1)
                                     if poly.coefficient(j) != 0}})
    return {"family": name, "n": n, "rows": out}


# each family's builder, called with the truncation order; omega's is called
# with the --omega set first
FAMILIES = {
    "polya": families.polya_coeffs,
    "cayley": families.cayley_coeffs,
    "dforest": families.dforest_coeffs,
    "ctree-poly": families.ctree_polynomials,
    "pointed": families.pointed_coeffs,
    "dforest-components": families.dforest_component_bivariate,
    "hierarchy": families.hierarchy_coeffs,
    "binary": families.binary_polya_coeffs,
    "omega": families.omega_polya_coeffs,
    "identity": lambda n: families.identity_tree_coeffs(n)[0],
    "identity-dforest": lambda n: families.identity_tree_coeffs(n)[1],
    "identity-pointed": lambda n: families.identity_tree_coeffs(n)[2],
    "e-series": families.e_series,
}


def _coeffs_payload(family: str, n: int, omega: OmegaSet | None) -> dict:
    if family == "omega":
        return {**_payload(family, FAMILIES[family](omega, n), n),
                "omega": omega.describe()}
    return _payload(family, FAMILIES[family](n), n)


def _payload_to_csv(payload: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    if "rows" in payload and isinstance(payload["rows"], list) \
            and payload["rows"] and "coefficients" in payload["rows"][0]:
        writer.writerow(["family", "n", "k", "value"])
        for row in payload["rows"]:
            for k, v in sorted(row["coefficients"].items(), key=lambda kv: int(kv[0])):
                writer.writerow([payload["family"], row["n"], k, v])
    elif "coefficients" in payload:
        writer.writerow(["family", "n", "value"])
        for k, v in enumerate(payload["coefficients"]):
            writer.writerow([payload["family"], k, v])
    else:
        flat = _flatten(payload)
        writer.writerow(["key", "value"])
        for k, v in flat:
            writer.writerow([k, v])
    return buf.getvalue()


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    out: list[tuple[str, object]] = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.extend(_flatten(v, f"{prefix}{k}."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            out.extend(_flatten(v, f"{prefix}{i}."))
    else:
        out.append((prefix[:-1], obj))
    return out


def _emit(payload: dict, fmt: str, output: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2, default=str) + "\n"
    else:
        text = _payload_to_csv(payload)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_coeffs(args) -> int:
    _emit(_coeffs_payload(args.family, args.n, args.omega), args.format,
          args.output)
    return 0


def _cmd_singularity(args) -> int:
    order = args.order
    if args.family == "polya":
        sing = solve_polya_singularity(order)
        payload = asdict(sing)
        payload["family"] = "polya"
        payload["forest"] = asdict(forest_asymptotics(order, sing))
        payload["decomposition"] = asdict(decomposition_constants(order))
        converged = (sing.residual < RESIDUAL_TOL
                     and sing.rho_shift < SHIFT_TOL)
    else:
        var = solve_variant_singularity(args.family, order)
        payload = asdict(var)
        payload["c_share"] = var.c_share
        converged = (var.residual < RESIDUAL_TOL
                     and var.tau_shift < SHIFT_TOL)
    payload["converged"] = converged
    _emit(payload, args.format, args.output)
    return 0 if converged else 1


def _cmd_table(args) -> int:
    consts = decomposition_constants(args.order)
    row = families.exact_forest_size_row(args.exact_n, args.mmax)
    if args.which == "forest-size":
        m_values = list(range(args.mmax + 1))
        asym = consts.forest_size_distribution(args.mmax)
        exact = [float(v) for v in row]
    else:
        m_values = list(range(2, args.mmax + 1))
        asym = consts.conditional_forest_size(args.mmax)
        nonempty = 1 - row[0]  # size 1 is impossible, so this conditions on >= 2
        exact = [float(v / nonempty) for v in row[2:]]
    payload = {
        "table": args.which,
        "m": m_values,
        "asymptotic": [float(v) for v in asym],
        "exact_n": args.exact_n,
        "exact": exact,
    }
    _emit(payload, args.format, args.output)
    return 0


def _cmd_sample(args) -> int:
    if args.lmax:
        payload = lmax_check(args.n_values, args.samples, s=args.s,
                             master_seed=args.seed,
                             exact_mean=args.exact_mean)
    else:
        payload = run_experiment(args.n, args.samples, args.seed).to_dict()
    _emit(payload, args.format, args.output)
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(args.oracle_max)
    _emit(report.to_dict(), args.format, args.output)
    for row in report.rows:
        status = "PASS" if row.passed else "FAIL"
        print(f"{status}  n<={row.max_n:2}  {row.name}", file=sys.stderr)
    return 0 if report.all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyakit",
        description="Exact enumeration, singularity analysis, and uniform "
                    "sampling for rooted-tree decompositions.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", help="write to this path instead of stdout")

    p = sub.add_parser("coeffs", help="exact coefficient tables")
    p.add_argument("--family", required=True, choices=tuple(FAMILIES))
    p.add_argument("--n", type=_int_in(0, math.inf), required=True,
                   help="truncation order")
    p.add_argument("--omega", type=_omega_set,
                   help="outdegree set, e.g. '0,2' or 'all-except:1'")
    common(p)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("singularity", help="dominant singularity constants")
    p.add_argument("--family", required=True,
                   choices=("polya", "hierarchy", "binary"))
    p.add_argument("--order", type=_int_in(1, math.inf),
                   help=f"series truncation (default POLYAKIT_ORDER or {DEFAULT_ORDER})")
    common(p)
    p.set_defaults(func=_cmd_singularity)

    p = sub.add_parser("table", help="forest-size distribution tables")
    p.add_argument("--which", required=True,
                   choices=("forest-size", "forest-size-conditional"))
    p.add_argument("--mmax", type=_int_in(0, math.inf), required=True)
    p.add_argument("--exact-n", type=_int_in(1, math.inf), default=300,
                   help="size for the exact finite-n comparison row")
    p.add_argument("--order", type=_int_in(1, math.inf))
    common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("sample", help="seeded sampling experiments")
    p.add_argument("--n", type=_int_in(1, MAX_SIZE), help="tree size")
    p.add_argument("--samples", type=_int_in(1, MAX_SAMPLES), required=True)
    p.add_argument("--seed", default="0", help="master seed (any string)")
    p.add_argument("--lmax", action="store_true",
                   help="run the largest-forest growth report instead")
    p.add_argument("--n-values", type=_size_list, default="500,2000,8000",
                   help="comma list of sizes for --lmax")
    p.add_argument("--s", type=_open_unit, default=0.5,
                   help="interval exponent for --lmax")
    p.add_argument("--exact-mean", action="store_true",
                   help="include the exact E L_n in the --lmax report")
    common(p)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="enumeration-vs-series matrix")
    p.add_argument("--oracle-max", type=_int_in(1, math.inf), default=8,
                   help="cap every check's size range")
    common(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "order" in args and args.order is None:
        args.order = _default_order(parser)
    if args.command == "coeffs" and args.family == "omega" \
            and args.omega is None:
        parser.error("--omega is required for the omega family")
    if args.command == "sample" and not args.lmax and args.n is None:
        parser.error("--n is required unless --lmax is given")
    if args.command == "table" and args.which == "forest-size-conditional" \
            and args.exact_n < 3:
        parser.error("--exact-n must be at least 3 for the conditional table: "
                     "smaller trees have no nonempty forest")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
