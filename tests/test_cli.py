"""Command line interface: subcommands, formats, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
from decimal import Decimal
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyakit.verify as verify
import polyakit.families as fam
from polyakit.cli import EXACT_N_CAP, FAMILIES, N_CAPS, main
from polyakit.oracle import aut_order, enumerate_trees
from polyakit.sampler import MAX_SIZE


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_coeffs_polya():
    code, out, _ = run(["coeffs", "--family", "polya", "--n", "10"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == [
        "0", "1", "1", "2", "4", "9", "20", "48", "115", "286", "719"]


def test_coeffs_rational_family():
    code, out, _ = run(["coeffs", "--family", "dforest", "--n", "7"])
    assert code == 0
    vals = json.loads(out)["coefficients"]
    assert vals[6] == "281/144"


def test_coeffs_identity_and_e_series():
    _, out, _ = run(["coeffs", "--family", "identity", "--n", "8"])
    assert json.loads(out)["coefficients"] == [
        "0", "1", "1", "1", "2", "3", "6", "12", "25"]
    _, out, _ = run(["coeffs", "--family", "e-series", "--n", "6"])
    assert json.loads(out)["coefficients"] == [
        "1", "0", "1/2", "-1/3", "11/8", "-6/5", "629/144"]


@pytest.mark.parametrize("fmt", ("json", "csv"))
def test_coeffs_past_the_int_str_digit_limit(fmt):
    # 1399 is prime, so 1399^1398/1399! keeps a numerator of 4,395 digits,
    # past the interpreter's default int/str limit of 4,300
    code, out, _ = run(["coeffs", "--family", "cayley", "--n", "1400", "--format", fmt])
    assert code == 0
    if fmt == "json":
        values = json.loads(out)["coefficients"]
    else:
        values = [line.rpartition(",")[2] for line in out.splitlines()[1:]]
    assert len(values) == 1401 and max(map(len, values)) > 4300
    top, bottom = values[-1].split("/")  # int(str) would hit the same limit
    assert Fraction(int(Decimal(top)), int(Decimal(bottom))) == Fraction(
        1400 ** 1399, factorial(1400))


def test_coeffs_omega():
    code, out, _ = run(["coeffs", "--family", "omega", "--omega",
                        "all-except:1", "--n", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["0", "1", "0", "1", "1", "2", "3"]
    assert "except" in payload["omega"]


def test_coeffs_omega_requires_spec():
    with pytest.raises(SystemExit):
        run(["coeffs", "--family", "omega", "--n", "6"])


def test_polynomial_family_csv():
    code, out, _ = run(["coeffs", "--family", "ctree-poly", "--n", "4",
                        "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0] == ["family", "n", "k", "value"]
    assert ["ctree-poly", "3", "3", "3/2"] in rows
    assert ["ctree-poly", "4", "1", "1/3"] in rows


def test_output_file(tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(["coeffs", "--family", "polya", "--n", "5",
                        "--output", str(target)])
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["coefficients"][5] == "9"


def test_singularity_polya():
    code, out, _ = run(["singularity", "--family", "polya",
                        "--order", "300"])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert abs(payload["rho"] - 0.3383218569) < 1e-8
    assert abs(payload["forest"]["gamma_rho"] - 0.1918374) < 1e-6
    assert abs(payload["decomposition"]["c_share"] - 0.8223653) < 1e-6


def test_singularity_variants():
    code, out, _ = run(["singularity", "--family", "hierarchy",
                        "--order", "400"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["tau"] - 0.4567332096) < 1e-8
    assert abs(payload["mu"] - 0.6246006690) < 1e-7
    assert abs(payload["c_share"] - 1 / (1 + payload["mu"])) < 1e-12
    code, out, _ = run(["singularity", "--family", "binary",
                        "--order", "400"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["tau"] - 0.6345845126) < 1e-8
    assert abs(payload["mu"] - 0.2769762002) < 1e-7


def test_table_forest_size():
    code, out, _ = run(["table", "--which", "forest-size", "--mmax", "7",
                        "--exact-n", "120"])
    assert code == 0
    payload = json.loads(out)
    asym = payload["asymptotic"]
    assert abs(asym[0] - 0.9196542) < 1e-6
    assert asym[1] == 0.0
    assert abs(asym[2] - 0.0526326) < 1e-6
    assert len(payload["exact"]) == 8
    assert abs(payload["exact"][0] - asym[0]) < 2e-3


def test_table_conditional():
    code, out, _ = run(["table", "--which", "forest-size-conditional",
                        "--mmax", "9", "--exact-n", "100"])
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == list(range(2, 10))
    assert abs(payload["asymptotic"][0] - 0.655075) < 1e-5


def test_large_forest_size_tables_are_pinned():
    # sha256 of the output at --mmax 1400, unchanged since the forest terms
    # came off the exact D; the second request reuses the D the first grew
    for which, digest in (
            ("forest-size", "6d8069a09af3181c02776257e2a3052ffc5d24b2a9da0c7bba328417d796c2dc"),
            ("forest-size-conditional",
             "b4a7b51b4ae559c02449e699832b68aae32d02eb2474f82a491f36622b5ea44e")):
        code, out, _ = run(["table", "--which", which, "--mmax", "1400"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


TABLE_ARGV = ["table", "--which", "forest-size", "--mmax", "3", "--exact-n", "10"]


@pytest.mark.parametrize("order, code, digest", [
    # sha256 of the output, computed before table checked the solve
    (None, 0, "eec1ebfe69fd7e9a2fc92232cd8acf7c6dd70d1c75a7ea7a09d755747e09c6d4"),
    ("1", 1, "a38ab39d39cb5abebffa0fae904b4cc17f3a476e9f884ca4fdb013680566a4ce")])
def test_table_exits_1_when_the_solve_has_not_converged(order, code, digest):
    # at order 1 rho moves by 2.6e-3 when the order is raised, as singularity
    # reports; the table is still printed, with a one-line note
    argv = TABLE_ARGV + ([] if order is None else ["--order", order])
    got, out, err = run(argv)
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert len(err.splitlines()) == code
    if code:
        assert "not converged" in err
        singularity, _, _ = run(["singularity", "--family", "polya",
                                 "--order", order])
        assert singularity == 1


def test_singularity_says_why_it_exits_1():
    # sha256 of the stdout, computed before singularity said anything on
    # stderr; at order 3 tau moves by 6.6e-4 when the order is raised
    code, out, err = run(["singularity", "--family", "hierarchy", "--order", "3"])
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3954d3be8deb332470f155acabd4fa11711c7b66952c91e6bb9708dd573dcd3e")
    assert err.splitlines() == [
        "polyakit: the tau solve at order 3 has not converged "
        "(residual 2.22e-16, shift 0.000656); raise --order"]


def test_sample_reports():
    code, out, _ = run(["sample", "--n", "40", "--samples", "200",
                        "--seed", "7"])
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 40 and payload["num_samples"] == 200
    _, out2, _ = run(["sample", "--n", "40", "--samples", "200",
                      "--seed", "7"])
    assert out == out2


def test_sample_lmax_mode():
    code, out, _ = run(["sample", "--lmax", "--n-values", "30,50",
                        "--samples", "30", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert [r["n"] for r in payload["rows"]] == [30, 50]


def test_sample_lmax_accepts_an_interval_exponent():
    code, out, _ = run(["sample", "--lmax", "--n-values", "30", "--samples", "2",
                        "--s", "0.25"])
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == 0.25 and [r["n"] for r in payload["rows"]] == [30]


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_key_value_csv_flattens_the_json_payload():
    # the records without a coefficient table print one key,value line per
    # leaf of their JSON payload, nested keys joined by dots
    argv = ["singularity", "--family", "binary"]
    _, out, _ = run(argv)
    payload = json.loads(out)
    code, out, _ = run([*argv, "--format", "csv"])
    assert code == 0 and list(payload) == [
        "family", "tau", "mu", "residual", "tau_shift", "order", "c_share",
        "converged"]
    assert _csv_rows(out) == [["key", "value"],
                              *([k, str(v)] for k, v in payload.items())]
    _, out, _ = run(["verify", "--oracle-max", "3"])
    payload = json.loads(out)
    code, out, _ = run(["verify", "--oracle-max", "3", "--format", "csv"])
    assert code == 0
    assert _csv_rows(out) == [
        ["key", "value"], ["oracle_max", "3"], ["all_passed", "True"],
        *([f"rows.{i}.{k}", str(v)] for i, row in enumerate(payload["rows"])
          for k, v in row.items())]


def test_verify_passes():
    code, out, err = run(["verify", "--oracle-max", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["rows"]) == 15
    assert "PASS" in err


def test_verify_reports_a_failing_row(monkeypatch):
    # one row whose reference is wrong on one tree: the report says so, the
    # detail names the tree and the exit code is 1
    star = enumerate_trees(4)[-1]
    assert star.encoding == "(()()())"

    def off_by_one(tree):
        return aut_order(tree) + (tree == star)
    monkeypatch.setattr(verify, "_CHECKS", (
        ("aut order = wrong reference",
         verify._agrees(enumerate_trees, aut_order, off_by_one), 8),))
    code, out, err = run(["verify", "--oracle-max", "4"])
    assert code == 1
    payload = json.loads(out)
    assert payload["all_passed"] is False
    (row,) = payload["rows"]
    assert row["passed"] is False and row["max_n"] == 4
    assert row["detail"] == "CanonicalTree((()()())): 6 != 7"
    assert "FAIL  n<= 4  aut order = wrong reference" in err


def test_verify_report_is_pinned():
    # sha256 of the JSON report, computed before the checks were rebuilt from
    # the two row builders; it fixes every row name, range and detail
    code, out, _ = run(["verify", "--oracle-max", "8"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8d5bd22ba3a9a97665e10d4e1a043be1a7b4374591c696ef8646ab9bee3679cf")


@pytest.mark.parametrize("argv, digest", [
    ("coeffs --family omega --omega all-except:1 --n 120",
     "e5adfe840de9f4c66df2becf78dbd1d7129d7140a8cf22c31ddd97243415a44e"),
    ("coeffs --family omega --omega 0,2 --n 60 --format csv",
     "e66e083af254ffcd9e7f6d1e8cd68187ae78975f571bcd6019455c76290cb375"),
    ("coeffs --family omega --omega 0,3,5 --n 40",
     "3843ba7a7a599da067647eedf903c91aa84d384dea3fd139b07893b9108a6a05"),
    ("coeffs --family binary --n 200",
     "31588fd529f55e94aa5ced4fd2bbe8d5ac5ed4e10b3bed4361a18b8bda0f6f3e"),
    ("coeffs --family dforest-components --n 30",
     "54a4b85d999992d47d1afe2611baf254fd090296be1fae4fcd659ce9eaa4cba0"),
    ("coeffs --family dforest-components --n 12 --format csv",
     "2e4e6374e04fb71441c5ff4dd67a603be3ea6d2fe769c816585d34d28aee92cb"),
])
def test_outdegree_counts_are_pinned(argv, digest):
    # sha256 of the output, computed when omega still ran in Fraction, binary
    # had its own hand-written recurrence and D(z,v) ran a Fraction
    # bivariate exp
    code, out, _ = run(argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_unknown_family_errors():
    with pytest.raises(SystemExit):
        run(["coeffs", "--family", "nonsense", "--n", "5"])


# every case's second field is None: it keeps the test ids (argvN-None) the
# cases had while that field could set the order through the environment
@pytest.mark.parametrize("argv, _id_suffix", [
    (["coeffs", "--family", "polya", "--n", "-1"], None),
    (["sample", "--n", "0", "--samples", "3"], None),
    (["sample", "--lmax", "--n-values", "1", "--samples", "2"], None),
    (["table", "--which", "forest-size", "--mmax", "7", "--exact-n", "0"], None),
    (["table", "--which", "forest-size-conditional", "--mmax", "7",
      "--exact-n", "2"], None),
    (["coeffs", "--family", "omega", "--omega", "abc", "--n", "5"], None),
    (["coeffs", "--family", "omega", "--omega", "-1", "--n", "5"], None),
    (["singularity", "--family", "polya", "--order", "abc"], None),
    (["sample", "--n", "20000", "--samples", "1"], None),
    (["sample", "--n", "5", "--samples", "200000"], None),
    (["sample", "--lmax", "--n-values", "20000", "--samples", "1"], None),
    (["coeffs", "--family", "omega", "--n", "5"], None),
    (["sample", "--samples", "2"], None),
    (["sample", "--lmax", "--s", "1.5", "--samples", "1"], None),
    (["sample", "--lmax", "--s", "0", "--samples", "1"], None),
    (["sample", "--lmax", "--s", "nan", "--samples", "1"], None),
    (["sample", "--lmax", "--s", "half", "--samples", "1"], None),
    (["coeffs", "--family", "polya", "--n", "5", "--output",
      "/nonexistent/x.json"], None),
    (["sample", "--lmax", "--n-values", ",", "--samples", "2"], None),
    (["singularity", "--family", "polya", "--order", "585"], None),
    (["singularity", "--family", "hierarchy", "--order", "840"], None),
    (["singularity", "--family", "binary", "--order", "1505"], None),
    (["table", "--which", "forest-size", "--mmax", "7", "--order", "600"], None),
    (["table", "--which", "forest-size", "--mmax", "10001", "--exact-n", "20"], None),
    (["coeffs", "--family", "polya", "--n", "10001"], None),
    (["table", "--which", "forest-size", "--mmax", "7", "--exact-n", "10001"], None),
    (["coeffs", "--family", "polya", "--n", "3", "--omega", "0,2"], None),
    (["sample", "--lmax", "--n", "40", "--samples", "2"], None),
    (["sample", "--n", "30", "--samples", "2", "--exact-mean"], None),
    (["sample", "--n", "30", "--samples", "2", "--s", "0.9"], None),
    (["sample", "--n", "30", "--samples", "2", "--n-values", "40,50"], None),
])
def test_invalid_input_is_a_usage_error(argv, _id_suffix, capsys):
    # a one-line "error:" and a nonzero exit, never an exception
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("family", sorted(N_CAPS))
def test_coeffs_refuses_n_past_the_family_cap(family, capsys):
    # one refusal just past each cap: a request at the cap takes up to about
    # 20 s cold, too slow for this suite
    cap = N_CAPS[family]
    assert family in FAMILIES and cap < MAX_SIZE
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--family", family, "--n", str(cap + 1)])
    assert exc.value.code == 2
    assert [line for line in capsys.readouterr().err.splitlines()
            if "error:" in line] == [
        f"polyakit: error: argument --n: must be at most {cap} "
        f"for --family {family}, got {cap + 1}"]


def test_table_refuses_exact_n_past_its_cap(capsys):
    # a request at the cap takes about 30 s cold; the default stays accepted
    assert 300 < EXACT_N_CAP < MAX_SIZE
    with pytest.raises(SystemExit) as exc:
        main(["table", "--which", "forest-size", "--mmax", "7",
              "--exact-n", str(EXACT_N_CAP + 1)])
    assert exc.value.code == 2
    assert [line for line in capsys.readouterr().err.splitlines()
            if "error:" in line] == [
        f"polyakit table: error: argument --exact-n: must be at most "
        f"{EXACT_N_CAP}, got {EXACT_N_CAP + 1}"]


def test_identity_families_build_only_their_own_table(monkeypatch):
    # R and R_c come from their own tables; only identity-dforest needs D*
    want = fam.identity_tree_coeffs(30)
    monkeypatch.setattr(fam, "_grow_forests", None)
    for name, series in (("identity", want[0]), ("identity-pointed", want[2])):
        code, out, _ = run(["coeffs", "--family", name, "--n", "30"])
        assert code == 0
        assert json.loads(out)["coefficients"] == [
            str(series[k]) for k in range(31)]


OMEGA_TEXTS = ("all", "all-except:1", "0,2", "0,3,5", "all-except:", "", "abc",
               "-1", "2,", "0,2,100000")
COEFFS_ARGV = st.builds(
    lambda family, n, omega: ["coeffs", "--family", family, "--n", str(n)]
    + ([] if omega is None else ["--omega", omega]),
    st.sampled_from(sorted(FAMILIES)), st.integers(-5, 40),
    st.none() | st.sampled_from(OMEGA_TEXTS))
SAMPLE_ARGV = st.builds(
    lambda n, samples: ["sample", "--n", str(n), "--samples", str(samples)],
    st.integers(-2, 60), st.integers(-2, 5))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(COEFFS_ARGV | SAMPLE_ARGV)
def test_cli_fuzz_returns_zero_or_one_usage_error(argv):
    # every call succeeds or ends as a usage error with one "error:" line;
    # any other exception propagates and fails the example
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        lines = [line for line in err.getvalue().splitlines() if "error:" in line]
        assert len(lines) == 1, (argv, err.getvalue())
        return
    assert code == 0, argv
    assert json.loads(out.getvalue())
