"""Command line interface: subcommands, formats, exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyakit.cli import FAMILIES, main


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


def test_verify_passes():
    code, out, err = run(["verify", "--oracle-max", "5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["all_passed"] is True
    assert len(payload["rows"]) == 15
    assert "PASS" in err


def test_unknown_family_errors():
    with pytest.raises(SystemExit):
        run(["coeffs", "--family", "nonsense", "--n", "5"])


@pytest.mark.parametrize("argv, order_env", [
    (["coeffs", "--family", "polya", "--n", "-1"], None),
    (["sample", "--n", "0", "--samples", "3"], None),
    (["sample", "--lmax", "--n-values", "1", "--samples", "2"], None),
    (["table", "--which", "forest-size", "--mmax", "7", "--exact-n", "0"], None),
    (["table", "--which", "forest-size-conditional", "--mmax", "7",
      "--exact-n", "2"], None),
    (["coeffs", "--family", "omega", "--omega", "abc", "--n", "5"], None),
    (["coeffs", "--family", "omega", "--omega", "-1", "--n", "5"], None),
    (["singularity", "--family", "polya"], "abc"),
    (["sample", "--n", "20000", "--samples", "1"], None),
    (["sample", "--n", "5", "--samples", "200000"], None),
    (["sample", "--lmax", "--n-values", "20000", "--samples", "1"], None),
    (["coeffs", "--family", "omega", "--n", "5"], None),
    (["sample", "--samples", "2"], None),
    (["sample", "--lmax", "--s", "1.5", "--samples", "1"], None),
    (["sample", "--lmax", "--s", "0", "--samples", "1"], None),
    (["sample", "--lmax", "--s", "nan", "--samples", "1"], None),
    (["sample", "--lmax", "--s", "half", "--samples", "1"], None),
])
def test_invalid_input_is_a_usage_error(argv, order_env, monkeypatch, capsys):
    # a one-line "error:" and a nonzero exit, never an exception
    if order_env is not None:
        monkeypatch.setenv("POLYAKIT_ORDER", order_env)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


OMEGA_TEXTS = ("all", "all-except:1", "0,2", "0,3,5", "all-except:", "", "abc",
               "-1", "2,")
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
