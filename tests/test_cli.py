import hashlib
import json
import subprocess
import sys

import pytest
from click.testing import CliRunner

from bihamso4 import leaf as leaf_mod
from bihamso4 import so4
from bihamso4.cli import main
from bihamso4.fields import Residual
from bihamso4.verify import validate_report


def run_cli(*args):
    return CliRunner().invoke(main, list(args))


def test_verify_exits_zero_and_writes_report(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli(
        "verify", "--mu", "1,2,3", "--points", "10", "--seed", "42", "--report", str(out)
    )
    assert result.exit_code == 0, result.output
    assert "overall: pass" in result.output
    doc = json.loads(out.read_text())
    validate_report(doc)
    assert doc["seed"] == 42
    assert doc["n_points"] == 10


def test_verify_degenerate_mu_exits_two():
    result = run_cli("verify", "--mu", "1,-1,3", "--points", "5")
    assert result.exit_code == 2
    assert "degenerate constant eigenvalue" in result.output


def test_verify_mutation_exits_one():
    result = run_cli("verify", "--mu", "1,2,3", "--points", "5", "--override", "q_sign")
    assert result.exit_code == 1
    assert "FAIL" in result.output


def test_verify_bad_mu_exits_two():
    result = run_cli("verify", "--mu", "1,2")
    assert result.exit_code == 2
    result = run_cli("verify", "--mu", "a,b,c")
    assert result.exit_code == 2


def test_verify_has_no_threads_option():
    result = run_cli("verify", "--mu", "1,2,3", "--points", "5", "--threads", "2")
    assert result.exit_code == 2
    assert "No such option '--threads'" in result.stderr


def test_verify_starved_sampler_exits_one():
    # with mu2 = 0 and mu3 = 2e-8, |F| = mu3 |u1/u2 + u2/u1| < 3e-7 for every
    # draw the |u| > 0.1 guard passes, so each uv draw is within 1e-6 of the
    # eigenvalue collision F = 0
    result = run_cli("verify", "--mu", "1,0,2e-8", "--points", "5")
    assert result.exit_code == 1
    assert "error: sampler starved" in result.output


def test_verify_degenerate_deformation_parameter_exits_two():
    result = run_cli("verify", "--mu", "1,2,0", "--points", "20")
    assert result.exit_code == 2
    assert result.stderr == "error: degenerate deformation parameter\n"


@pytest.mark.parametrize(
    "args, option",
    [
        (["separation", "--mu", "1,2,3", "--uv", "1,0,0.5,0,1,0,2,0,0.25,0,nan,0"], "--uv"),
        (["dn", "--mu", "1,2,3", "--leaf", "1,0,1,0,2,0,nan,0", "--h0", "2,0", "--c2", "-1,0"], "--leaf"),
        (["dn", "--mu", "1,2,3", "--leaf", "1,0,1,0,2,0,0,0", "--h0", "nan,0", "--c2", "-1,0"], "--h0"),
        (["dn", "--mu", "1,2,3", "--leaf", "1,0,1,0,2,0,0,0", "--h0", "2,0", "--c2", "-1,inf"], "--c2"),
        (["verify", "--mu", "nan,2,3", "--points", "5"], "--mu"),
        (["integrate", "--mu", "10,1,2", "--m0", "nan,0,0,0,0,-inf"], "--m0"),
    ],
)
def test_nonfinite_input_is_a_usage_error(args, option):
    result = run_cli(*args)
    assert result.exit_code == 2, result.output
    assert f"{option} expects finite reals" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["separation", "--mu", "1,2,3", "--uv", "1e200,0,0.5,0,1,0,2,0,0.25,0,0,0"],
            "error: input overflows",
        ),
        (
            ["dn", "--mu", "1,2,3", "--leaf", "1,0,1,0,2,0,0,0", "--h0", "1e308,0", "--c2", "-1e308,0"],
            "error: leaf point embeds to a non-finite uv point",
        ),
        (
            ["dn", "--mu", "1,2,3", "--leaf", "1e200,0,1,0,2,0,0,0", "--h0", "2,0", "--c2", "-1,0"],
            "error: input overflows",
        ),
    ],
)
def test_finite_input_that_overflows_is_a_usage_error(args, message):
    # one error line is the whole of stderr: no numpy warning precedes it
    result = run_cli(*args)
    assert result.exit_code == 2, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), result.stderr


def test_integrate_csv(tmp_path):
    out = tmp_path / "traj.csv"
    result = run_cli(
        "integrate",
        "--mu", "10,1,2",
        "--m0", "0.7,-0.2,0.5,-0.3,0.1,0.4",
        "--dt", "1e-3",
        "--t-end", "1",
        "--every", "100",
        "--out", str(out),
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,m12,m13,m14,m23,m24,m34,H0,C,HE,KE,zeta1"
    assert len(lines) == 12  # header + t=0 + 10 records
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    # shortest round-trip formatting preserves the doubles exactly
    assert float(first[1]) == 0.7
    assert "max relative drift" in result.output


def test_readme_integrate_csv_is_pinned(tmp_path):
    # the README example's CSV, byte for byte
    out = tmp_path / "traj.csv"
    result = run_cli(
        "integrate",
        "--mu", "10,1,2",
        "--m0", "0.7,-0.2,0.5,-0.3,0.1,0.4",
        "--dt", "1e-3",
        "--t-end", "10",
        "--every", "100",
        "--out", str(out),
    )
    assert result.exit_code == 0, result.output
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "c1e4d1649f14ce14fafa7210b9d2b97c1d21091c4b3e8e3eb5ecfdc94a3dd084"


def test_integrate_zero_dt_exits_two():
    result = run_cli("integrate", "--mu", "10,1,2", "--m0", "0,0,0,0,0,0", "--dt", "0")
    assert result.exit_code == 2
    assert "dt" in result.output


def test_dn_hand_leaf():
    result = run_cli(
        "dn", "--mu", "1,2,3",
        "--leaf", "1,0,1,0,2,0,0,0",
        "--h0", "2,0", "--c2", "-1,0",
    )
    assert result.exit_code == 0, result.output
    assert "lambda2 = 6.5" in result.output
    assert "xi2" in result.output


def test_dn_json_mode():
    result = run_cli(
        "dn", "--mu", "1,2,3",
        "--leaf", "1,0,1,0,2,0,0,0",
        "--h0", "2,0", "--c2", "-1,0",
        "--json",
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["schema"] == "biham-euler-so4/v1"
    assert abs(doc["lambda2"][0] - 6.5) < 1e-14
    assert abs(doc["xi2"][0] - 16.0 / 63.0) < 1e-14
    assert doc["p_bracket_max_residual"] < 1e-10


def test_dn_forms_the_bracket_table_only_to_print_it(monkeypatch):
    # each mode forms the DN gradients once: --json for the bracket residuals, text for the P table
    real, calls = leaf_mod.dn_bracket_matrix, []
    monkeypatch.setattr(leaf_mod, "dn_bracket_matrix", lambda *args: calls.append(1) or real(*args))
    real_grads, grads = leaf_mod.dn_gradients, []
    monkeypatch.setattr(leaf_mod, "dn_gradients", lambda *args: grads.append(1) or real_grads(*args))
    argv = ["dn", "--mu", "1,2,3", "--leaf", "1,0,1,0,2,0,0,0", "--h0", "2,0", "--c2", "-1,0"]
    assert run_cli(*argv, "--json").exit_code == 0
    assert calls == [] and grads == [1]
    grads.clear()
    result = run_cli(*argv)
    assert result.exit_code == 0 and "bracket residual vs canonical" in result.output
    assert calls == [1] and grads == [1]


def test_dn_equal_u_exits_two():
    result = run_cli(
        "dn", "--mu", "1,2,3",
        "--leaf", "1,0,0,0,1,0,0,0",
        "--h0", "2,0", "--c2", "0,0",
    )
    assert result.exit_code == 2
    assert "separation chart degenerate" in result.output


def test_separation_hand_point():
    result = run_cli(
        "separation", "--mu", "1,2,3",
        "--uv", "1,0,0.5,0,1,0,2,0,0.25,0,0,0",
    )
    assert result.exit_code == 0, result.output
    assert "phi1" in result.output and "phi2" in result.output


def test_separation_degenerate_u_exits_two():
    result = run_cli(
        "separation", "--mu", "1,2,3",
        "--uv", "0,0,0,0,1,0,1,0,1,0,0,0",
    )
    assert result.exit_code == 2


def test_module_entry_point(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bihamso4", "verify", "--mu", "1,2,3",
         "--points", "5", "--seed", "1", "--report", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    validate_report(json.loads(out.read_text()))


def test_verify_nan_residual_exits_one(tmp_path, monkeypatch):
    real = so4.lenard_residuals_m

    def patched(p1, p2, obs, pt):
        out = real(p1, p2, obs, pt)
        out["chain_start"] = Residual(float("nan"), 0.0)
        return out

    monkeypatch.setattr(so4, "lenard_residuals_m", patched)
    out = tmp_path / "report.json"
    result = run_cli("verify", "--mu", "1,2,3", "--points", "5", "--report", str(out))
    assert result.exit_code == 1, result.output
    assert "overall: FAIL" in result.output
    # parse_constant sees NaN/Infinity only, so this fails on non-strict JSON
    doc = json.loads(out.read_text(), parse_constant=lambda name: pytest.fail(name))
    validate_report(doc)
    chain = next(c for c in doc["checks"] if c["name"] == "lenard_chain")
    assert chain["pass"] is False
    assert chain["note"] == "non-finite residual at sample 0"
    assert doc["overall"] is False


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_verify_bad_tol_scale_exits_two(value):
    result = run_cli("verify", "--mu", "1,2,3", "--points", "5", "--tol-scale", value)
    assert result.exit_code == 2, result.output
    assert "tol_scale must be finite and positive" in result.output


# u1 = r (1 + 5e-8) with r + 1/r = 4/3, u2 = 1: F = lambda2 - lambda1 is 2.2e-7
# at mu = (1, 2, 3), inside the collision threshold 1e-6 but above 1e-8,
# while G and theta1 = u1 u2 F / 2 = 1.1e-7 stay clear of theirs.
_NEAR_COLLISION_U1 = "0.6666667,0.7453560297677294"


@pytest.mark.parametrize(
    "args, message",
    [
        (["dn", "--mu", "1,2,3", "--leaf", "0,0,1,0,2,0,0,0", "--h0", "2,0", "--c2", "-1,0"], "degenerate point"),
        (
            ["dn", "--mu", "1,2,3", "--leaf", f"{_NEAR_COLLISION_U1},0.3,0,1,0,-0.2,0", "--h0", "1,0", "--c2", "0,0"],
            "eigenvalue collision",
        ),
        # u = (1e-5, 2e-5): F = 3.5 and G = 1.5, but theta1 = 3.5e-10
        (["dn", "--mu", "1,2,3", "--leaf", "1e-5,0,1,0,2e-5,0,0,0", "--h0", "2,0", "--c2", "-1,0"], "theta degenerate"),
        (
            ["dn", "--mu", "1,2,0", "--leaf", "1,0,1,0,2,0,0,0", "--h0", "2,0", "--c2", "-1,0"],
            "degenerate deformation parameter",
        ),
        (["dn", "--mu", "1,2,3", "--leaf", "1,0,0,0,1,0,0,0", "--h0", "2,0", "--c2", "0,0"], "separation chart degenerate"),
        (["separation", "--mu", "1,2,3", "--uv", "0,0,0,0,1,0,1,0,1,0,0,0"], "degenerate point"),
        (["separation", "--mu", "1,2,3", "--uv", "1,0,0.5,0,1,0,1,0,0.25,0,0,0"], "separation chart degenerate"),
        (
            ["separation", "--mu", "1,2,3", "--uv", f"{_NEAR_COLLISION_U1},0.5,0,0.3,0,1,0,0.25,0,-0.2,0"],
            "eigenvalue collision",
        ),
        (["separation", "--mu", "1,2,0", "--uv", "1,0,0.5,0,1,0,2,0,0.25,0,0,0"], "degenerate deformation parameter"),
    ],
)
def test_degenerate_input_names_its_condition(args, message):
    # each input fails exactly one degeneracy condition; stderr is that one line
    result = run_cli(*args)
    assert result.exit_code == 2, result.output
    assert result.stderr == f"error: {message}\n"
