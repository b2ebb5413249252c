"""Acceptance gate: ten numbered criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -s -q` to see the per-criterion
lines. Each criterion asserts its stated tolerance and runtime budget.
"""

import json
import subprocess
import sys
import time

import numpy as np

from bihamso4 import dynamics, leaf as leaf_mod, so4, verify, xxz
from bihamso4.fields import (
    CHART_M,
    CHART_UV,
    PhasePoint,
    lie_bivector,
    schouten_residual,
)
from bihamso4.leaf import LeafChart
from bihamso4.so4 import ModelParams

SYM = ModelParams.from_mu(1.0, 2.0, 3.0)
TOP = ModelParams.from_mu(10.0, 1.0, 2.0)


def _line(n, ok, detail=""):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'}  {detail}")


def _uv_points(n, seed):
    stack = verify.sample_points("UV_complex", n, seed, SYM).stack
    return [PhasePoint(CHART_UV, c) for c in stack.coords.T]


def _leaves(n, seed):
    stack = verify.sample_points("LEAF", n, seed, SYM).stack
    return [LeafChart(c, (h0, c2)) for c, h0, c2 in zip(stack.coords.T, *stack.levels)]


def test_criterion_1_structural_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    P1m, P2m = so4.p1_m(), so4.p2_m(SYM)
    worst = 0.0
    for _ in range(50):
        c = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        pt = PhasePoint(CHART_M, c)
        for A, B in ((P1m, P1m), (P2m, P2m), (P1m, P2m)):
            worst = max(worst, schouten_residual(A, B, pt).normalized)
    P1u, P2u, Qu = xxz.p1_uv(), xxz.p2_uv(SYM), xxz.q_uv(SYM)
    for pt in _uv_points(50, 102):
        for A, B in ((P1u, P1u), (P2u, P2u), (Qu, Qu), (P1u, P2u), (P1u, Qu)):
            worst = max(worst, schouten_residual(A, B, pt).normalized)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-11 and elapsed < 5.0
    _line(1, ok, f"jacobi+compat max {worst:.2e} (tol 1e-11), {elapsed:.2f}s")
    assert ok


def test_criterion_2_lenard_chain():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(50):
        pt = PhasePoint(CHART_M, rng.uniform(-1, 1, 6))
        for r in so4.lenard_residuals_m(SYM, pt).values():
            worst = max(worst, r.normalized)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _line(2, ok, f"chain max {worst:.2e} (tol 1e-12), {elapsed:.2f}s")
    assert ok


def test_criterion_3_characteristic_polynomial():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(100):
        pt = PhasePoint(CHART_M, rng.uniform(-1, 1, 6))
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        worst = max(worst, so4.char_poly_residual(SYM, lam, rho, pt).normalized)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 1.0
    _line(3, ok, f"det identity max {worst:.2e} (tol 1e-10), {elapsed:.2f}s")
    assert ok


def test_criterion_4_transversality_and_stackel():
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    P1u, P2u, Z = xxz.p1_uv(), xxz.p2_uv(SYM), xxz.z_field()
    obs = xxz.uv_observables(SYM)
    worst_exact = 0.0
    worst_pipeline = 0.0
    from bihamso4.fields import lie_scalar

    for pt in _uv_points(50, 106):
        worst_exact = max(worst_exact, float(np.max(np.abs(lie_bivector(Z, P1u, pt)))))
        worst_exact = max(worst_exact, abs(lie_scalar(Z, obs["H0"], pt) - 1.0))
        worst_exact = max(worst_exact, abs(lie_scalar(Z, obs["C2"], pt)))
        LZ = lie_bivector(Z, P2u, pt)
        s = np.linalg.svd(LZ, compute_uv=False)
        worst_pipeline = max(worst_pipeline, s[2] / (1.0 + s[0]))
        z = Z.value(pt.coords)
        x, *_ = np.linalg.lstsq(LZ, z, rcond=None)
        worst_pipeline = max(
            worst_pipeline, float(np.max(np.abs(LZ @ x - z))) / (1.0 + float(np.max(np.abs(z))))
        )
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        worst_pipeline = max(worst_pipeline, xxz.stackel_residual(SYM, lam, rho, pt).normalized)
    elapsed = time.perf_counter() - t0
    ok = worst_exact <= 1e-12 and worst_pipeline <= 1e-9
    _line(
        4,
        ok,
        f"exact max {worst_exact:.2e} (tol 1e-12), rank/stackel max {worst_pipeline:.2e} (tol 1e-9), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_5_nijenhuis_dn():
    t0 = time.perf_counter()
    worst = {"closed": 0.0, "spectrum": 0.0, "dn_p": 0.0, "dn_q": 0.0, "eigen": 0.0}
    for leaf in _leaves(50, 107):
        worst["closed"] = max(
            worst["closed"], leaf_mod.nijenhuis_closed_form_residual(SYM, leaf).normalized
        )
        worst["spectrum"] = max(
            worst["spectrum"], leaf_mod.nijenhuis_spectrum_residual(SYM, leaf).normalized
        )
        br = leaf_mod.dn_bracket_residuals(SYM, leaf)
        worst["dn_p"] = max(worst["dn_p"], br["P"].normalized)
        worst["dn_q"] = max(worst["dn_q"], br["Q"].normalized)
        worst["eigen"] = max(worst["eigen"], *(r.normalized for r in leaf_mod.dn_eigenform_residuals(SYM, leaf)))
    elapsed = time.perf_counter() - t0
    ok = (
        worst["closed"] <= 1e-12
        and worst["spectrum"] <= 1e-9
        and worst["dn_p"] <= 1e-10
        and worst["dn_q"] <= 1e-10
        and worst["eigen"] <= 1e-9
    )
    _line(
        5,
        ok,
        "closed {closed:.1e}/1e-12, spectrum {spectrum:.1e}/1e-9, "
        "P {dn_p:.1e}/1e-10, Q {dn_q:.1e}/1e-10, eigenforms {eigen:.1e}/1e-9".format(**worst)
        + f", {elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_deformation_pipeline():
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    worst_factor = 0.0
    worst_term = 0.0
    worst_xi2 = 0.0
    for leaf in _leaves(50, 109):
        rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        worst_factor = max(
            worst_factor, leaf_mod.deformation_residuals(SYM, rho, leaf)["factorization"].normalized
        )
        tower = leaf_mod.deformation_tower(SYM, rho, leaf)
        worst_term = max(worst_term, tower["termination"].normalized)
        closed = leaf_mod.xi2_closed_form(SYM, leaf)
        got = leaf_mod.deformation_xi2(SYM, leaf)
        worst_xi2 = max(worst_xi2, abs(got - closed) / (1.0 + abs(closed)))
    elapsed = time.perf_counter() - t0
    ok = worst_factor <= 1e-10 and worst_term <= 1e-10 and worst_xi2 <= 1e-10
    _line(
        6,
        ok,
        f"factorization {worst_factor:.1e}, Lie_Y^3 {worst_term:.1e}, xi2 {worst_xi2:.1e} (tol 1e-10), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_7_separation_relations():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    worst1 = 0.0
    hand = [
        np.array([1, 1, 0, 1, 1, 0], dtype=complex),
        np.array([0, 0, 1, 0, 0, 1], dtype=complex),
        np.array([0, 0, 1, 0, 0, 0], dtype=complex),
    ]
    for c in hand:
        worst1 = max(worst1, leaf_mod.phi1_residual(SYM, PhasePoint(CHART_UV, c)).normalized)
    for _ in range(97):
        c = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        worst1 = max(worst1, leaf_mod.phi1_residual(SYM, PhasePoint(CHART_UV, c)).normalized)
    worst2 = 0.0
    for pt in _uv_points(100, 111):
        worst2 = max(worst2, leaf_mod.phi2_residual(SYM, pt).normalized)
    elapsed = time.perf_counter() - t0
    ok = worst1 <= 1e-12 and worst2 <= 1e-9
    _line(7, ok, f"phi1 max {worst1:.2e} (tol 1e-12), phi2 max {worst2:.2e} (tol 1e-9), {elapsed:.2f}s")
    assert ok


def test_criterion_8_dynamics():
    t0 = time.perf_counter()
    m0 = np.array([0.7, -0.2, 0.5, -0.3, 0.1, 0.4])  # documented fixed trajectory
    a = dynamics.integrate(TOP, m0, dt=1e-3, t_end=10.0, record_every=100)
    b = dynamics.integrate(TOP, m0, dt=5e-4, t_end=10.0, record_every=200)
    worst = max(a.drift.values())
    ratio = a.drift["HE"] / b.drift["HE"]
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and 11.0 <= ratio <= 22.0 and elapsed < 10.0
    _line(8, ok, f"drift max {worst:.2e} (tol 1e-8), halving ratio {ratio:.1f} in [11,22], {elapsed:.2f}s")
    assert ok


def test_criterion_9_mutation_sensitivity():
    t0 = time.perf_counter()
    details = []
    ok = True
    for mutation in verify.KNOWN_OVERRIDES:
        report = verify.run_suite(SYM, seed=42, n_points=8, overrides=(mutation,))
        loud = [
            c.name
            for c in report.checks
            if not c.skipped and not c.passed and c.max_residual > 1e-3
        ]
        ok = ok and bool(loud)
        details.append(f"{mutation}->{len(loud)} checks")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    _line(9, ok, ", ".join(details) + f", {elapsed:.2f}s")
    assert ok


def test_criterion_10_end_to_end(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "bihamso4", "verify", "--mu", "1,2,3",
         "--points", "100", "--seed", "42", "--report", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed < 60.0
    if ok:
        try:
            verify.validate_report(json.loads(out.read_text()))
        except ValueError:
            ok = False
    _line(10, ok, f"exit {proc.returncode}, report schema valid, {elapsed:.2f}s")
    assert ok, proc.stderr
