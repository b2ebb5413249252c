import inspect

import numpy as np
import pytest

from bihamso4 import leaf as leaf_mod
from bihamso4 import so4, xxz
from bihamso4.fields import (
    CHART_M,
    CHART_UV,
    DegeneracyError,
    PhasePoint,
    ham_field,
    lie_bivector,
    lie_scalar,
    schouten_residual,
)
from bihamso4.so4 import ModelParams

PARAMS = ModelParams.from_mu(1.0, 2.0, 3.0)


def random_uv(rng, floor=0.1):
    while True:
        c = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        if abs(c[0]) > floor and abs(c[3]) > floor:
            return PhasePoint(CHART_UV, c)


def test_observables_hand_points():
    # coordinates ordered (u1, v1, z1, u2, v2, z2)
    obs = xxz.uv_observables(PARAMS)
    table = [
        (np.array([1, 1, 0, 1, 1, 0], dtype=complex), (2, 0, -16, 30)),
        (np.array([0, 0, 1, 0, 0, 1], dtype=complex), (2, 0, -12, 18)),
        (np.array([0, 0, 1, 0, 0, 0], dtype=complex), (1, -1, -2, -13)),
    ]
    for c, expected in table:
        got = tuple(complex(obs[k].value(c)) for k in ("H0", "C2", "H1", "H2"))
        assert np.allclose(got, expected, atol=1e-14), (got, expected)


def test_observable_transport():
    # uv observables equal (H0, 2C, -2HE, KE) transported from the m chart
    rng = np.random.default_rng(0)
    for _ in range(25):
        pt = random_uv(rng)
        res = xxz.observable_transport_residuals(PARAMS, pt)
        for name, r in res.items():
            assert r.normalized < 1e-12, name


def test_uv_tensor_proportionality():
    # printed tensors are (i/sqrt 2) times the chart-transported ones
    rng = np.random.default_rng(1)
    for _ in range(10):
        pt = random_uv(rng)
        res = xxz.uv_transport_residuals(PARAMS, pt)
        assert res["p1"].normalized < 1e-12
        assert res["p2"].normalized < 1e-12
        assert abs(res["ratio_p1"] - 1j / np.sqrt(2)) < 1e-12
        assert abs(res["ratio_p2"] - 1j / np.sqrt(2)) < 1e-12


def test_uv_jacobi_and_compatibility():
    rng = np.random.default_rng(2)
    P1 = xxz.p1_uv()
    P2 = xxz.p2_uv(PARAMS)
    Q = xxz.q_uv(PARAMS)
    for _ in range(20):
        pt = random_uv(rng)
        assert schouten_residual(P1, P1, pt).normalized < 1e-11
        assert schouten_residual(P2, P2, pt).normalized < 1e-11
        assert schouten_residual(Q, Q, pt).normalized < 1e-11
        assert schouten_residual(P1, P2, pt).normalized < 1e-11
        assert schouten_residual(P1, Q, pt).normalized < 1e-11


def test_q_casimirs_h0_c2_but_not_h1():
    rng = np.random.default_rng(3)
    Q = xxz.q_uv(PARAMS)
    obs = xxz.uv_observables(PARAMS)
    for _ in range(10):
        pt = random_uv(rng)
        for name in ("H0", "C2"):
            assert np.max(np.abs(ham_field(Q, obs[name], pt))) < 1e-12 * (
                1 + np.max(np.abs(pt.coords)) ** 3
            )
        # H1 is moved by Q (generalized Lenard, not a Casimir)
        assert np.max(np.abs(ham_field(Q, obs["H1"], pt))) > 1e-3


def test_x1_is_p1_hamiltonian_field_of_h1():
    rng = np.random.default_rng(4)
    P1 = xxz.p1_uv()
    X1 = xxz.x1_field(PARAMS)
    obs = xxz.uv_observables(PARAMS)
    for _ in range(20):
        pt = random_uv(rng)
        hv = ham_field(P1, obs["H1"], pt)
        assert np.max(np.abs(hv - X1.value(pt.coords))) < 1e-12 * (1 + np.max(np.abs(hv)))


def test_transversal_field_properties():
    rng = np.random.default_rng(5)
    P1 = xxz.p1_uv()
    Z = xxz.z_field()
    obs = xxz.uv_observables(PARAMS)
    for _ in range(20):
        pt = random_uv(rng)
        assert np.max(np.abs(lie_bivector(Z, P1, pt))) < 1e-12
        assert abs(lie_scalar(Z, obs["H0"], pt) - 1.0) < 1e-12
        assert abs(lie_scalar(Z, obs["C2"], pt)) < 1e-12


def test_transversal_shifts_h1_h2_by_spectrum():
    # L_Z H1 = -(lambda1 + lambda2), L_Z H2 = lambda1 * lambda2
    rng = np.random.default_rng(6)
    Z = xxz.z_field()
    obs = xxz.uv_observables(PARAMS)
    lam1 = xxz.constant_eigenvalue(PARAMS)
    for _ in range(20):
        pt = random_uv(rng)
        lam2 = xxz.variable_eigenvalue(PARAMS, pt.coords)
        scale = 1 + abs(lam2) ** 2
        assert abs(lie_scalar(Z, obs["H1"], pt) + lam1 + lam2) < 1e-12 * scale
        assert abs(lie_scalar(Z, obs["H2"], pt) - lam1 * lam2) < 1e-12 * scale


def test_lie_z_p2_rank_two_with_z_in_range():
    rng = np.random.default_rng(7)
    P2 = xxz.p2_uv(PARAMS)
    Z = xxz.z_field()
    for _ in range(20):
        pt = random_uv(rng)
        LZ = lie_bivector(Z, P2, pt)
        s = np.linalg.svd(LZ, compute_uv=False)
        assert s[2] < 1e-9 * (1 + s[0])
        z = Z.value(pt.coords)
        x, *_ = np.linalg.lstsq(LZ, z, rcond=None)
        assert np.max(np.abs(LZ @ x - z)) < 1e-9 * (1 + np.max(np.abs(z)))


def test_char_poly_uv():
    rng = np.random.default_rng(8)
    for _ in range(25):
        pt = random_uv(rng)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert xxz.char_poly_residual_uv(PARAMS, lam, rho, pt).normalized < 1e-10


def test_stackel_second_lie_derivative_vanishes():
    rng = np.random.default_rng(9)
    for _ in range(25):
        pt = random_uv(rng)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert xxz.stackel_residual(PARAMS, lam, rho, pt).normalized < 1e-9


def test_first_lie_derivative_factorizes():
    # L_Z det = lambda^2 (rho - lambda1)(rho - lambda2)
    rng = np.random.default_rng(10)
    for _ in range(25):
        pt = random_uv(rng)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert xxz.transversal_curve_residual(PARAMS, lam, rho, pt).normalized < 1e-9


def test_requires_symmetric_model():
    p = ModelParams.from_mu(1.0, 2.0, 3.0, 2.0)
    with pytest.raises(ValueError, match="not rotationally symmetric"):
        xxz.uv_observables(p)
    with pytest.raises(ValueError, match="not rotationally symmetric"):
        xxz.p2_uv(p)


def test_degenerate_u_guard():
    # the u condition of the one guard, at the point where Z and lambda2 divide by zero
    pt = PhasePoint(CHART_UV, np.array([0, 1, 1, 1, 1, 1], dtype=complex))
    with pytest.raises(DegeneracyError, match="degenerate point"):
        leaf_mod.guard(PARAMS, pt.coords[0], pt.coords[3])


MODEL_CONSTRUCTORS = (so4.p2_m, so4.observables_m, xxz.uv_observables, xxz.p2_uv, xxz.x1_field, xxz.q_uv)


def test_constructors_shared_per_model():
    # the benchmark's layer tracer finds and rebinds plain module functions
    for build in (*MODEL_CONSTRUCTORS, so4.p1_m, xxz.p1_uv, xxz.z_field):
        assert inspect.isfunction(build)
    assert so4.p1_m() is so4.p1_m()
    assert xxz.p1_uv() is xxz.p1_uv()
    assert xxz.z_field() is xxz.z_field()
    other = ModelParams.from_mu(1.0, 2.0, 4.0)
    for build in MODEL_CONSTRUCTORS:
        assert build(ModelParams.from_mu(1.0, 2.0, 3.0)) is build(PARAMS)
        assert build(other) is not build(PARAMS)


def test_shared_ingredients_are_read_only():
    with pytest.raises(TypeError):
        xxz.uv_observables(PARAMS)["H2"] = None
    with pytest.raises(TypeError):
        so4.observables_m(PARAMS)["HE"] = None
    for P in (so4.p1_m(), so4.p2_m(PARAMS), xxz.p1_uv(), xxz.p2_uv(PARAMS)):
        with pytest.raises(ValueError):
            P.jac(np.zeros(6))[0, 1, 2] = 5.0
    for arr in (PARAMS.a, PARAMS.b):
        with pytest.raises(ValueError):
            arr[0] = 0.0
