import numpy as np
import pytest

from bihamso4 import so4
from bihamso4.fields import CHART_M, CHART_SPLIT, CHART_UV, PhasePoint, schouten_residual, ham_field
from bihamso4.so4 import ModelParams, MU_TO_JSQ


def random_m(rng):
    return PhasePoint(CHART_M, rng.uniform(-1, 1, 6))


def test_mu_jsq_conversion_frozen():
    p = ModelParams.from_mu(1.0, 2.0, 3.0, 3.0)
    assert np.allclose(p.jsq, (-7.0, 3.0, 3.0, 5.0))
    assert np.allclose(p.a, (8.0, 8.0, 6.0, -2.0, -4.0, -4.0))
    assert np.allclose(p.b, (15.0, 15.0, 9.0, -35.0, -21.0, -21.0))
    p2 = ModelParams.from_mu(10.0, 1.0, 2.0)
    assert np.allclose(p2.jsq, (5.0, 11.0, 11.0, 13.0))


def test_mu_jsq_inverse_roundtrip():
    # the 4x4 map is 2x an orthogonal matrix, so inverse = transpose / 4
    assert np.allclose(MU_TO_JSQ @ MU_TO_JSQ.T, 4.0 * np.eye(4))
    rng = np.random.default_rng(0)
    mu = rng.uniform(-2, 2, 4)
    p = ModelParams(tuple(mu))
    back = ModelParams.from_jsq(p.jsq)
    assert np.allclose(back.mu, p.mu, atol=1e-14)


def test_symmetric_flag():
    assert ModelParams.from_mu(1.0, 2.0, 3.0).symmetric
    assert not ModelParams.from_mu(1.0, 2.0, 3.0, 2.5).symmetric


def test_bad_mu_length():
    with pytest.raises(ValueError, match="dimension mismatch"):
        ModelParams((1.0, 2.0, 3.0))


def test_observables_frozen_values():
    p = ModelParams.from_mu(10.0, 1.0, 2.0)
    obs = so4.observables_m(p)
    e1 = np.array([1.0, 0, 0, 0, 0, 0])
    assert obs["H0"].value(e1) == 1.0
    assert obs["HE"].value(e1) == 12.0
    assert obs["KE"].value(e1) == 143.0
    assert obs["C"].value(e1) == 0.0


def test_observable_gradients():
    rng = np.random.default_rng(1)
    p = ModelParams.from_mu(1.0, 2.0, 3.0)
    obs = so4.observables_m(p)
    from bihamso4.fields import grad_fd_residual

    for _ in range(25):
        pt = random_m(rng)
        for f in obs.values():
            assert grad_fd_residual(f, pt).normalized < 1e-6


def test_jacobi_and_compatibility():
    rng = np.random.default_rng(2)
    p = ModelParams.from_mu(1.0, 2.0, 3.0, 0.7)
    P1 = so4.p1_m()
    P2 = so4.p2_m(p)
    for _ in range(25):
        pt = random_m(rng)
        assert schouten_residual(P1, P1, pt).normalized < 1e-12
        assert schouten_residual(P2, P2, pt).normalized < 1e-12
        assert schouten_residual(P1, P2, pt).normalized < 1e-12


def test_lenard_chain_and_casimirs():
    rng = np.random.default_rng(3)
    p = ModelParams.from_mu(1.0, 2.0, 3.0)
    P1, P2, obs = so4.p1_m(), so4.p2_m(p), so4.observables_m(p)
    for _ in range(25):
        pt = random_m(rng)
        for name, r in so4.lenard_residuals_m(P1, P2, obs, pt).items():
            assert r.normalized < 1e-12, name


def test_casimirs_annihilate_p1():
    rng = np.random.default_rng(4)
    p = ModelParams.from_mu(2.0, -1.0, 0.5, 1.5)
    P1 = so4.p1_m()
    obs = so4.observables_m(p)
    for _ in range(10):
        pt = random_m(rng)
        for name in ("H0", "C"):
            v = ham_field(P1, obs[name], pt)
            assert np.max(np.abs(v)) < 1e-13


def test_char_poly_identity():
    rng = np.random.default_rng(5)
    p = ModelParams.from_mu(1.0, 2.0, 3.0, -0.4)
    obs = so4.observables_m(p)
    for _ in range(50):
        pt = random_m(rng)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert so4.char_poly_residual(p, lam, rho, pt, obs).normalized < 1e-10


def test_det4_against_numpy():
    rng = np.random.default_rng(6)
    for _ in range(50):
        A = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        assert abs(so4.det4(A) - np.linalg.det(A)) < 1e-12


def test_chart_maps_orthogonal_and_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pt = random_m(rng)
        s = so4.chart_map(pt, CHART_SPLIT)
        # the m -> split map is orthogonal: norms agree
        assert abs(s.coords @ s.coords - pt.coords @ pt.coords) < 1e-13
        uv = so4.chart_map(s, CHART_UV)
        back = so4.chart_map(so4.chart_map(uv, CHART_SPLIT), CHART_M)
        assert np.max(np.abs(back.coords - pt.coords)) < 1e-14


def test_chart_map_realness_guard():
    pt = PhasePoint(CHART_UV, np.array([1j, 0, 0, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="non-real point"):
        so4.chart_map(pt, CHART_M)
    # complex_ok lifts the guard
    out = so4.chart_map(pt, CHART_M, complex_ok=True)
    assert out.chart == CHART_M


def test_rigid_rhs_is_p1_gradient_flow():
    rng = np.random.default_rng(8)
    p = ModelParams.from_mu(10.0, 1.0, 2.0)
    P1 = so4.p1_m()
    obs = so4.observables_m(p)
    for _ in range(20):
        pt = random_m(rng)
        rhs = so4.rigid_rhs(p, pt.coords)
        hv = ham_field(P1, obs["HE"], pt)
        assert np.max(np.abs(rhs - hv)) < 1e-13


def test_lax_flow_identity():
    # dL/dt = [B_E, L] identically in the spectral parameter
    rng = np.random.default_rng(9)
    p = ModelParams.from_mu(10.0, 1.0, 2.0)
    for _ in range(25):
        pt = random_m(rng)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert so4.lax_flow_residual(p, lam, pt).normalized < 1e-9


def test_angular_velocity_commutator_identity():
    # [L(lambda), Omega + lambda J] has no lambda dependence: it equals [M, Omega]
    rng = np.random.default_rng(10)
    p = ModelParams.from_mu(10.0, 1.0, 2.0)
    for _ in range(25):
        pt = random_m(rng)
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert so4.angular_velocity_commutator_residual(p, lam, pt).normalized < 1e-12


def test_angular_velocity_partner_does_not_generate_energy_flow():
    # falsification: with either sign, [L, Omega + lambda J] is not dL/dt
    rng = np.random.default_rng(11)
    p = ModelParams.from_mu(10.0, 1.0, 2.0)
    mismatches = []
    for _ in range(10):
        pt = random_m(rng)
        mismatches.append(so4.angular_velocity_flow_mismatch(p, 0.3 - 0.8j, pt))
    assert min(mismatches) > 1e-3


def test_angular_velocity_needs_positive_spectrum():
    p = ModelParams.from_mu(1.0, 2.0, 3.0)  # jsq = (-7, 3, 3, 5)
    pt = PhasePoint(CHART_M, np.ones(6) * 0.3)
    with pytest.raises(ValueError, match="inertia spectrum not positive"):
        so4.angular_velocity(p, pt.coords)


def test_lax_matrix_shape_and_antisymmetry_of_m_part():
    p = ModelParams.from_mu(10.0, 1.0, 2.0)
    rng = np.random.default_rng(12)
    pt = random_m(rng)
    L = so4.lax(p, 0.0, pt)
    assert np.max(np.abs(L + L.T)) < 1e-15  # at lambda=0 only M remains
    L1 = so4.lax(p, 1.0, pt)
    assert np.allclose(np.diag(L1), p.jsq)
