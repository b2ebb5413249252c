import numpy as np
import pytest

from bihamso4 import so4, verify, xxz
from bihamso4.fields import (
    CHART_M,
    FD_STEP,
    CHART_UV,
    LINE_NODES,
    PhasePoint,
    Residual,
    ScalarField,
    VectorField,
    BivectorField,
    bracket,
    brackets_scaled,
    fd_grad,
    fd_jac,
    grad_fd_residual,
    ham_field_scaled,
    lie_bivector_scaled,
    lie_scalar,
    line_poly_coeffs,
    line_restriction,
    linear_bivector,
    peak,
    schouten_residual,
    wedge_field,
)
from bihamso4.so4 import ModelParams


def test_residual_normalization():
    r = Residual(2.0, 3.0)
    assert r.normalized == 0.5
    assert Residual(0.0, 0.0).normalized == 0.0


def test_chart_mismatch_guard():
    pt = PhasePoint(CHART_M, np.zeros(6))
    f = ScalarField(CHART_UV, lambda c: c[0], lambda c: np.eye(6)[0])
    with pytest.raises(ValueError, match="chart mismatch"):
        grad_fd_residual(f, pt)


def test_bracket_antisymmetry():
    rng = np.random.default_rng(0)
    A = rng.uniform(-1, 1, (6, 6))
    A = A - A.T
    P = BivectorField(CHART_M, lambda c: A, lambda c: np.zeros((6, 6, 6)))
    f = ScalarField(CHART_M, lambda c: c @ c, lambda c: 2 * c)
    g = ScalarField(CHART_M, lambda c: c[0] * c[3], lambda c: np.eye(6)[0] * c[3] + np.eye(6)[3] * c[0])
    for _ in range(20):
        pt = PhasePoint(CHART_M, rng.uniform(-1, 1, 6))
        assert abs(bracket(P, f, g, pt) + bracket(P, g, f, pt)) < 1e-14


def test_schouten_constant_bivector_vanishes():
    # a constant antisymmetric matrix always satisfies Jacobi
    rng = np.random.default_rng(1)
    A = rng.uniform(-1, 1, (6, 6))
    A = A - A.T
    P = BivectorField(CHART_M, lambda c: A, lambda c: np.zeros((6, 6, 6)))
    pt = PhasePoint(CHART_M, rng.uniform(-1, 1, 6))
    assert schouten_residual(P, P, pt).raw == 0.0


def test_fd_grad_matches_hand_gradient():
    rng = np.random.default_rng(2)

    def value(c):
        return np.sin(c[0]) * c[1] + c[2] ** 3

    def grad(c):
        g = np.zeros(6)
        g[0] = np.cos(c[0]) * c[1]
        g[1] = np.sin(c[0])
        g[2] = 3 * c[2] ** 2
        return g

    f = ScalarField(CHART_M, value, grad)
    for _ in range(10):
        pt = PhasePoint(CHART_M, rng.uniform(-1, 1, 6))
        assert grad_fd_residual(f, pt).normalized < 1e-7


def test_fd_jac_linear_field_exact():
    rng = np.random.default_rng(3)
    A = rng.uniform(-1, 1, (6, 6))
    X = VectorField(CHART_M, lambda c: A @ c, lambda c: A)
    pt = PhasePoint(CHART_M, rng.uniform(-1, 1, 6))
    J = fd_jac(X.value, pt.coords)
    assert np.max(np.abs(J - A)) < 1e-9


def test_wedge_field_jacobian():
    rng = np.random.default_rng(5)
    A = rng.uniform(-1, 1, (6, 6))
    B = rng.uniform(-1, 1, (6, 6))
    X = VectorField(CHART_M, lambda c: A @ c, lambda c: A)
    Z = VectorField(CHART_M, lambda c: B @ c, lambda c: B)
    W = wedge_field(X, Z)
    pt = PhasePoint(CHART_M, rng.uniform(-1, 1, 6))
    step = 1e-6
    for l in range(6):
        e = np.zeros(6)
        e[l] = step
        plus = W.value(pt.coords + e)
        minus = W.value(pt.coords - e)
        fd = (plus - minus) / (2 * step)
        assert np.max(np.abs(W.jac(pt.coords)[:, :, l] - fd)) < 1e-8


def test_line_poly_coeffs_exact_degree_five():
    # interpolation on the fixed nodes recovers polynomial coefficients exactly
    coeffs = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25])
    values = np.array([np.polyval(coeffs[::-1], t) for t in LINE_NODES])
    got = line_poly_coeffs(values)
    assert np.max(np.abs(got - coeffs)) < 1e-12


def test_line_poly_coeffs_dimension_guard():
    with pytest.raises(ValueError, match="dimension mismatch"):
        line_poly_coeffs(np.zeros(5))


def test_line_restriction_requires_a_self_parallel_direction():
    p = np.array([0.3 + 0.1j, -0.7, 0.5j])
    # w(c) = c moves along the line, so w(p + t w) = (1 + t) w != w
    with pytest.raises(RuntimeError, match="not self-parallel"):
        line_restriction(lambda c: c @ c, lambda c: c, p)
    w = np.array([0.2, 0.0, -1.0 + 0.5j])
    coeffs, vals = line_restriction(lambda c: c @ c, lambda c: w, p)
    assert np.allclose(coeffs, [p @ p, 2.0 * (p @ w), w @ w, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.array_equal(vals, [(p + t * w) @ (p + t * w) for t in LINE_NODES])


def test_linear_bivector_jacobian_constant():
    def value(c):
        M = np.zeros((6, 6), dtype=np.asarray(c).dtype)
        M[0, 1] = c[2]
        M[1, 0] = -c[2]
        M[2, 4] = 2.0 * c[0] - c[5]
        M[4, 2] = -M[2, 4]
        return M

    P = linear_bivector(CHART_M, value, 6)
    rng = np.random.default_rng(6)
    pt = rng.uniform(-1, 1, 6)
    J = P.jac(pt)
    assert J[0, 1, 2] == 1.0
    assert J[1, 0, 2] == -1.0
    assert J[2, 4, 0] == 2.0
    assert J[2, 4, 5] == -1.0
    # jac is exact for entries linear in the coordinates
    step = 1e-7
    for l in range(6):
        e = np.zeros(6)
        e[l] = step
        fd = (P.value(pt + e) - P.value(pt - e)) / (2 * step)
        assert np.max(np.abs(J[:, :, l] - fd)) < 1e-8


def _clone(P):
    return BivectorField(P.chart, P.value, P.jac)


def test_schouten_self_bracket_shortcut_is_exact():
    # schouten_residual(P, P) takes a shortcut for Q is P; a distinct field
    # with the same callables takes the general path.  Both must agree bit
    # for bit, including at many differently allocated evaluations.
    params = ModelParams.from_mu(1.0, 2.0, 3.0)
    P1, P2 = so4.p1_m(), so4.p2_m(params)
    t = complex(0.3, -0.7)
    pencil = BivectorField(
        CHART_M, lambda c: P1.value(c) + t * P2.value(c), lambda c: P1.jac(c) + t * P2.jac(c)
    )
    m_pts = _columns(verify.sample_points("M_real", 60, 1, params).stack)
    uv_pts = _columns(verify.sample_points("UV_complex", 60, 2, params).stack)
    cases = [(P1, m_pts), (P2, m_pts), (pencil, m_pts), (xxz.q_uv(params), uv_pts), (xxz.p2_uv(params), uv_pts)]
    for P, pts in cases:
        clone = _clone(P)
        assert clone is not P
        for pt in pts:
            assert schouten_residual(P, P, pt) == schouten_residual(P, clone, pt)



# Stacked and per-point evaluation may round differently (numpy's array loops
# and its scalar arithmetic are not bit-identical), so a stacked column must
# match its per-point call within this many units of the summand scale.  A
# central difference divides that roundoff of the values by its step.
STACK_ROUNDOFF = 1e-13
FD_STACK_ROUNDOFF = STACK_ROUNDOFF / FD_STEP


def _stack(points):
    return PhasePoint(points[0].chart, np.stack([pt.coords for pt in points], axis=-1))


def _columns(stack):
    return [PhasePoint(stack.chart, c) for c in stack.coords.T]


def _lie_scalar_scaled(Z, f, pt):
    return lie_scalar(Z, f, pt), peak(f.grad(pt.coords) * Z.value(pt.coords), 1)


def _transport(params, pt):
    res = xxz.uv_transport_residuals(params, pt)
    return [res["p1"], res["p2"], (res["ratio_p1"], 1.0), (res["ratio_p2"], 1.0)]


def test_stacked_kernels_agree_with_per_point_calls():
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    n = 30
    m_pts = _columns(verify.sample_points("M_real", n, 1, params).stack)
    uv_pts = _columns(verify.sample_points("UV_complex", n, 2, params).stack)
    draws = np.random.default_rng(3).uniform(-1, 1, size=(n, 2, 2)).view(complex)[..., 0]
    P1m, P2m = so4.p1_m(), so4.p2_m(params)
    P1u, P2u, Q = xxz.p1_uv(), xxz.p2_uv(params), xxz.q_uv(params)
    X1, Z = xxz.x1_field(params), xxz.z_field()
    obs = xxz.uv_observables(params)
    hams = [obs[name] for name in ("H0", "C2", "H1", "H2")]
    # each case maps (point, lam, rho) to a list of (value, scale) pairs
    exact = [
        (m_pts, lambda pt, lam, rho: [schouten_residual(P1m, P2m, pt), schouten_residual(P2m, P2m, pt)]),
        (m_pts, lambda pt, lam, rho: [so4.char_poly_residual(params, lam, rho, pt)]),
        (uv_pts, lambda pt, lam, rho: [schouten_residual(Q, Q, pt), schouten_residual(P1u, Q, pt)]),
        (uv_pts, lambda pt, lam, rho: brackets_scaled(Q, hams, [(0, 2), (2, 3)], pt)),
        (uv_pts, lambda pt, lam, rho: [ham_field_scaled(Q, obs["H0"], pt)]),
        (uv_pts, lambda pt, lam, rho: [_lie_scalar_scaled(Z, obs["H1"], pt), _lie_scalar_scaled(X1, obs["H2"], pt)]),
        (uv_pts, lambda pt, lam, rho: [lie_bivector_scaled(Z, P2u, pt)]),
        (uv_pts, lambda pt, lam, rho: [xxz.stackel_residual(params, lam, rho, pt)]),
        (uv_pts, lambda pt, lam, rho: [xxz.transversal_curve_residual(params, lam, rho, pt)]),
        (uv_pts, lambda pt, lam, rho: _transport(params, pt)),
        (uv_pts, lambda pt, lam, rho: list(xxz.observable_transport_residuals(params, pt).values())),
    ]
    fd = [
        (m_pts, lambda pt, lam, rho: [grad_fd_residual(f, pt) for f in so4.observables_m(params).values()]),
        (uv_pts, lambda pt, lam, rho: [grad_fd_residual(f, pt) for f in obs.values()]),
    ]
    cases = [(pts, STACK_ROUNDOFF, kernel) for pts, kernel in exact]
    cases += [(pts, FD_STACK_ROUNDOFF, kernel) for pts, kernel in fd]
    for pts, roundoff, kernel in cases:
        stacked = kernel(_stack(pts), draws[:, 0], draws[:, 1])
        for k, pt in enumerate(pts):
            single = kernel(pt, complex(draws[k, 0]), complex(draws[k, 1]))
            assert len(single) == len(stacked)
            for (x_stack, s_stack), (x, s) in zip(stacked, single):
                bound = roundoff * (1.0 + s)
                assert np.abs(np.asarray(x_stack)[..., k] - x).max() <= bound
                assert abs(np.broadcast_to(s_stack, (n,))[k] - s) <= bound


def test_line_restriction_checks_each_column_of_a_stack():
    p = np.arange(12.0).reshape(3, 4) + 1.0
    # w = 0 is self-parallel; w(c) = c is not, and only column 3 has it
    with pytest.raises(RuntimeError, match="not self-parallel"):
        line_restriction(lambda c: c[0], lambda c: c * np.array([0.0, 0.0, 0.0, 1.0]), p)
    coeffs, vals = line_restriction(lambda c: c[0] * c[1], lambda c: 0.0 * c, p)
    assert coeffs.shape == (6, 4) and vals.shape == (6, 4)
    assert np.allclose(coeffs[0], p[0] * p[1], rtol=1e-15) and np.allclose(coeffs[1:], 0.0, atol=1e-13)
