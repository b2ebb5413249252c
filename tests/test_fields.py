import numpy as np
import pytest

from bihamso4 import leaf as leaf_mod
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
    grad_fd_residual,
    ham_field_scaled,
    lie_bivector_scaled,
    lie_scalar,
    lift,
    line_poly_coeffs,
    line_restriction,
    linear_bivector,
    matmul,
    peak,
    pencil,
    schouten_residual,
    wedge_field,
)
from bihamso4.leaf import LeafChart
from bihamso4.so4 import ModelParams
import oracles
from oracles import fd_jac


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


def _square(c):
    """c . c over the first axis, elementwise over the others, as line_restriction requires."""
    return (c * c).sum(axis=0)


def test_line_restriction_requires_a_self_parallel_direction():
    p = np.array([0.3 + 0.1j, -0.7, 0.5j])
    # w(c) = c moves along the line, so w(p + t w) = (1 + t) w != w
    with pytest.raises(RuntimeError, match="not self-parallel"):
        line_restriction(_square, lambda c: c, p)
    w = np.array([0.2, 0.0, -1.0 + 0.5j])
    coeffs, vals = line_restriction(_square, lambda c: w, p)
    assert np.allclose(coeffs, [p @ p, 2.0 * (p @ w), w @ w, 0.0, 0.0, 0.0], atol=1e-14)
    assert np.array_equal(vals, [_square(p + t * w) for t in LINE_NODES])


def test_linear_bivector_jacobian_constant():
    def value(c):
        zero = 0.0 * c[0]
        w = 2.0 * c[0] - c[5]
        return np.array(
            [
                [zero, c[2], zero, zero, zero, zero],
                [-c[2], zero, zero, zero, zero, zero],
                [zero, zero, zero, zero, w, zero],
                [zero, zero, zero, zero, zero, zero],
                [zero, zero, -w, zero, zero, zero],
                [zero, zero, zero, zero, zero, zero],
            ]
        )

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


def _linear_fields(params):
    return {"P1m": so4.p1_m(), "P2m": so4.p2_m(params), "P1u": xxz.p1_uv(), "P2u": xxz.p2_uv(params)}


def _coordinates(rng, shape):
    real = rng.uniform(-1, 1, shape)
    return real, real + 1j * rng.uniform(-1, 1, shape)


def test_linear_values_are_their_entrywise_definitions(monkeypatch):
    # the value of a linear bivector is its Jacobian's rows i < k times the
    # coordinates: the entrywise definition to roundoff of the summands, at a
    # point, on a stack and on a stack with two point axes, real and complex;
    # exactly antisymmetric with a zero diagonal by construction
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    fields = _linear_fields(params)
    for module in (so4, xxz):  # the entrywise value each constructor hands to linear_bivector
        monkeypatch.setattr(module, "linear_bivector", lambda chart, value, dim: BivectorField(chart, value, None))
    entrywise = _linear_fields(params)
    rng = np.random.default_rng(12)
    for shape in ((6,), (6, 40), (6, 6, 40)):
        for c in _coordinates(rng, shape):
            for name, P in fields.items():
                got, ref = P.value(c), entrywise[name].value(c)
                assert got.shape == ref.shape and got.dtype == ref.dtype, name
                bound = STACK_ROUNDOFF * (1.0 + np.abs(P.jac(c)).max() * np.abs(c).max(axis=0))
                assert (np.abs(got - ref) <= bound).all(), name
                assert np.array_equal(got, -np.swapaxes(got, 0, 1)), name
                assert not got[range(6), range(6)].any(), name


def test_linear_values_are_position_independent():
    # column k of a stack is the one-column stack at k bit for bit, and a
    # non-finite coordinate makes its own column non-finite and no other (the
    # product's 0 * inf is NaN in every entry of that column)
    fields = _linear_fields(ModelParams.from_mu(10.0, 1.0, 2.0))
    n, bad = 30, 7
    for c, poison in zip(_coordinates(np.random.default_rng(13), (6, n)), (np.inf, np.nan)):
        for name, P in fields.items():
            full = P.value(c)
            for k in range(n):
                assert np.array_equal(P.value(c[:, k : k + 1])[..., 0], full[..., k]), name
            for row in range(6):
                broken = c.copy()
                broken[row, bad] = poison
                with np.errstate(invalid="ignore"):
                    finite = np.isfinite(P.value(broken)).all(axis=(0, 1))
                assert not finite[bad] and finite[np.arange(n) != bad].all(), (name, row)


def test_stacked_matmul_is_the_per_point_product():
    # one broadcast product per contraction index on a stack: the batched @
    # within roundoff of each point's summand scale, on complex and real
    # stacks and with a shared 2-D operand on either side; @ itself at a point
    rng = np.random.default_rng(14)
    n = 30
    a, b = (x + 1j * rng.uniform(-1, 1, x.shape) for x in rng.uniform(-1, 1, (2, 4, 4, n)))
    shared = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
    cases = [(a, b), (a.real, b.real), (shared, b), (a, shared), (shared.real, a.real), (a[:, :3], b[:3, :2])]
    for x, y in cases:
        got, ref = matmul(x, y), oracles.matmul(x, y)
        assert got.shape == ref.shape and got.dtype == ref.dtype
        scale = np.abs(x).max(axis=(0, 1)) * np.abs(y).max(axis=(0, 1))  # per point, or shared
        assert (np.abs(got - ref) <= STACK_ROUNDOFF * (1.0 + scale)).all()
    assert matmul(a[..., 0], b[..., 0]).tobytes() == (a[..., 0] @ b[..., 0]).tobytes()


def test_lie_bivector_is_the_three_einsum_oracle():
    # term1 as one product with a shared (or one point's) Jacobian and the
    # mirror term as -term2^T: within roundoff of the scale, the scale bit for bit
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    stack = verify.sample_points("UV_complex", 30, 15, params).stack
    Z, X1, P1u, P2u, Q = xxz.z_field(), xxz.x1_field(params), xxz.p1_uv(), xxz.p2_uv(params), xxz.q_uv(params)
    for pt in [stack, *_columns(stack)[:5]]:
        for V, P in ((Z, P1u), (Z, P2u), (X1, P2u), (Z, Q), (X1, Q)):
            got, scale = lie_bivector_scaled(V, P, pt)
            ref, ref_scale = oracles.lie_bivector_scaled(V, P, pt)
            assert np.array_equal(scale, ref_scale)
            assert got.shape == ref.shape
            assert (np.abs(got - ref) <= STACK_ROUNDOFF * (1.0 + scale)).all()


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



def _schouten_reference(P, Q, pt):
    """(raw, scale) of the full 216-component einsum contraction that the matmul kernel replaced."""
    c = pt.coords
    p, dp = lift(P.value(c), 2, c), lift(P.jac(c), 3, c)
    q, dq = lift(Q.value(c), 2, c), lift(Q.jac(c), 3, c)
    T = np.einsum("lj...,ikl...->ijk...", p, dq) + np.einsum("lj...,ikl...->ijk...", q, dp)
    S = T + np.einsum("kij...->ijk...", T) + np.einsum("jki...->ijk...", T)
    ap, adp = np.abs(p).max(axis=1), np.abs(dp).max(axis=(0, 1))
    aq, adq = np.abs(q).max(axis=1), np.abs(dq).max(axis=(0, 1))
    return peak(S, 3), peak(np.maximum(ap * adq, aq * adp), 1)


def _suite_bivectors(params, t):
    """Every bivector field run_suite brackets, on its point kind; the pencil is P1m + t P2m."""
    P1m, P2m = so4.p1_m(), so4.p2_m(params)
    return {
        "M_real": {"P1m": P1m, "P2m": P2m, "pencil": pencil(P1m, P2m, t)},
        "UV_complex": {
            "P1u": xxz.p1_uv(), "P2u": xxz.p2_uv(params), "Q": xxz.q_uv(params),
            "Q_sign": verify.OVERRIDES["q_sign"][1](
                params, {"P2u": xxz.p2_uv(params), "X1": xxz.x1_field(params), "Zf": xxz.z_field()}
            ),
        },
    }


# (P, Q) pairs: the suite's Jacobi and compatibility rows plus mixed ones,
# so that shared and per-point Jacobians meet in both orders
SCHOUTEN_PAIRS = {
    "M_real": [("P1m", "P1m"), ("P2m", "P2m"), ("P1m", "P2m"), ("pencil", "pencil"), ("pencil", "P1m")],
    "UV_complex": [
        ("P1u", "P1u"), ("P2u", "P2u"), ("Q", "Q"), ("Q_sign", "Q_sign"), ("P1u", "P2u"), ("P1u", "Q"), ("Q", "P2u"),
    ],
}


def test_suite_bivectors_are_exactly_antisymmetric():
    # the Schouten kernel reads only the components i < j < k of S and the
    # rows i < k of each Jacobian, which determine them when the values and
    # the Jacobians are exactly antisymmetric; on a stack and at one point
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    t = np.random.default_rng(7).uniform(-1, 1, (40, 2)).view(complex)[:, 0]
    for kind, fields in _suite_bivectors(params, t).items():
        stack = verify.sample_points(kind, 40, 4, params).stack.coords
        for c, named in ((stack, fields), (stack[:, 0], _suite_bivectors(params, t[0])[kind])):
            for name, P in named.items():
                for x in (P.value(c), P.jac(c)):
                    assert np.array_equal(x, -np.swapaxes(x, 0, 1)), name
                    assert not x[range(6), range(6)].any(), name


def test_schouten_kernel_matches_the_full_einsum():
    # on stacks and at single points: raw within rounding, the scale bit for bit
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    n = 40
    t = np.random.default_rng(8).uniform(-1, 1, (n, 2)).view(complex)[:, 0]
    for kind, pairs in SCHOUTEN_PAIRS.items():
        stack = verify.sample_points(kind, n, 9, params).stack
        cases = [(_suite_bivectors(params, t)[kind], stack)]
        cases += [(_suite_bivectors(params, t[k])[kind], pt) for k, pt in enumerate(_columns(stack)[:8])]
        for fields, pt in cases:
            for a, b in pairs:
                got = schouten_residual(fields[a], fields[b], pt)
                raw, scale = _schouten_reference(fields[a], fields[b], pt)
                assert np.array_equal(got.scale, scale), (a, b)
                assert np.shape(got.raw) == np.shape(raw), (a, b)
                assert (np.abs(got.raw - raw) <= 1e-15 * (1.0 + scale)).all(), (a, b)


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


def _transport(fields, pt):
    p1u, p2u, p1m, p2m = fields
    res = xxz.uv_transport_residuals(*fields, pt)
    return [res["p1"], res["p2"], (xxz.uv_tensor_ratio(p1u, p1m, pt), 1.0), (xxz.uv_tensor_ratio(p2u, p2m, pt), 1.0)]


def test_stacked_kernels_agree_with_per_point_calls():
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    n = 30
    m_pts = _columns(verify.sample_points("M_real", n, 1, params).stack)
    uv_pts = _columns(verify.sample_points("UV_complex", n, 2, params).stack)
    draws = np.random.default_rng(3).uniform(-1, 1, size=(n, 2, 2)).view(complex)[..., 0]
    P1m, P2m = so4.p1_m(), so4.p2_m(params)
    P1u, P2u, Q = xxz.p1_uv(), xxz.p2_uv(params), xxz.q_uv(params)
    X1, Z = xxz.x1_field(params), xxz.z_field()
    obs, obs_m = xxz.uv_observables(params), so4.observables_m(params)
    hams = [obs[name] for name in ("H0", "C2", "H1", "H2")]
    # each case maps (point, lam, rho) to a list of (value, scale) pairs
    exact = [
        (m_pts, lambda pt, lam, rho: [schouten_residual(P1m, P2m, pt), schouten_residual(P2m, P2m, pt)]),
        (m_pts, lambda pt, lam, rho: [so4.char_poly_residual(params, lam, rho, pt, obs_m)]),
        (uv_pts, lambda pt, lam, rho: [schouten_residual(Q, Q, pt), schouten_residual(P1u, Q, pt)]),
        (uv_pts, lambda pt, lam, rho: brackets_scaled(Q, hams, [(0, 2), (2, 3)], pt)),
        (uv_pts, lambda pt, lam, rho: [ham_field_scaled(Q, obs["H0"], pt)]),
        (uv_pts, lambda pt, lam, rho: [_lie_scalar_scaled(Z, obs["H1"], pt), _lie_scalar_scaled(X1, obs["H2"], pt)]),
        (uv_pts, lambda pt, lam, rho: [lie_bivector_scaled(Z, P2u, pt)]),
        (uv_pts, lambda pt, lam, rho: [xxz.stackel_residual(params, lam, rho, pt, Z)]),
        (uv_pts, lambda pt, lam, rho: [xxz.transversal_curve_residual(params, lam, rho, pt, Z)]),
        (uv_pts, lambda pt, lam, rho: _transport((P1u, P2u, P1m, P2m), pt)),
        (uv_pts, lambda pt, lam, rho: list(xxz.observable_transport_residuals(obs, obs_m, pt).values())),
        (m_pts, lambda pt, lam, rho: [so4.lax_flow_residual(params, lam, pt)]),
        (m_pts, lambda pt, lam, rho: [so4.angular_velocity_commutator_residual(params, lam, pt)]),
        (m_pts, lambda pt, lam, rho: [(so4.angular_velocity_flow_mismatch(params, lam, pt), 1.0)]),
    ]
    fd = [
        (m_pts, lambda pt, lam, rho: [grad_fd_residual(f, pt) for f in obs_m.values()]),
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


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_fd_grad_is_the_per_shift_oracle_from_one_value_call():
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    m = verify.sample_points("M_real", 40, 1, params).stack.coords
    uv = verify.sample_points("UV_complex", 40, 2, params).stack.coords
    obs_m, obs_uv = so4.observables_m(params), xxz.uv_observables(params)
    # (observables, coords, coords the oracle sees, how its result maps back)
    cases = [
        (obs_m, m, m, lambda g: g),
        (obs_uv, uv, uv, lambda g: g),
        (obs_m, m.astype(complex), m.astype(complex), lambda g: g),
        (obs_uv, m, m, lambda g: g),
        (obs_m, m[:, 5], m[:, 5], lambda g: g),
        # numpy rounds a product of complex scalars and of complex arrays
        # differently, so the oracle takes a complex point as a one-column stack
        (obs_uv, uv[:, 5], uv[:, 5:6], lambda g: g[:, 0]),
    ]
    for obs, coords, oracle_coords, back in cases:
        for name, f in obs.items():
            calls = []

            def value(c, f=f):
                calls.append(c.shape)
                return f.value(c)

            got = fd_grad(value, coords)
            assert calls == [(6, 2) + coords.shape], name
            assert _same_bits(got, back(oracles.fd_grad(f.value, oracle_coords))), (name, coords.shape)


def test_line_restriction_is_the_per_node_oracle_from_one_value_call(monkeypatch):
    # the suite's own lines at its draws: the three Y towers on the LEAF stack
    # (rho from streams 17 and 18, and rho = lambda2) and the Stackel and
    # curve Z lines on the UV stack (streams 15 and 16)
    params, n, seed = ModelParams.from_mu(10.0, 1.0, 2.0), 200, 0
    uv = verify.sample_points("UV_complex", n, seed + 1, params).stack
    leafs = verify.sample_points("LEAF", n, seed + 2, params).stack
    obs, forms, Z = xxz.uv_observables(params), leaf_mod.closed_forms(), xxz.z_field()

    def draws(stream, k):
        return np.random.default_rng([seed, stream]).uniform(-1, 1, size=(n, k, 2)).view(complex)[..., 0].T

    def towers(rhos, leaf):
        return [leaf_mod.deformation_tower(params, rho, leaf, obs, forms)["coeffs"] for rho in rhos]

    for lam, rho in (draws(15, 2), draws(16, 2)):  # xxz._curve_line against its parent, per node
        def curve(c, lam=lam, rho=rho):
            return so4.spectral_det(params, lam, rho, so4.chart_map(PhasePoint(CHART_UV, c), CHART_M, complex_ok=True))

        for a, b in zip(xxz._curve_line(params, lam, rho, uv, Z), oracles.line_restriction(curve, Z.value, uv.coords)):
            assert _same_bits(a, b)
    rhos = [draws(17, 1)[0], draws(18, 1)[0], forms["nijenhuis"](params, leafs)[2]]

    def h_rho(rho, levels):  # what a tower fits: H(rho) at the uv embedding of a line node
        def f(c):
            uv = leaf_mod._embed_coords(c, levels)
            return rho**2 * obs["H0"].value(uv) + rho * obs["H1"].value(uv) + obs["H2"].value(uv)

        return f

    def y_direction(c):
        return forms["y"](params, LeafChart(c, leafs.levels))

    for got, rho in zip(towers(rhos, leafs), rhos):
        assert _same_bits(got, oracles.line_restriction(h_rho(rho, leafs.levels), y_direction, leafs.coords)[0])
    real, lines = leaf_mod.line_nodes, []
    monkeypatch.setattr(leaf_mod, "line_nodes", lambda *args: lines.append(args) or real(*args))
    at_points = []
    for k in (0, 7, 199):  # the towers of three 1-D leaf points
        leaf = LeafChart(leafs.coords[:, k], tuple(level[k] for level in leafs.levels))
        rhos_k = [r[k] for r in rhos]
        at_points += [(rho, leaf.levels, coeffs) for rho, coeffs in zip(rhos_k, towers(rhos_k, leaf))]
    # at one point, against the oracle on the one-column stack (its
    # direction the point's own), as for fd_grad.  The Z line is left out
    # here: its six nodes map to the M chart as one (6, 6) @ (6, 6) product,
    # which BLAS rounds unlike six products with a (6,) point
    assert len(lines) == 9
    for (direction, p, w), (rho, levels, coeffs) in zip(lines, at_points):
        f = h_rho(rho, levels)
        want = oracles.line_restriction(f, lambda c: w[:, None], p[:, None])
        for a, b in zip((coeffs, f(real(direction, p, w))), want):
            assert _same_bits(a, b[:, 0])


def test_schouten_kernel_is_the_summed_table_oracle():
    # every pair the suite evaluates, the q_sign mutant's included, on a stack
    # and at one point; the M-chart span carries one pencil parameter per point
    params, n = ModelParams.from_mu(10.0, 1.0, 2.0), 30
    m = verify.sample_points("M_real", n, 1, params).stack
    uv = verify.sample_points("UV_complex", n, 2, params).stack
    t = np.random.default_rng(3).uniform(-1, 1, size=(n, 2)).view(complex)[:, 0]
    P1m, P2m, P1u, P2u = so4.p1_m(), so4.p2_m(params), xxz.p1_uv(), xxz.p2_uv(params)
    span = pencil(P1m, P2m, t)
    W = wedge_field(xxz.x1_field(params), xxz.z_field())
    Q, Q_flipped = pencil(P2u, W, -1.0), pencil(P2u, W, 1.0)
    cases = [(m, P, R) for P, R in ((P1m, P1m), (P2m, P2m), (P1m, P2m), (span, span))]
    cases += [(uv, P, R) for P, R in ((P1u, P1u), (P2u, P2u), (Q, Q), (P1u, P2u), (P1u, Q))]
    cases += [(uv, Q_flipped, Q_flipped), (uv, P1u, Q_flipped)]
    for stack, P, R in cases:
        got, want = schouten_residual(P, R, stack), oracles.schouten_residual(P, R, stack)
        assert _same_bits(got.raw, want.raw) and _same_bits(got.scale, want.scale)
        if P is not span:
            pt = PhasePoint(stack.chart, stack.coords[:, 0])
            got, want = schouten_residual(P, R, pt), oracles.schouten_residual(P, R, pt)
            assert type(got.raw) is float and got == want


def test_pencil_and_wedge_jacobians_are_the_oracle():
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    n = 30
    m = verify.sample_points("M_real", n, 1, params).stack.coords
    uv = verify.sample_points("UV_complex", n, 2, params).stack.coords
    t = np.random.default_rng(4).uniform(-1, 1, size=(n, 2)).view(complex)[:, 0]
    P1m, P2m, P1u, P2u = so4.p1_m(), so4.p2_m(params), xxz.p1_uv(), xxz.p2_uv(params)
    X1, Z = xxz.x1_field(params), xxz.z_field()
    W = wedge_field(X1, Z)
    Q = pencil(P2u, W, -1.0)
    # (P, Q, t, coords): shared dP and dQ; per-point dQ; per-point dP wider
    # than the shared t dQ; each with a scalar and a per-point t
    cases = [
        (P1m, P2m, 0.3, m), (P1m, P2m, t, m), (P1m, P2m, 0.3 - 0.2j, m),
        (P2u, W, -1.0, uv), (P2u, W, t, uv),
        (Q, P1u, 0.5, uv), (Q, P1u, t, uv), (W, P2u, 2.0, uv),
        (P1m, P2m, 0.3, m[:, 0]), (P2u, W, -1.0, uv[:, 0]), (Q, P1u, 0.5, uv[:, 0]),
    ]
    for P, R, s, c in cases:
        got = pencil(P, R, s).jac(c)
        assert _same_bits(got, oracles.pencil_jac(P, R, s, c))
    assert pencil(P1m, P2m, 0.3).jac(m).shape == (6, 6, 6, 1)
    assert pencil(Q, P1u, 0.5).jac(uv).shape == (6, 6, 6, n)
    rng = np.random.default_rng(5)
    A, B = rng.uniform(-1, 1, (6, 6)), rng.uniform(-1, 1, (6, 6))
    linear = (VectorField(CHART_M, lambda c: A @ c, lambda c: A), VectorField(CHART_M, lambda c: B @ c, lambda c: B))
    for X, Y, c in ((X1, Z, uv), (X1, Z, uv[:, 0]), (Z, X1, uv), (*linear, m[:, 0])):
        assert _same_bits(wedge_field(X, Y).jac(c), oracles.wedge_jac(X, Y, c))
