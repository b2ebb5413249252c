"""Free rigid body on so(4)*: parameters, charts, Poisson pair, Lax matrices.

Coordinate orderings used everywhere:

    M chart      (m12, m13, m14, m23, m24, m34)
    SPLIT chart  (x1, y1, z1, x2, y2, z2)
    UV chart     (u1, v1, z1, u2, v2, z2)

The model is parametrized either by mu = (mu1, mu2, mu3, mu4) or by the
squared inertia spectrum jsq = (J1^2, J2^2, J3^2, J4^2); the two are related
by an orthogonal-up-to-scale linear map and the rotationally symmetric case
is mu4 = mu3, equivalently J2^2 = J3^2.  For the index pair (i, j) with
complementary pair (k, l) the quadratic form coefficients are
a_ij = J_k^2 + J_l^2 and b_ij = J_k^2 J_l^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import (
    CHART_M,
    CHART_SPLIT,
    CHART_UV,
    BivectorField,
    PhasePoint,
    Residual,
    ScalarField,
    linear_bivector,
    peak,
    shared_per_model,
)

Array = np.ndarray

# The complement of each index pair (12, 13, 14, 23, 24, 34) of the m-coordinates (0-based).
M_COMPLEMENT = ((2, 3), (1, 3), (1, 2), (0, 3), (0, 2), (0, 1))

# jsq = MU_TO_JSQ @ mu; the matrix has orthogonal rows of squared norm 4,
# so the inverse is the transpose over 4.
MU_TO_JSQ = np.array(
    [
        [1.0, -1.0, -1.0, -1.0],
        [1.0, 1.0, 1.0, -1.0],
        [1.0, 1.0, -1.0, 1.0],
        [1.0, -1.0, 1.0, 1.0],
    ]
)

_SQ2 = np.sqrt(2.0)

# SPLIT coords in terms of M coords (orthogonal matrix).
M_TO_SPLIT = (
    np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
        ]
    )
    / _SQ2
)

# UV coords in terms of SPLIT coords: u = x + i y, v = x - i y.
SPLIT_TO_UV = np.array(
    [
        [1.0, 1.0j, 0.0, 0.0, 0.0, 0.0],
        [1.0, -1.0j, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 1.0j, 0.0],
        [0.0, 0.0, 0.0, 1.0, -1.0j, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ]
)

UV_TO_SPLIT = np.array(
    [
        [0.5, 0.5, 0.0, 0.0, 0.0, 0.0],
        [-0.5j, 0.5j, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.5, 0.5, 0.0],
        [0.0, 0.0, 0.0, -0.5j, 0.5j, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
    ]
)

# UV coords in terms of M coords, d(uv)/d(m).
M_TO_UV = SPLIT_TO_UV @ M_TO_SPLIT

_CHART_MAPS = {
    (CHART_M, CHART_SPLIT): M_TO_SPLIT,
    (CHART_SPLIT, CHART_M): M_TO_SPLIT.T,
    (CHART_SPLIT, CHART_UV): SPLIT_TO_UV,
    (CHART_UV, CHART_SPLIT): UV_TO_SPLIT,
    (CHART_M, CHART_UV): M_TO_UV,
    (CHART_UV, CHART_M): M_TO_SPLIT.T @ UV_TO_SPLIT,
}

_REAL_CHARTS = (CHART_M, CHART_SPLIT)
_REAL_TOL = 1e-10


@dataclass(frozen=True)
class ModelParams:
    """Model parameters; mu is the primary storage, jsq, a, b are derived once, read-only."""

    mu: tuple

    def __post_init__(self):
        mu = tuple(float(x) for x in self.mu)
        if len(mu) != 4:
            raise ValueError("dimension mismatch")
        object.__setattr__(self, "mu", mu)

    @classmethod
    def from_mu(cls, mu1: float, mu2: float, mu3: float, mu4: float | None = None) -> "ModelParams":
        if mu4 is None:
            mu4 = mu3
        return cls((mu1, mu2, mu3, mu4))

    @classmethod
    def from_jsq(cls, jsq) -> "ModelParams":
        jsq = np.asarray(jsq, dtype=float)
        if jsq.shape != (4,):
            raise ValueError("dimension mismatch")
        return cls(tuple(MU_TO_JSQ.T @ jsq / 4.0))

    @cached_property
    def jsq(self) -> tuple:
        return tuple(MU_TO_JSQ @ np.asarray(self.mu))

    @property
    def symmetric(self) -> bool:
        return self.mu[3] == self.mu[2]

    @cached_property
    def a(self) -> Array:
        """Coefficients a_ij = J_k^2 + J_l^2 over the six pairs, M ordering."""
        jsq = self.jsq
        return _frozen([jsq[k] + jsq[l] for (k, l) in M_COMPLEMENT])

    @cached_property
    def b(self) -> Array:
        """Coefficients b_ij = J_k^2 J_l^2 over the six pairs, M ordering."""
        jsq = self.jsq
        return _frozen([jsq[k] * jsq[l] for (k, l) in M_COMPLEMENT])


def _frozen(values) -> Array:
    out = np.array(values)
    out.flags.writeable = False
    return out


def chart_map(pt: PhasePoint, target: str, complex_ok: bool = False) -> PhasePoint:
    """Map a point between the M, SPLIT and UV charts.

    Mapping to a real chart checks that the image is real (a UV point maps to
    a real point iff v_k = conj(u_k) and z_k is real); pass complex_ok=True to
    keep complexified coordinates.  Coordinates may be a (6, n) stack.
    """
    if pt.chart == target:
        return PhasePoint(target, np.array(pt.coords))
    key = (pt.chart, target)
    if key not in _CHART_MAPS:
        raise ValueError("chart mismatch")
    out = _CHART_MAPS[key] @ pt.coords
    if target in _REAL_CHARTS:
        # A stack is real only if every point of it is.
        if (np.abs(out.imag).max(axis=0) <= _REAL_TOL * (1.0 + np.abs(out).max(axis=0))).all():
            return PhasePoint(target, out.real.copy())
        if not complex_ok:
            raise ValueError("non-real point")
    return PhasePoint(target, out)


def _p1_m_value(m: Array) -> Array:
    m12, m13, m14, m23, m24, m34 = m
    zero = 0.0 * m12
    return np.array(
        [
            [zero, -m23, -m24, m13, m14, zero],
            [m23, zero, -m34, -m12, zero, m14],
            [m24, m34, zero, zero, -m12, -m13],
            [-m13, m12, zero, zero, -m34, m24],
            [-m14, zero, m12, m34, zero, -m23],
            [zero, -m14, m13, -m24, m23, zero],
        ]
    )


@shared_per_model
def p1_m() -> BivectorField:
    """Lie-Poisson structure of so(4)* in the m coordinates."""
    return linear_bivector(CHART_M, _p1_m_value, 6)


@shared_per_model
def p2_m(params: ModelParams) -> BivectorField:
    """Second (inertia-weighted) Poisson structure in the m coordinates."""
    j1, j2, j3, j4 = params.jsq

    def value(m: Array) -> Array:
        m12, m13, m14, m23, m24, m34 = m
        zero = 0.0 * m12
        return np.array(
            [
                [zero, -j1 * m23, -j1 * m24, j2 * m13, j2 * m14, zero],
                [j1 * m23, zero, -j1 * m34, -j3 * m12, zero, j3 * m14],
                [j1 * m24, j1 * m34, zero, zero, -j4 * m12, -j4 * m13],
                [-j2 * m13, j3 * m12, zero, zero, -j2 * m34, j3 * m24],
                [-j2 * m14, zero, j4 * m12, j2 * m34, zero, -j4 * m23],
                [zero, -j3 * m14, j4 * m13, -j3 * m24, j4 * m23, zero],
            ]
        )

    return linear_bivector(CHART_M, value, 6)


@shared_per_model
def observables_m(params: ModelParams) -> dict:
    """Scalar fields on the M chart: H0, C, HE, KE with exact gradients."""
    a = params.a
    b = params.b
    # Python floats as weights: scalar arithmetic on one point is cheaper with them.
    wa, wb = a.tolist(), b.tolist()

    def h0_value(m):
        m12, m13, m14, m23, m24, m34 = m
        return m12 * m12 + m13 * m13 + m14 * m14 + m23 * m23 + m24 * m24 + m34 * m34

    def h0_grad(m):
        return 2.0 * m

    def c_value(m):
        m12, m13, m14, m23, m24, m34 = m
        return m12 * m34 + m14 * m23 - m13 * m24

    def c_grad(m):
        m12, m13, m14, m23, m24, m34 = m
        return np.array([m34, -m24, m23, m14, -m13, m12])

    def he_value(m):
        return 0.5 * _square_sum(wa, m)

    # (a * m.T).T is a_i m_i, also on a (6, n) stack, whose point axis .T puts last.
    def he_grad(m):
        return (a * m.T).T

    def ke_value(m):
        return _square_sum(wb, m)

    def ke_grad(m):
        return (2.0 * b * m.T).T

    return {
        "H0": ScalarField(CHART_M, h0_value, h0_grad),
        "C": ScalarField(CHART_M, c_value, c_grad),
        "HE": ScalarField(CHART_M, he_value, he_grad),
        "KE": ScalarField(CHART_M, ke_value, ke_grad),
    }


def _square_sum(w, m) -> float:
    """sum_i w_i m_i^2, written out so that one point is scalar arithmetic and a stack is per point."""
    m12, m13, m14, m23, m24, m34 = m
    w1, w2, w3, w4, w5, w6 = w
    return w1 * m12 * m12 + w2 * m13 * m13 + w3 * m14 * m14 + w4 * m23 * m23 + w5 * m24 * m24 + w6 * m34 * m34


def m_matrix(m: Array) -> Array:
    """Antisymmetric 4x4 matrix with upper entries (m12, m13, m14, m23, m24, m34); (4, 4, n) for a stack."""
    m12, m13, m14, m23, m24, m34 = m
    zero = 0.0 * m12
    return np.array(
        [
            [zero, m12, m13, m14],
            [-m12, zero, m23, m24],
            [-m13, -m23, zero, m34],
            [-m14, -m24, -m34, zero],
        ]
    )


def lax(params: ModelParams, lam: complex, pt: PhasePoint) -> Array:
    """Lax matrix L(lambda) = lambda diag(jsq) + M at an M-chart point, or per point of a stack."""
    if pt.chart != CHART_M:
        raise ValueError("chart mismatch")
    return np.multiply.outer(np.diag(np.asarray(params.jsq, dtype=complex)), lam) + m_matrix(pt.coords)


def det4(A: Array) -> complex:
    """Determinant of a 4x4 matrix by cofactor expansion along the first row."""

    def det3(b00, b01, b02, b10, b11, b12, b20, b21, b22):
        return (
            b00 * (b11 * b22 - b12 * b21)
            - b01 * (b10 * b22 - b12 * b20)
            + b02 * (b10 * b21 - b11 * b20)
        )

    a = A
    return (
        a[0, 0] * det3(a[1, 1], a[1, 2], a[1, 3], a[2, 1], a[2, 2], a[2, 3], a[3, 1], a[3, 2], a[3, 3])
        - a[0, 1] * det3(a[1, 0], a[1, 2], a[1, 3], a[2, 0], a[2, 2], a[2, 3], a[3, 0], a[3, 2], a[3, 3])
        + a[0, 2] * det3(a[1, 0], a[1, 1], a[1, 3], a[2, 0], a[2, 1], a[2, 3], a[3, 0], a[3, 1], a[3, 3])
        - a[0, 3] * det3(a[1, 0], a[1, 1], a[1, 2], a[2, 0], a[2, 1], a[2, 2], a[3, 0], a[3, 1], a[3, 2])
    )


def spectral_det(params: ModelParams, lam: complex, rho: complex, pt: PhasePoint) -> complex:
    """The spectral determinant Det(L(lambda) - rho lambda I) at an M-chart point."""
    return det4(lax(params, lam, pt) - np.multiply.outer(np.eye(4), rho * lam))


def char_poly_residual(params: ModelParams, lam: complex, rho: complex, pt: PhasePoint) -> Residual:
    """Spectral-curve identity residual at (lambda, rho, pt).

    Det(L(lambda) - rho lambda I) must equal
    lambda^4 prod_i (J_i^2 - rho) + lambda^2 (rho^2 H0 - 2 rho HE + KE) + C^2.
    """
    obs = observables_m(params)
    m = pt.coords
    h0 = obs["H0"].value(m)
    he = obs["HE"].value(m)
    ke = obs["KE"].value(m)
    c = obs["C"].value(m)
    det = spectral_det(params, lam, rho, pt)
    terms = (
        lam**4 * spectrum_product(params, rho),
        lam**2 * rho**2 * h0,
        -2.0 * lam**2 * rho * he,
        lam**2 * ke,
        c**2,
    )
    return Residual(abs(det - sum(terms)), peak([det, *terms], 1))


def spectrum_product(params: ModelParams, rho: complex) -> complex:
    """prod_i (J_i^2 - rho), per value of an array rho."""
    return np.prod(np.subtract.outer(np.asarray(params.jsq, dtype=complex), rho), axis=0)


def _vec_residual(vec: Array, *mags: float) -> Residual:
    return Residual(float(np.abs(vec).max()), float(max(mags)))


def _prod_mag(P: Array, g: Array) -> float:
    # Largest single summand |P_ij g_j| of the matrix-vector product.
    return float((np.abs(P) * np.abs(g)[None, :]).max())


def lenard_residuals_m(params: ModelParams, pt: PhasePoint) -> dict:
    """Residuals of the anchored recursion chain and the shared Casimir.

    With H1 = -2 HE and H2 = KE the chain is
    P1 dH0 = 0,  P2 dH0 = P1 dH1,  P2 dH1 = P1 dH2,  P2 dH2 = 0,
    and C is a Casimir of both structures.
    """
    obs = observables_m(params)
    m = pt.coords
    P1 = p1_m().value(m)
    P2 = p2_m(params).value(m)
    g0 = obs["H0"].grad(m)
    g1 = -2.0 * obs["HE"].grad(m)
    g2 = obs["KE"].grad(m)
    gc = obs["C"].grad(m)
    return {
        "chain_start": _vec_residual(P1 @ g0, _prod_mag(P1, g0)),
        "chain_step_1": _vec_residual(P2 @ g0 - P1 @ g1, _prod_mag(P2, g0), _prod_mag(P1, g1)),
        "chain_step_2": _vec_residual(P2 @ g1 - P1 @ g2, _prod_mag(P2, g1), _prod_mag(P1, g2)),
        "chain_end": _vec_residual(P2 @ g2, _prod_mag(P2, g2)),
        "casimir_c_p1": _vec_residual(P1 @ gc, _prod_mag(P1, gc)),
        "casimir_c_p2": _vec_residual(P2 @ gc, _prod_mag(P2, gc)),
    }


def rigid_rhs(params: ModelParams, m: Array) -> Array:
    """Energy-flow right-hand side dm/dt = P1(m) d(HE) in the M chart."""
    return _p1_m_value(m) @ (params.a * m)


def lax_energy_partner(params: ModelParams, lam: complex, pt: PhasePoint) -> Array:
    """Lax partner of the energy flow: (A∘M) + lambda diag(J_i^2 (T - J_i^2)).

    (A∘M)_ij = a_ij m_ij entrywise and T = sum_i J_i^2; with this partner
    dL/dt = [B, L] holds identically in lambda along dm/dt = P1 d(HE).
    """
    if pt.chart != CHART_M:
        raise ValueError("chart mismatch")
    jsq = np.asarray(params.jsq)
    t_sum = float(np.sum(jsq))
    am = m_matrix(params.a * pt.coords)
    return am + lam * np.diag(jsq * (t_sum - jsq)).astype(complex)


def lax_flow_residual(params: ModelParams, lam: complex, pt: PhasePoint) -> Residual:
    """Residual of dL/dt = [B, L] for the energy flow with the energy partner."""
    L = lax(params, lam, pt)
    B = lax_energy_partner(params, lam, pt)
    mdot = m_matrix(rigid_rhs(params, pt.coords))
    comm = B @ L - L @ B
    raw = float(np.abs(mdot - comm).max())
    scale = max(
        float(np.abs(mdot).max()),
        float(np.abs(B @ L).max()),
        float(np.abs(L @ B).max()),
    )
    return Residual(raw, scale)


def angular_velocity(params: ModelParams, pt: PhasePoint) -> Array:
    """Omega_ij = m_ij / (J_i + J_j); needs a real positive inertia spectrum."""
    jsq = np.asarray(params.jsq)
    if np.any(jsq <= 0.0):
        raise ValueError("inertia spectrum not positive")
    j = np.sqrt(jsq)
    denom = j[:, None] + j[None, :]
    return m_matrix(pt.coords) / denom


def _angular_partner(params: ModelParams, lam: complex, pt: PhasePoint) -> tuple:
    """(Omega, L(lambda), Omega + lambda J) at an M-chart point."""
    omega = angular_velocity(params, pt)
    B = omega + lam * np.diag(np.sqrt(np.asarray(params.jsq))).astype(complex)
    return omega, lax(params, lam, pt), B


def angular_velocity_commutator_residual(params: ModelParams, lam: complex, pt: PhasePoint) -> Residual:
    """Residual of [L(lambda), Omega + lambda J] = [M, Omega] (lambda-independence)."""
    omega, L, B = _angular_partner(params, lam, pt)
    lhs = L @ B - B @ L
    M = m_matrix(pt.coords)
    rhs = M @ omega - omega @ M
    raw = float(np.abs(lhs - rhs).max())
    scale = max(
        float(np.abs(L @ B).max()),
        float(np.abs(B @ L).max()),
        float(np.abs(rhs).max()),
    )
    return Residual(raw, scale)


def angular_velocity_flow_mismatch(params: ModelParams, lam: complex, pt: PhasePoint) -> float:
    """Best-case normalized mismatch of dL/dt = sigma [L, Omega + lambda J].

    Generic points give an order-one value for both signs: the commutator with
    the angular-velocity partner generates a different flow of the hierarchy
    than the energy flow.
    """
    _, L, B = _angular_partner(params, lam, pt)
    mdot = m_matrix(rigid_rhs(params, pt.coords))
    comm = L @ B - B @ L
    scale = max(float(np.abs(mdot).max()), float(np.abs(comm).max()))
    best = min(
        float(np.abs(mdot - comm).max()),
        float(np.abs(mdot + comm).max()),
    )
    return best / (1.0 + scale)
