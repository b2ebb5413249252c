"""Rotationally symmetric case in the complexified (u, v, z) chart.

Coordinates are ordered (u1, v1, z1, u2, v2, z2) with u_k = x_k + i y_k,
v_k = x_k - i y_k.  All structures here require mu4 = mu3.

The printed uv tensors carry a fixed overall normalization: they equal
(i/sqrt(2)) times the chart pushforward of the m-chart tensors.  A constant
rescaling of a Poisson pair changes none of the identities asserted here
(Jacobi, compatibility, Casimirs, involution), and the whole uv construction
is internally consistent in the printed scale; the proportionality constant
itself is pinned by the transport check below.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    CHART_M,
    CHART_UV,
    BivectorField,
    PhasePoint,
    Residual,
    ScalarField,
    VectorField,
    line_restriction,
    linear_bivector,
    linear_map,
    mismatch,
    peak,
    pencil,
    wedge_field,
)
from .so4 import M_TO_UV, ModelParams, chart_map, spectral_det, spectrum_product

Array = np.ndarray

# Printed uv tensors over pushforward of the m-chart tensors.
UV_TENSOR_SCALE = 1j / np.sqrt(2.0)


def require_symmetric(params: ModelParams) -> None:
    if not params.symmetric:
        raise ValueError("model not rotationally symmetric")


def uv_observables(params: ModelParams) -> dict:
    """Spectral-curve coefficients H0, C2, H1, H2 as uv scalar fields."""
    require_symmetric(params)
    mu1, mu2, mu3, _ = params.mu

    def h0_value(c):
        u1, v1, z1, u2, v2, z2 = c
        return u1 * v1 + u2 * v2 + z1**2 + z2**2

    def h0_grad(c):
        u1, v1, z1, u2, v2, z2 = c
        return np.array([v1, u1, 2.0 * z1, v2, u2, 2.0 * z2])

    def c2_value(c):
        u1, v1, z1, u2, v2, z2 = c
        return u2 * v2 + z2**2 - u1 * v1 - z1**2

    def c2_grad(c):
        u1, v1, z1, u2, v2, z2 = c
        return np.array([-v1, -u1, -2.0 * z1, v2, u2, 2.0 * z2])

    def h1_value(c):
        u1, v1, z1, u2, v2, z2 = c
        return -2.0 * mu3 * (u2 * v1 + v2 * u1) - 4.0 * mu2 * z1 * z2 - 2.0 * mu1 * h0_value(c)

    def h1_grad(c):
        u1, v1, z1, u2, v2, z2 = c
        return np.array(
            [
                -2.0 * mu3 * v2 - 2.0 * mu1 * v1,
                -2.0 * mu3 * u2 - 2.0 * mu1 * u1,
                -4.0 * mu2 * z2 - 4.0 * mu1 * z1,
                -2.0 * mu3 * v1 - 2.0 * mu1 * v2,
                -2.0 * mu3 * u1 - 2.0 * mu1 * u2,
                -4.0 * mu2 * z1 - 4.0 * mu1 * z2,
            ]
        )

    def h2_value(c):
        u1, v1, z1, u2, v2, z2 = c
        return (
            mu1**2 * h0_value(c)
            + 4.0 * mu1 * mu2 * z1 * z2
            + 2.0 * mu3 * (mu1 + mu2) * (v2 * u1 + u2 * v1)
            + mu2**2 * (z1**2 + z2**2 - v1 * u1 - v2 * u2)
            - 2.0 * mu3**2 * (z1 - z2) ** 2
        )

    def h2_grad(c):
        u1, v1, z1, u2, v2, z2 = c
        return np.array(
            [
                (mu1**2 - mu2**2) * v1 + 2.0 * mu3 * (mu1 + mu2) * v2,
                (mu1**2 - mu2**2) * u1 + 2.0 * mu3 * (mu1 + mu2) * u2,
                2.0 * (mu1**2 + mu2**2) * z1 + 4.0 * mu1 * mu2 * z2 - 4.0 * mu3**2 * (z1 - z2),
                (mu1**2 - mu2**2) * v2 + 2.0 * mu3 * (mu1 + mu2) * v1,
                (mu1**2 - mu2**2) * u2 + 2.0 * mu3 * (mu1 + mu2) * u1,
                2.0 * (mu1**2 + mu2**2) * z2 + 4.0 * mu1 * mu2 * z1 + 4.0 * mu3**2 * (z1 - z2),
            ]
        )

    return {
        "H0": ScalarField(CHART_UV, h0_value, h0_grad),
        "C2": ScalarField(CHART_UV, c2_value, c2_grad),
        "H1": ScalarField(CHART_UV, h1_value, h1_grad),
        "H2": ScalarField(CHART_UV, h2_value, h2_grad),
    }


def _p1_uv_value(c: Array) -> Array:
    u1, v1, z1, u2, v2, z2 = c
    zero = 0.0 * u1
    return np.array(
        [
            [zero, 2.0 * z1, -u1, zero, zero, zero],
            [-2.0 * z1, zero, v1, zero, zero, zero],
            [u1, -v1, zero, zero, zero, zero],
            [zero, zero, zero, zero, -2.0 * z2, u2],
            [zero, zero, zero, 2.0 * z2, zero, -v2],
            [zero, zero, zero, -u2, v2, zero],
        ]
    )


def p1_uv() -> BivectorField:
    """First Poisson structure in the uv chart (block so(3) x so(3) form)."""
    return linear_bivector(CHART_UV, _p1_uv_value, 6)


def p2_uv(params: ModelParams) -> BivectorField:
    """Second Poisson structure in the uv chart: mu1 P1 + Delta."""
    require_symmetric(params)
    mu1, mu2, mu3, _ = params.mu

    def value(c: Array) -> Array:
        u1, v1, z1, u2, v2, z2 = c
        zero = 0.0 * u1
        d2 = np.array(
            [
                [zero, 2.0 * z2, zero, zero, zero, u1],
                [-2.0 * z2, zero, zero, zero, zero, -v1],
                [zero, zero, zero, u2, -v2, zero],
                [zero, zero, -u2, zero, -2.0 * z1, zero],
                [zero, zero, v2, 2.0 * z1, zero, zero],
                [-u1, v1, zero, zero, zero, zero],
            ]
        )
        d3 = np.array(
            [
                [zero, zero, -u2, zero, 2.0 * (z2 - z1), -u2],
                [zero, zero, v2, 2.0 * (z1 - z2), zero, v2],
                [u2, -v2, zero, -u1, v1, zero],
                [zero, 2.0 * (z2 - z1), u1, zero, zero, u1],
                [2.0 * (z1 - z2), zero, -v1, zero, zero, -v1],
                [u2, -v2, zero, -u1, v1, zero],
            ]
        )
        return mu1 * _p1_uv_value(c) + mu2 * d2 + mu3 * d3

    return linear_bivector(CHART_UV, value, 6)


def x1_field(params: ModelParams) -> VectorField:
    """Hamiltonian vector field of H1 under the uv first structure."""
    require_symmetric(params)
    _, mu2, mu3, _ = params.mu

    def value(c: Array) -> Array:
        u1, v1, z1, u2, v2, z2 = c
        w = 2.0 * mu3 * (u2 * v1 - u1 * v2)
        return np.array(
            [
                4.0 * (mu2 * u1 * z2 - mu3 * u2 * z1),
                -4.0 * (mu2 * v1 * z2 - mu3 * v2 * z1),
                w,
                -4.0 * (mu2 * u2 * z1 - mu3 * u1 * z2),
                4.0 * (mu2 * v2 * z1 - mu3 * v1 * z2),
                w,
            ]
        )

    def jac(c: Array) -> Array:
        u1, v1, z1, u2, v2, z2 = c
        zero = 0.0 * u1
        return np.array(
            [
                [4.0 * mu2 * z2, zero, -4.0 * mu3 * u2, -4.0 * mu3 * z1, zero, 4.0 * mu2 * u1],
                [zero, -4.0 * mu2 * z2, 4.0 * mu3 * v2, zero, 4.0 * mu3 * z1, -4.0 * mu2 * v1],
                [-2.0 * mu3 * v2, 2.0 * mu3 * u2, zero, 2.0 * mu3 * v1, -2.0 * mu3 * u1, zero],
                [4.0 * mu3 * z2, zero, -4.0 * mu2 * u2, -4.0 * mu2 * z1, zero, 4.0 * mu3 * u1],
                [zero, -4.0 * mu3 * z2, 4.0 * mu2 * v2, zero, 4.0 * mu2 * z1, -4.0 * mu3 * v1],
                [-2.0 * mu3 * v2, 2.0 * mu3 * u2, zero, 2.0 * mu3 * v1, -2.0 * mu3 * u1, zero],
            ]
        )

    return VectorField(CHART_UV, value, jac)


def z_field() -> VectorField:
    """Transversal vector field (1/2u1) d/dv1 + (1/2u2) d/dv2."""

    def value(c: Array) -> Array:
        u1, u2 = c[0], c[3]
        zero = 0.0 * u1
        return np.array([zero, 0.5 / u1, zero, zero, 0.5 / u2, zero])

    def jac(c: Array) -> Array:
        u1, u2 = c[0], c[3]
        zero = 0.0 * u1
        row = [zero] * 6
        return np.array(
            [
                row,
                [-0.5 / u1**2] + row[1:],
                row,
                row,
                row[:3] + [-0.5 / u2**2] + row[4:],
                row,
            ]
        )

    return VectorField(CHART_UV, value, jac)


def q_uv(params: ModelParams) -> BivectorField:
    """Deformed structure Q = P2 - X1 ^ Z (rank 4 with Casimirs H0 and C2)."""
    return pencil(p2_uv(params), wedge_field(x1_field(params), z_field()), -1.0)


def _pushed(p: Array) -> Array:
    """A p A^T at each point, A = M_TO_UV = d(uv)/d(m): @ itself at one point, two products with A on a stack."""
    if p.ndim == 2:
        return M_TO_UV @ p @ M_TO_UV.T
    return np.swapaxes(linear_map(M_TO_UV, np.swapaxes(linear_map(M_TO_UV, p), 0, 1)), 0, 1)


def uv_transport_residuals(
    p1u: BivectorField, p2u: BivectorField, p1m: BivectorField, p2m: BivectorField, pt: PhasePoint
) -> dict:
    """Printed uv tensors p1u, p2u against UV_TENSOR_SCALE times the pushforward A P A^T, A = d(uv)/d(m), of the
    m-chart tensors p1m, p2m."""
    if pt.chart != CHART_UV:
        raise ValueError("chart mismatch")
    m = chart_map(pt, CHART_M, complex_ok=True).coords
    return {
        key: mismatch(printed.value(pt.coords), UV_TENSOR_SCALE * _pushed(m_field.value(m)), 2)
        for key, printed, m_field in (("p1", p1u, p1m), ("p2", p2u, p2m))
    }


def uv_tensor_ratio(printed: BivectorField, m_field: BivectorField, pt: PhasePoint):
    """printed over the pushforward of m_field at each point's largest pushed entry (the first in row-major order)."""
    if pt.chart != CHART_UV:
        raise ValueError("chart mismatch")
    pushed = _pushed(m_field.value(chart_map(pt, CHART_M, complex_ok=True).coords)).reshape(36, *pt.coords.shape[1:])
    k, printed = np.argmax(np.abs(pushed), axis=0)[None], printed.value(pt.coords).reshape(pushed.shape)
    return (np.take_along_axis(printed, k, 0) / np.take_along_axis(pushed, k, 0))[0]


def observable_transport_residuals(obs: dict, obs_m: dict, pt: PhasePoint) -> dict:
    """uv spectral-curve coefficients obs against the m-chart observables obs_m.

    H0 agrees, C2 = 2 C, H1 = -2 HE, H2 = KE at the mapped point.
    """
    if pt.chart != CHART_UV:
        raise ValueError("chart mismatch")
    m_pt = chart_map(pt, CHART_M, complex_ok=True)
    pairs = {
        "H0": (obs["H0"].value(pt.coords), obs_m["H0"].value(m_pt.coords)),
        "C2": (obs["C2"].value(pt.coords), 2.0 * obs_m["C"].value(m_pt.coords)),
        "H1": (obs["H1"].value(pt.coords), -2.0 * obs_m["HE"].value(m_pt.coords)),
        "H2": (obs["H2"].value(pt.coords), obs_m["KE"].value(m_pt.coords)),
    }
    return {name: Residual(abs(a - b), peak([a, b], 1)) for name, (a, b) in pairs.items()}


def char_poly_residual_uv(params: ModelParams, lam: complex, rho: complex, pt: PhasePoint, obs: dict) -> Residual:
    """Spectral-curve identity in uv form, with the uv observables obs: the C2 constant term carries 1/4."""
    require_symmetric(params)
    if pt.chart != CHART_UV:
        raise ValueError("chart mismatch")
    c = pt.coords
    h0 = obs["H0"].value(c)
    h1 = obs["H1"].value(c)
    h2 = obs["H2"].value(c)
    c2 = obs["C2"].value(c)
    m_pt = chart_map(pt, CHART_M, complex_ok=True)
    det = spectral_det(params, lam, rho, m_pt)
    terms = (
        lam**4 * spectrum_product(params, rho),
        lam**2 * rho**2 * h0,
        lam**2 * rho * h1,
        lam**2 * h2,
        0.25 * c2**2,
    )
    return Residual(abs(det - sum(terms)), peak([det, *terms], 1))


def constant_eigenvalue(params: ModelParams) -> float:
    """lambda1 = mu1 + mu2, the doubled constant eigenvalue."""
    require_symmetric(params)
    return params.mu[0] + params.mu[1]


def variable_eigenvalue(params: ModelParams, c: Array) -> complex:
    """lambda2 = mu1 - mu2 + mu3 (u1/u2 + u2/u1) from the u coordinates."""
    require_symmetric(params)
    mu1, mu2, mu3, _ = params.mu
    u1, u2 = c[0], c[3]
    return mu1 - mu2 + mu3 * (u1 / u2 + u2 / u1)


def _curve_line(params: ModelParams, lam: complex, rho: complex, pt: PhasePoint, z: VectorField):
    """Quintic coefficients and node values of Det(L - rho lambda I) along the line of the transversal field z.

    Z is constant along its own flow lines (it depends only on u, and moves
    only v), so the restriction of the characteristic polynomial to the line
    t -> pt + t Z(pt) is exact and affine in t; the fitted quintic
    coefficients c_k give the iterated Lie derivatives k! c_k.
    """
    if pt.chart != CHART_UV:
        raise ValueError("chart mismatch")
    lam, rho = np.expand_dims(lam, 0), np.expand_dims(rho, 0)  # one value per point, broadcast over the nodes

    def curve(c):
        return spectral_det(params, lam, rho, chart_map(PhasePoint(CHART_UV, c), CHART_M, complex_ok=True))

    return line_restriction(curve, z.value, pt.coords)


def stackel_residual(params: ModelParams, lam: complex, rho: complex, pt: PhasePoint, z: VectorField) -> Residual:
    """Second and higher Lie derivatives of the spectral curve along the transversal field z."""
    coeffs, vals = _curve_line(params, lam, rho, pt, z)
    lie = [2.0 * np.abs(coeffs[2]), 6.0 * np.abs(coeffs[3]), 24.0 * np.abs(coeffs[4]), 120.0 * np.abs(coeffs[5])]
    return Residual(peak(lie, 1), peak(vals, 1))


def transversal_curve_residual(params: ModelParams, lam: complex, rho: complex, pt: PhasePoint, z: VectorField) -> Residual:
    """First Lie derivative of the curve along the transversal field z against lambda^2 (rho - l1)(rho - l2)."""
    coeffs, _ = _curve_line(params, lam, rho, pt, z)
    l1 = constant_eigenvalue(params)
    l2 = variable_eigenvalue(params, pt.coords)
    closed = lam**2 * (rho - l1) * (rho - l2)
    return Residual(abs(coeffs[1] - closed), peak([coeffs[1], closed], 1))
