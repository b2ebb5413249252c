"""Chart-tagged scalar/vector/bivector fields and coordinate tensor calculus.

Fields bundle exact value and derivative callables with the name of the chart
they live on.  Every operation checks chart compatibility before touching
numbers, and derivative layouts follow one convention throughout: Jacobians of
vector fields are J[i, l] = d(value_i)/d(coord_l), Jacobians of bivector
fields are J[i, j, l] = d(value_ij)/d(coord_l) (derivative index last).

Coordinates may carry a trailing point axis: a point is (6,), a stack of n
points is (6, n), and every value and derivative then carries the same
trailing axis (values (6, 6, n), Jacobians (6, 6, 6, n)).  The kernels below
take either, by one code path: contractions run over the leading (per-point)
axes, and each residual is a float at one point and one value per column of
a stack.  A derivative that does not depend on the point (the Jacobian of a
linear bivector, the gradient of zeta1) stays one shared array without the
point axis and broadcasts against the stack.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

Array = np.ndarray

# Chart tags shared by the whole package.
CHART_M = "M"
CHART_SPLIT = "SPLIT"
CHART_UV = "UV"

# Degeneracy guards (absolute, coordinates are sampled at order one).
EPS_DEG = 1e-8
EPS_COLL = 1e-6

# Finite-difference step scale and agreement tolerance for gradient checks.
FD_STEP = 1e-5
FD_RTOL = 1e-6


class DegeneracyError(ValueError):
    """A guard rejected the evaluation point; samplers catch this and redraw."""


@dataclass(frozen=True)
class PhasePoint:
    """A point of one of the charts: a tag plus a coordinate array."""

    chart: str
    coords: Array

    def __post_init__(self):
        object.__setattr__(self, "coords", np.asarray(self.coords))


@dataclass(frozen=True)
class ScalarField:
    """Scalar function with exact gradient, tied to a chart."""

    chart: str
    value: Callable[[Array], complex]
    grad: Callable[[Array], Array]


@dataclass(frozen=True)
class VectorField:
    """Vector field with exact Jacobian J[i, l] = d v_i / d x_l."""

    chart: str
    value: Callable[[Array], Array]
    jac: Callable[[Array], Array]


@dataclass(frozen=True)
class BivectorField:
    """Antisymmetric matrix field with exact derivative J[i, j, l] = d P_ij / d x_l."""

    chart: str
    value: Callable[[Array], Array]
    jac: Callable[[Array], Array]


class Residual(NamedTuple):
    """Raw residual magnitude together with the scale of the terms that formed it."""

    raw: float
    scale: float

    @property
    def normalized(self) -> float:
        return self.raw / (1.0 + self.scale)


def peak(x, rank: int):
    """max |x| over its first `rank` (per-point) axes: a float at one point, an array over a stack."""
    m = np.abs(x).max(axis=tuple(range(rank)))
    return float(m) if m.ndim == 0 else m


def mismatch(a: Array, b: Array, rank: int | None = None) -> Residual:
    """Residual of the array identity a = b: max |a - b| over the larger of max |a|, max |b|.

    rank is the number of per-point axes (default: all axes of a, one point).
    """
    axes = None if rank is None else tuple(range(rank))
    raw = np.abs(a - b).max(axis=axes)
    scale = np.maximum(np.abs(a).max(axis=axes), np.abs(b).max(axis=axes))
    return Residual(float(raw), float(scale)) if raw.ndim == 0 else Residual(raw, scale)


def as_matrices(x: Array) -> Array:
    """A (k, k) value as is, a (k, k, n) stack as n matrices (n, k, k), as numpy.linalg and @ take them."""
    return np.moveaxis(x, (0, 1), (-2, -1))


def lift(x, rank: int, c: Array) -> Array:
    """x, of per-point rank `rank`, with the point axes of c: a shared constant gets a length-1 axis."""
    x = np.asarray(x)
    return x.reshape(x.shape + (1,) * (rank + np.ndim(c) - 1 - x.ndim))


def _require_chart(chart: str, *objs) -> None:
    for obj in objs:
        if obj.chart != chart:
            raise ValueError("chart mismatch")


def bracket(P: BivectorField, f: ScalarField, g: ScalarField, pt: PhasePoint) -> complex:
    """Poisson bracket {f, g} = df . P . dg at pt."""
    return brackets_scaled(P, (f, g), [(0, 1)], pt)[0][0]


def bracket_scale(P: BivectorField, f: ScalarField, g: ScalarField, pt: PhasePoint) -> float:
    """Largest summand magnitude |df_i P_ij dg_j| entering bracket(P, f, g, pt)."""
    return brackets_scaled(P, (f, g), [(0, 1)], pt)[0][1]


def brackets_scaled(P: BivectorField, fs, pairs, pt: PhasePoint) -> list:
    """(bracket, bracket_scale) of fs[i], fs[j] for each (i, j) in pairs; P and each df evaluated once."""
    _require_chart(pt.chart, P, *fs)
    c = pt.coords
    p = lift(P.value(c), 2, c)
    ap = np.abs(p)
    g = [lift(f.grad(c), 1, c) for f in fs]
    ag = [np.abs(x) for x in g]
    return [
        (
            np.einsum("j...,j...->...", np.einsum("i...,ij...->j...", g[i], p), g[j]),
            peak(ag[i][:, None] * ap * ag[j][None, :], 2),
        )
        for i, j in pairs
    ]


def ham_field(P: BivectorField, f: ScalarField, pt: PhasePoint) -> Array:
    """Hamiltonian vector field P . df evaluated at pt."""
    return ham_field_scaled(P, f, pt)[0]


def ham_field_scale(P: BivectorField, f: ScalarField, pt: PhasePoint) -> float:
    """Largest summand magnitude in any component of P . df at pt."""
    return ham_field_scaled(P, f, pt)[1]


def ham_field_scaled(P: BivectorField, f: ScalarField, pt: PhasePoint) -> tuple:
    """(ham_field, ham_field_scale) at pt from one evaluation of P and df."""
    _require_chart(pt.chart, P, f)
    c = pt.coords
    p = lift(P.value(c), 2, c)
    g = lift(f.grad(c), 1, c)
    return np.einsum("ij...,j...->i...", p, g), peak(np.abs(p) * np.abs(g)[None, :], 2)


def schouten_residual(P: BivectorField, Q: BivectorField, pt: PhasePoint) -> Residual:
    """Max-norm of the Schouten bracket [P, Q] at pt, with its summand scale.

    S^ijk = sum_l (P^lj d_l Q^ik + Q^lj d_l P^ik) + cyclic(i, j, k); the
    residual is max_ijk |S^ijk|, zero iff P and Q are compatible at pt
    (Jacobi identity for Q = P).  The expression is symmetric under P <-> Q.
    The scale is the largest single product |P^lj d_l Q^ik| (or mirror), taken
    as max_l (max_j |P^lj|)(max_ik |d_l Q^ik|): rounded products of nonnegative
    numbers are monotone, so this is exact without the 6^4 table of products.
    """
    _require_chart(pt.chart, P, Q)
    c = pt.coords
    p = lift(P.value(c), 2, c)
    dp = lift(P.jac(c), 3, c)
    ap, adp = np.abs(p).max(axis=1), np.abs(dp).max(axis=(0, 1))
    # T^ijk = sum_l (P^lj d_l Q^ik + Q^lj d_l P^ik), summed in place; at most
    # two (6, 6, 6[, n]) arrays are alive at once
    if Q is P:
        T = np.einsum("lj...,ikl...->ijk...", p, dp)
        T += T  # both halves of T and of the scale coincide; t + t is exactly 2t
        scale = peak(ap * adp, 1)
    else:
        q = lift(Q.value(c), 2, c)
        if p.shape[:2] != q.shape[:2]:
            raise ValueError("dimension mismatch")
        dq = lift(Q.jac(c), 3, c)
        aq, adq = np.abs(q).max(axis=1), np.abs(dq).max(axis=(0, 1))
        scale = peak(np.maximum(ap * adq, aq * adp), 1)
        T = np.einsum("lj...,ikl...->ijk...", p, dq, dtype=np.result_type(p, q, dp, dq))
        del dq
        T += np.einsum("lj...,ikl...->ijk...", q, dp)
    del dp
    # S^ijk = T^ijk + T^kij + T^jki, one i at a time, so S is never whole
    raw = peak([peak(T[i] + np.swapaxes(T[:, i], 0, 1) + T[:, :, i], 2) for i in range(T.shape[0])], 1)
    return Residual(raw, scale)


def lie_scalar(Z: VectorField, f: ScalarField, pt: PhasePoint) -> complex:
    """Directional derivative Z(f) = df . Z at pt."""
    _require_chart(pt.chart, Z, f)
    c = pt.coords
    return np.einsum("i...,i...->...", lift(f.grad(c), 1, c), lift(Z.value(c), 1, c))


def lie_bivector(Z: VectorField, P: BivectorField, pt: PhasePoint) -> Array:
    """(Lie_Z P)^ij = Z^l d_l P^ij - P^lj d_l Z^i - P^il d_l Z^j at pt."""
    return lie_bivector_scaled(Z, P, pt)[0]


def lie_bivector_scale(Z: VectorField, P: BivectorField, pt: PhasePoint) -> float:
    """Largest summand magnitude entering lie_bivector(Z, P, pt)."""
    return lie_bivector_scaled(Z, P, pt)[1]


def lie_bivector_scaled(Z: VectorField, P: BivectorField, pt: PhasePoint) -> tuple:
    """(lie_bivector, lie_bivector_scale) at pt from one evaluation of Z and P."""
    _require_chart(pt.chart, Z, P)
    c = pt.coords
    z, zj = lift(Z.value(c), 1, c), lift(Z.jac(c), 2, c)
    p, dp = lift(P.value(c), 2, c), lift(P.jac(c), 3, c)
    term1 = np.einsum("l...,ijl...->ij...", z, dp)
    term2 = np.einsum("lj...,il...->ij...", p, zj)
    term3 = np.einsum("il...,jl...->ij...", p, zj)
    # Largest products |Z^l d_l P^ij| and |P^lj d_l Z^i|, as maxima over l of
    # products of maxima (exact, as in schouten_residual)
    m1 = peak(np.abs(z) * np.abs(dp).max(axis=(0, 1)), 1)
    m2 = peak(np.abs(p).max(axis=1) * np.abs(zj).max(axis=0), 1)
    return term1 - term2 - term3, peak([m1, m2], 1)


def wedge_field(X: VectorField, Z: VectorField) -> BivectorField:
    """X ^ Z as a BivectorField with exact derivatives from the factor Jacobians."""
    if X.chart != Z.chart:
        raise ValueError("chart mismatch")

    def value(c: Array) -> Array:
        x = X.value(c)
        z = Z.value(c)
        return x[:, None] * z[None, :] - z[:, None] * x[None, :]

    def jac(c: Array) -> Array:
        x = X.value(c)
        z = Z.value(c)
        xj = X.jac(c)
        zj = Z.jac(c)
        # d(X^i Z^j - X^j Z^i)/d x_l
        t = np.einsum("il...,j...->ijl...", xj, z, dtype=np.result_type(x, z, xj, zj))
        t += np.einsum("i...,jl...->ijl...", x, zj)
        return t - np.swapaxes(t, 0, 1)

    return BivectorField(X.chart, value, jac)


def _steps(c: Array):
    """(i, h, e) per coordinate: the real step h and the coordinate array e with h in row i."""
    for i in range(c.shape[0]):
        h = FD_STEP * (1.0 + np.abs(c[i]))
        e = np.zeros(c.shape)
        e[i] = h
        yield i, h, e


def fd_grad(value: Callable[[Array], complex], coords: Array) -> Array:
    """Central-difference gradient; steps are real also for complex coordinates."""
    c = np.asarray(coords)
    out = np.empty(c.shape, dtype=complex)
    for i, h, e in _steps(c):
        out[i] = (value(c + e) - value(c - e)) / (2.0 * h)
    if not np.iscomplexobj(c) and np.abs(out.imag).max() == 0.0:
        return out.real
    return out


def fd_jac(value: Callable[[Array], Array], coords: Array) -> Array:
    """Central-difference Jacobian of an array-valued map at one point, derivative index last."""
    c = np.asarray(coords)
    base = np.asarray(value(c))
    out = np.empty(base.shape + c.shape, dtype=complex)
    for i, h, e in _steps(c):
        out[..., i] = (np.asarray(value(c + e)) - np.asarray(value(c - e))) / (2.0 * h)
    return out


def grad_fd_residual(f: ScalarField, pt: PhasePoint) -> Residual:
    """Relative disagreement between the exact gradient of f and central differences."""
    _require_chart(pt.chart, f)
    c = pt.coords
    return mismatch(lift(f.grad(c), 1, c), fd_grad(f.value, c), 1)


# Interpolation nodes for Lie derivatives along straight flow lines.  A field
# W that is constant along its own flow (W(p + t W(p)) = W(p)) has straight
# integral lines, so f(p + t W(p)) is evaluated exactly and iterated Lie
# derivatives are k! times the polynomial coefficients of an exact-degree fit.
# The nodes are the sixth roots of unity: their Vandermonde matrix is sqrt(6)
# times a unitary one (condition number 1), so the fit adds no roundoff
# beyond that of the node values.  Coordinates along the lines are complex.
LINE_NODES = np.exp(2j * np.pi * np.arange(6) / 6)
_VANDER_INV = np.linalg.inv(np.vander(LINE_NODES, 6, increasing=True))


def line_poly_coeffs(values) -> Array:
    """Coefficients c_0..c_5 of the quintic through (LINE_NODES, values), per column of a stack."""
    values = np.asarray(values, dtype=complex)
    if values.shape[:1] != LINE_NODES.shape:
        raise ValueError("dimension mismatch")
    return _VANDER_INV @ values


def line_restriction(f: Callable[[Array], complex], direction: Callable[[Array], Array], p: Array) -> tuple:
    """Coefficients c_0..c_5 and node values of t -> f(p + t w), w = direction(p).

    The fit gives the Lie derivatives along w only if the line is a flow line,
    so w(p + t w) = w is asserted at the farthest node before f is evaluated,
    at every point of a stack p.
    """
    w = direction(p)
    drift = np.abs(direction(p + LINE_NODES[-1] * w) - w).max(axis=0, keepdims=True)
    if (drift > 1e-12 * (1.0 + np.abs(w).max(axis=0, keepdims=True))).any():
        raise RuntimeError("direction field is not self-parallel")
    vals = np.array([f(p + t * w) for t in LINE_NODES])
    return line_poly_coeffs(vals), vals


def linear_bivector(chart: str, value: Callable[[Array], Array], dim: int) -> BivectorField:
    """Bivector field whose entries are linear in the coordinates.

    The derivative array is assembled once by evaluating at basis vectors,
    which is exact for linear entries.
    """
    cols = [np.asarray(value(np.eye(dim)[l])) for l in range(dim)]
    jac_const = np.stack(cols, axis=-1).astype(complex)
    jac_const.flags.writeable = False  # every call returns this one array

    def jac(_c: Array) -> Array:
        return jac_const

    return BivectorField(chart, value, jac)


def shared_per_model(build: Callable) -> Callable:
    """Memoize a constructor on its hashable arguments (a ModelParams, or none).

    Callers share the result, so it must be read-only; a dict is shared as a
    read-only view.  The wrapper is a plain function named like the constructor.
    """
    memo = {}

    @functools.wraps(build)
    def shared(*args):
        if args not in memo:
            if len(memo) >= 64:
                memo.clear()
            out = build(*args)
            memo[args] = MappingProxyType(out) if isinstance(out, dict) else out
        return memo[args]

    return shared
