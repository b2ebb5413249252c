"""Chart-tagged scalar/vector/bivector fields and coordinate tensor calculus.

Fields bundle exact value and derivative callables with the name of the chart
they live on.  Every operation checks chart compatibility before touching
numbers, and derivative layouts follow one convention throughout: Jacobians of
vector fields are J[i, l] = d(value_i)/d(coord_l), Jacobians of bivector
fields are J[i, j, l] = d(value_ij)/d(coord_l) (derivative index last).
A field is a plain value: each constructor call, wedge_field, pencil and
on_stack (the same field, evaluated at most once on one stack) build a new one.

Coordinates may carry a trailing point axis: a point is (6,), a stack of n points is (6, n), and every value
and derivative then carries the same trailing axis (values (6, 6, n), Jacobians (6, 6, 6, n)).  The kernels
below take either, by one code path: contractions run over the leading (per-point) axes, and each residual is
a float at one point and one value per column of a stack.  A derivative that does not depend on the point (the
Jacobian of a linear bivector, the gradient of zeta1) stays one shared array without the point axis.  No
product on a stack calls BLAS once per point: matmul of two stacks is one broadcast product per contraction
index, accumulated in place, and a constant map (a shared Jacobian, M_TO_UV) is linear_map, one GEMM on the
stack's own memory (on its float view if the map is real and the stack complex).  A linear bivector's value
is that product with its rows i < k, so it is exactly antisymmetric.

schouten_residual, the costliest kernel, reads only the 15 rows i < k of each Jacobian d_l b^ik and the 20
components i < j < k of the trivector, so every bivector it is given, its Jacobian as well as its value, must
be exactly antisymmetric.  A shared Jacobian is one linear_map of the value; a per-point one, one batched
(n, 15, 6) @ (n, 6, 6) matmul.

Kernels that build (6, 6, 6[, n]) tables keep at most one alive as a
temporary besides inputs and result (a freed one may be faulted in again):
schouten_residual cuts each half table to its cyclic slots before forming
the next, and the wedge_field and pencil Jacobians fill their result's buffer.
fd_grad calls value once, on all 2d shifted copies stacked ahead of the point
axes, and line_restriction calls f once, on all six line_nodes likewise, so
a value given to either must act elementwise on every axis after the first.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, is_dataclass, replace
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

# Finite-difference step scale for gradient checks.
FD_STEP = 1e-5


class DegeneracyError(ValueError):
    """A guard rejected the evaluation point, or some point of a stack."""


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


def mismatch(a: Array, b: Array, rank: int) -> Residual:
    """Residual of the array identity a = b: max |a - b| over the larger of max |a|, max |b|.

    rank is the number of per-point axes.
    """
    axes = tuple(range(rank))
    raw = np.abs(a - b).max(axis=axes)
    scale = np.maximum(np.abs(a).max(axis=axes), np.abs(b).max(axis=axes))
    return Residual(float(raw), float(scale)) if raw.ndim == 0 else Residual(raw, scale)


def matmul(a: Array, b: Array) -> Array:
    """a @ b at each point for (k, l[, n]) and (l, m[, n]): @ itself at one point, else l broadcast products summed."""
    if a.ndim == b.ndim == 2:
        return a @ b
    a, b = lift(a, 2, b[0]), lift(b, 2, a[0])
    out = a[:, 0, None] * b[None, 0]
    for k in range(1, a.shape[1]):
        out += a[:, k, None] * b[None, k]
    return out


def linear_map(h: Array, a: Array) -> Array:
    """sum_l h[..., l] a[l, ...] for a constant h (..., d) and any a (d, ...): one GEMM on a's memory (its float
    view if h is real and a complex); one column is doubled, as a matrix-vector product would round otherwise."""
    h2, a2, shape = h.reshape(-1, len(a)), np.ascontiguousarray(a).reshape(len(a), -1), h.shape[:-1] + a.shape[1:]
    if np.iscomplexobj(a) and not np.iscomplexobj(h):
        return (h2 @ a2.view(h.dtype)).view(a.dtype).reshape(shape)
    if a2.shape[1] == 1:
        return (h2 @ np.repeat(a2, 2, axis=1))[:, 0].reshape(shape)
    return (h2 @ a2).reshape(shape)


def matvec(a: Array, v: Array) -> Array:
    """a @ v at each point for a matrix (k, l[, n]) and a vector (l[, n]): @ itself at one point."""
    return a @ v if a.ndim == 2 and v.ndim == 1 else np.einsum("ij...,j...->i...", a, v)


def pfaffian_terms(a: Array, rows: tuple) -> list:
    """The signed products, one per perfect matching of rows (increasing indices), summing to the Pfaffian of the
    antisymmetric a[rows][:, rows], which vanishes exactly where that block has rank below len(rows).

    Only entries a[i, j] with i < j are read; each product multiplies its factors right to left."""
    i, rest = rows[0], rows[1:]
    if len(rest) == 1:
        return [a[i, rest[0]]]
    return [(-1) ** s * a[i, j] * t for s, j in enumerate(rest) for t in pfaffian_terms(a, rest[:s] + rest[s + 1 :])]


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


@functools.cache
def _half_slots(dim: int) -> tuple:
    """(iu, ku, slots): the rows i < k, and the flat positions in a [row, j] table of T^ijk, -T^kij, -T^jki at i < j < k.

    d_l b^kj = -d_l b^jk and negation are exact, so T^kij, T^jki are read negated at the rows (j, k), (i, j)."""
    iu, ku = np.triu_indices(dim, 1)
    row = np.zeros((dim, dim), int)
    row[iu, ku] = row[ku, iu] = range(len(iu))
    i, j, k = np.array(list(itertools.combinations(range(dim), 3))).T
    slots = np.array([row[i, k] * dim + j, row[j, k] * dim + i, row[i, j] * dim + k])
    for x in (iu, ku, slots):
        x.flags.writeable = False  # every call returns these arrays
    return iu, ku, slots


def _half_rows(db: Array, c: Array) -> tuple:
    """The rows i < k of a Jacobian d_l b^ik, (15, 6) if shared or at one point, else (n, 15, 6), and max_ik |d_l b^ik|."""
    iu, ku, _ = _half_slots(db.shape[0])
    h = db[iu, ku] if db.ndim == 3 else np.moveaxis(db, -1, 0)[:, iu, ku]
    return h, lift(np.abs(h).max(axis=-2).T, 1, c)


def _schouten_terms(h: Array, a: Array) -> Array:
    """T^ijk, -T^kij, -T^jki at i < j < k, (3, 20[, n]), of T^ijk = sum_l a^lj d_l b^ik, from the half rows h of d b."""
    slots = _half_slots(a.shape[0])[2]
    if h.ndim == 2:  # a shared Jacobian: one product on a's memory
        return linear_map(h, a).reshape(-1, *a.shape[2:])[slots]
    T = h @ np.moveaxis(a, -1, 0)
    return T.reshape(len(T), -1).T[slots]


def schouten_residual(P: BivectorField, Q: BivectorField, pt: PhasePoint) -> Residual:
    """Max-norm of the Schouten bracket [P, Q] at pt, with its summand scale.

    S^ijk = sum_l (P^lj d_l Q^ik + Q^lj d_l P^ik) + cyclic(i, j, k); the
    residual is max_ijk |S^ijk|, zero iff P and Q are compatible at pt
    (Jacobi identity for Q = P).  The expression is symmetric under P <-> Q,
    and for antisymmetric P and Q it is a trivector, so max |S| is read off
    the components i < j < k.  The scale is the largest single product
    |P^lj d_l Q^ik| (or mirror), max_l (max_j |P^lj|)(max_ik |d_l Q^ik|):
    rounded products of nonnegative numbers are monotone, so this is exact
    without the 6^4 table of products.  The Jacobians, like the values, must
    be exactly antisymmetric: only their rows i < k are read.
    """
    _require_chart(pt.chart, P, Q)
    c = pt.coords
    p = lift(P.value(c), 2, c)
    (hp, adp), ap = _half_rows(P.jac(c), c), np.abs(p).max(axis=1)
    # T^ijk = sum_l (P^lj d_l Q^ik + Q^lj d_l P^ik) at the cyclic slots only:
    # (T1 + T2)[slots] is T1[slots] + T2[slots] elementwise
    if Q is P:
        t = _schouten_terms(hp, p)
        t += t  # both halves of T and of the scale coincide; t + t is exactly 2t
        scale = peak(ap * adp, 1)
    else:
        q = lift(Q.value(c), 2, c)
        if p.shape[:2] != q.shape[:2]:
            raise ValueError("dimension mismatch")
        (hq, adq), aq = _half_rows(Q.jac(c), c), np.abs(q).max(axis=1)
        scale = peak(np.maximum(ap * adq, aq * adp), 1)
        t = _schouten_terms(hq, p)
        del hq
        t = t + _schouten_terms(hp, q)
    raw = np.abs(t[0] - t[1] - t[2]).max(axis=0)
    return Residual(float(raw) if raw.ndim == 0 else raw, scale)


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
    z, zj, p, dp = lift(Z.value(c), 1, c), lift(Z.jac(c), 2, c), lift(P.value(c), 2, c), P.jac(c)
    # Z^l d_l P^ij: one product with a shared Jacobian (or one point's)
    term1 = linear_map(dp, z) if dp.ndim == 3 else np.einsum("l...,ijl...->ij...", z, dp)
    term2 = np.einsum("lj...,il...->ij...", p, zj)
    # Largest products |Z^l d_l P^ij| and |P^lj d_l Z^i|, as maxima over l of
    # products of maxima (exact, as in schouten_residual)
    m1 = peak(np.abs(z) * lift(np.abs(dp).max(axis=(0, 1)), 1, c), 1)
    m2 = peak(np.abs(p).max(axis=1) * np.abs(zj).max(axis=0), 1)
    # P^il d_l Z^j is -term2^T, as P is exactly antisymmetric
    return term1 - term2 + np.swapaxes(term2, 0, 1), peak([m1, m2], 1)


def wedge_field(X: VectorField, Z: VectorField) -> BivectorField:
    """X ^ Z as a BivectorField with exact derivatives from the factor Jacobians."""
    if X.chart != Z.chart:
        raise ValueError("chart mismatch")

    # Both are t - t^T of one product table, so exactly antisymmetric; a complex
    # product may round differently with its factors swapped.
    def value(c: Array) -> Array:
        t = X.value(c)[:, None] * Z.value(c)[None, :]
        return t - np.swapaxes(t, 0, 1)

    def jac(c: Array) -> Array:  # d(X^i Z^j - X^j Z^i)/d x_l
        x, z, xj, zj = X.value(c), Z.value(c), X.jac(c), Z.jac(c)
        t = np.multiply(xj[:, None], z[None, :, None], dtype=np.result_type(x, z, xj, zj))
        u = np.multiply(x[:, None, None], zj[None], out=np.empty_like(t))
        t += u
        return np.subtract(t, np.swapaxes(t, 0, 1), out=u)  # u's buffer, not a third table

    return BivectorField(X.chart, value, jac)


def on_stack(field, stack):
    """field (a field, a dict of them, or a callable whose last argument is a point), evaluated at most once on `stack`.

    A call whose last argument is the object `stack` itself is evaluated once and kept, with
    every array in it read-only; any other argument (a shifted copy, a column) is passed through.
    """
    if isinstance(field, dict):
        return {key: on_stack(f, stack) for key, f in field.items()}
    if not callable(field):  # a field: each of its callables
        return replace(field, **{k: on_stack(f, stack) for k, f in vars(field).items() if k != "chart"})
    kept = []

    def once(*args):
        if args[-1] is not stack:
            return field(*args)
        if not kept:
            kept.append(_read_only(field(*args)))
        return kept[0]

    return once


def _read_only(x):
    """x, with each array in it (also inside a tuple, dict or dataclass) made read-only."""
    if isinstance(x, np.ndarray):
        x.flags.writeable = False
    elif isinstance(x, (tuple, dict)) or is_dataclass(x):
        for item in x.values() if isinstance(x, dict) else x if isinstance(x, tuple) else vars(x).values():
            _read_only(item)
    return x


def fd_grad(value: Callable[[Array], complex], coords: Array) -> Array:
    """Central-difference gradient from one call of value; steps are real also for complex coordinates.

    The call takes one (d, 2, d, ...) array: coordinate, sign (+h, -h), shifted coordinate, point axes.
    """
    c = np.asarray(coords)
    d = c.shape[0]
    h = FD_STEP * (1.0 + np.abs(c))
    e = np.zeros((d,) + c.shape)
    e[range(d), range(d)] = h  # e[k, i] = h_i if k == i
    shifted = np.empty((d, 2) + c.shape, np.result_type(c, e))
    np.add(c[:, None], e, out=shifted[:, 0])
    np.subtract(c[:, None], e, out=shifted[:, 1])
    plus, minus = value(shifted)
    out = (plus - minus) / (2.0 * h)
    if np.iscomplexobj(c) or np.abs(out.imag).max() != 0.0:
        return out.astype(complex, copy=False)
    return out.real


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


def line_nodes(direction: Callable[[Array], Array], p: Array, w: Array) -> Array:
    """The six nodes p + t w, (d, 6, ...), of the line along w = direction(p), once w(p + t w) = w is asserted at
    the farthest node at every point of a stack p: a fit gives Lie derivatives along w only on a flow line."""
    drift = np.abs(direction(p + LINE_NODES[-1] * w) - w).max(axis=0, keepdims=True)
    if (drift > 1e-12 * (1.0 + np.abs(w).max(axis=0, keepdims=True))).any():
        raise RuntimeError("direction field is not self-parallel")
    return p[:, None] + lift(LINE_NODES, 1, p) * w[:, None]


def line_restriction(f: Callable[[Array], complex], direction: Callable[[Array], Array], p: Array) -> tuple:
    """Coefficients c_0..c_5 and node values of t -> f(p + t w), w = direction(p), from one call of f on all line_nodes."""
    vals = f(line_nodes(direction, p, direction(p)))
    return line_poly_coeffs(vals), vals


def linear_bivector(chart: str, value: Callable[[Array], Array], dim: int) -> BivectorField:
    """Bivector field whose entries, given by value, are linear in the coordinates: its Jacobian, built once and
    read-only, is value at the basis vectors (column l of the identity is point l), and its value is the Jacobian's
    rows i < k times the coordinates, set as +/- (exactly antisymmetric, with a zero diagonal)."""
    jac_const = np.asarray(value(np.eye(dim)))
    jac_const.flags.writeable = False
    iu, ku, _ = _half_slots(dim)

    def half_value(c: Array) -> Array:
        h = linear_map(jac_const[iu, ku], c)
        out = np.zeros((dim, dim) + h.shape[1:], h.dtype)
        out[iu, ku], out[ku, iu] = h, -h
        return out

    return BivectorField(chart, half_value, lambda _c: jac_const)


def pencil(P: BivectorField, Q: BivectorField, t: complex) -> BivectorField:
    """P + t Q; t is a scalar, or one value per point of a stack."""

    def jac(c: Array) -> Array:  # t dQ + dP in one array of the broadcast shape; IEEE + commutes
        dp, dq = lift(P.jac(c), 3, c), lift(Q.jac(c), 3, c)
        out = np.multiply(t, dq, out=np.empty(np.broadcast(t, dp, dq).shape, np.result_type(t, dp, dq)))
        out += dp
        return out

    return BivectorField(P.chart, lambda c: P.value(c) + t * Q.value(c), jac)
