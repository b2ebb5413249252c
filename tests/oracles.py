"""Independent numerical oracles that only the tests use."""

import itertools
from math import isfinite

import numpy as np

from bihamso4.fields import FD_STEP, LINE_NODES, Residual, lift, line_poly_coeffs, mismatch, peak


def fd_grad(value, coords):
    """fields.fd_grad one shift at a time: 2d calls of value, each on one shifted copy of coords."""
    c = np.asarray(coords)
    out = np.empty(c.shape, dtype=complex)
    for i in range(c.shape[0]):
        e = np.zeros(c.shape)
        e[i] = h = FD_STEP * (1.0 + np.abs(c[i]))
        out[i] = (value(c + e) - value(c - e)) / (2.0 * h)
    if not np.iscomplexobj(c) and np.abs(out.imag).max() == 0.0:
        return out.real
    return out


def fd_jac(value, coords):
    """Central-difference Jacobian of an array-valued map at one point, derivative index last.

    Steps are real also for complex coordinates, FD_STEP (1 + |x_i|) as in fields.fd_grad;
    value may be any map of a coordinate array, elementwise or not.
    """
    c = np.asarray(coords)
    out = np.empty(np.shape(value(c)) + c.shape, dtype=complex)
    for i in range(c.shape[0]):
        e = np.zeros(c.shape)
        e[i] = h = FD_STEP * (1.0 + np.abs(c[i]))
        out[..., i] = (np.asarray(value(c + e)) - np.asarray(value(c - e))) / (2.0 * h)
    return out


def line_restriction(f, direction, p):
    """fields.line_restriction one node at a time: six calls of f, each on one node p + t w of the line."""
    w = direction(p)
    drift = np.abs(direction(p + LINE_NODES[-1] * w) - w).max(axis=0, keepdims=True)
    if (drift > 1e-12 * (1.0 + np.abs(w).max(axis=0, keepdims=True))).any():
        raise RuntimeError("direction field is not self-parallel")
    vals = np.array([f(p + t * w) for t in LINE_NODES])
    return line_poly_coeffs(vals), vals


def _cyclic_slots(dim):
    i, j, k = np.array(list(itertools.combinations(range(dim), 3))).T
    return np.array([(a * dim + c) * dim + b for a, b, c in ((i, j, k), (k, i, j), (j, k, i))])


def _schouten_table(db, a, dtype=None):
    # T^ijk = sum_l a^lj d_l b^ik laid out [n, i, k, j]
    db, a = (np.moveaxis(x, -1, 0) if x.ndim > rank else x for x, rank in ((db, 3), (a, 2)))
    return np.matmul(db.reshape(db.shape[:-3] + (-1, db.shape[-1])), a, dtype=dtype)


def schouten_residual(P, Q, pt):
    """fields.schouten_residual summing the whole term tables T before it takes their cyclic slots."""
    c = pt.coords
    p, dp = lift(P.value(c), 2, c), lift(P.jac(c), 3, c)
    ap, adp = np.abs(p).max(axis=1), np.abs(dp).max(axis=(0, 1))
    if Q is P:
        T = _schouten_table(dp, p)
        T += T
        scale = peak(ap * adp, 1)
    else:
        q, dq = lift(Q.value(c), 2, c), lift(Q.jac(c), 3, c)
        aq, adq = np.abs(q).max(axis=1), np.abs(dq).max(axis=(0, 1))
        scale = peak(np.maximum(ap * adq, aq * adp), 1)
        T = _schouten_table(dq, p, np.result_type(p, q, dp, dq))
        T += _schouten_table(dp, q)
    t = T.reshape(T.shape[:-2] + (-1,))[..., _cyclic_slots(p.shape[0])]
    raw = np.abs(t[..., 0, :] + t[..., 1, :] + t[..., 2, :]).max(axis=-1)
    return Residual(float(raw) if raw.ndim == 0 else raw, scale)


def matmul(a, b):
    """fields.matmul as one batched @ on a stack: a BLAS call per matrix."""
    c = np.moveaxis(a, (0, 1), (-2, -1)) @ np.moveaxis(b, (0, 1), (-2, -1))  # a 2-D operand is shared
    return np.moveaxis(c, (-2, -1), (0, 1))


# The LAPACK forms of four verify rows, each on a stack: values (k, k, n), one Residual column per point.


def q_rank(q):
    """q_rank_4 by SVD: the fifth singular value of Q over its largest."""
    s = np.linalg.svd(np.moveaxis(q, -1, 0), compute_uv=False)
    return Residual(s[:, 4], s[:, 0])


def trans_p2_shape(lz, z):
    """transversal_p2_rank by SVD: the third singular value of Lie_Z P2, and the least-squares miss of Z, its part
    off the left singular vectors kept at lstsq's default cutoff (singular values above 6 eps s_0)."""
    u, s, _ = np.linalg.svd(np.moveaxis(lz, -1, 0))
    coef = np.einsum("nji,jn->ni", u.conj(), z)
    kept = s > 6.0 * np.finfo(float).eps * s[:, :1]
    miss = z - np.einsum("nij,nj->in", u, np.where(kept, coef, 0.0))
    return Residual(np.maximum(s[:, 2], peak(miss, 1)), np.maximum(s[:, 0], peak(z, 1)))


def nijenhuis_closed_form_residual(params, leaf, forms):
    """nijenhuis_closed_form by a batched solve: printed N* against P^{-1} Q."""
    P, Q = forms["restricted"](params, leaf)
    N, _, _ = forms["nijenhuis"](params, leaf)
    return mismatch(N, np.moveaxis(np.linalg.solve(np.moveaxis(P, -1, 0), np.moveaxis(Q, -1, 0)), 0, -1), 2)


def nijenhuis_spectrum_residual(params, leaf, forms):
    """nijenhuis_spectrum by eigvals: the computed spectrum of N* against {l1, l1, l2, l2} in its best ordering."""
    N, lam1, lam2 = forms["nijenhuis"](params, leaf)
    computed = np.linalg.eigvals(np.moveaxis(N, -1, 0)).T
    expected = np.array([lam1, lam1, lam2, lam2])
    diff = np.abs(computed[:, None] - expected[None, :])
    best = diff[list(itertools.permutations(range(4))), range(4)].max(axis=1).min(axis=0)
    return Residual(best, peak([lam1, lam2], 1))


def lie_bivector_scaled(Z, P, pt):
    """fields.lie_bivector_scaled with each of its three terms an einsum."""
    c = pt.coords
    z, zj = lift(Z.value(c), 1, c), lift(Z.jac(c), 2, c)
    p, dp = lift(P.value(c), 2, c), lift(P.jac(c), 3, c)
    term1 = np.einsum("l...,ijl...->ij...", z, dp)
    term2 = np.einsum("lj...,il...->ij...", p, zj)
    term3 = np.einsum("il...,jl...->ij...", p, zj)
    m1 = peak(np.abs(z) * np.abs(dp).max(axis=(0, 1)), 1)
    m2 = peak(np.abs(p).max(axis=1) * np.abs(zj).max(axis=0), 1)
    return term1 - term2 - term3, peak([m1, m2], 1)


def pencil_jac(P, Q, t, c):
    """The Jacobian of fields.pencil(P, Q, t) at c as dP + t dQ, each operation a new array."""
    return lift(P.jac(c), 3, c) + t * lift(Q.jac(c), 3, c)


def wedge_jac(X, Z, c):
    """The Jacobian of fields.wedge_field(X, Z) at c, each operation a new array."""
    x, z, xj, zj = X.value(c), Z.value(c), X.jac(c), Z.jac(c)
    t = np.multiply(xj[:, None], z[None, :, None], dtype=np.result_type(x, z, xj, zj))
    t += x[:, None, None] * zj[None]
    return t - np.swapaxes(t, 0, 1)


def rhs(a, m) -> tuple:
    """P1(m) @ (a*m) in Euler-Manakov form over Python floats, the right-hand side of dynamics.integrate's step.

    Each component is (b*x)*y + (c*u)*v with weights b, c differences of the a_ij;
    so4.rigid_rhs is the matrix form.
    """
    m12, m13, m14, m23, m24, m34 = m
    a12, a13, a14, a23, a24, a34 = a
    return (
        (a23 - a13) * m13 * m23 + (a24 - a14) * m14 * m24,
        (a12 - a23) * m12 * m23 + (a34 - a14) * m14 * m34,
        (a12 - a24) * m12 * m24 + (a13 - a34) * m13 * m34,
        (a13 - a12) * m12 * m13 + (a34 - a24) * m24 * m34,
        (a14 - a12) * m12 * m14 + (a23 - a34) * m23 * m34,
        (a14 - a13) * m13 * m14 + (a24 - a23) * m23 * m24,
    )


def _axpy(m, c, k):
    # m + c*k component-wise.
    return tuple(mi + c * ki for mi, ki in zip(m, k))


def _rk4_sum(k1, k2, k3, k4):
    # ((k1 + 2 k2) + 2 k3) + k4 component-wise, summed left to right.
    return tuple(((p + 2.0 * q) + 2.0 * r) + s for p, q, r, s in zip(k1, k2, k3, k4))


def rk4_states(params, m0, dt, n_steps, record_every=1, direction=1):
    """States that dynamics.integrate records, and its abort step, from a per-stage RK4 loop.

    One rhs call per stage over Python-float tuples; a step whose
    state has a non-finite component ends the run and is returned as the abort step.
    """
    a = params.a.tolist()
    h = direction * dt
    m = tuple(np.asarray(m0, dtype=float).tolist())
    states = [m]
    for k in range(1, n_steps + 1):
        k1 = rhs(a, m)
        k2 = rhs(a, _axpy(m, 0.5 * h, k1))
        k3 = rhs(a, _axpy(m, 0.5 * h, k2))
        k4 = rhs(a, _axpy(m, h, k3))
        m = _axpy(m, h / 6.0, _rk4_sum(k1, k2, k3, k4))
        if not all(map(isfinite, m)):
            return np.array(states), k
        if k % record_every == 0 or k == n_steps:
            states.append(m)
    return np.array(states), None
