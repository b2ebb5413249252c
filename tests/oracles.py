"""Independent numerical oracles that only the tests use."""

from math import isfinite

import numpy as np

from bihamso4.fields import FD_STEP


def fd_jac(value, coords):
    """Central-difference Jacobian of an array-valued map at one point, derivative index last.

    Steps are real also for complex coordinates, FD_STEP (1 + |x_i|) as in fields.fd_grad.
    """
    c = np.asarray(coords)
    out = np.empty(np.shape(value(c)) + c.shape, dtype=complex)
    for i in range(c.shape[0]):
        e = np.zeros(c.shape)
        e[i] = h = FD_STEP * (1.0 + np.abs(c[i]))
        out[..., i] = (np.asarray(value(c + e)) - np.asarray(value(c - e))) / (2.0 * h)
    return out


def rhs(a, m) -> tuple:
    """P1(m) @ (a*m) unrolled over Python floats, the right-hand side of dynamics.integrate's step.

    so4.rigid_rhs is the matrix form.
    """
    m12, m13, m14, m23, m24, m34 = m
    a12, a13, a14, a23, a24, a34 = a
    g12 = a12 * m12
    g13 = a13 * m13
    g14 = a14 * m14
    g23 = a23 * m23
    g24 = a24 * m24
    g34 = a34 * m34
    return (
        -m23 * g13 - m24 * g14 + m13 * g23 + m14 * g24,
        m23 * g12 - m34 * g14 - m12 * g23 + m14 * g34,
        m24 * g12 + m34 * g13 - m12 * g24 - m13 * g34,
        -m13 * g12 + m12 * g13 - m34 * g24 + m24 * g34,
        -m14 * g12 + m12 * g14 + m34 * g23 - m23 * g34,
        -m14 * g13 + m13 * g14 - m24 * g23 + m23 * g24,
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
