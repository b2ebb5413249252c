"""Independent numerical oracles that only the tests use."""

from math import isfinite

import numpy as np

from bihamso4.dynamics import _rhs
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


def _axpy(m, c, k):
    # m + c*k component-wise.
    return tuple(mi + c * ki for mi, ki in zip(m, k))


def _rk4_sum(k1, k2, k3, k4):
    # ((k1 + 2 k2) + 2 k3) + k4 component-wise, summed left to right.
    return tuple(((p + 2.0 * q) + 2.0 * r) + s for p, q, r, s in zip(k1, k2, k3, k4))


def rk4_states(params, m0, dt, n_steps, record_every=1, direction=1):
    """States that dynamics.integrate records, and its abort step, from a per-stage RK4 loop.

    One dynamics._rhs call per stage over Python-float tuples; a step whose
    state has a non-finite component ends the run and is returned as the abort step.
    """
    a = params.a.tolist()
    h = direction * dt
    m = tuple(np.asarray(m0, dtype=float).tolist())
    states = [m]
    for k in range(1, n_steps + 1):
        k1 = _rhs(a, m)
        k2 = _rhs(a, _axpy(m, 0.5 * h, k1))
        k3 = _rhs(a, _axpy(m, 0.5 * h, k2))
        k4 = _rhs(a, _axpy(m, h, k3))
        m = _axpy(m, h / 6.0, _rk4_sum(k1, k2, k3, k4))
        if not all(map(isfinite, m)):
            return np.array(states), k
        if k % record_every == 0 or k == n_steps:
            states.append(m)
    return np.array(states), None
