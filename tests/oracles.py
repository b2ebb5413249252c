"""Independent numerical oracles that only the tests use."""

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
