"""Exact certificates: each hand-coded leaf gradient is the derivative of its closed form.

The leaf functions are arithmetic on whatever numbers they get, so on a
LeafChart of sympy symbols they return expressions.  An entry is proved when
the numerator of (sympy.diff of the closed form) - (hand-coded entry), over a
common denominator, expands to zero; `expand` after `together`, never
`simplify`, keeps the file fast.  mu enters as doubles, but every
coefficient that arises is a small integer or a half, exact in binary, so a
zero is exact cancellation.  Each proof is also shown to fail once one
nonzero entry of its gradient has its sign flipped.
"""

import numpy as np
import pytest
import sympy

from bihamso4 import leaf as leaf_mod
from bihamso4.leaf import LeafChart
from bihamso4.so4 import ModelParams

PARAMS = ModelParams.from_mu(10.0, 1.0, 2.0)
COORDS = sympy.symbols("u1 z1 u2 z2")
LEAF = LeafChart(np.array(COORDS, dtype=object), sympy.symbols("h0 c2"))


def _grads():
    """(name, hand-coded gradient, closed form) for every gradient the leaf module codes by hand."""
    a = leaf_mod.aux(PARAMS, LEAF)
    u1, z1, u2, z2 = COORDS
    d_u1u2, d_g, d_l = leaf_mod._y_invariant_grads(PARAMS, LEAF)
    dn = leaf_mod.dn_gradients(PARAMS, LEAF)
    lam2 = leaf_mod.nijenhuis(PARAMS, LEAF)[2]
    return [
        ("_d_zeta1", leaf_mod._d_zeta1(LEAF), z2 - z1),
        ("_d_lam2", leaf_mod._d_lam2(PARAMS, LEAF), lam2),
        ("_d_lam2_p1sum", leaf_mod._d_lam2(PARAMS, LEAF), a.p1sum),
        ("_d_theta1", leaf_mod._d_theta1(PARAMS, LEAF), a.theta1),
        ("_d_l", leaf_mod._d_l(PARAMS, LEAF), a.L),
        ("_y_invariant_grads_u1u2", d_u1u2, u1 * u2),
        ("_y_invariant_grads_g", d_g, a.G),
        ("_y_invariant_grads_l", d_l, a.L),
        ("dn_gradients_zeta1", dn[0], z2 - z1),
        ("dn_gradients_xi1", dn[1], -sympy.log(a.theta1) / 2),
        ("dn_gradients_lambda2", dn[2], lam2),
        ("dn_gradients_xi2", dn[3], leaf_mod.xi2_closed_form(PARAMS, LEAF)),
    ]


def _proves(grad, value) -> bool:
    """Every entry of grad equals the derivative of value along its coordinate, exactly."""
    for entry, x in zip(grad, COORDS):
        numerator, _ = sympy.fraction(sympy.together(sympy.diff(value, x) - entry))
        if sympy.expand(numerator) != 0:
            return False
    return True


@pytest.mark.parametrize("grad, value", [pytest.param(grad, value, id=name) for name, grad, value in _grads()])
def test_hand_gradient_is_the_derivative_of_its_closed_form(grad, value):
    assert grad.shape == (4,)
    assert _proves(grad, value)
    flipped = grad.copy()
    k = next(k for k, entry in enumerate(grad) if entry != 0)
    flipped[k] = -flipped[k]
    assert not _proves(flipped, value)
