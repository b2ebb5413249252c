"""Symplectic-leaf restriction, Nijenhuis spectrum, DN coordinates, separation.

A generic leaf is cut out by fixing the levels (h0, c2) of the Casimirs H0
and C2; on it (u1, z1, u2, z2) serve as coordinates because v1, v2 can be
eliminated.  The restricted pair (P, Q) yields the operator N = P^{-1} Q
whose double eigenvalues lambda1 (constant) and lambda2 (coordinate) organize
everything else: the conjugate coordinates (zeta1, xi1) and (lambda2, xi2),
and the two separation relations tying them to H0, C2, H1, H2.

Sign conventions fixed here (each enforced numerically elsewhere):
  * xi2 carries the sign that makes {lambda2, xi2}_P = +1, which is the
    Lie-derivative ratio value +L/(mu3 u1 u2 G F); the closed form with the
    opposite sign fails canonicity.
  * the quadratic separation relation is p xi2^2 + lambda2 H1 + H2 + Psi = 0
    with Psi = lambda2^2 H0 - mu3 F G C2; the same relation with -Psi leaves
    a reproducible nonzero residual and is rejected by the test suite.
  * xi1 uses the principal branch of the complex logarithm; assertions about
    xi1 go through its gradient, which is branch-independent.

A LeafChart is one point, coords (4,), or a stack of n points, coords
(4, n) with one level pair per column.  Every function below takes either by
one code path: arrays are built from entries (a constant entry is written
from `zero = 0.0 * u1`, so it carries the point axis), values keep the
trailing point axis, residuals reduce with `peak`, and matrix products go through
`matmul`/`matvec` (@ itself at one point).

The closed forms are rational in (u1, z1, u2, z2) and singular only where u1
or u2, G, F = lambda2 - lambda1 or mu3 vanish.  That policy is decided once,
by `degeneracy`, `guard` and `model_degeneracy` next to `u_forms`, and only at
the boundaries: the sampler, `verify.run_suite`, the separation relations and
the `dn`/`separation` commands.  The formulas do not guard or cast; they are
arithmetic on whatever numbers they get, so they also run on a stack or on symbols.

The closed forms read by the rest (closed_forms, FORMS: nijenhuis, the
restricted pair, aux, embed, the DN gradients, Y and the nodes of its line)
come in as `forms`, callables (params, leaf) that a caller may evaluate once
per leaf stack (fields.on_stack) or swap.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .fields import (
    CHART_UV,
    EPS_COLL,
    EPS_DEG,
    BivectorField,
    DegeneracyError,
    PhasePoint,
    Residual,
    ScalarField,
    brackets_scaled,
    line_nodes,
    lift,
    line_poly_coeffs,
    matmul,
    matvec,
    mismatch,
    on_stack,
    peak,
)
from .so4 import ModelParams
from .xxz import require_symmetric

Array = np.ndarray

# Leaf coordinate indices inside the uv chart: (u1, z1, u2, z2).
LEAF_IN_UV = (0, 2, 3, 5)

# The separation coordinate zeta1 = z2 - z1 as a uv scalar field.
ZETA1 = ScalarField(
    CHART_UV,
    lambda c: c[5] - c[2],
    lambda c: np.array([0.0, 0.0, -1.0, 0.0, 0.0, 1.0], dtype=complex),
)


@dataclass(frozen=True)
class LeafChart:
    """Leaf coordinates (u1, z1, u2, z2) with fixed Casimir levels (h0, c2).

    coords is (4,) with two levels, or (4, n) with two (n,) level arrays.
    """

    coords: Array
    levels: tuple

    def __post_init__(self):
        shape = np.shape(self.coords)
        h0, c2 = self.levels
        if shape[:1] != (4,) or len(shape) > 2 or np.shape(h0) != shape[1:] or np.shape(c2) != shape[1:]:
            raise ValueError("dimension mismatch")


@dataclass(frozen=True)
class AuxFunctions:
    """The five scalars steering the DN construction (one (n,) array each on a stack)."""

    G: complex
    F: complex
    L: complex
    theta1: complex
    p1sum: complex


@dataclass(frozen=True)
class DNChart:
    """Darboux-Nijenhuis coordinates on a leaf."""

    zeta1: complex
    xi1: complex
    lambda2: complex
    xi2: complex


def embed(leaf: LeafChart) -> PhasePoint:
    """Embed a leaf point into the uv chart by eliminating v1, v2."""
    return PhasePoint(CHART_UV, _embed_coords(leaf.coords, leaf.levels))


def _embed_coords(coords: Array, levels: tuple) -> Array:
    u1, z1, u2, z2 = coords
    h0, c2 = levels
    v1 = 0.5 * (h0 - c2 - 2.0 * z1**2) / u1
    v2 = 0.5 * (h0 + c2 - 2.0 * z2**2) / u2
    return np.array([u1, v1, z1, u2, v2, z2])


def project(pt: PhasePoint) -> LeafChart:
    """Drop a uv point onto its own leaf (levels read off the Casimirs)."""
    if pt.chart != CHART_UV:
        raise ValueError("chart mismatch")
    c = pt.coords
    u1, v1, z1, u2, v2, z2 = c
    h0 = u1 * v1 + u2 * v2 + z1**2 + z2**2
    c2 = u2 * v2 + z2**2 - u1 * v1 - z1**2
    return LeafChart(c[list(LEAF_IN_UV)], (h0, c2))


def embed_jacobian(uv: PhasePoint) -> Array:
    """d(uv)/d(leaf) at uv = embed(leaf), a 6x4 matrix; rows (u1,v1,z1,u2,v2,z2), cols (u1,z1,u2,z2)."""
    u1, v1, z1, u2, v2, z2 = uv.coords
    zero = 0.0 * u1
    one = zero + 1.0
    return np.array(
        [
            [one, zero, zero, zero],
            [-v1 / u1, -2.0 * z1 / u1, zero, zero],
            [zero, one, zero, zero],
            [zero, zero, one, zero],
            [zero, zero, -v2 / u2, -2.0 * z2 / u2],
            [zero, zero, zero, one],
        ]
    )


def restrict_grad(field, uv: PhasePoint) -> Array:
    """Gradient of a uv scalar field restricted to the leaf, in leaf coordinates, at uv = embed(leaf)."""
    return matvec(np.swapaxes(embed_jacobian(uv), 0, 1), field.grad(uv.coords))


def restricted_tensors(params: ModelParams, leaf: LeafChart) -> tuple:
    """Closed-form restrictions (P, Q) of the uv pair to the leaf."""
    require_symmetric(params)
    mu1, mu2, mu3, _ = params.mu
    u1, _, u2, _ = leaf.coords
    zero = 0.0 * u1
    P = np.array(
        [
            [zero, -u1, zero, zero],
            [u1, zero, zero, zero],
            [zero, zero, zero, u2],
            [zero, zero, -u2, zero],
        ]
    )
    q01 = -(mu3 * u2 + mu1 * u1)
    q03 = mu2 * u1 - mu3 * u2
    q12 = mu2 * u2 - mu3 * u1
    q23 = mu1 * u2 + mu3 * u1
    Q = np.array(
        [
            [zero, q01, zero, q03],
            [-q01, zero, q12, zero],
            [zero, -q12, zero, q23],
            [-q03, zero, -q23, zero],
        ]
    )
    return P, Q


def restricted_oracle_residuals(params: ModelParams, leaf: LeafChart, p_field: BivectorField, q_field: BivectorField, forms: dict) -> dict:
    """Printed restricted tensors against sub-brackets of the uv fields p_field (P1) and q_field (Q).

    Valid because H0 and C2 are Casimirs of both P1 and Q, so brackets
    of leaf coordinate functions close on the leaf.
    """
    uv = forms["embed"](params, leaf)
    P, Q = forms["restricted"](params, leaf)
    out = {}
    for key, ambient, printed in (("P", p_field, P), ("Q", q_field, Q)):
        amb = ambient.value(uv.coords)
        out[key] = mismatch(amb[np.ix_(LEAF_IN_UV, LEAF_IN_UV)], printed, 2)
    return out


def nijenhuis(params: ModelParams, leaf: LeafChart) -> tuple:
    """Closed-form operator N* = P^{-1} Q and its two eigenvalues.

    Returns (N, lambda1, lambda2) with N acting on gradient 4-vectors in the
    ordering (u1, z1, u2, z2).
    """
    require_symmetric(params)
    mu1, mu2, mu3, _ = params.mu
    u1, _, u2, _ = leaf.coords
    r12 = u1 / u2
    r21 = u2 / u1
    zero = 0.0 * u1
    N = np.array(
        [
            [mu3 * r21 + mu1, zero, mu2 * r21 - mu3, zero],
            [zero, mu3 * r21 + mu1, zero, mu3 * r21 - mu2],
            [mu2 * r12 - mu3, zero, mu3 * r12 + mu1, zero],
            [zero, mu3 * r12 - mu2, zero, mu3 * r12 + mu1],
        ]
    )
    lam1 = zero + (mu1 + mu2)
    lam2 = mu1 - mu2 + mu3 * (r12 + r21)
    return N, lam1, lam2


def nijenhuis_closed_form_residual(params: ModelParams, leaf: LeafChart, forms: dict) -> Residual:
    """Printed N* (forms["nijenhuis"]) against P^{-1} Q, as P N* = Q; each entry of P N* is one product."""
    P, Q = forms["restricted"](params, leaf)
    N, _, _ = forms["nijenhuis"](params, leaf)
    return mismatch(matmul(P, N), Q, 2)


def nijenhuis_spectrum_residual(params: ModelParams, leaf: LeafChart, forms: dict) -> list:
    """(N - lambda1)(N - lambda2) = 0 and tr N = 2 (lambda1 + lambda2) for N* (forms["nijenhuis"]): each eigenvalue is
    lambda1 or lambda2, each twice where they differ (the guard's F).  The first is scaled by the largest summand of
    N^2 - (lambda1 + lambda2) N + lambda1 lambda2 (of N^ik N^kj, a max over k of products of maxima, exact)."""
    N, lam1, lam2 = forms["nijenhuis"](params, leaf)
    eye, a, n_max = lift(np.eye(4), 2, leaf.coords), np.abs(N), peak(N, 2)
    square = matmul(N - lam1 * eye, N - lam2 * eye)
    scale = peak([peak(a.max(axis=0) * a.max(axis=1), 1), abs(lam1) * n_max, abs(lam2) * n_max, abs(lam1 * lam2)], 1)
    diag = [N[i, i] for i in range(4)]
    trace = Residual(abs(sum(diag) - 2.0 * (lam1 + lam2)), peak([*diag, 2.0 * lam1, 2.0 * lam2], 1))
    return [Residual(peak(square, 2), scale), trace]


def u_forms(params: ModelParams, u1: complex, u2: complex) -> tuple:
    """(G, F, theta1), the closed forms that depend on u1, u2 only; the degeneracy guard reads them too."""
    _, mu2, mu3, _ = params.mu
    G = u2 / u1 - u1 / u2
    F = mu3 * (u1 / u2 + u2 / u1) - 2.0 * mu2
    theta1 = 0.5 * mu3 * u1**2 - mu2 * u1 * u2 + 0.5 * mu3 * u2**2
    return G, F, theta1


def degeneracy(params: ModelParams, u1: complex, u2: complex, theta: bool = False) -> tuple:
    """Where the closed forms are singular, at a point or over (n,) stacks of u1, u2.

    Returns (degenerate, message).  degenerate is a bool, or an (n,) mask,
    true where |u1| or |u2| <= EPS_DEG, with theta where |theta1| <= EPS_DEG
    (theta1 = u1 u2 F / 2; `dn` takes its log, the separation relations do
    not read it), where |F| < EPS_COLL or where |G| <= EPS_DEG.  message names the
    first of those conditions that some point meets, else |mu3| <= EPS_DEG,
    else it is None.
    """
    # a vanishing u leaves inf or nan in the forms, and its own condition
    # names it; a form that overflows is not flagged and reaches the formulas
    with np.errstate(all="ignore"):
        G, F, theta1 = u_forms(params, u1, u2)
    conditions = [("degenerate point", (abs(u1) <= EPS_DEG) | (abs(u2) <= EPS_DEG))]
    if theta:
        conditions.append(("theta degenerate", abs(theta1) <= EPS_DEG))
    conditions += [("eigenvalue collision", abs(F) < EPS_COLL), ("separation chart degenerate", abs(G) <= EPS_DEG)]
    degenerate = reduce(operator.or_, [meets for _, meets in conditions])
    if np.count_nonzero(degenerate):
        return degenerate, next(message for message, meets in conditions if np.count_nonzero(meets))
    return degenerate, model_degeneracy(params)[1]


def model_degeneracy(params: ModelParams) -> tuple:
    """The messages of |mu1 + mu2| <= EPS_DEG (the separation relations divide by lambda1) and of
    |mu3| <= EPS_DEG (the leaf closed forms divide by mu3), each None where it does not hold."""
    mu1, mu2, mu3, _ = params.mu
    return (
        "degenerate constant eigenvalue" if abs(mu1 + mu2) <= EPS_DEG else None,
        "degenerate deformation parameter" if abs(mu3) <= EPS_DEG else None,
    )


def guard(params: ModelParams, u1: complex, u2: complex, theta: bool = False) -> None:
    """Raise DegeneracyError naming the condition `degeneracy` finds failed, if any."""
    _, message = degeneracy(params, u1, u2, theta)
    if message:
        raise DegeneracyError(message)


def aux(params: ModelParams, leaf: LeafChart) -> AuxFunctions:
    """The scalars G, F, L, theta1 and the eigenvalue sum p1."""
    require_symmetric(params)
    mu1, mu2, mu3, _ = params.mu
    u1, z1, u2, z2 = leaf.coords
    G, F, theta1 = u_forms(params, u1, u2)
    L = mu3 * (z2 * u1**2 + z1 * u2**2) - mu2 * u1 * u2 * (z1 + z2)
    p1sum = 2.0 * mu1 + mu3 * (u1 / u2 + u2 / u1)
    return AuxFunctions(G, F, L, theta1, p1sum)


# Hand-coded gradients wrt (u1, z1, u2, z2) of zeta1 and of the closed forms above.
def _d_zeta1(leaf: LeafChart) -> Array:
    zero = 0.0 * leaf.coords[0]
    return np.array([zero, zero - 1.0, zero, zero + 1.0])


def _d_lam2(params: ModelParams, leaf: LeafChart) -> Array:
    """Gradient of lambda2, equal to that of p1sum = lambda1 + lambda2."""
    mu3 = params.mu[2]
    u1, _, u2, _ = leaf.coords
    zero = 0.0 * u1
    return np.array(
        [
            mu3 * (1.0 / u2 - u2 / u1**2),
            zero,
            mu3 * (1.0 / u1 - u1 / u2**2),
            zero,
        ]
    )


def _d_theta1(params: ModelParams, leaf: LeafChart) -> Array:
    _, mu2, mu3, _ = params.mu
    u1, _, u2, _ = leaf.coords
    zero = 0.0 * u1
    return np.array([mu3 * u1 - mu2 * u2, zero, mu3 * u2 - mu2 * u1, zero])


def _d_l(params: ModelParams, leaf: LeafChart) -> Array:
    _, mu2, mu3, _ = params.mu
    u1, z1, u2, z2 = leaf.coords
    return np.array(
        [
            2.0 * mu3 * z2 * u1 - mu2 * u2 * (z1 + z2),
            mu3 * u2**2 - mu2 * u1 * u2,
            2.0 * mu3 * z1 * u2 - mu2 * u1 * (z1 + z2),
            mu3 * u1**2 - mu2 * u1 * u2,
        ]
    )


def _y_invariant_grads(params: ModelParams, leaf: LeafChart) -> tuple:
    """Gradients of u1 u2, G and L, whose Y-derivatives lie_y_invariant_residuals checks."""
    u1, _, u2, _ = leaf.coords
    zero = 0.0 * u1
    d_u1u2 = np.array([u2, zero, u1, zero])
    d_g = np.array([-u2 / u1**2 - 1.0 / u2, zero, 1.0 / u1 + u1 / u2**2, zero])
    return d_u1u2, d_g, _d_l(params, leaf)


def _dot(a: Array, b: Array):
    """a . b at each point, for vectors (k[, n])."""
    return np.einsum("i...,i...->...", a, b)


def _y_vector(params: ModelParams, leaf: LeafChart, restricted) -> Array:
    """Y = -P d(p1sum), the generic recipe of the deformation field, with P from the form restricted."""
    return -matvec(restricted(params, leaf)[0], _d_lam2(params, leaf))


def _y_line(params: ModelParams, leaf: LeafChart, y) -> Array:
    """uv coordinates (6, 6[, n]) of the nodes of the line along the form y (it moves z only), once asserted self-parallel."""
    nodes = line_nodes(lambda c: y(params, LeafChart(c, leaf.levels)), leaf.coords, y(params, leaf))
    return _embed_coords(nodes, leaf.levels)


def deformation_field(params: ModelParams, leaf: LeafChart, forms: dict) -> tuple:
    """Y = -P d(p1sum) as a leaf 4-vector, with its match to mu3 G (dz1 + dz2).

    Returns (y, Residual): y is computed from the generic recipe; the residual
    compares it with the printed form, which has components only along z1, z2.
    """
    y = forms["y"](params, leaf)
    a = forms["aux"](params, leaf)
    mu3 = params.mu[2]
    zero = 0.0 * a.G
    printed = np.array([zero, mu3 * a.G, zero, mu3 * a.G])
    return y, mismatch(y, printed, 1)


def lie_y_invariant_residuals(params: ModelParams, leaf: LeafChart, forms: dict) -> list:
    """Y(u1 u2) = 0, Y(G) = 0 and Y(L) = mu3 G u1 u2 F, from the hand-coded gradients."""
    mu3 = params.mu[2]
    u1, _, u2, _ = leaf.coords
    y = forms["y"](params, leaf)
    a = forms["aux"](params, leaf)
    d_u1u2, d_g, d_l = _y_invariant_grads(params, leaf)
    y_scale = peak(y, 1)
    r1 = Residual(abs(_dot(d_u1u2, y)), y_scale * peak(d_u1u2, 1))
    r2 = Residual(abs(_dot(d_g, y)), y_scale * peak(d_g, 1))
    target = mu3 * a.G * (u1 * u2 * a.F)
    got = _dot(d_l, y)
    r3 = Residual(abs(got - target), peak([got, target], 1))
    return [r1, r2, r3]


def deformation_tower(params: ModelParams, rho: complex, leaf: LeafChart, obs: dict, forms: dict) -> dict:
    """Iterated Lie derivatives of H(rho) = rho^2 H0 + rho H1 + H2 along Y.

    Y is constant along its own flow (it depends only on u and points along
    z), so its integral curves are straight lines and the restriction of
    H(rho) to one is an exact low-degree polynomial; an exact-degree fit
    yields Lie_Y^k H = k! c_k.  The nodes, forms["y_line"], are formed once
    Y is asserted self-parallel, and are shared by every rho.  obs are the uv
    observables; rho is one value per point.
    """
    uv = forms["y_line"](params, leaf)
    vals = rho**2 * obs["H0"].value(uv) + rho * obs["H1"].value(uv) + obs["H2"].value(uv)
    coeffs = line_poly_coeffs(vals)
    scale = peak(vals, 1)
    lie3_and_up = peak([6.0 * np.abs(coeffs[3]), 24.0 * np.abs(coeffs[4]), 120.0 * np.abs(coeffs[5])], 1)
    return {
        "coeffs": coeffs,
        "scale": scale,
        "lie1": coeffs[1],
        "lie2": 2.0 * coeffs[2],
        "termination": Residual(lie3_and_up, scale),
    }


def deformation_residuals(params: ModelParams, rho: complex, leaf: LeafChart, obs: dict, forms: dict) -> dict:
    """Both closed forms of the deformation tower of the uv observables obs at one rho, from one tower.

    "factorization": Lie_Y H against (4 mu3 (rho - mu1 - mu2)/(u1 u2)) G L;
    "second": Lie_Y^2 H against 4 mu3^2 (rho - mu1 - mu2) G^2 F.
    """
    mu1, mu2, mu3, _ = params.mu
    u1, _, u2, _ = leaf.coords
    a = forms["aux"](params, leaf)
    tower = deformation_tower(params, rho, leaf, obs, forms)
    out = {}
    for key, got, closed in (
        ("factorization", tower["lie1"], 4.0 * mu3 * (rho - mu1 - mu2) / (u1 * u2) * a.G * a.L),
        ("second", tower["lie2"], 4.0 * mu3**2 * (rho - mu1 - mu2) * a.G**2 * a.F),
    ):
        out[key] = Residual(abs(got - closed), peak([got, closed, tower["scale"]], 1))
    return out


def xi2_closed_form(params: ModelParams, leaf: LeafChart, a: AuxFunctions) -> complex:
    """xi2 = L / (mu3 u1 u2 G F) from the leaf's aux scalars a; the sign making {lambda2, xi2}_P = +1."""
    mu3 = params.mu[2]
    u1, _, u2, _ = leaf.coords
    return a.L / (mu3 * u1 * u2 * a.G * a.F)


def xi2_path_agreement(params: ModelParams, leaf: LeafChart, obs: dict, forms: dict) -> tuple:
    """The two paths to xi2: (closed form, tower at rho = lambda2, their Residual).

    The Residual is of Lie_Y H = xi2 Lie_Y^2 H, scaled as in
    deformation_residuals: the ratio Lie_Y H / Lie_Y^2 H would amplify
    rounding where Lie_Y^2 H ~ G^2 F nearly cancels.  obs are the uv
    observables the tower reads; forms["nijenhuis"] gives lambda2.
    """
    closed = xi2_closed_form(params, leaf, forms["aux"](params, leaf))
    _, _, lam2 = forms["nijenhuis"](params, leaf)
    tower = deformation_tower(params, lam2, leaf, obs, forms)
    lie1, target = tower["lie1"], closed * tower["lie2"]
    return closed, tower, Residual(abs(lie1 - target), peak([lie1, target, tower["scale"]], 1))


def deformation_xi2(params: ModelParams, leaf: LeafChart, obs: dict, forms: dict) -> complex:
    """DN coordinate conjugate to lambda2 via the deformation algorithm.

    Computes both the closed form and the tower of the uv observables obs at
    rho = lambda2 and insists that Lie_Y H = xi2 Lie_Y^2 H holds to 1e-10
    relative (xi2_path_agreement); a persistent disagreement means the build
    is broken.
    """
    closed, tower, agreement = xi2_path_agreement(params, leaf, obs, forms)
    # Written as not (x <= tol) so that a NaN residual raises too.
    if not (tower["termination"].normalized <= 1e-10):
        raise RuntimeError("deformation did not terminate")
    if not (agreement.normalized <= 1e-10):
        raise RuntimeError("deformation paths disagree")
    return closed


def dn_chart(params: ModelParams, leaf: LeafChart, obs: dict, forms: dict) -> DNChart:
    """The four DN coordinates (zeta1, xi1, lambda2, xi2) at a leaf point; xi2 reads the uv observables obs."""
    _, _, lam2 = forms["nijenhuis"](params, leaf)
    _, z1, _, z2 = leaf.coords
    xi1 = -0.5 * np.log(forms["aux"](params, leaf).theta1)
    return DNChart(z2 - z1, xi1, lam2, deformation_xi2(params, leaf, obs, forms))


def dn_gradients(params: ModelParams, leaf: LeafChart, a: AuxFunctions) -> Array:
    """Rows: gradients of (zeta1, xi1, lambda2, xi2) wrt (u1, z1, u2, z2), from the leaf's aux scalars a."""
    require_symmetric(params)
    mu3 = params.mu[2]
    u1, _, u2, _ = leaf.coords

    d_xi1 = -_d_theta1(params, leaf) / (2.0 * a.theta1)

    # xi2 = L / D with D = mu3 (u2^2 - u1^2) F, via u1 u2 G = u2^2 - u1^2.
    Lval = a.L
    D = mu3 * (u2**2 - u1**2) * a.F
    dL = _d_l(params, leaf)
    dF_du1 = mu3 * (u1**2 - u2**2) / (u1**2 * u2)
    dF_du2 = mu3 * (u2**2 - u1**2) / (u1 * u2**2)
    zero = 0.0 * u1
    dD = np.array(
        [
            mu3 * (-2.0 * u1 * a.F + (u2**2 - u1**2) * dF_du1),
            zero,
            mu3 * (2.0 * u2 * a.F + (u2**2 - u1**2) * dF_du2),
            zero,
        ]
    )
    d_xi2 = (dL * D - Lval * dD) / D**2

    return np.stack([_d_zeta1(leaf), d_xi1, _d_lam2(params, leaf), d_xi2])


# The builder of each closed form from the forms built before it.  A derived form binds the entries it
# reads as it is built, so it reads them kept wherever they are kept (holding the mapping would be a cycle).
FORMS = {
    "nijenhuis": lambda forms: nijenhuis,
    "restricted": lambda forms: restricted_tensors,
    "aux": lambda forms: aux,
    "embed": lambda forms: lambda params, leaf: embed(leaf),
    "dn_gradients": lambda forms: lambda params, leaf, aux=forms["aux"]: dn_gradients(params, leaf, aux(params, leaf)),
    "y": lambda forms: lambda params, leaf, restricted=forms["restricted"]: _y_vector(params, leaf, restricted),
    "y_line": lambda forms: lambda params, leaf, y=forms["y"]: _y_line(params, leaf, y),
}


def closed_forms(stack: LeafChart | None = None) -> dict:
    """The closed forms the functions here read, by name, each a callable (params, leaf) evaluated afresh,
    or at most once on `stack` (fields.on_stack), the derived ones reading the kept ones."""
    forms = {}
    for key, build in FORMS.items():
        forms[key] = build(forms) if stack is None else on_stack(build(forms), stack)
    return forms


def _brackets(grads: Array, T: Array) -> Array:
    """B = G T G^T at each point."""
    return matmul(matmul(grads, T), np.swapaxes(grads, 0, 1))


def dn_bracket_matrix(params: ModelParams, leaf: LeafChart, forms: dict) -> Array:
    """Mutual brackets of the DN coordinates under the restricted P."""
    P, _ = forms["restricted"](params, leaf)
    return _brackets(forms["dn_gradients"](params, leaf), P)


def canonical_bracket_target(lam1: complex, lam2: complex, structure: str = "P") -> Array:
    """Expected DN bracket table: canonical under P, eigenvalue-weighted under Q; (4, 4, n) for (n,) eigenvalues."""
    if structure not in ("P", "Q"):
        raise ValueError("structure must be 'P' or 'Q'")
    zero = 0.0 * lam2
    if structure == "P":
        lam1 = lam2 = zero + 1.0
    return np.array(
        [
            [zero, lam1, zero, zero],
            [-lam1, zero, zero, zero],
            [zero, zero, zero, lam2],
            [zero, zero, -lam2, zero],
        ]
    )


def dn_bracket_residuals(params: ModelParams, leaf: LeafChart, forms: dict) -> dict:
    """Canonicity under P, and eigenvalue-weighted canonical form under Q.

    Target brackets: {zeta1, xi1}_P = {lambda2, xi2}_P = 1 with vanishing
    cross terms; under Q the same pattern weighted by lambda1 and lambda2.
    The scale is the largest summand |G_ai T_ij G_bj| of B = G T G^T (as in
    fields.bracket_scale) or the largest target entry; the eigenvalues are forms["nijenhuis"]'s.
    g_i = max_a |G_ai| gives it exactly (rounded products of nonnegative numbers are monotone).
    """
    _, lam1, lam2 = forms["nijenhuis"](params, leaf)
    grads = forms["dn_gradients"](params, leaf)
    g = np.abs(grads).max(axis=0)
    out = {}
    for structure, T in zip(("P", "Q"), forms["restricted"](params, leaf)):
        target = canonical_bracket_target(lam1, lam2, structure)
        summand = peak(g[:, None] * np.abs(T) * g[None, :], 2)
        out[structure] = Residual(peak(_brackets(grads, T) - target, 2), np.maximum(summand, peak(target, 2)))
    return out


def dn_eigenform_residuals(params: ModelParams, leaf: LeafChart, forms: dict) -> list:
    """N* (forms["nijenhuis"]) applied to each DN gradient against eigenvalue times the gradient.

    One Residual per gradient, in the order (zeta1, xi1, lambda2, xi2).
    """
    N, lam1, lam2 = forms["nijenhuis"](params, leaf)
    grads = forms["dn_gradients"](params, leaf)
    out = []
    for g, lam in zip(grads, (lam1, lam1, lam2, lam2)):
        image = matvec(N, g)
        out.append(Residual(peak(image - lam * g, 1), np.maximum(peak(image, 1), abs(lam) * peak(g, 1))))
    return out


def theta_bracket_residual(params: ModelParams, leaf: LeafChart, forms: dict) -> Residual:
    """{zeta1, theta1}_P = -2 theta1, the relation fixing xi1."""
    P, _ = forms["restricted"](params, leaf)
    a = forms["aux"](params, leaf)
    br = _dot(_d_zeta1(leaf), matvec(P, _d_theta1(params, leaf)))
    target = -2.0 * a.theta1
    return Residual(abs(br - target), peak([br, target], 1))


def generalized_lenard_fit(params: ModelParams, leaf: LeafChart, obs: dict, forms: dict) -> dict:
    """Least-squares fit of c in Q dH1 = P dH2 + c P dH1 on the leaf.

    Diagnostic only: reports the fitted coefficient (empirically the
    eigenvalue sum p1), the post-fit residual, and the mismatch with p1.
    obs are the uv observables.
    """
    P, Q = forms["restricted"](params, leaf)
    uv = forms["embed"](params, leaf)
    g1 = restrict_grad(obs["H1"], uv)
    g2 = restrict_grad(obs["H2"], uv)
    lhs = matvec(Q, g1) - matvec(P, g2)
    col = matvec(P, g1)
    c = _dot(col.conj(), lhs) / _dot(col.conj(), col)
    resid = peak(lhs - c * col, 1)
    scale = np.maximum(peak(lhs, 1), peak(c * col, 1))
    a = forms["aux"](params, leaf)
    return {
        "c": c,
        "residual": Residual(resid, scale),
        "p1_mismatch": abs(c - a.p1sum),
    }


def q_extra_casimir_residuals(params: ModelParams, leaf: LeafChart, obs: dict, forms: dict) -> dict:
    """How Q acts on the restricted Hamiltonians: H0-level direction is exact 0.

    On the leaf H0 and C2 are constants, so the interesting quantities are
    Q dH1 and Q dH2 against the chain built from P: Q dH2 = -lambda1 lambda2
    P dH1 holds, while Q dH1 is NOT zero (H1 is not a Casimir of Q).
    obs are the uv observables; forms["nijenhuis"] gives the eigenvalues.
    """
    P, Q = forms["restricted"](params, leaf)
    _, lam1, lam2 = forms["nijenhuis"](params, leaf)
    uv = forms["embed"](params, leaf)
    g1 = restrict_grad(obs["H1"], uv)
    g2 = restrict_grad(obs["H2"], uv)
    q_g2 = matvec(Q, g2)
    p_g1 = lam1 * lam2 * matvec(P, g1)
    return {
        "qdh2_chain": Residual(peak(q_g2 + p_g1, 1), np.maximum(peak(q_g2, 1), peak(p_g1, 1))),
        "qdh1_norm": Residual(peak(matvec(Q, g1), 1), peak(Q, 2) * peak(g1, 1)),
    }


def zeta1_involution_residuals(p1: BivectorField, obs: dict, pt: PhasePoint) -> dict:
    """zeta1 = z2 - z1 commutes with H1 and H2 of the uv observables obs under the ambient first structure p1."""
    if pt.chart != CHART_UV:
        raise ValueError("chart mismatch")
    res = brackets_scaled(p1, (obs["H1"], obs["H2"], ZETA1), [(0, 2), (1, 2)], pt)
    return {name: Residual(abs(br), scale) for name, (br, scale) in zip(("H1", "H2"), res)}


def _separation_guard(params: ModelParams, pt: PhasePoint) -> None:
    require_symmetric(params)
    constant, _ = model_degeneracy(params)
    if constant:
        raise ValueError(constant)
    if pt.chart != CHART_UV:
        raise ValueError("chart mismatch")


def phi1_residual(params: ModelParams, pt: PhasePoint, obs: dict) -> Residual:
    """First separation relation at any uv point (no degeneracy guard needed).

    Phi1 = alpha zeta1^2 + H1 + beta H2 + gamma1 H0 with
    alpha = 2 (mu3^2 - mu2^2)/(mu1 + mu2), beta = 1/(mu1 + mu2),
    gamma1 = mu1 + mu2; the C2 coefficient vanishes.  obs are the uv
    observables.
    """
    _separation_guard(params, pt)
    mu1, mu2, mu3, _ = params.mu
    c = pt.coords
    zeta1 = c[5] - c[2]
    alpha = 2.0 * (mu3**2 - mu2**2) / (mu1 + mu2)
    beta = 1.0 / (mu1 + mu2)
    gamma1 = mu1 + mu2
    terms = (
        alpha * zeta1**2,
        obs["H1"].value(c),
        beta * obs["H2"].value(c),
        gamma1 * obs["H0"].value(c),
    )
    return Residual(abs(sum(terms)), peak(terms, 1))


def phi2_residual(params: ModelParams, pt: PhasePoint, obs: dict, forms: dict) -> Residual:
    """Second separation relation at a nondegenerate uv point.

    Phi2 = p xi2^2 + lambda2 H1 + H2 + Psi with p = -2 mu3^2 F^2 G^2 and
    Psi = lambda2^2 H0 - mu3 F G C2; lambda2, F, G, xi2 all come from the
    point's own (u1, z1, u2, z2).  obs: the uv observables.
    """
    _separation_guard(params, pt)
    mu1, mu2, mu3, _ = params.mu
    c = pt.coords
    leaf = project(pt)
    a = forms["aux"](params, leaf)
    _, _, lam2 = forms["nijenhuis"](params, leaf)
    xi2 = xi2_closed_form(params, leaf, a)
    p = -2.0 * mu3**2 * a.F**2 * a.G**2
    terms = (
        p * xi2**2,
        lam2 * obs["H1"].value(c),
        obs["H2"].value(c),
        lam2**2 * obs["H0"].value(c),
        -mu3 * a.F * a.G * obs["C2"].value(c),
    )
    return Residual(abs(sum(terms)), peak(terms, 1))
