"""Seeded verification suite: every identity in the package over random ensembles.

The registry is one table of (name, tolerance, point kind, requires, fn)
rows.  `requires` is None, "symmetric" (a rotationally symmetric model) or
"positive_spectrum" (a real positive inertia spectrum); a row whose
requirement the model lacks becomes a skip row, and skip rows come first,
then evaluated rows, each in table order.  A point kind is sampled only if
an evaluated row reads it.  A drawn row adds (stream, draws): before each
call it draws that many complex values (lambda, rho or t) from
default_rng([seed, stream]) and passes them after the point; rows naming
the same stream continue it in registry order.  Each fn calls the one
library implementation of its identity and passes in the ingredients it
reads (the uv observables, Q, the nijenhuis callable).  The suite owns
sampling, draws, skip accounting, normalization and report assembly only.

Every row runs once on its whole sample, by one code path: the points as
one stack (a (6, n) PhasePoint, or a (4, n) LeafChart with (n,) levels),
the draws as (n,) arrays, one residual per column; so do the per-sample
diagnostics.  The formulas do not guard.  The sampler accepts a UV or LEAF
draw only where leaf.degeneracy finds it nondegenerate (theta1 included)
and |u1|, |u2| > 0.1, and a symmetric model with mu3 = 0 is rejected before
sampling, so n_skipped_degenerate reads 0.  The suite still applies the
guard once to each UV and LEAF stack it is given: if any column fails it,
every row of that kind fails, with nothing evaluated and a note naming the
condition.
All residuals are compared as raw/(1+scale) against tolerance x tol_scale,
where scale is the magnitude of the largest term that entered the
identity.  The suite fails closed: a residual whose raw value or scale is
not finite fails its check, and tol_scale must be finite and > 0.

Default tolerance tiers:
  1e-12 x scale for exact linear algebra (closed forms, Casimirs, chains),
  1e-11 x scale for Schouten brackets and compatibility,
  1e-9  x scale for composed pipelines (Stackel, Lax flow, eigenforms, Phi2),
  1e-6  relative for finite-difference gradient cross-checks.

Supported mutation overrides (each swaps one ingredient for a copy with
exactly one sign flipped, so every row reading it sees the mutation; each
must make at least one check fail loudly; used by the sensitivity tests):
  "q_sign"     : Q becomes P2 + X1^Z instead of P2 - X1^Z.
  "h2_sign"    : the uv observables carry H2 + 4 mu3^2 (z1-z2)^2
                 (the sign of its -2 mu3^2 (z1-z2)^2 term is flipped).
  "nstar_sign" : the nijenhuis callable gives N* with +mu3 for -mu3 in
                 its (0,2) entry.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import leaf as leaf_mod
from . import so4, xxz
from .fields import (
    CHART_M,
    CHART_SPLIT,
    CHART_UV,
    EPS_DEG,
    BivectorField,
    PhasePoint,
    Residual,
    ScalarField,
    as_matrices,
    brackets_scaled,
    grad_fd_residual,
    ham_field_scaled,
    lie_bivector,
    lie_bivector_scaled,
    lie_scalar,
    lift,
    peak,
    schouten_residual,
)
from .leaf import LeafChart
from .so4 import ModelParams

SCHEMA = "biham-euler-so4/v1"

TOL_EXACT = 1e-12
TOL_SCHOUTEN = 1e-11
TOL_PIPELINE = 1e-9
TOL_FD = 1e-6
TOL_ROUNDTRIP = 1e-13
TOL_DN = 1e-10
TOL_SPECTRUM = 1e-9

KNOWN_OVERRIDES = ("q_sign", "h2_sign", "nstar_sign")

# What a row's `requires` names, and the note of the skip row it becomes
# when the model lacks it.
SKIP_NOTES = {
    "symmetric": "skipped: model not rotationally symmetric",
    "positive_spectrum": "skipped: inertia spectrum not real positive",
}

_MAX_CONSECUTIVE_REJECTS = 1000

# The row of u2 in a UV_complex and a LEAF stack; u1 is row 0 of both.
_U2_ROW = {"UV_complex": 3, "LEAF": 2}


@dataclass
class SampleSet:
    stack: object  # a (6, n) PhasePoint, or a (4, n) LeafChart with (n,) levels
    n_resampled: int


@dataclass
class CheckResult:
    name: str
    tolerance: float
    max_residual: float | None = None
    passed: bool | None = None
    skipped: bool = False
    note: str = ""
    n_evaluated: int = 0
    n_skipped_degenerate: int = 0


@dataclass
class VerificationReport:
    seed: int
    n_points: int
    tol_scale: float
    params: ModelParams
    overrides: tuple
    checks: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)
    resamples: dict = field(default_factory=dict)
    overall: bool = False

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "seed": self.seed,
            "n_points": self.n_points,
            "tol_scale": self.tol_scale,
            "params": {
                "mu": list(self.params.mu),
                "jsq": list(self.params.jsq),
                "symmetric": self.params.symmetric,
            },
            "overrides": list(self.overrides),
            "resamples": dict(self.resamples),
            "checks": [
                {
                    "name": c.name,
                    "max_residual": c.max_residual,
                    "tolerance": c.tolerance,
                    "pass": c.passed,
                    "skipped": c.skipped,
                    "note": c.note,
                    "n_evaluated": c.n_evaluated,
                    "n_skipped_degenerate": c.n_skipped_degenerate,
                }
                for c in self.checks
            ],
            "diagnostics": list(self.diagnostics),
            "overall": self.overall,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False)


def validate_report(doc: dict) -> None:
    """Structural validation of a report dictionary; raises ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("report must be an object")
    if doc.get("schema") != SCHEMA:
        raise ValueError("unknown schema")
    for key, types in (
        ("seed", int),
        ("n_points", int),
        ("tol_scale", (int, float)),
        ("params", dict),
        ("overrides", list),
        ("resamples", dict),
        ("checks", list),
        ("diagnostics", list),
        ("overall", bool),
    ):
        if key not in doc:
            raise ValueError(f"missing field: {key}")
        if not isinstance(doc[key], types):
            raise ValueError(f"bad type for field: {key}")
    params = doc["params"]
    for key, n in (("mu", 4), ("jsq", 4)):
        if key not in params or not isinstance(params[key], list) or len(params[key]) != n:
            raise ValueError(f"bad params.{key}")
    if not isinstance(params.get("symmetric"), bool):
        raise ValueError("bad params.symmetric")
    for c in doc["checks"]:
        for key in ("name", "max_residual", "tolerance", "pass", "skipped", "note", "n_evaluated", "n_skipped_degenerate"):
            if key not in c:
                raise ValueError(f"check missing field: {key}")
        if not isinstance(c["name"], str) or not isinstance(c["skipped"], bool):
            raise ValueError("bad check row")
        if not c["skipped"]:
            if not isinstance(c["max_residual"], (int, float)):
                raise ValueError("bad check max_residual")
            if not isinstance(c["pass"], bool):
                raise ValueError("bad check pass")
    for d in doc["diagnostics"]:
        if "name" not in d or "value" not in d:
            raise ValueError("bad diagnostic row")


def _degeneracy(params: ModelParams, kind: str, coords: np.ndarray) -> tuple:
    """leaf.degeneracy, theta1 included, at the (u1, u2) rows of UV_complex or LEAF coordinates."""
    return leaf_mod.degeneracy(params, coords[0], coords[_U2_ROW[kind]], theta=True)


def sample_points(kind: str, n: int, seed: int, params: ModelParams) -> SampleSet:
    """Draw n points of the given kind as one stack, deterministically in seed.

    Each point takes the next six doubles of default_rng(seed) (M_real), or
    twelve as six real then six imaginary parts (UV_complex, LEAF).  M_real
    points are unguarded.  A UV_complex or LEAF draw is accepted where
    leaf.degeneracy, theta1 included, finds its u1, u2 nondegenerate and
    |u1|, |u2| > 0.1; the first n accepted draws are kept, and more than
    _MAX_CONSECUTIVE_REJECTS rejects in a row starve the sampler.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if kind not in ("M_real", *_U2_ROW):
        raise ValueError("unknown point kind")
    rng = np.random.default_rng(seed)
    if kind == "M_real":
        return SampleSet(PhasePoint(CHART_M, np.ascontiguousarray(rng.uniform(-1.0, 1.0, (n, 6)).T)), 0)
    blocks = []
    while True:  # one block of n + _MAX_CONSECUTIVE_REJECTS draws nearly always decides
        block = rng.uniform(-1.0, 1.0, (n + _MAX_CONSECUTIVE_REJECTS, 12))
        blocks.append((block[:, :6] + 1j * block[:, 6:]).T)
        c = np.concatenate(blocks, axis=1)
        degenerate, _ = _degeneracy(params, kind, c)
        kept = np.flatnonzero(~degenerate & (abs(c[0]) > 0.1) & (abs(c[_U2_ROW[kind]]) > 0.1))
        # the rejects in a row before each of the first n accepted draws, or after the last draw
        if (np.diff(kept, prepend=-1, append=c.shape[1]) - 1)[:n].max() > _MAX_CONSECUTIVE_REJECTS:
            raise RuntimeError("sampler starved")
        if len(kept) >= n:
            break
    c = np.ascontiguousarray(c[:, kept[:n]])
    n_resampled = int(kept[n - 1]) + 1 - n
    if kind == "UV_complex":
        return SampleSet(PhasePoint(CHART_UV, c), n_resampled)
    return SampleSet(LeafChart(c[:4], (c[4], c[5])), n_resampled)


def _flipped_h2_observables(params: ModelParams) -> dict:
    """uv observables whose H2 carries +2 mu3^2 (z1-z2)^2 in place of -2 mu3^2 (z1-z2)^2."""
    obs = xxz.uv_observables(params)
    mu3 = params.mu[2]
    base = obs["H2"]

    def value(c):
        return base.value(c) + 4.0 * mu3**2 * (c[2] - c[5]) ** 2

    def grad(c):
        g = np.array(base.grad(c), dtype=complex)
        g[2] += 8.0 * mu3**2 * (c[2] - c[5])
        g[5] -= 8.0 * mu3**2 * (c[2] - c[5])
        return g

    out = dict(obs)
    out["H2"] = ScalarField(CHART_UV, value, grad)
    return out


def _flipped_nijenhuis(params: ModelParams, leaf: LeafChart) -> tuple:
    """leaf.nijenhuis with +mu3 for -mu3 in the (0, 2) entry of N*."""
    N, lam1, lam2 = leaf_mod.nijenhuis(params, leaf)
    N[0, 2] += 2.0 * params.mu[2]
    return N, lam1, lam2


def _pencil(P: BivectorField, Q: BivectorField, t: complex) -> BivectorField:
    """P + t Q; t is one value per point of a stack, or a scalar."""
    return BivectorField(
        P.chart,
        lambda c: P.value(c) + t * Q.value(c),
        lambda c: lift(P.jac(c), 3, c) + t * lift(Q.jac(c), 3, c),
    )


def _evaluate(fn, stack, draws: np.ndarray) -> list:
    """The Residuals of one row on its sample stack; draws is (n, n_draws), one (n,) array per draw.

    Its own function so that a test can substitute a column-by-column evaluation.
    """
    return fn(stack, *draws.T)


def _diagnostic(name: str, kind: str, samples: list, value, note: str) -> dict:
    """A diagnostics row, or null with a note naming the first sample where one of `samples` is not finite.

    samples holds the quantities read, each one value per sample (an (n,) array) or one value.
    """
    bad = ~np.isfinite(np.broadcast_arrays(*samples)).all(axis=0)
    if bad.any():
        return {"name": name, "value": None, "note": f"non-finite value at {kind} sample {int(np.argmax(bad))}"}
    return {"name": name, "value": value, "note": note}


def run_suite(
    params: ModelParams,
    seed: int = 0,
    n_points: int = 50,
    overrides: tuple = (),
    tol_scale: float = 1.0,
) -> VerificationReport:
    """Run the full registry and assemble a VerificationReport."""
    overrides = tuple(overrides)
    for name in overrides:
        if name not in KNOWN_OVERRIDES:
            raise ValueError(f"unknown override: {name}")
    if params.symmetric and abs(params.mu[0] + params.mu[1]) <= EPS_DEG:
        raise ValueError("degenerate constant eigenvalue")
    if params.symmetric and abs(params.mu[2]) <= EPS_DEG:
        raise ValueError("degenerate deformation parameter")
    if not (math.isfinite(tol_scale) and tol_scale > 0.0):
        raise ValueError("tol_scale must be finite and positive")

    report = VerificationReport(
        seed=seed, n_points=n_points, tol_scale=tol_scale, params=params, overrides=overrides
    )
    holds = {
        None: True,
        "symmetric": params.symmetric,
        "positive_spectrum": bool(np.all(np.asarray(params.jsq) > 0.0)),
    }
    mu1, mu2, mu3, mu4 = params.mu

    # ---------------- ingredients; an override swaps one for a sign-flipped copy ----------------

    P1m = so4.p1_m()
    P2m = so4.p2_m(params)
    obs_m = so4.observables_m(params)
    nijenhuis = _flipped_nijenhuis if "nstar_sign" in overrides else leaf_mod.nijenhuis
    if params.symmetric:  # the uv ingredients exist only where the rows reading them apply
        obs_uv = _flipped_h2_observables(params) if "h2_sign" in overrides else xxz.uv_observables(params)
        Qu = xxz.q_uv(params, 1.0) if "q_sign" in overrides else xxz.q_uv(params)
        P1u = xxz.p1_uv()
        P2u = xxz.p2_uv(params)
        X1 = xxz.x1_field(params)
        Zf = xxz.z_field()

    # ---------------- general-model checks (M chart) ----------------

    def fd_m(pt):
        return [grad_fd_residual(f, pt) for f in obs_m.values()]

    def pencil_m(pt, t):
        span = _pencil(P1m, P2m, t)
        return [schouten_residual(span, span, pt)]

    def he_split(pt):
        s = so4.chart_map(pt, CHART_SPLIT)
        x1, y1, z1, x2, y2, z2 = s.coords
        terms = (
            2.0 * mu4 * x1 * x2,
            2.0 * mu3 * y1 * y2,
            2.0 * mu2 * z1 * z2,
            mu1 * np.einsum("i...,i...->...", s.coords, s.coords),
        )
        he = obs_m["HE"].value(pt.coords)
        return [Residual(abs(he - sum(terms)), peak([he, *terms], 1))]

    def roundtrip(pt):
        uv = so4.chart_map(so4.chart_map(pt, CHART_SPLIT), CHART_UV)
        back = so4.chart_map(so4.chart_map(uv, CHART_SPLIT), CHART_M)
        return [Residual(peak(back.coords - pt.coords, 1), peak(pt.coords, 1))]

    # ---------------- symmetric-model checks (UV chart) ----------------

    def fd_uv(pt):
        return [grad_fd_residual(f, pt) for f in obs_uv.values()]

    def uv_scale(pt):
        res = xxz.uv_transport_residuals(params, pt)
        return [res["p1"], res["p2"]]

    def x1_match(pt):
        ham, scale = ham_field_scaled(P1u, obs_uv["H1"], pt)
        direct = X1.value(pt.coords)
        return [Residual(peak(ham - direct, 1), scale)]

    def x1_zeta(pt):
        val = lie_scalar(X1, leaf_mod.ZETA1, pt)
        return [Residual(abs(val), peak(X1.value(pt.coords), 1))]

    def trans_p1(pt):
        delta, scale = lie_bivector_scaled(Zf, P1u, pt)
        return [Residual(peak(delta, 2), scale)]

    def trans_norm(pt):
        r_h0 = lie_scalar(Zf, obs_uv["H0"], pt) - 1.0
        r_c2 = lie_scalar(Zf, obs_uv["C2"], pt)
        return [Residual(peak([r_h0, r_c2], 1), 1.0)]

    def trans_h1_h2(pt):
        c = pt.coords
        lam1 = xxz.constant_eigenvalue(params)
        lam2 = xxz.variable_eigenvalue(params, c)
        p1sum = lam1 + lam2
        r1 = lie_scalar(Zf, obs_uv["H1"], pt) + p1sum
        r2 = lie_scalar(Zf, obs_uv["H2"], pt) - lam1 * lam2
        scale = np.maximum(peak([p1sum, lam1 * lam2], 1), 1.0)
        return [Residual(peak([r1, r2], 1), scale)]

    def trans_p2_shape(pt):
        # Lie_Z P2 has rank 2 and Z in its column space.  The least-squares
        # miss of Z is its part off the left singular vectors kept at lstsq's
        # default cutoff (singular values above 6 eps s_0).
        u, svals, _ = np.linalg.svd(as_matrices(lie_bivector(Zf, P2u, pt)))
        zvec = Zf.value(pt.coords)
        coef = np.einsum("...ji,j...->...i", u.conj(), zvec)
        kept = svals > 6.0 * np.finfo(float).eps * svals[..., :1]
        miss = zvec - np.einsum("...ij,...j->i...", u, np.where(kept, coef, 0.0))
        raw = np.maximum(svals[..., 2], peak(miss, 1))
        return [Residual(raw, np.maximum(svals[..., 0], peak(zvec, 1)))]

    def q_casimirs(pt):
        out = []
        for name in ("H0", "C2"):
            vec, scale = ham_field_scaled(Qu, obs_uv[name], pt)
            out.append(Residual(peak(vec, 1), scale))
        return out

    def q_rank(pt):
        svals = np.linalg.svd(as_matrices(Qu.value(pt.coords)), compute_uv=False)
        return [Residual(svals[..., 4], svals[..., 0])]

    ham_pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def involution(structure, pt):
        hams = [obs_uv[name] for name in ("H0", "C2", "H1", "H2")]
        return [Residual(abs(br), scale) for br, scale in brackets_scaled(structure, hams, ham_pairs, pt)]

    # ---------------- symmetric-model checks (leaf) ----------------

    def embed_roundtrip(leaf):
        uv = leaf_mod.embed(leaf)
        h0 = obs_uv["H0"].value(uv.coords)
        c2 = obs_uv["C2"].value(uv.coords)
        back = leaf_mod.project(uv)
        h0_level, c2_level = leaf.levels
        raw = peak([h0 - h0_level, c2 - c2_level, peak(back.coords - leaf.coords, 1)], 1)
        return [Residual(raw, peak([h0_level, c2_level, peak(leaf.coords, 1)], 1))]

    def restricted_oracle(leaf):
        res = leaf_mod.restricted_oracle_residuals(params, leaf, q_field=Qu)
        return [res["P"], res["Q"]]

    def aux_relations(leaf):
        a = leaf_mod.aux(params, leaf)
        _, lam1, lam2 = leaf_mod.nijenhuis(params, leaf)
        # (u2/u1 - u1/u2)^2 = (u1/u2 + u2/u1)^2 - 4, and the second factor
        # is (lambda2 - mu1 + mu2)/mu3.
        g_target = ((lam2 - mu1 + mu2) / mu3) ** 2 - 4.0
        r_g = Residual(abs(a.G**2 - g_target), peak([a.G**2, g_target], 1))
        r_f = Residual(abs(a.F - (lam2 - lam1)), peak([a.F, lam2 - lam1], 1))
        r_p = Residual(abs(a.p1sum - (lam1 + lam2)), peak([a.p1sum, lam1 + lam2], 1))
        return [r_g, r_f, r_p]

    # ---------------- the registry: (name, tolerance, point kind, requires, fn[, stream, draws]) ----------------

    M, UV, LEAF, SYM, POS = "M_real", "UV_complex", "LEAF", "symmetric", "positive_spectrum"
    registry = [
        ("gradient_fd_m", TOL_FD, M, None, fd_m),
        ("jacobi_p1_m", TOL_EXACT, M, None, lambda pt: [schouten_residual(P1m, P1m, pt)]),
        ("jacobi_p2_m", TOL_EXACT, M, None, lambda pt: [schouten_residual(P2m, P2m, pt)]),
        ("compat_p1_p2_m", TOL_EXACT, M, None, lambda pt: [schouten_residual(P1m, P2m, pt)]),
        ("pencil_jacobi_m", TOL_EXACT, M, None, pencil_m, 11, 1),
        ("lenard_chain", TOL_EXACT, M, None, lambda pt: list(so4.lenard_residuals_m(params, pt).values())),
        (
            "charpoly_identity", TOL_PIPELINE, M, None,
            lambda pt, lam, rho: [so4.char_poly_residual(params, lam, rho, pt)], 12, 2,
        ),
        ("he_split_form", TOL_EXACT, M, None, he_split),
        ("chart_roundtrip", TOL_ROUNDTRIP, M, None, roundtrip),
        ("lax_flow", TOL_PIPELINE, M, POS, lambda pt, lam: [so4.lax_flow_residual(params, lam, pt)], 13, 1),
        (
            "lax_angular_commutator", TOL_EXACT, M, POS,
            lambda pt, lam: [so4.angular_velocity_commutator_residual(params, lam, pt)], 13, 1,
        ),
        ("gradient_fd_uv", TOL_FD, UV, SYM, fd_uv),
        (
            "observable_transport", TOL_EXACT, UV, SYM,
            lambda pt: list(xxz.observable_transport_residuals(params, pt, obs_uv).values()),
        ),
        ("uv_tensor_scale", TOL_EXACT, UV, SYM, uv_scale),
        (
            "charpoly_identity_uv", TOL_PIPELINE, UV, SYM,
            lambda pt, lam, rho: [xxz.char_poly_residual_uv(params, lam, rho, pt, obs_uv)], 14, 2,
        ),
        ("jacobi_p1_uv", TOL_SCHOUTEN, UV, SYM, lambda pt: [schouten_residual(P1u, P1u, pt)]),
        ("jacobi_p2_uv", TOL_SCHOUTEN, UV, SYM, lambda pt: [schouten_residual(P2u, P2u, pt)]),
        ("jacobi_q_uv", TOL_SCHOUTEN, UV, SYM, lambda pt: [schouten_residual(Qu, Qu, pt)]),
        ("compat_p1_p2_uv", TOL_SCHOUTEN, UV, SYM, lambda pt: [schouten_residual(P1u, P2u, pt)]),
        ("compat_p1_q_uv", TOL_SCHOUTEN, UV, SYM, lambda pt: [schouten_residual(P1u, Qu, pt)]),
        ("x1_hamiltonian", TOL_EXACT, UV, SYM, x1_match),
        ("x1_conserves_zeta1", TOL_EXACT, UV, SYM, x1_zeta),
        ("transversal_p1_symmetry", TOL_EXACT, UV, SYM, trans_p1),
        ("transversal_normalization", TOL_EXACT, UV, SYM, trans_norm),
        ("transversal_h1_h2", TOL_EXACT, UV, SYM, trans_h1_h2),
        ("transversal_p2_rank", TOL_PIPELINE, UV, SYM, trans_p2_shape),
        ("q_casimirs", TOL_EXACT, UV, SYM, q_casimirs),
        ("q_rank_4", TOL_SCHOUTEN, UV, SYM, q_rank),
        ("involution_p1", TOL_SCHOUTEN, UV, SYM, lambda pt: involution(P1u, pt)),
        ("involution_q", TOL_SCHOUTEN, UV, SYM, lambda pt: involution(Qu, pt)),
        (
            "stackel_condition", TOL_PIPELINE, UV, SYM,
            lambda pt, lam, rho: [xxz.stackel_residual(params, lam, rho, pt)], 15, 2,
        ),
        (
            "transversal_curve_factor", TOL_PIPELINE, UV, SYM,
            lambda pt, lam, rho: [xxz.transversal_curve_residual(params, lam, rho, pt)], 16, 2,
        ),
        (
            "zeta1_involution", TOL_SCHOUTEN, UV, SYM,
            lambda pt: list(leaf_mod.zeta1_involution_residuals(params, pt, obs_uv).values()),
        ),
        ("separation_phi1", TOL_EXACT, UV, SYM, lambda pt: [leaf_mod.phi1_residual(params, pt, obs_uv)]),
        ("separation_phi2", TOL_PIPELINE, UV, SYM, lambda pt: [leaf_mod.phi2_residual(params, pt, obs_uv)]),
        ("embed_roundtrip", TOL_ROUNDTRIP, LEAF, SYM, embed_roundtrip),
        ("restricted_oracle", TOL_SCHOUTEN, LEAF, SYM, restricted_oracle),
        (
            "nijenhuis_closed_form", TOL_EXACT, LEAF, SYM,
            lambda leaf: [leaf_mod.nijenhuis_closed_form_residual(params, leaf, nijenhuis)],
        ),
        (
            "nijenhuis_spectrum", TOL_SPECTRUM, LEAF, SYM,
            lambda leaf: [leaf_mod.nijenhuis_spectrum_residual(params, leaf, nijenhuis)],
        ),
        ("aux_relations", TOL_EXACT, LEAF, SYM, aux_relations),
        ("y_field_match", TOL_EXACT, LEAF, SYM, lambda leaf: [leaf_mod.deformation_field(params, leaf)[1]]),
        ("lie_y_invariants", TOL_SCHOUTEN, LEAF, SYM, lambda leaf: leaf_mod.lie_y_invariant_residuals(params, leaf)),
        (
            "deformation_factorization", TOL_SCHOUTEN, LEAF, SYM,
            lambda leaf, rho: list(leaf_mod.deformation_residuals(params, rho, leaf, obs_uv).values()), 17, 1,
        ),
        (
            "deformation_termination", TOL_DN, LEAF, SYM,
            lambda leaf, rho: [leaf_mod.deformation_tower(params, rho, leaf, obs_uv)["termination"]], 18, 1,
        ),
        (
            "deformation_xi2_agreement", TOL_DN, LEAF, SYM,
            lambda leaf: [leaf_mod.xi2_path_agreement(params, leaf, obs_uv)[2]],
        ),
        ("dn_canonical_p", TOL_DN, LEAF, SYM, lambda leaf: [leaf_mod.dn_bracket_residuals(params, leaf)["P"]]),
        ("dn_brackets_q", TOL_DN, LEAF, SYM, lambda leaf: [leaf_mod.dn_bracket_residuals(params, leaf)["Q"]]),
        ("dn_eigenforms", TOL_PIPELINE, LEAF, SYM, lambda leaf: leaf_mod.dn_eigenform_residuals(params, leaf, nijenhuis)),
        ("theta_bracket", TOL_EXACT, LEAF, SYM, lambda leaf: [leaf_mod.theta_bracket_residual(params, leaf)]),
        (
            "q_dh2_chain", TOL_SCHOUTEN, LEAF, SYM,
            lambda leaf: [leaf_mod.q_extra_casimir_residuals(params, leaf, obs_uv)["qdh2_chain"]],
        ),
    ]

    # ---------------- skip rows, sampling, evaluation ----------------

    active = [row for row in registry if holds[row[3]]]
    for name, _, _, requires, *_ in registry:
        if not holds[requires]:
            report.checks.append(
                CheckResult(name=name, tolerance=0.0, skipped=True, note=SKIP_NOTES[requires])
            )

    stacks, rejected = {}, {}
    for offset, kind in enumerate((M, UV, LEAF)):
        if any(row[2] == kind for row in active):
            sample = sample_points(kind, n_points, seed + offset, params)
            report.resamples[kind] = sample.n_resampled
            stacks[kind] = sample.stack
            if kind != M:  # the one guard, once per stack: a rejected stack fails all its rows
                rejected[kind] = _degeneracy(params, kind, sample.stack.coords)[1]

    streams = {}  # rows naming the same stream continue it, in registry order
    for name, tol, kind, _, fn, *drawn in active:
        stream, n_draws = drawn or (None, 0)
        if n_draws and stream not in streams:
            streams[stream] = np.random.default_rng([seed, stream])
        draws = np.empty((n_points, 0), dtype=complex)
        if n_draws:
            # (re, im) pairs in the order of one complex(re, im) per draw per point
            draws = streams[stream].uniform(-1, 1, size=(n_points, n_draws, 2)).view(complex)[..., 0]
        result = CheckResult(name=name, tolerance=tol * tol_scale, max_residual=0.0, passed=False)
        report.checks.append(result)
        if rejected.get(kind):
            result.note = f"guard rejected a sample: {rejected[kind]}"
            continue
        residuals = _evaluate(fn, stacks[kind], draws)
        raw = np.array([np.broadcast_to(r.raw, (n_points,)) for r in residuals], dtype=float)
        scale = np.array([np.broadcast_to(r.scale, (n_points,)) for r in residuals], dtype=float)
        finite = np.isfinite(raw) & np.isfinite(scale)
        # NaN compares false against everything, so it is caught here rather
        # than silently losing the comparison below.
        nonfinite = ~finite.all(axis=0)
        normalized = np.divide(raw, 1.0 + scale, out=np.zeros_like(raw), where=finite)
        result.max_residual = float(normalized.max(initial=0.0))
        result.n_evaluated = n_points
        if nonfinite.any():
            result.note = f"non-finite residual at sample {int(np.argmax(nonfinite))}"
        else:
            result.passed = bool(result.max_residual <= result.tolerance)

    # ---------------- diagnostics ----------------

    if holds[SYM]:
        leaf_stack = stacks[LEAF]
        leafs = LeafChart(leaf_stack.coords[:, :20], tuple(level[:20] for level in leaf_stack.levels))
        lenard = leaf_mod.generalized_lenard_fit(params, leafs, obs_uv)
        fits, p1_mismatch = lenard["residual"].normalized, lenard["p1_mismatch"]
        h1_norms = leaf_mod.q_extra_casimir_residuals(params, leafs, obs_uv)["qdh1_norm"].normalized
        ratio = xxz.uv_transport_residuals(params, PhasePoint(CHART_UV, stacks[UV].coords[:, 0]))["ratio_p1"]
        report.diagnostics += [
            _diagnostic(
                "generalized_lenard_fit",
                "leaf",
                [fits, p1_mismatch],
                float(np.max(fits)),
                f"fitted coefficient matches the eigenvalue sum p1 within {np.max(p1_mismatch):.3e}",
            ),
            _diagnostic(
                "q_dh1_not_casimir",
                "leaf",
                [h1_norms],
                float(np.min(h1_norms)),
                "H1 is not a Casimir of Q: Q dH1 = P dH2 + p1 P dH1; H0 and C2 are the Casimirs",
            ),
            _diagnostic(
                "uv_tensor_ratio",
                "UV",
                [ratio.real, ratio.imag],
                [ratio.real, ratio.imag],
                "printed uv tensors over pushforward of m-chart tensors; i/sqrt(2)",
            ),
        ]
    if holds[POS]:
        mismatches = so4.angular_velocity_flow_mismatch(params, 0.7 + 0.3j, stacks[M])
        report.diagnostics += [
            {
                "name": "lax_partner_sign",
                "value": -1.0,
                "note": "dL/dt = [B, L] with B the energy partner; sigma = -1 in the dL/dt = sigma [L, B] convention",
            },
            _diagnostic(
                "angular_partner_flow_mismatch",
                "M",
                [mismatches],
                float(np.min(mismatches)),
                "best-sign mismatch of dL/dt against [L, Omega + lambda J]: that partner generates a different flow; its identity is [L, Omega + lambda J] = [M, Omega]",
            ),
        ]

    active = [c for c in report.checks if not c.skipped]
    report.overall = bool(active) and all(bool(c.passed) for c in active)
    return report
