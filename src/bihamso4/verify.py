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
reads (P1 and P2 on the M chart, the m observables, the uv observables,
P1, P2, X1, Z and Q on the uv chart, the leaf closed forms: the nijenhuis
callable, the restricted pair, aux, embed, the DN gradients, Y and the nodes
of its line); no library function that a row or diagnostic calls builds one.
Each is built once per run (INGREDIENTS; Q from the run's P2, X1, Z, the
derived leaf forms from its other leaf forms)
and, by fields.on_stack, evaluated at most once on its M, UV or LEAF stack,
as the DN bracket table is, and kept read-only.  The suite owns sampling,
draws, skip accounting, normalization (one pass over all residuals) and
report assembly only.

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
  1e-12 x scale for exact linear algebra (closed forms, Casimirs, chains, the Nijenhuis spectrum),
  1e-11 x scale for Schouten brackets and compatibility,
  1e-9  x scale for composed pipelines (Stackel, Lax flow, eigenforms, Phi2),
  1e-6  relative for finite-difference gradient cross-checks.

A mutation override (OVERRIDES) swaps the builder of one ingredient for
that of a copy with exactly one sign flipped, so every row reading it sees
the mutation; where the model lacks that ingredient it changes nothing.
Each must make at least one check fail loudly:
  "q_sign"     : Q becomes the pencil P2 + X1^Z instead of P2 - X1^Z.
  "h2_sign"    : the uv observables carry H2 + 4 mu3^2 (z1-z2)^2
                 (the sign of its -2 mu3^2 (z1-z2)^2 term is flipped).
  "nstar_sign" : the nijenhuis callable gives N* with +mu3 for -mu3 in
                 its (0,2) entry.
"""

from __future__ import annotations

import itertools
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
    PhasePoint,
    Residual,
    ScalarField,
    _half_slots,
    brackets_scaled,
    grad_fd_residual,
    ham_field_scaled,
    lie_bivector,
    lie_bivector_scaled,
    lie_scalar,
    on_stack,
    peak,
    pencil,
    pfaffian_terms,
    schouten_residual,
    wedge_field,
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
        return report_json(self.to_dict())


def report_json(doc: dict) -> str:
    """The report file's text: indented strict JSON, so a non-finite value raises."""
    return json.dumps(doc, indent=2, allow_nan=False)


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
    # Blocks continue one stream, so their sizes move no draw: at ~98% acceptance a first
    # block of 2n nearly always decides; a later one holds n accepts or a starving run.
    while True:
        block = rng.uniform(-1.0, 1.0, (n + _MAX_CONSECUTIVE_REJECTS if blocks else 2 * n, 12))
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


def _flipped_h2_observables(params: ModelParams, _entries: dict) -> dict:
    """uv observables whose H2 carries +2 mu3^2 (z1-z2)^2 in place of -2 mu3^2 (z1-z2)^2."""
    obs, k = xxz.uv_observables(params), 4.0 * params.mu[2] ** 2
    base = obs["H2"]

    def grad(c):
        g = np.array(base.grad(c), dtype=complex)
        g[2] += 2.0 * k * (c[2] - c[5])
        g[5] -= 2.0 * k * (c[2] - c[5])
        return g

    obs["H2"] = ScalarField(CHART_UV, lambda c: base.value(c) + k * (c[2] - c[5]) ** 2, grad)
    return obs


def _flipped_nijenhuis(params: ModelParams, leaf: LeafChart) -> tuple:
    """leaf.nijenhuis with +mu3 for -mu3 in the (0, 2) entry of N*, in a copy of its N*."""
    N, lam1, lam2 = leaf_mod.nijenhuis(params, leaf)
    N = N.copy()
    N[0, 2] += 2.0 * params.mu[2]
    return N, lam1, lam2


# The ingredients in build order: (stack kind, builder(params, the entries before it)).
INGREDIENTS = {
    "P1m": ("M_real", lambda params, _: so4.p1_m()),
    "P2m": ("M_real", lambda params, _: so4.p2_m(params)),
    "obs_m": ("M_real", lambda params, _: so4.observables_m(params)),
    "obs_uv": ("UV_complex", lambda params, _: xxz.uv_observables(params)),
    "P1u": ("UV_complex", lambda params, _: xxz.p1_uv()),
    "P2u": ("UV_complex", lambda params, _: xxz.p2_uv(params)),
    "X1": ("UV_complex", lambda params, _: xxz.x1_field(params)),
    "Zf": ("UV_complex", lambda params, _: xxz.z_field()),
    "Qu": ("UV_complex", lambda params, e: pencil(e["P2u"], wedge_field(e["X1"], e["Zf"]), -1.0)),
    # the leaf closed forms, as leaf.closed_forms builds them, reading the run's own entries
    **{key: ("LEAF", lambda params, e, build=build: build(e)) for key, build in leaf_mod.FORMS.items()},
}

# Each mutation override: the ingredient it swaps, and the builder of its mutant.
OVERRIDES = {
    "q_sign": ("Qu", lambda params, e: pencil(e["P2u"], wedge_field(e["X1"], e["Zf"]), 1.0)),
    "h2_sign": ("obs_uv", _flipped_h2_observables),
    "nstar_sign": ("nijenhuis", lambda params, _: _flipped_nijenhuis),
}


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
        if name not in OVERRIDES:
            raise ValueError(f"unknown override: {name}")
    degenerate = params.symmetric and next(filter(None, leaf_mod.model_degeneracy(params)), None)
    if degenerate:
        raise ValueError(degenerate)
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

    # ---------------- general-model checks (M chart) ----------------

    def fd_m(pt):
        return [grad_fd_residual(f, pt) for f in obs_m.values()]

    def pencil_m(pt, t):
        span = pencil(P1m, P2m, t)
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
        # Lie_Z P2 = L has rank 2 (its fifteen 4x4 Pfaffians vanish) and Z in its column space: (L ^ Z)^ijk =
        # L^ij Z^k - L^ik Z^j + L^jk Z^i = 0 at i < j < k, read negated off the cyclic slots of the [row ik, j]
        # table of L^ik Z^j.
        lz, z = lie_bivector(Zf, P2u, pt), Zf.value(pt.coords)
        pf = [pfaffian_terms(lz, rows) for rows in itertools.combinations(range(6), 4)]
        iu, ku, slots = _half_slots(6)
        t = (lz[iu, ku][:, None] * z[None]).reshape(-1, *z.shape[1:])[slots]
        wedge = t[0] - t[1] - t[2]
        return [Residual(peak([sum(p) for p in pf], 1), peak(pf, 2)), Residual(peak(wedge, 1), peak(t, 2))]

    def q_casimirs(pt):
        out = []
        for name in ("H0", "C2"):
            vec, scale = ham_field_scaled(Qu, obs_uv[name], pt)
            out.append(Residual(peak(vec, 1), scale))
        return out

    def q_rank(pt):  # rank Q <= 4: its Pfaffian vanishes
        pf = pfaffian_terms(Qu.value(pt.coords), tuple(range(6)))
        return [Residual(abs(sum(pf)), peak(pf, 1))]

    ham_pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]

    def involution(structure, pt):
        hams = [obs_uv[name] for name in ("H0", "C2", "H1", "H2")]
        return [Residual(abs(br), scale) for br, scale in brackets_scaled(structure, hams, ham_pairs, pt)]

    # ---------------- symmetric-model checks (leaf) ----------------

    def embed_roundtrip(leaf):
        uv = forms["embed"](params, leaf)
        h0 = obs_uv["H0"].value(uv.coords)
        c2 = obs_uv["C2"].value(uv.coords)
        back = leaf_mod.project(uv)
        h0_level, c2_level = leaf.levels
        raw = peak([h0 - h0_level, c2 - c2_level, peak(back.coords - leaf.coords, 1)], 1)
        return [Residual(raw, peak([h0_level, c2_level, peak(leaf.coords, 1)], 1))]

    def restricted_oracle(leaf):
        res = leaf_mod.restricted_oracle_residuals(params, leaf, P1u, Qu, forms)
        return [res["P"], res["Q"]]

    def aux_relations(leaf):
        a = forms["aux"](params, leaf)
        _, lam1, lam2 = forms["nijenhuis"](params, leaf)
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
        ("lenard_chain", TOL_EXACT, M, None, lambda pt: list(so4.lenard_residuals_m(P1m, P2m, obs_m, pt).values())),
        (
            "charpoly_identity", TOL_PIPELINE, M, None,
            lambda pt, lam, rho: [so4.char_poly_residual(params, lam, rho, pt, obs_m)], 12, 2,
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
            lambda pt: list(xxz.observable_transport_residuals(obs_uv, obs_m, pt).values()),
        ),
        (
            "uv_tensor_scale", TOL_EXACT, UV, SYM,
            lambda pt: list(xxz.uv_transport_residuals(P1u, P2u, P1m, P2m, pt).values()),
        ),
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
            lambda pt, lam, rho: [xxz.stackel_residual(params, lam, rho, pt, Zf)], 15, 2,
        ),
        (
            "transversal_curve_factor", TOL_PIPELINE, UV, SYM,
            lambda pt, lam, rho: [xxz.transversal_curve_residual(params, lam, rho, pt, Zf)], 16, 2,
        ),
        (
            "zeta1_involution", TOL_SCHOUTEN, UV, SYM,
            lambda pt: list(leaf_mod.zeta1_involution_residuals(P1u, obs_uv, pt).values()),
        ),
        ("separation_phi1", TOL_EXACT, UV, SYM, lambda pt: [leaf_mod.phi1_residual(params, pt, obs_uv)]),
        ("separation_phi2", TOL_PIPELINE, UV, SYM, lambda pt: [leaf_mod.phi2_residual(params, pt, obs_uv, forms)]),
        ("embed_roundtrip", TOL_ROUNDTRIP, LEAF, SYM, embed_roundtrip),
        ("restricted_oracle", TOL_SCHOUTEN, LEAF, SYM, restricted_oracle),
        (
            "nijenhuis_closed_form", TOL_EXACT, LEAF, SYM,
            lambda leaf: [leaf_mod.nijenhuis_closed_form_residual(params, leaf, forms)],
        ),
        (
            "nijenhuis_spectrum", TOL_EXACT, LEAF, SYM,
            lambda leaf: leaf_mod.nijenhuis_spectrum_residual(params, leaf, forms),
        ),
        ("aux_relations", TOL_EXACT, LEAF, SYM, aux_relations),
        ("y_field_match", TOL_EXACT, LEAF, SYM, lambda leaf: [leaf_mod.deformation_field(params, leaf, forms)[1]]),
        ("lie_y_invariants", TOL_SCHOUTEN, LEAF, SYM, lambda leaf: leaf_mod.lie_y_invariant_residuals(params, leaf, forms)),
        (
            "deformation_factorization", TOL_SCHOUTEN, LEAF, SYM,
            lambda leaf, rho: list(leaf_mod.deformation_residuals(params, rho, leaf, obs_uv, forms).values()), 17, 1,
        ),
        (
            "deformation_termination", TOL_DN, LEAF, SYM,
            lambda leaf, rho: [leaf_mod.deformation_tower(params, rho, leaf, obs_uv, forms)["termination"]], 18, 1,
        ),
        (
            "deformation_xi2_agreement", TOL_DN, LEAF, SYM,
            lambda leaf: [leaf_mod.xi2_path_agreement(params, leaf, obs_uv, forms)[2]],
        ),
        ("dn_canonical_p", TOL_DN, LEAF, SYM, lambda leaf: [dn_table(leaf)["P"]]),
        ("dn_brackets_q", TOL_DN, LEAF, SYM, lambda leaf: [dn_table(leaf)["Q"]]),
        ("dn_eigenforms", TOL_PIPELINE, LEAF, SYM, lambda leaf: leaf_mod.dn_eigenform_residuals(params, leaf, forms)),
        ("theta_bracket", TOL_EXACT, LEAF, SYM, lambda leaf: [leaf_mod.theta_bracket_residual(params, leaf, forms)]),
        (
            "q_dh2_chain", TOL_SCHOUTEN, LEAF, SYM,
            lambda leaf: [leaf_mod.q_extra_casimir_residuals(params, leaf, obs_uv, forms)["qdh2_chain"]],
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

    # The rows above read these.  An entry exists only where a row reading it is evaluated.
    swaps, ingredients = dict(OVERRIDES[name] for name in overrides), {}
    for key, (kind, build) in INGREDIENTS.items():
        if kind in stacks:  # a field is called with the coordinates, a leaf form with the LeafChart
            entry = swaps.get(key, build)(params, ingredients)
            ingredients[key] = on_stack(entry, stacks[kind] if kind == LEAF else stacks[kind].coords)
    P1m, P2m, obs_m, obs_uv, P1u, P2u, X1, Zf, Qu, *_ = map(ingredients.get, INGREDIENTS)
    forms = {key: ingredients.get(key) for key, (kind, _) in INGREDIENTS.items() if kind == LEAF}
    dn_table = on_stack(lambda leaf: leaf_mod.dn_bracket_residuals(params, leaf, forms), stacks.get(LEAF))

    streams = {}  # rows naming the same stream continue it, in registry order
    evaluated, starts, residuals = [], [], []  # each evaluated row, and the index of its first residual
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
        evaluated.append(result)
        starts.append(len(residuals))
        residuals += _evaluate(fn, stacks[kind], draws)

    # One pass over every residual (the M rows run on every model), then each row reduces its own block.
    raw, scale = np.empty((2, len(residuals), n_points))
    for k, residual in enumerate(residuals):
        raw[k], scale[k] = residual  # a scalar raw or scale broadcasts over the points
    finite = np.isfinite(raw) & np.isfinite(scale)
    # NaN compares false against everything, so it is caught here rather
    # than silently losing the comparison below.
    normalized = np.divide(raw, 1.0 + scale, out=np.zeros_like(raw), where=finite)
    worst = np.maximum.reduceat(normalized.max(axis=1, initial=0.0), starts)
    nonfinite = np.logical_or.reduceat(~finite, starts)  # per row, per sample
    for result, row_worst, bad in zip(evaluated, worst, nonfinite):
        result.max_residual, result.n_evaluated = float(row_worst), n_points
        result.passed = not bad.any() and bool(result.max_residual <= result.tolerance)
        if bad.any():
            result.note = f"non-finite residual at sample {int(np.argmax(bad))}"

    # ---------------- diagnostics ----------------

    if holds[SYM]:
        leaf_stack = stacks[LEAF]
        leafs = LeafChart(leaf_stack.coords[:, :20], tuple(level[:20] for level in leaf_stack.levels))
        leafs_forms = on_stack(forms, leafs)  # both diagnostics read them on these 20 leaves
        lenard = leaf_mod.generalized_lenard_fit(params, leafs, obs_uv, leafs_forms)
        fits, p1_mismatch = lenard["residual"].normalized, lenard["p1_mismatch"]
        h1_norms = leaf_mod.q_extra_casimir_residuals(params, leafs, obs_uv, leafs_forms)["qdh1_norm"].normalized
        ratio = xxz.uv_tensor_ratio(P1u, P1m, PhasePoint(CHART_UV, stacks[UV].coords[:, 0]))
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
