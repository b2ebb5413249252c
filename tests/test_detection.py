"""The rank and spectrum rows catch every mutant that their LAPACK forms caught.

q_rank_4, transversal_p2_rank, nijenhuis_closed_form and nijenhuis_spectrum
check polynomial identities (Pfaffians, a wedge, P N* = Q, the minimal
polynomial and trace of N*).  Before that they read an SVD, a batched solve
and eigvals; those forms are kept in tests/oracles.py.  Four mutants at 50
points of 10,1,2 (seed 0), for each delta: a fixed seeded antisymmetric E,
times delta, added to the value of Q, of Lie_Z P2 and of N*, and lambda2
scaled by 1 + delta.  Each row's verdict at its tier, from run_suite with the
mutant in place, is compared with its LAPACK form at the tier it had, on the
same mutated values.
"""

import numpy as np
import oracles
import pytest

from bihamso4 import leaf as leaf_mod
from bihamso4 import verify
from bihamso4.fields import BivectorField, lie_bivector
from bihamso4.so4 import ModelParams

PARAMS = ModelParams.from_mu(10.0, 1.0, 2.0)
N_POINTS = 50
DELTAS = (1e-4, 1e-6, 1e-8, 1e-10, 1e-12)

# The tier each row had while it read LAPACK.
LAPACK_TIERS = {
    "q_rank_4": verify.TOL_SCHOUTEN,
    "transversal_p2_rank": verify.TOL_PIPELINE,
    "nijenhuis_closed_form": verify.TOL_EXACT,
    "nijenhuis_spectrum": 1e-9,
}


def _antisymmetric(k: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (k, k))
    return a - a.T


E6, E4 = _antisymmetric(6, 61), _antisymmetric(4, 41)


def _shifted_q(delta):
    build = verify.INGREDIENTS["Qu"][1]

    def builder(params, entries):
        q = build(params, entries)
        return BivectorField(q.chart, lambda c: q.value(c) + delta * E6[..., None], q.jac)

    return "Qu", ("UV_complex", builder)


def _nijenhuis(mutate):
    def nstar(params, leaf):
        N, lam1, lam2 = leaf_mod.nijenhuis(params, leaf)
        return mutate(N, lam1, lam2)

    return "nijenhuis", ("LEAF", lambda params, _: nstar)


# Each mutant: (ingredient key, (stack kind, builder)) for a delta, or None for Lie_Z P2, which no ingredient holds.
MUTANTS = {
    "Q + dE": _shifted_q,
    "Lie_Z P2 + dE": lambda delta: None,
    "N* + dE": lambda delta: _nijenhuis(lambda N, lam1, lam2: (N + delta * E4[..., None], lam1, lam2)),
    "lambda2 (1 + d)": lambda delta: _nijenhuis(lambda N, lam1, lam2: (N, lam1, (1.0 + delta) * lam2)),
}


def sensitivity(monkeypatch, mutant: str, delta: float) -> dict:
    """{row: (its LAPACK form's worst normalized residual, the row's max_residual, the row's tolerance)}."""
    swap = MUTANTS[mutant](delta)
    if swap is None:
        monkeypatch.setattr(verify, "lie_bivector", lambda Z, P, pt: lie_bivector(Z, P, pt) + delta * E6[..., None])
    else:
        monkeypatch.setitem(verify.INGREDIENTS, *swap)
    report = verify.run_suite(PARAMS, seed=0, n_points=N_POINTS)
    # the same values, on the run's own UV and LEAF samples (seed offsets 1 and 2)
    e = {}
    for key, (_, build) in verify.INGREDIENTS.items():
        e[key] = build(PARAMS, e)
    uv = verify.sample_points("UV_complex", N_POINTS, 1, PARAMS).stack
    leaf = verify.sample_points("LEAF", N_POINTS, 2, PARAMS).stack
    forms = {key: e[key] for key, (kind, _) in verify.INGREDIENTS.items() if kind == "LEAF"}
    lz, z = verify.lie_bivector(e["Zf"], e["P2u"], uv), e["Zf"].value(uv.coords)
    old = {
        "q_rank_4": oracles.q_rank(e["Qu"].value(uv.coords)),
        "transversal_p2_rank": oracles.trans_p2_shape(lz, z),
        "nijenhuis_closed_form": oracles.nijenhuis_closed_form_residual(PARAMS, leaf, forms),
        "nijenhuis_spectrum": oracles.nijenhuis_spectrum_residual(PARAMS, leaf, forms),
    }
    rows = {c.name: c for c in report.checks}
    monkeypatch.undo()
    return {name: (float(res.normalized.max()), rows[name].max_residual, rows[name].tolerance) for name, res in old.items()}


@pytest.mark.parametrize("mutant", MUTANTS)
def test_no_catch_lost_against_the_lapack_forms(monkeypatch, mutant):
    for delta in DELTAS:
        table = sensitivity(monkeypatch, mutant, delta)
        for name, (old, new, tol) in table.items():
            if old > LAPACK_TIERS[name]:
                assert new > tol, (mutant, delta, name, old, new)
        if delta == DELTAS[0]:  # each mutant is caught at the largest delta
            assert any(new > tol for _, new, tol in table.values())
