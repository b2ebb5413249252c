import json

import numpy as np
import pytest

from bihamso4 import leaf as leaf_mod
from bihamso4 import so4, verify, xxz
from bihamso4.fields import PhasePoint, Residual
from bihamso4.leaf import LeafChart
from bihamso4.so4 import ModelParams

PARAMS = ModelParams.from_mu(1.0, 2.0, 3.0)

# The rows evaluated on the UV_complex stack, in registry order.
UV_ROWS = (
    "gradient_fd_uv", "observable_transport", "uv_tensor_scale", "charpoly_identity_uv", "jacobi_p1_uv",
    "jacobi_p2_uv", "jacobi_q_uv", "compat_p1_p2_uv", "compat_p1_q_uv", "x1_hamiltonian", "x1_conserves_zeta1",
    "transversal_p1_symmetry", "transversal_normalization", "transversal_h1_h2", "transversal_p2_rank",
    "q_casimirs", "q_rank_4", "involution_p1", "involution_q", "stackel_condition", "transversal_curve_factor",
    "zeta1_involution", "separation_phi1", "separation_phi2",
)


def _column(stack, k):
    """Column k of a sample stack as one point."""
    if isinstance(stack, LeafChart):
        return LeafChart(stack.coords[:, k], tuple(level[k] for level in stack.levels))
    return PhasePoint(stack.chart, stack.coords[:, k])


def _columns(stack) -> list:
    return [_column(stack, k) for k in range(stack.coords.shape[1])]


def test_suite_passes_symmetric_model():
    report = verify.run_suite(PARAMS, seed=0, n_points=15)
    assert report.overall
    failed = [c.name for c in report.checks if not c.skipped and not c.passed]
    assert failed == []
    # the symmetric model with an indefinite inertia spectrum skips the Lax block
    skipped = {c.name for c in report.checks if c.skipped}
    assert skipped == {"lax_flow", "lax_angular_commutator"}


def test_suite_passes_positive_spectrum_model():
    report = verify.run_suite(ModelParams.from_mu(10.0, 1.0, 2.0), seed=1, n_points=10)
    assert report.overall
    by_name = {c.name: c for c in report.checks}
    assert not by_name["lax_flow"].skipped
    assert by_name["lax_flow"].passed


def test_suite_asymmetric_model_skips_uv_checks():
    report = verify.run_suite(ModelParams.from_mu(1.0, 2.0, 3.0, 0.5), seed=2, n_points=10)
    assert report.overall
    skipped = [c for c in report.checks if c.skipped]
    assert len(skipped) > 30
    for c in skipped:
        assert "symmetric" in c.note or "spectrum" in c.note
    run = [c for c in report.checks if not c.skipped]
    assert all(c.passed for c in run)


def test_degenerate_constant_eigenvalue_rejected():
    with pytest.raises(ValueError, match="degenerate constant eigenvalue"):
        verify.run_suite(ModelParams.from_mu(1.0, -1.0, 3.0), seed=0, n_points=5)
    # only the symmetric reduction needs mu1 + mu2 != 0
    report = verify.run_suite(ModelParams.from_mu(1.0, -1.0, 3.0, 0.2), seed=0, n_points=5)
    assert report.overall


def test_degenerate_deformation_parameter_rejected():
    # mu3 = 0 divides every leaf closed form; the model is rejected before sampling
    with pytest.raises(ValueError, match="degenerate deformation parameter"):
        verify.run_suite(ModelParams.from_mu(1.0, 2.0, 0.0), seed=0, n_points=20)
    # only the symmetric reduction needs mu3 != 0
    assert verify.run_suite(ModelParams.from_mu(1.0, 2.0, 0.0, 0.5), seed=0, n_points=5).overall


def test_unknown_override_rejected():
    with pytest.raises(ValueError, match="unknown override"):
        verify.run_suite(PARAMS, seed=0, n_points=5, overrides=("flip_everything",))


@pytest.mark.parametrize("mutation", verify.KNOWN_OVERRIDES)
def test_mutations_break_loudly(mutation):
    report = verify.run_suite(PARAMS, seed=3, n_points=8, overrides=(mutation,))
    assert not report.overall
    loud = [
        c
        for c in report.checks
        if not c.skipped and not c.passed and c.max_residual > 1e-3
    ]
    assert loud, mutation


def test_report_serializes_and_validates():
    report = verify.run_suite(PARAMS, seed=4, n_points=5)
    doc = report.to_dict()
    verify.validate_report(doc)
    # survives a JSON round trip
    verify.validate_report(json.loads(json.dumps(doc)))
    assert doc["schema"] == "biham-euler-so4/v1"
    assert doc["params"]["mu"] == [1.0, 2.0, 3.0, 3.0]
    assert doc["params"]["symmetric"] is True


def test_validate_report_rejects_malformed():
    report = verify.run_suite(PARAMS, seed=5, n_points=5)
    doc = report.to_dict()
    bad = dict(doc)
    bad["schema"] = "something-else"
    with pytest.raises(ValueError, match="unknown schema"):
        verify.validate_report(bad)
    bad = dict(doc)
    del bad["checks"]
    with pytest.raises(ValueError, match="missing field"):
        verify.validate_report(bad)
    bad = json.loads(json.dumps(doc))
    bad["checks"][0].pop("max_residual")
    with pytest.raises(ValueError):
        verify.validate_report(bad)


def test_reports_reproducible_bit_for_bit():
    a = verify.run_suite(PARAMS, seed=6, n_points=8).to_dict()
    b = verify.run_suite(PARAMS, seed=6, n_points=8).to_dict()
    assert a == b
    c = verify.run_suite(PARAMS, seed=7, n_points=8).to_dict()
    assert a != c


def test_drawn_rows_read_their_named_streams():
    # lax_flow and then lax_angular_commutator continue one [seed, 13] stream,
    # one draw per point each; deformation_termination reads [seed, 18]
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    n = 20
    report = {c.name: c for c in verify.run_suite(params, seed=0, n_points=n).checks}

    def draws(rng):
        return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])

    m_pts = verify.sample_points("M_real", n, 0, params).stack
    lax_rng = np.random.default_rng([0, 13])
    flow = so4.lax_flow_residual(params, draws(lax_rng), m_pts).normalized.max()
    comm = so4.angular_velocity_commutator_residual(params, draws(lax_rng), m_pts).normalized.max()
    leafs = verify.sample_points("LEAF", n, 2, params).stack
    term_rng = np.random.default_rng([0, 18])
    obs = xxz.uv_observables(params)
    term = leaf_mod.deformation_tower(params, draws(term_rng), leafs, obs)["termination"].normalized.max()
    assert report["lax_flow"].max_residual == flow
    assert report["lax_angular_commutator"].max_residual == comm
    assert report["deformation_termination"].max_residual == term
    assert report["deformation_termination"].n_skipped_degenerate == 0


def test_overrides_leave_shared_ingredients_clean():
    # the model's fields are built once and shared; a mutation override must
    # swap its own copy in, never edit the shared one
    clean = verify.run_suite(PARAMS, seed=5, n_points=6).to_json()
    assert not verify.run_suite(PARAMS, seed=5, n_points=6, overrides=("h2_sign",)).overall
    assert not verify.run_suite(PARAMS, seed=5, n_points=6, overrides=("q_sign",)).overall
    assert verify.run_suite(PARAMS, seed=5, n_points=6).to_json() == clean


def test_sample_points_deterministic_and_guarded():
    s1 = verify.sample_points("UV_complex", 20, 11, PARAMS).stack
    s2 = verify.sample_points("UV_complex", 20, 11, PARAMS).stack
    for p, q in zip(_columns(s1), _columns(s2)):
        assert np.array_equal(p.coords, q.coords)
    for p in _columns(s1):
        assert abs(p.coords[0]) > 0.1 and abs(p.coords[3]) > 0.1


def _sample_one_draw_at_a_time(kind, n, seed, params):
    """The sampler as a loop over single draws: (coords of the n kept draws, n_resampled)."""
    rng = np.random.default_rng(seed)
    u2_row = {"UV_complex": 3, "LEAF": 2}[kind]
    kept, n_resampled, rejects = [], 0, 0
    while len(kept) < n:
        c = rng.uniform(-1.0, 1.0, 6) + 1j * rng.uniform(-1.0, 1.0, 6)
        degenerate, _ = leaf_mod.degeneracy(params, c[0], c[u2_row], theta=True)
        if not degenerate and abs(c[0]) > 0.1 and abs(c[u2_row]) > 0.1:
            kept.append(c)
            rejects = 0
            continue
        n_resampled += 1
        rejects += 1
        if rejects > 1000:
            raise RuntimeError("sampler starved")
    return np.stack(kept, axis=-1), n_resampled


@pytest.mark.parametrize(
    "kind, mu, n, seed, starves",
    [
        ("UV_complex", (1.0, 2.0, 3.0), 50, 0, False),
        ("LEAF", (10.0, 1.0, 2.0), 200, 1, False),
        # |F| >= 1e-6 needs |u1/u2 + u2/u1| > 8 here: thousands of rejects,
        # over several blocks, and runs of more than 1000 in some seeds
        ("UV_complex", (1.0, 0.0, 1.2e-7), 20, 0, False),
        ("LEAF", (1.0, 0.0, 1.2e-7), 20, 4, False),
        ("UV_complex", (1.0, 0.0, 1.2e-7), 20, 1, True),
        ("LEAF", (1.0, 0.0, 2e-8), 5, 0, True),
    ],
)
def test_block_sampler_matches_one_draw_at_a_time(kind, mu, n, seed, starves):
    params = ModelParams.from_mu(*mu)
    if starves:
        for sampler in (verify.sample_points, _sample_one_draw_at_a_time):
            with pytest.raises(RuntimeError, match="sampler starved"):
                sampler(kind, n, seed, params)
        return
    coords, n_resampled = _sample_one_draw_at_a_time(kind, n, seed, params)
    sample = verify.sample_points(kind, n, seed, params)
    s = sample.stack
    assert np.array_equal(s.coords if kind == "UV_complex" else np.vstack([s.coords, *s.levels]), coords)
    assert sample.n_resampled == n_resampled


def test_sample_points_kinds():
    m = verify.sample_points("M_real", 5, 0, PARAMS).stack
    assert all(p.coords.dtype.kind == "f" for p in _columns(m))
    leafs = verify.sample_points("LEAF", 5, 0, PARAMS).stack
    assert all(p.coords.shape == (4,) for p in _columns(leafs))
    with pytest.raises(ValueError, match="unknown point kind"):
        verify.sample_points("imaginary", 5, 0, PARAMS)


def test_sampler_starvation():
    # mu2 = mu3 = 0 makes F = 0 at every draw, so the guard rejects them all
    starved = ModelParams.from_mu(1.0, 0.0, 0.0)
    for kind in ("UV_complex", "LEAF"):
        with pytest.raises(RuntimeError, match="sampler starved"):
            verify.sample_points(kind, 1, 0, starved)


def test_diagnostics_present():
    report = verify.run_suite(PARAMS, seed=8, n_points=6)
    names = {d["name"] for d in report.diagnostics}
    assert "generalized_lenard_fit" in names
    assert "q_dh1_not_casimir" in names
    assert "uv_tensor_ratio" in names


def test_nan_residual_fails_closed(monkeypatch):
    # lenard_chain is evaluated once on the stack of M points: poison column 3
    real = so4.lenard_residuals_m

    def patched(params, pt):
        out = real(params, pt)
        raw = out["chain_step_1"].raw.copy()
        raw[3] = float("nan")
        out["chain_step_1"] = Residual(raw, out["chain_step_1"].scale)
        return out

    monkeypatch.setattr(so4, "lenard_residuals_m", patched)
    report = verify.run_suite(PARAMS, seed=0, n_points=6)
    chain = next(c for c in report.checks if c.name == "lenard_chain")
    assert chain.passed is False
    assert chain.note == "non-finite residual at sample 3"
    # the largest finite residual is still reported, so the JSON stays strict
    assert 0.0 < chain.max_residual < verify.TOL_EXACT
    assert not report.overall
    json.loads(report.to_json())
    others = [c for c in report.checks if not c.skipped and c.name != "lenard_chain"]
    assert all(c.passed for c in others)


@pytest.mark.parametrize("tol_scale", [float("nan"), float("inf"), 0.0, -1.0])
def test_bad_tol_scale_rejected(tol_scale):
    with pytest.raises(ValueError, match="tol_scale"):
        verify.run_suite(PARAMS, seed=0, n_points=5, tol_scale=tol_scale)


def test_nan_diagnostic_fails_closed(monkeypatch):
    # generalized_lenard_fit is read once on the stack of the first 20 leaf
    # samples: poison column 2, which a running max would drop
    real = leaf_mod.generalized_lenard_fit

    def patched(params, leaf, obs=None):
        out = real(params, leaf, obs)
        raw = out["residual"].raw.copy()
        raw[2] = float("nan")
        out["residual"] = Residual(raw, out["residual"].scale)
        return out

    monkeypatch.setattr(leaf_mod, "generalized_lenard_fit", patched)
    report = verify.run_suite(PARAMS, seed=0, n_points=6)
    doc = json.loads(report.to_json())
    verify.validate_report(doc)
    diag = {d["name"]: d for d in doc["diagnostics"]}
    assert diag["generalized_lenard_fit"]["value"] is None
    assert diag["generalized_lenard_fit"]["note"] == "non-finite value at leaf sample 2"
    assert diag["q_dh1_not_casimir"]["value"] > 0.0


def test_nan_diagnostic_at_first_sample_keeps_report_strict(monkeypatch):
    # a NaN first in the list survives min(); it must become null, not break to_json
    real = leaf_mod.q_extra_casimir_residuals

    def patched(params, leaf, obs=None):
        out = real(params, leaf, obs)
        out["qdh1_norm"] = Residual(float("nan"), 1.0)
        return out

    monkeypatch.setattr(leaf_mod, "q_extra_casimir_residuals", patched)
    report = verify.run_suite(PARAMS, seed=0, n_points=6)
    doc = json.loads(report.to_json())
    verify.validate_report(doc)
    diag = {d["name"]: d for d in doc["diagnostics"]}
    assert diag["q_dh1_not_casimir"]["value"] is None
    assert diag["q_dh1_not_casimir"]["note"] == "non-finite value at leaf sample 0"
    assert isinstance(diag["generalized_lenard_fit"]["value"], float)


@pytest.mark.parametrize("mu", [(10.0, 1.0, 2.0, 5.0), (1.0, 2.0, 3.0, 5.0), (1.0, 2.0, 3.0)])
def test_skip_rows_come_first_in_registry_order(mu):
    # --mu 10,1,2 evaluates every row; a model lacking a row's requirement
    # reports that row as skipped, skipped rows first
    full = [c.name for c in verify.run_suite(ModelParams.from_mu(10.0, 1.0, 2.0), seed=0, n_points=3).checks]
    params = ModelParams.from_mu(*mu)
    report = verify.run_suite(params, seed=0, n_points=3)
    skipped = {c.name for c in report.checks if c.skipped}
    assert skipped
    assert [c.name for c in report.checks] == [n for n in full if n in skipped] + [n for n in full if n not in skipped]
    assert {c.note for c in report.checks if c.skipped} <= set(verify.SKIP_NOTES.values())
    # a point kind is sampled only if an evaluated row reads it
    assert list(report.resamples) == (["M_real", "UV_complex", "LEAF"] if params.symmetric else ["M_real"])


@pytest.mark.parametrize(
    "mutation, failing",
    [
        ("q_sign", {"jacobi_q_uv", "q_casimirs"}),
        ("nstar_sign", {"nijenhuis_closed_form", "nijenhuis_spectrum", "dn_eigenforms"}),
        (
            "h2_sign",
            {"observable_transport", "charpoly_identity_uv", "separation_phi1", "separation_phi2", "q_dh2_chain"},
        ),
    ],
)
def test_override_breaks_exactly_the_rows_reading_its_ingredient(mutation, failing):
    report = verify.run_suite(ModelParams.from_mu(10.0, 1.0, 2.0), seed=0, n_points=20, overrides=(mutation,))
    assert {c.name for c in report.checks if not c.skipped and not c.passed} == failing


def test_perturbed_h2_ingredient_reaches_separation_rows(monkeypatch):
    # a consistent H2 + 1e-4 z1 z2 (value and gradient) swapped in where the
    # suite builds its uv observables must fail both separation relations
    from bihamso4 import xxz
    from bihamso4.fields import ScalarField

    real = xxz.uv_observables

    def perturbed(params):
        obs = dict(real(params))
        base = obs["H2"]

        def grad(c):
            g = np.array(base.grad(c), dtype=complex)
            g[2] += 1e-4 * c[5]
            g[5] += 1e-4 * c[2]
            return g

        obs["H2"] = ScalarField(base.chart, lambda c: base.value(c) + 1e-4 * c[2] * c[5], grad)
        return obs

    monkeypatch.setattr(xxz, "uv_observables", perturbed)
    report = verify.run_suite(PARAMS, seed=0, n_points=20)
    by_name = {c.name: c for c in report.checks}
    for name in ("separation_phi1", "separation_phi2", "observable_transport"):
        assert by_name[name].passed is False, name
    # the gradient stays consistent with the value, so the FD row still passes
    assert by_name["gradient_fd_uv"].passed


def test_nan_dn_gradient_fails_eigenforms(monkeypatch):
    # dn_gradients is read once on the leaf stack by dn_eigenforms: poison one
    # row at column 4, which a running worst would drop
    real = leaf_mod.dn_gradients
    leafs = verify.sample_points("LEAF", 6, 2, PARAMS).stack

    def patched(params, leaf):
        out = real(params, leaf).copy()
        out[1, 0, 4] = float("nan")
        return out

    monkeypatch.setattr(leaf_mod, "dn_gradients", patched)
    res = leaf_mod.dn_eigenform_residuals(PARAMS, leafs)
    assert len(res) == 4
    assert [bool(np.isfinite(x)) for x in res[1].raw] == [True, True, True, True, False, True]
    report = verify.run_suite(PARAMS, seed=0, n_points=6)
    eig = next(c for c in report.checks if c.name == "dn_eigenforms")
    assert eig.passed is False
    assert eig.note == "non-finite residual at sample 4"
    assert not report.overall


def test_nan_in_a_stacked_row_names_its_sample(monkeypatch):
    # jacobi_p1_m is evaluated once on the stack of M points: poison column 5
    real = verify.schouten_residual
    p1 = so4.p1_m()

    def patched(P, Q, pt):
        out = real(P, Q, pt)
        if P is p1 and Q is p1:
            assert pt.coords.shape == (6, 8)
            raw = out.raw.copy()
            raw[5] = float("nan")
            out = Residual(raw, out.scale)
        return out

    monkeypatch.setattr(verify, "schouten_residual", patched)
    report = verify.run_suite(PARAMS, seed=0, n_points=8)
    by_name = {c.name: c for c in report.checks}
    jacobi = by_name["jacobi_p1_m"]
    assert jacobi.passed is False
    assert jacobi.note == "non-finite residual at sample 5"
    assert jacobi.n_evaluated == 8
    assert 0.0 <= jacobi.max_residual < verify.TOL_EXACT
    assert [name for name, c in by_name.items() if not c.skipped and not c.passed] == ["jacobi_p1_m"]


def test_degenerate_column_fails_its_rows(monkeypatch):
    # one UV point with |u1| <= EPS_DEG, which the sampler would have
    # rejected: the guard rejects the whole UV stack, so every UV row fails
    # with nothing evaluated, and the rows of the other kinds run as usual
    real = verify.sample_points
    n, bad = 24, 7

    def patched(kind, n_points, seed, params):
        sample = real(kind, n_points, seed, params)
        if kind == "UV_complex":
            sample.stack.coords[0, bad] = 0.5 * verify.EPS_DEG
        return sample

    monkeypatch.setattr(verify, "sample_points", patched)
    report = verify.run_suite(PARAMS, seed=0, n_points=n)
    run = [c for c in report.checks if not c.skipped]
    assert [c.name for c in run if not c.passed] == list(UV_ROWS)
    for c in run:
        if c.name in UV_ROWS:
            assert (c.passed, c.n_evaluated, c.n_skipped_degenerate) == (False, 0, 0), c.name
            assert c.note == "guard rejected a sample: degenerate point", c.name
        else:
            assert (c.passed, c.n_evaluated, c.n_skipped_degenerate) == (True, n, 0), c.name
    assert not report.overall
    doc = json.loads(report.to_json())
    verify.validate_report(doc)


@pytest.mark.parametrize("mu", [(10.0, 1.0, 2.0), (10.0, 1.0, 2.0, 5.0)])
def test_stacked_suite_matches_per_point_suite(monkeypatch, mu):
    # every row evaluated one 1-D column at a time gives the same verdicts
    # and counts, and worst residuals within 1e-2 of each tolerance
    params = ModelParams.from_mu(*mu)
    stacked = verify.run_suite(params, seed=3, n_points=40).checks

    def column_by_column(fn, stack, draws):
        cols = [fn(_column(stack, k), *draws[k]) for k in range(len(draws))]
        return [Residual(np.array([r.raw for r in rows]), np.array([r.scale for r in rows])) for rows in zip(*cols)]

    monkeypatch.setattr(verify, "_evaluate", column_by_column)
    per_point = verify.run_suite(params, seed=3, n_points=40).checks
    for a, b in zip(stacked, per_point):
        assert (a.name, a.passed, a.skipped, a.n_evaluated, a.n_skipped_degenerate, a.note) == (
            b.name, b.passed, b.skipped, b.n_evaluated, b.n_skipped_degenerate, b.note
        )
        if not a.skipped:
            assert abs(a.max_residual - b.max_residual) <= 1e-2 * a.tolerance, a.name
