import dataclasses

import numpy as np
import pytest

from bihamso4 import leaf as leaf_mod
from bihamso4 import verify, xxz
from bihamso4.fields import CHART_UV, EPS_DEG, DegeneracyError, PhasePoint, Residual, fd_grad, fd_jac
from bihamso4.leaf import LeafChart
from bihamso4.so4 import ModelParams

PARAMS = ModelParams.from_mu(1.0, 2.0, 3.0)

# mu=(1,2,3), u=(1,2), z=(1,0), levels h0=2, c2=-1; everything downstream of
# this leaf is known in closed form and used as a frozen reference.
HAND_LEAF = LeafChart(np.array([1.0, 1.0, 2.0, 0.0], dtype=complex), (2.0 + 0j, -1.0 + 0j))


def random_leaf(rng, floor=0.3):
    while True:
        c = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        u1, u2 = c[0], c[2]
        if abs(u1) < floor or abs(u2) < floor:
            continue
        g = u2 / u1 - u1 / u2
        f = 3.0 * (u1 / u2 + u2 / u1) - 4.0
        if abs(g) < 0.05 or abs(f) < 0.05:
            continue
        return LeafChart(c[:4], (c[4], c[5]))


def test_embed_examples():
    # v-elimination: v_i = (h0 -+ c2 - 2 z_i^2) / (2 u_i)
    a = LeafChart(np.array([1.0, 0.0, 1.0, 0.0], dtype=complex), (4.0 + 0j, 0j))
    uv = leaf_mod.embed(a)
    assert np.allclose(uv.coords, [1, 2, 0, 1, 2, 0])
    b = LeafChart(np.array([1.0, 1.0, 1.0, 1.0], dtype=complex), (2.0 + 0j, 0j))
    uv = leaf_mod.embed(b)
    assert np.allclose(uv.coords, [1, 0, 1, 1, 0, 1])


def test_embed_reproduces_levels_exactly():
    rng = np.random.default_rng(0)
    obs = xxz.uv_observables(PARAMS)
    for _ in range(25):
        leaf = random_leaf(rng)
        uv = leaf_mod.embed(leaf)
        assert abs(obs["H0"].value(uv.coords) - leaf.levels[0]) < 1e-13 * (1 + abs(leaf.levels[0]))
        assert abs(obs["C2"].value(uv.coords) - leaf.levels[1]) < 1e-13 * (1 + abs(leaf.levels[1]))
        back = leaf_mod.project(uv)
        assert np.max(np.abs(back.coords - leaf.coords)) < 1e-13


def test_embed_jacobian_matches_fd():
    rng = np.random.default_rng(1)
    for _ in range(10):
        leaf = random_leaf(rng)
        J = leaf_mod.embed_jacobian(leaf_mod.embed(leaf))
        step = 1e-6
        for k in range(4):
            e = np.zeros(4, dtype=complex)
            e[k] = step
            plus = leaf_mod.embed(LeafChart(leaf.coords + e, leaf.levels)).coords
            minus = leaf_mod.embed(LeafChart(leaf.coords - e, leaf.levels)).coords
            fd = (plus - minus) / (2 * step)
            assert np.max(np.abs(J[:, k] - fd)) < 1e-7


def test_restricted_tensors_hand_entries():
    P, Q = leaf_mod.restricted_tensors(PARAMS, HAND_LEAF)
    # P: {u1,z1} = -u1, {u2,z2} = +u2, others zero
    expect_p = np.zeros((4, 4), dtype=complex)
    expect_p[0, 1] = -1.0
    expect_p[2, 3] = 2.0
    expect_p -= expect_p.T
    assert np.allclose(P, expect_p)
    expect_q = np.zeros((4, 4), dtype=complex)
    expect_q[0, 1] = -(3.0 * 2.0 + 1.0 * 1.0)  # -(mu3 u2 + mu1 u1)
    expect_q[0, 3] = 2.0 * 1.0 - 3.0 * 2.0  # mu2 u1 - mu3 u2
    expect_q[1, 2] = 2.0 * 2.0 - 3.0 * 1.0  # mu2 u2 - mu3 u1
    expect_q[2, 3] = 1.0 * 2.0 + 3.0 * 1.0  # mu1 u2 + mu3 u1
    expect_q -= expect_q.T
    assert np.allclose(Q, expect_q)


def test_restricted_tensors_match_ambient_restriction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        leaf = random_leaf(rng)
        res = leaf_mod.restricted_oracle_residuals(PARAMS, leaf)
        assert res["P"].normalized < 1e-11
        assert res["Q"].normalized < 1e-11


def test_nijenhuis_closed_form_and_spectrum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        leaf = random_leaf(rng)
        assert leaf_mod.nijenhuis_closed_form_residual(PARAMS, leaf).normalized < 1e-12
        assert leaf_mod.nijenhuis_spectrum_residual(PARAMS, leaf).normalized < 1e-9


def test_nijenhuis_hand_values():
    N, lam1, lam2 = leaf_mod.nijenhuis(PARAMS, HAND_LEAF)
    assert lam1 == 3.0
    assert abs(lam2 - 6.5) < 1e-14
    assert abs(np.trace(N) - 2 * (lam1 + lam2)) < 1e-13
    # equal u's: lambda2 = mu1 - mu2 + 2 mu3, trace = 2(lam1 + lam2)
    even = LeafChart(np.array([1.0, 0.2, 1.0, -0.4], dtype=complex), (1.0 + 0j, 0j))
    N2, l1, l2 = leaf_mod.nijenhuis(PARAMS, even)
    assert abs(l2 - 5.0) < 1e-14
    assert abs(np.trace(N2) - 16.0) < 1e-13


def test_eigenvalue_collision_guard():
    # u1/u2 + u2/u1 = 2 mu2/mu3 makes F = lambda2 - lambda1 = 0
    u1 = (2.0 + 1j * np.sqrt(5.0)) / 3.0
    leaf = LeafChart(np.array([u1, 0.3, 1.0, -0.2], dtype=complex), (1.0 + 0j, 0j))
    with pytest.raises(DegeneracyError, match="eigenvalue collision"):
        leaf_mod.guard(PARAMS, leaf.coords[0], leaf.coords[2])
    # theta1 = u1 u2 F / 2 vanishes at the same point
    with pytest.raises(DegeneracyError, match="theta degenerate"):
        leaf_mod.guard(PARAMS, leaf.coords[0], leaf.coords[2], theta=True)


def test_aux_hand_values():
    a = leaf_mod.aux(PARAMS, HAND_LEAF)
    assert abs(a.G - 1.5) < 1e-14
    assert abs(a.F - 3.5) < 1e-14
    assert abs(a.L - 8.0) < 1e-14
    assert abs(a.theta1 - 3.5) < 1e-14
    assert abs(a.p1sum - 9.5) < 1e-14
    even = LeafChart(np.array([1.0, 0.0, 1.0, 0.0], dtype=complex), (1.0 + 0j, 0j))
    ae = leaf_mod.aux(PARAMS, even)
    assert abs(ae.F - 2.0) < 1e-14
    assert abs(ae.theta1 - 1.0) < 1e-14


def test_aux_identities():
    rng = np.random.default_rng(4)
    for _ in range(25):
        leaf = random_leaf(rng)
        a = leaf_mod.aux(PARAMS, leaf)
        _, lam1, lam2 = leaf_mod.nijenhuis(PARAMS, leaf)
        u1, _, u2, _ = leaf.coords
        # G^2 = ((lambda2 - mu1 + mu2)/mu3)^2 - 4
        target = ((lam2 - 1.0 + 2.0) / 3.0) ** 2 - 4.0
        assert abs(a.G**2 - target) < 1e-12 * (1 + abs(target))
        assert abs(a.F - (lam2 - lam1)) < 1e-13 * (1 + abs(a.F))
        assert abs(u1 * u2 * a.F - 2.0 * a.theta1) < 1e-13 * (1 + abs(a.theta1))
        assert abs(u1 * u2 * a.G - (u2**2 - u1**2)) < 1e-13 * (1 + abs(u1 * u2 * a.G))


def test_deformation_field_form():
    # Y = -P d(lambda1 + lambda2) has only z-components, both mu3 G
    rng = np.random.default_rng(5)
    for _ in range(20):
        leaf = random_leaf(rng)
        y, res = leaf_mod.deformation_field(PARAMS, leaf)
        assert res.normalized < 1e-12
        assert y[0] == 0.0 and y[2] == 0.0
        assert abs(y[1] - y[3]) < 1e-13 * (1 + abs(y[1]))


def test_deformation_tower_hand_values():
    # Lie_Y H = 72 (rho - 3) and Lie_Y^2 H = 283.5 (rho - 3) on the hand leaf
    for rho in (0.3 + 0.4j, -0.7 + 0j, 1.2 - 0.5j):
        tower = leaf_mod.deformation_tower(PARAMS, rho, HAND_LEAF)
        assert abs(tower["lie1"] - 72.0 * (rho - 3.0)) < 1e-10 * (1 + abs(tower["lie1"]))
        assert abs(tower["lie2"] - 283.5 * (rho - 3.0)) < 1e-10 * (1 + abs(tower["lie2"]))
        assert tower["termination"].normalized < 1e-10


def test_deformation_factorization():
    rng = np.random.default_rng(6)
    for _ in range(20):
        leaf = random_leaf(rng)
        rho = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        res = leaf_mod.deformation_residuals(PARAMS, rho, leaf)
        assert res["factorization"].normalized < 1e-11
        assert res["second"].normalized < 1e-11
        tower = leaf_mod.deformation_tower(PARAMS, rho, leaf)
        assert tower["termination"].normalized < 1e-10


def test_xi2_hand_value_and_path_agreement():
    xi2 = leaf_mod.xi2_closed_form(PARAMS, HAND_LEAF)
    assert abs(xi2 - 16.0 / 63.0) < 1e-14
    assert abs(leaf_mod.deformation_xi2(PARAMS, HAND_LEAF) - xi2) < 1e-14
    rng = np.random.default_rng(7)
    for _ in range(15):
        leaf = random_leaf(rng)
        closed = leaf_mod.xi2_closed_form(PARAMS, leaf)
        both = leaf_mod.deformation_xi2(PARAMS, leaf)
        assert abs(both - closed) < 1e-10 * (1 + abs(closed))


def test_deformation_xi2_fails_closed_on_nan():
    # a NaN level leaves the closed form finite while termination and
    # agreement both read NaN; a NaN must fail the guards, not slip past them
    leaf = LeafChart(HAND_LEAF.coords, (np.nan, -1.0))
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError, match="did not terminate"):
        leaf_mod.deformation_xi2(PARAMS, leaf)


def test_dn_chart_hand_values():
    chart = leaf_mod.dn_chart(PARAMS, HAND_LEAF)
    assert chart.zeta1 == -1.0
    assert abs(chart.xi1 + 0.5 * np.log(3.5)) < 1e-14
    assert abs(chart.lambda2 - 6.5) < 1e-14
    assert abs(chart.xi2 - 16.0 / 63.0) < 1e-14


def test_dn_gradients_match_fd():
    rng = np.random.default_rng(8)
    for _ in range(10):
        leaf = random_leaf(rng)
        grads = leaf_mod.dn_gradients(PARAMS, leaf)
        step = 1e-6

        def chart_vec(coords):
            ch = leaf_mod.dn_chart(PARAMS, LeafChart(coords, leaf.levels))
            return np.array([ch.zeta1, ch.xi1, ch.lambda2, ch.xi2])

        for k in range(4):
            e = np.zeros(4, dtype=complex)
            e[k] = step
            fd = (chart_vec(leaf.coords + e) - chart_vec(leaf.coords - e)) / (2 * step)
            assert np.max(np.abs(grads[:, k] - fd)) < 1e-5


def test_hand_coded_jacobians_and_lie_y_gradients_match_fd():
    # X1.jac, Z.jac and Q.jac feed the Schouten and Lie-bivector rows; dG,
    # d(u1 u2) and dL feed lie_y_invariants; this is their only independent check.
    fields = {"X1": xxz.x1_field(PARAMS), "Z": xxz.z_field(), "Q": xxz.q_uv(PARAMS)}
    for c in verify.sample_points("UV_complex", 20, 21, PARAMS).stack.coords.T:
        pt = PhasePoint(CHART_UV, c)
        for name, field in fields.items():
            exact = field.jac(pt.coords)
            fd = fd_jac(field.value, pt.coords)
            assert np.abs(exact - fd).max() <= 1e-6 * (1.0 + np.abs(exact).max()), name
    closed_forms = (
        lambda leaf: leaf.coords[0] * leaf.coords[2],
        lambda leaf: leaf_mod.aux(PARAMS, leaf).G,
        lambda leaf: leaf_mod.aux(PARAMS, leaf).L,
    )
    rng = np.random.default_rng(21)
    for _ in range(20):
        leaf = random_leaf(rng)
        for name, grad, value in zip(("u1u2", "G", "L"), leaf_mod._y_invariant_grads(PARAMS, leaf), closed_forms):
            fd = fd_grad(lambda c: value(LeafChart(c, leaf.levels)), leaf.coords)
            assert np.abs(grad - fd).max() <= 1e-6 * (1.0 + np.abs(grad).max()), name


def test_dn_brackets_canonical():
    rng = np.random.default_rng(9)
    for _ in range(20):
        leaf = random_leaf(rng)
        res = leaf_mod.dn_bracket_residuals(PARAMS, leaf)
        assert res["P"].normalized < 1e-10
        assert res["Q"].normalized < 1e-10


@pytest.mark.parametrize("seed", [669532216, 1120281124])
def test_dn_brackets_pass_at_cancellation_points(seed):
    # verify --mu 10,1,2 --points 200 at these seeds draws a leaf point whose
    # bracket table B = G T G^T is O(1) while its summands reach 1e6-1e8, so
    # the raw residual is roundoff of that cancellation.  Normalized by
    # max |B| the old scale read it as a failure; the summand scale does not.
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    leafs = _columns(verify.sample_points("LEAF", 200, seed + 2, params).stack)
    worst_raw = 0.0
    for leaf in leafs:
        res = leaf_mod.dn_bracket_residuals(params, leaf)
        assert res["P"].normalized <= verify.TOL_DN
        assert res["Q"].normalized <= verify.TOL_DN
        worst_raw = max(worst_raw, res["P"].raw, res["Q"].raw)
    assert worst_raw > 1e-10


def test_dn_brackets_detect_perturbed_gradient(monkeypatch):
    real = leaf_mod.dn_gradients

    def perturbed(params, leaf):
        grads = real(params, leaf).copy()
        grads[1, 2] += 1e-6
        return grads

    monkeypatch.setattr(leaf_mod, "dn_gradients", perturbed)
    rng = np.random.default_rng(9)
    for _ in range(20):
        res = leaf_mod.dn_bracket_residuals(PARAMS, random_leaf(rng))
        assert res["P"].normalized > 100.0 * verify.TOL_DN
        assert res["Q"].normalized > 100.0 * verify.TOL_DN


def test_dn_eigenforms():
    rng = np.random.default_rng(10)
    for _ in range(20):
        leaf = random_leaf(rng)
        res = leaf_mod.dn_eigenform_residuals(PARAMS, leaf)
        assert len(res) == 4
        assert max(r.normalized for r in res) < 1e-9


def test_theta_bracket():
    # {zeta1, theta1}_P = -2 theta1
    rng = np.random.default_rng(11)
    for _ in range(20):
        leaf = random_leaf(rng)
        assert leaf_mod.theta_bracket_residual(PARAMS, leaf).normalized < 1e-12


def test_generalized_lenard_coefficient_is_p1():
    rng = np.random.default_rng(12)
    for _ in range(15):
        leaf = random_leaf(rng)
        fit = leaf_mod.generalized_lenard_fit(PARAMS, leaf)
        assert fit["residual"].normalized < 1e-10
        assert fit["p1_mismatch"] < 1e-10


def test_q_dh2_closes_the_chain():
    # Q dH2 = -lambda1 lambda2 P dH1 on the leaf
    rng = np.random.default_rng(13)
    for _ in range(15):
        leaf = random_leaf(rng)
        res = leaf_mod.q_extra_casimir_residuals(PARAMS, leaf)
        assert res["qdh2_chain"].normalized < 1e-11
        assert res["qdh1_norm"].normalized > 1e-3


def test_zeta1_in_involution_with_hamiltonians():
    rng = np.random.default_rng(14)
    for _ in range(15):
        c = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        pt = PhasePoint(CHART_UV, c)
        res = leaf_mod.zeta1_involution_residuals(PARAMS, pt)
        for name, r in res.items():
            assert r.normalized < 1e-11, name


def test_phi1_vanishes_everywhere_including_hand_points():
    obs_pts = [
        np.array([1, 1, 0, 1, 1, 0], dtype=complex),
        np.array([0, 0, 1, 0, 0, 1], dtype=complex),  # u = v = 0: no guard on phi1
        np.array([0, 0, 1, 0, 0, 0], dtype=complex),
    ]
    for c in obs_pts:
        r = leaf_mod.phi1_residual(PARAMS, PhasePoint(CHART_UV, c))
        assert r.normalized < 1e-12
    rng = np.random.default_rng(15)
    for _ in range(30):
        c = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        r = leaf_mod.phi1_residual(PARAMS, PhasePoint(CHART_UV, c))
        assert r.normalized < 1e-12


def test_phi2_vanishes_on_nondegenerate_points():
    uv = leaf_mod.embed(HAND_LEAF)
    assert leaf_mod.phi2_residual(PARAMS, uv).normalized < 1e-12
    rng = np.random.default_rng(16)
    count = 0
    while count < 30:
        leaf = random_leaf(rng)
        uv = leaf_mod.embed(leaf)
        assert leaf_mod.phi2_residual(PARAMS, uv).normalized < 1e-9
        count += 1


def test_phi2_printed_sign_fails():
    # with the opposite sign on the Casimir block the relation does not hold
    uv = leaf_mod.embed(HAND_LEAF)
    a = leaf_mod.aux(PARAMS, HAND_LEAF)
    _, _, lam2 = leaf_mod.nijenhuis(PARAMS, HAND_LEAF)
    obs = xxz.uv_observables(PARAMS)
    h0, c2 = HAND_LEAF.levels
    h1 = obs["H1"].value(uv.coords)
    h2 = obs["H2"].value(uv.coords)
    xi2 = leaf_mod.xi2_closed_form(PARAMS, HAND_LEAF)
    p = -2.0 * 9.0 * a.F**2 * a.G**2
    psi = lam2**2 * h0 - 3.0 * a.F * a.G * c2
    assert abs(p * xi2**2 + lam2 * h1 + h2 + psi) < 1e-12
    assert abs(p * xi2**2 + lam2 * h1 + h2 - psi) > 1e-3


def test_separation_chart_degeneracy_guard():
    # u1 = u2 makes G = 0
    c = np.array([1.0, 0.3, 0.2, 1.0, 0.5, -0.1], dtype=complex)
    with pytest.raises(DegeneracyError, match="separation chart degenerate"):
        leaf_mod.guard(PARAMS, c[0], c[3])


def test_separation_residuals_pair():
    uv = leaf_mod.embed(HAND_LEAF)
    r1, r2 = leaf_mod.separation_residuals(PARAMS, uv)
    assert r1.normalized < 1e-12
    assert r2.normalized < 1e-9


def test_leaf_chart_validation():
    with pytest.raises(ValueError, match="dimension mismatch"):
        LeafChart(np.zeros(3, dtype=complex), (0j, 0j))
    coords = np.array([0.0, 1.0, 1.0, 1.0], dtype=complex)
    with pytest.raises(DegeneracyError, match="degenerate point"):
        leaf_mod.guard(PARAMS, coords[0], coords[2])


def test_leaf_stack_with_one_degenerate_column_is_rejected():
    rng = np.random.default_rng(31)
    coords = np.stack([random_leaf(rng).coords for _ in range(5)], axis=-1)
    levels = (np.ones(5, dtype=complex), np.zeros(5, dtype=complex))
    leaf_mod.guard(PARAMS, coords[0], coords[2])
    coords[2, 3] = 0.5 * EPS_DEG  # u2 of column 3
    with pytest.raises(DegeneracyError, match="degenerate point"):
        leaf_mod.guard(PARAMS, coords[0], coords[2])
    with pytest.raises(ValueError, match="dimension mismatch"):
        LeafChart(coords[:, :4], levels)


def _stack(leafs) -> LeafChart:
    """Leaf points as one (4, n) stack with (n,) levels."""
    levels = tuple(np.array([leaf.levels for leaf in leafs]).T)
    return LeafChart(np.stack([leaf.coords for leaf in leafs], axis=-1), levels)


def _columns(stack) -> list:
    """A (4, n) leaf stack as its n points."""
    return [LeafChart(c, (h0, c2)) for c, h0, c2 in zip(stack.coords.T, *stack.levels)]


def _numbers(out) -> list:
    """The numbers a leaf function returns, in order; a Residual stays one item."""
    if isinstance(out, dict):
        out = list(out.values())
    if isinstance(out, Residual):
        return [out]
    if dataclasses.is_dataclass(out):
        out = dataclasses.astuple(out)
    if isinstance(out, (list, tuple)):
        return [x for item in out for x in _numbers(item)]
    return [out]


STACKABLE = {
    "embed": lambda leaf, rho: leaf_mod.embed(leaf).coords,
    "embed_jacobian": lambda leaf, rho: leaf_mod.embed_jacobian(leaf_mod.embed(leaf)),
    "aux": lambda leaf, rho: leaf_mod.aux(PARAMS, leaf),
    "restricted_tensors": lambda leaf, rho: leaf_mod.restricted_tensors(PARAMS, leaf),
    "nijenhuis": lambda leaf, rho: leaf_mod.nijenhuis(PARAMS, leaf),
    "dn_gradients": lambda leaf, rho: leaf_mod.dn_gradients(PARAMS, leaf),
    "dn_bracket_matrix": lambda leaf, rho: leaf_mod.dn_bracket_matrix(PARAMS, leaf),
    "deformation_tower": lambda leaf, rho: leaf_mod.deformation_tower(PARAMS, rho, leaf),
    "restricted_oracle_residuals": lambda leaf, rho: leaf_mod.restricted_oracle_residuals(PARAMS, leaf),
    "nijenhuis_closed_form_residual": lambda leaf, rho: leaf_mod.nijenhuis_closed_form_residual(PARAMS, leaf),
    "nijenhuis_spectrum_residual": lambda leaf, rho: leaf_mod.nijenhuis_spectrum_residual(PARAMS, leaf),
    "deformation_field": lambda leaf, rho: leaf_mod.deformation_field(PARAMS, leaf),
    "lie_y_invariant_residuals": lambda leaf, rho: leaf_mod.lie_y_invariant_residuals(PARAMS, leaf),
    "deformation_residuals": lambda leaf, rho: leaf_mod.deformation_residuals(PARAMS, rho, leaf),
    "xi2_path_agreement": lambda leaf, rho: leaf_mod.xi2_path_agreement(PARAMS, leaf)[::2],
    "dn_bracket_residuals": lambda leaf, rho: leaf_mod.dn_bracket_residuals(PARAMS, leaf),
    "dn_eigenform_residuals": lambda leaf, rho: leaf_mod.dn_eigenform_residuals(PARAMS, leaf),
    "theta_bracket_residual": lambda leaf, rho: leaf_mod.theta_bracket_residual(PARAMS, leaf),
    "generalized_lenard_fit": lambda leaf, rho: leaf_mod.generalized_lenard_fit(PARAMS, leaf),
    "q_extra_casimir_residuals": lambda leaf, rho: leaf_mod.q_extra_casimir_residuals(PARAMS, leaf),
    "phi2_residual": lambda leaf, rho: leaf_mod.phi2_residual(PARAMS, leaf_mod.embed(leaf)),
}


@pytest.mark.parametrize("name", STACKABLE)
def test_stacked_leaf_function_agrees_with_its_columns(name):
    # a (4, n) stack against the 1-D call at each column, number by number,
    # each with the point axis.  Array and scalar complex products round
    # differently, so the bound is roundoff: 1e-13 of 1 + the largest number
    # of the 1-D result, or of 1 + its scale for both parts of a Residual
    # (2.2e-14 observed, on the tower)
    fn = STACKABLE[name]
    rng = np.random.default_rng(30)
    leafs = [random_leaf(rng) for _ in range(12)]
    rhos = rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)
    stacked = _numbers(fn(_stack(leafs), rhos))
    for k, leaf in enumerate(leafs):
        point = _numbers(fn(leaf, rhos[k]))
        assert len(stacked) == len(point)
        for s, p in zip(stacked, point):
            pairs = zip(s, p, (p.scale, p.scale)) if isinstance(p, Residual) else [(s, p, np.abs(p).max())]
            for s_part, p_part, size in pairs:
                assert np.shape(s_part) == np.shape(p_part) + (12,)
                assert np.abs(np.asarray(s_part)[..., k] - p_part).max() <= 1e-13 * (1.0 + size)


@pytest.mark.parametrize("verify_seed, index", [(902951197, 158), (1452449053, 14)])
def test_xi2_paths_agree_where_the_line_fit_was_ill_conditioned(verify_seed, index):
    # leaf samples of `verify --mu 10,1,2 --points 200` where a small Lie_Y^2 H
    # against large node values once read 5.5e-10 and 1.6e-10 > TOL_DN
    params = ModelParams.from_mu(10.0, 1.0, 2.0)
    leafs = _columns(verify.sample_points("LEAF", index + 1, verify_seed + 2, params).stack)
    _, _, agreement = leaf_mod.xi2_path_agreement(params, leafs[index])
    assert agreement.normalized <= verify.TOL_DN
