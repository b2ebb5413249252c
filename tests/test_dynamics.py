import numpy as np
import pytest

from bihamso4 import dynamics, so4
from bihamso4.so4 import ModelParams
from oracles import rhs, rk4_states

PARAMS = ModelParams.from_mu(10.0, 1.0, 2.0)

# fixed order-check trajectory; drift scales as dt^4 here (see test below)
M0 = np.array([0.7, -0.2, 0.5, -0.3, 0.1, 0.4])


def test_stationary_origin():
    traj = dynamics.integrate(PARAMS, np.zeros(6), dt=1e-3, t_end=0.1)
    assert all(v == 0.0 for v in traj.drift.values())
    assert np.all(traj.states == 0.0)


def test_rhs_matches_library_form():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = rng.uniform(-1, 1, 6)
        a = np.array(rhs(PARAMS.a.tolist(), m.tolist()))
        b = so4.rigid_rhs(PARAMS, m)
        assert np.max(np.abs(a - b)) < 1e-14


def test_invariant_drift_small():
    rng = np.random.default_rng(2)
    m0 = rng.uniform(-1, 1, 6)
    traj = dynamics.integrate(PARAMS, m0, dt=1e-3, t_end=10.0, record_every=100)
    for name, value in traj.drift.items():
        assert value < 1e-8, name
    assert not traj.aborted


def test_zeta1_conserved_under_symmetric_flow():
    traj = dynamics.integrate(PARAMS, M0, dt=1e-3, t_end=5.0, record_every=50)
    assert traj.drift["zeta1"] < 1e-12
    # zeta1 is sqrt(2) * m23, so m23 itself stays fixed
    assert np.max(np.abs(traj.states[:, 3] - M0[3])) < 1e-12


def test_symmetric_models_keep_m23_bit_for_bit():
    # mu3 == mu4 gives a12 == a13 and a24 == a34 exactly, so both weights of dm23 are exact zeros
    rng = np.random.default_rng(5)
    for _ in range(200):
        mu1, mu2 = rng.uniform(-3.0, 3.0, 2)
        params = ModelParams.from_mu(mu1, mu2, rng.uniform(0.1, 3.0))
        a12, a13, _, _, a24, a34 = params.a.tolist()
        assert a12 == a13 and a24 == a34
        m0 = rng.uniform(-1.0, 1.0, 6)
        traj = dynamics.integrate(params, m0, dt=1e-2, t_end=20.0, record_every=1)
        assert not traj.aborted and traj.n_steps == 2000
        assert traj.states[:, 3].tobytes() == np.full(2001, m0[3]).tobytes()
        zeta1 = traj.invariants["zeta1"]
        assert zeta1.tobytes() == np.full(2001, zeta1[0]).tobytes()


@pytest.mark.parametrize("dt, t_end", [(1e-2, 1.0), (1e3, 5e4)])
def test_invariants_match_per_state_evaluation(dt, t_end):
    # recorded in one call per observable on the stack of states, the second run up to its abort
    obs = so4.observables_m(PARAMS)
    traj = dynamics.integrate(PARAMS, M0, dt=dt, t_end=t_end, record_every=1)
    rows = np.array(
        [[obs[name].value(m) for name in ("H0", "C", "HE", "KE")] + [np.sqrt(2.0) * m[3]] for m in traj.states]
    )
    for i, name in enumerate(dynamics.INVARIANT_NAMES):
        assert traj.invariants[name].tobytes() == rows[:, i].tobytes(), name


def test_order_four_convergence():
    a = dynamics.integrate(PARAMS, M0, dt=1e-3, t_end=10.0, record_every=100)
    b = dynamics.integrate(PARAMS, M0, dt=5e-4, t_end=10.0, record_every=200)
    ratio = a.drift["HE"] / b.drift["HE"]
    assert 11.0 <= ratio <= 22.0, ratio


def test_time_reversal():
    fwd = dynamics.integrate(PARAMS, M0, dt=1e-3, t_end=5.0, record_every=100)
    back = dynamics.integrate(
        PARAMS, fwd.states[-1], dt=1e-3, t_end=5.0, record_every=100, direction=-1
    )
    tol = 10.0 * max(1e-8, max(fwd.drift.values()))
    assert np.max(np.abs(back.states[-1] - M0)) < tol
    assert np.all(np.diff(back.times) > 0)


def test_recording_grid():
    traj = dynamics.integrate(PARAMS, M0, dt=1e-2, t_end=1.0, record_every=10)
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 1.0) < 1e-12
    assert len(traj.times) == 11
    for name in dynamics.INVARIANT_NAMES:
        assert len(traj.invariants[name]) == len(traj.times)


def test_parameter_validation():
    with pytest.raises(ValueError):
        dynamics.integrate(PARAMS, M0, dt=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        dynamics.integrate(PARAMS, M0, dt=1e-3, t_end=-1.0)
    with pytest.raises(ValueError):
        dynamics.integrate(PARAMS, M0, dt=1e-3, t_end=1.0, record_every=0)
    with pytest.raises(ValueError):
        dynamics.integrate(PARAMS, np.zeros(5), dt=1e-3, t_end=1.0)


def test_integrate_has_no_flow_selector():
    # integrate only ever ran the HE flow; a flow name is refused, not ignored
    with pytest.raises(TypeError):
        dynamics.integrate(PARAMS, M0, dt=1e-2, t_end=0.1, which="H1")


def test_nonfinite_abort():
    # a huge step on the quadratic flow overflows fast; the run flags it
    traj = dynamics.integrate(PARAMS, M0, dt=1e3, t_end=5e4, record_every=1)
    assert traj.aborted
    assert np.all(np.isfinite(traj.states))
    # the state after step abort_step is the first non-finite one
    assert traj.abort_step == traj.n_steps + 1 == len(traj.states)
    assert traj.abort_time == traj.abort_step * 1e3
    assert traj.times[-1] == traj.n_steps * 1e3


def test_throughput_fields():
    traj = dynamics.integrate(PARAMS, M0, dt=1e-2, t_end=1.0, record_every=10)
    assert not traj.aborted
    assert traj.n_steps == 100
    assert traj.abort_step is None and traj.abort_time is None
    assert traj.wall_s > 0.0
    assert traj.steps_per_s == pytest.approx(traj.n_steps / traj.wall_s)


def _numpy_rk4(rhs, m0, dt, n_steps, record_every, direction):
    # plain vectorised RK4 over a given right-hand side
    h = direction * dt
    m = np.asarray(m0, dtype=float)
    states = [m]
    for k in range(1, n_steps + 1):
        k1 = rhs(m)
        k2 = rhs(m + 0.5 * h * k1)
        k3 = rhs(m + 0.5 * h * k2)
        k4 = rhs(m + h * k3)
        m = m + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % record_every == 0:
            states.append(m)
    return np.array(states)


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("mu", [(10.0, 1.0, 2.0), (10.0, 1.0, 2.0, 5.0)])
def test_integrate_matches_numpy_rk4_over_rigid_rhs(mu, direction):
    params = ModelParams.from_mu(*mu)
    traj = dynamics.integrate(params, M0, dt=1e-3, t_end=2.0, record_every=250, direction=direction)
    expected = _numpy_rk4(lambda m: so4.rigid_rhs(params, m), M0, 1e-3, 2000, 250, direction)
    assert traj.states.shape == expected.shape
    assert np.max(np.abs(traj.states - expected)) < 1e-12


@pytest.mark.parametrize("direction", [1, -1])
def test_float_stages_round_like_array_stages(direction):
    # same right-hand side, array stage arithmetic: states must agree bit for bit
    a = PARAMS.a

    traj = dynamics.integrate(PARAMS, M0, dt=1e-2, t_end=2.0, record_every=20, direction=direction)
    expected = _numpy_rk4(lambda m: np.array(rhs(a, m)), M0, 1e-2, 200, 20, direction)
    assert np.array_equal(traj.states, expected)


# exact zeros of both signs; on 1,2,3 (a has negative entries) the last two
# end with a different sign of zero if k1 is taken at m + 0.0*k
SIGNED_ZEROS = [
    np.array([0.7, -0.0, 0.0, -0.3, -0.0, 0.4]),
    -np.zeros(6),
    np.array([-0.0, -0.0, 0.0, 0.0, -0.0, 0.5]),
    np.array([-0.0, -0.0, 0.0, -0.0, -0.0, -0.3]),
]


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("m0", [M0, *SIGNED_ZEROS])
@pytest.mark.parametrize("mu", [(10.0, 1.0, 2.0), (10.0, 1.0, 2.0, 5.0), (1.0, 2.0, 3.0)])
def test_step_matches_per_stage_stepper_byte_for_byte(mu, m0, direction):
    # tobytes, so a -0.0 where the per-stage loop has 0.0 counts as a difference
    params = ModelParams.from_mu(*mu)
    traj = dynamics.integrate(params, m0, dt=1e-2, t_end=1.0, record_every=7, direction=direction)
    expected, abort_step = rk4_states(params, m0, 1e-2, 100, 7, direction)
    assert abort_step is None and not traj.aborted
    assert traj.states.tobytes() == expected.tobytes()


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("mu", [(10.0, 1.0, 2.0), (10.0, 1.0, 2.0, 5.0), (1.0, 2.0, 3.0)])
def test_abort_matches_per_stage_stepper(mu, direction):
    params = ModelParams.from_mu(*mu)
    traj = dynamics.integrate(params, M0, dt=1e3, t_end=5e4, record_every=1, direction=direction)
    expected, abort_step = rk4_states(params, M0, 1e3, 50, 1, direction)
    assert traj.aborted and traj.abort_step == abort_step
    assert traj.states.tobytes() == expected.tobytes()


def test_finite_state_whose_sum_overflows_runs_on():
    # stationary under a ~ 0.08: every component finite, their sum inf
    params = ModelParams.from_mu(0.01, 0.02, 0.03)
    m0 = np.array([1.5e308, 0.0, 0.0, 0.0, 0.0, 1.5e308])
    assert sum(m0.tolist()) == np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        traj = dynamics.integrate(params, m0, dt=1e-3, t_end=1e-2, record_every=1)
    assert not traj.aborted and traj.abort_step is None
    assert traj.n_steps == 10 and len(traj.states) == 11
    assert traj.states.tobytes() == np.tile(m0, (11, 1)).tobytes()
