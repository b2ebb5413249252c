import numpy as np
import pytest

from bihamso4 import dynamics, so4
from bihamso4.fields import CHART_M, CHART_UV, PhasePoint
from bihamso4.so4 import ModelParams

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
        a = np.array(dynamics._rhs(PARAMS.a.tolist(), m.tolist()))
        b = so4.rigid_rhs(PARAMS, m)
        assert np.max(np.abs(a - b)) < 1e-14


def test_euler_rhs_chart_guard():
    rng = np.random.default_rng(1)
    pt = PhasePoint(CHART_M, rng.uniform(-1, 1, 6))
    assert np.max(np.abs(dynamics.euler_rhs(PARAMS, pt) - so4.rigid_rhs(PARAMS, pt.coords))) < 1e-14
    with pytest.raises(ValueError, match="chart mismatch"):
        dynamics.euler_rhs(PARAMS, PhasePoint(CHART_UV, pt.coords.astype(complex)))


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

    def rhs(m):
        return np.array(dynamics._rhs(a, m))

    traj = dynamics.integrate(PARAMS, M0, dt=1e-2, t_end=2.0, record_every=20, direction=direction)
    expected = _numpy_rk4(rhs, M0, 1e-2, 200, 20, direction)
    assert np.array_equal(traj.states, expected)
