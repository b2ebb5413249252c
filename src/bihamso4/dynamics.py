"""Fixed-step RK4 integration of the rigid-body flow with invariant monitoring.

The recorded invariants are H0, C, HE, KE and zeta1 = sqrt(2) m23 (the
separation coordinate z2 - z1 expressed directly in m coordinates).
Drift is the max over samples of |I(t) - I(0)| / (1 + |I(0)|).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import isfinite

import numpy as np

from .fields import CHART_M, PhasePoint
from .so4 import ModelParams, observables_m

_SQ2 = np.sqrt(2.0)

INVARIANT_NAMES = ("H0", "C", "HE", "KE", "zeta1")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray
    invariants: dict
    drift: dict
    aborted: bool
    n_steps: int  # RK4 steps that ended on a finite state
    wall_s: float  # wall time of the stepping loop, recording included
    steps_per_s: float
    abort_step: int | None = None  # first step whose state is non-finite
    abort_time: float | None = None  # elapsed time at abort_step


def _rhs(a, m) -> tuple:
    # Unrolled P1(m) @ (a*m) over Python floats; so4.rigid_rhs is the matrix form.
    m12, m13, m14, m23, m24, m34 = m
    a12, a13, a14, a23, a24, a34 = a
    g12 = a12 * m12
    g13 = a13 * m13
    g14 = a14 * m14
    g23 = a23 * m23
    g24 = a24 * m24
    g34 = a34 * m34
    return (
        -m23 * g13 - m24 * g14 + m13 * g23 + m14 * g24,
        m23 * g12 - m34 * g14 - m12 * g23 + m14 * g34,
        m24 * g12 + m34 * g13 - m12 * g24 - m13 * g34,
        -m13 * g12 + m12 * g13 - m34 * g24 + m24 * g34,
        -m14 * g12 + m12 * g14 + m34 * g23 - m23 * g34,
        -m14 * g13 + m13 * g14 - m24 * g23 + m23 * g24,
    )


def _axpy(m, c: float, k) -> tuple:
    # m + c*k component-wise.
    m1, m2, m3, m4, m5, m6 = m
    k1, k2, k3, k4, k5, k6 = k
    return (m1 + c * k1, m2 + c * k2, m3 + c * k3, m4 + c * k4, m5 + c * k5, m6 + c * k6)


def _rk4_sum(k1, k2, k3, k4) -> tuple:
    # ((k1 + 2 k2) + 2 k3) + k4 component-wise, summed left to right.
    a1, a2, a3, a4, a5, a6 = k1
    b1, b2, b3, b4, b5, b6 = k2
    c1, c2, c3, c4, c5, c6 = k3
    d1, d2, d3, d4, d5, d6 = k4
    return (
        ((a1 + 2.0 * b1) + 2.0 * c1) + d1,
        ((a2 + 2.0 * b2) + 2.0 * c2) + d2,
        ((a3 + 2.0 * b3) + 2.0 * c3) + d3,
        ((a4 + 2.0 * b4) + 2.0 * c4) + d4,
        ((a5 + 2.0 * b5) + 2.0 * c5) + d5,
        ((a6 + 2.0 * b6) + 2.0 * c6) + d6,
    )


def euler_rhs(params: ModelParams, pt: PhasePoint) -> np.ndarray:
    """Right-hand side P1 d(HE) of the flow of HE at a real M point."""
    if pt.chart != CHART_M:
        raise ValueError("chart mismatch")
    return np.array(_rhs(params.a.tolist(), np.asarray(pt.coords, dtype=float).tolist()))


def _invariant_row(params: ModelParams, obs: dict, m: np.ndarray) -> np.ndarray:
    return np.array(
        [
            obs["H0"].value(m),
            obs["C"].value(m),
            obs["HE"].value(m),
            obs["KE"].value(m),
            _SQ2 * m[3],
        ]
    )


def integrate(
    params: ModelParams,
    m0,
    dt: float = 1e-3,
    t_end: float = 10.0,
    record_every: int = 100,
    direction: int = 1,
) -> Trajectory:
    """Integrate the energy flow dm/dt = P1 d(HE) with classical fixed-step RK4.

    direction = -1 runs the same step arithmetic with step -dt (time reversal).
    """
    if not (dt > 0.0):
        raise ValueError("dt must be positive")
    if not (t_end > 0.0):
        raise ValueError("t_end must be positive")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    if direction not in (1, -1):
        raise ValueError("direction must be +1 or -1")
    m = np.asarray(m0, dtype=float)
    if m.shape != (6,):
        raise ValueError("dimension mismatch")

    a = params.a.tolist()
    obs = observables_m(params)
    h = direction * dt
    half_h = 0.5 * h
    sixth_h = h / 6.0
    n_steps = int(round(t_end / dt))

    times = [0.0]
    states = [m.copy()]
    rows = [_invariant_row(params, obs, m)]
    abort_step = None
    done = 0

    # The stages m + (0.5*h)*k1, ..., m + (h/6)*(((k1 + 2k2) + 2k3) + k4) run
    # on six Python floats in the order element-wise array arithmetic rounds
    # them, so the states match a vectorised RK4 bit for bit.  Float overflow
    # yields inf/nan rather than raising, which the isfinite abort catches.
    start = time.perf_counter()
    m = tuple(m.tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            k1 = _rhs(a, m)
            k2 = _rhs(a, _axpy(m, half_h, k1))
            k3 = _rhs(a, _axpy(m, half_h, k2))
            k4 = _rhs(a, _axpy(m, h, k3))
            m = _axpy(m, sixth_h, _rk4_sum(k1, k2, k3, k4))
            if not all(map(isfinite, m)):
                abort_step = k
                break
            done = k
            if k % record_every == 0 or k == n_steps:
                # Elapsed time; strictly increasing for either direction.
                times.append(k * dt)
                states.append(np.array(m))
                rows.append(_invariant_row(params, obs, states[-1]))
    wall_s = time.perf_counter() - start

    times = np.asarray(times)
    states = np.asarray(states)
    table = np.asarray(rows)
    invariants = {name: table[:, i] for i, name in enumerate(INVARIANT_NAMES)}
    drift = {
        name: float(np.abs(series - series[0]).max() / (1.0 + abs(series[0])))
        for name, series in invariants.items()
    }
    return Trajectory(
        times=times,
        states=states,
        invariants=invariants,
        drift=drift,
        aborted=abort_step is not None,
        n_steps=done,
        wall_s=wall_s,
        steps_per_s=done / wall_s if wall_s > 0.0 else 0.0,
        abort_step=abort_step,
        abort_time=None if abort_step is None else abort_step * dt,
    )

