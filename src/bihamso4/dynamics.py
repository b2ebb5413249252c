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

    # One straight-line RK4 step over float locals, rounded as element-wise array
    # arithmetic rounds it (x = m + c*k for c = h/2, h/2, h; g = a*x; the four-term
    # sums of P1(x) g; m + (h/6)*(s + k4) with s = (k1 + 2k2) + 2k3), so states match a
    # vectorised RK4 bit for bit.  k1 is taken at m: m + 0.0*k turns -0.0 into 0.0.
    # Overflow yields inf/nan; any inf or nan makes the six-term sum non-finite,
    # and only then does the per-component test run.
    start = time.perf_counter()
    a12, a13, a14, a23, a24, a34 = params.a.tolist()
    m12, m13, m14, m23, m24, m34 = m.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            g12, g13, g14 = a12 * m12, a13 * m13, a14 * m14
            g23, g24, g34 = a23 * m23, a24 * m24, a34 * m34
            s12 = -m23 * g13 - m24 * g14 + m13 * g23 + m14 * g24
            s13 = m23 * g12 - m34 * g14 - m12 * g23 + m14 * g34
            s14 = m24 * g12 + m34 * g13 - m12 * g24 - m13 * g34
            s23 = -m13 * g12 + m12 * g13 - m34 * g24 + m24 * g34
            s24 = -m14 * g12 + m12 * g14 + m34 * g23 - m23 * g34
            s34 = -m14 * g13 + m13 * g14 - m24 * g23 + m23 * g24
            x12, x13, x14 = m12 + half_h * s12, m13 + half_h * s13, m14 + half_h * s14
            x23, x24, x34 = m23 + half_h * s23, m24 + half_h * s24, m34 + half_h * s34
            g12, g13, g14 = a12 * x12, a13 * x13, a14 * x14
            g23, g24, g34 = a23 * x23, a24 * x24, a34 * x34
            k12 = -x23 * g13 - x24 * g14 + x13 * g23 + x14 * g24
            k13 = x23 * g12 - x34 * g14 - x12 * g23 + x14 * g34
            k14 = x24 * g12 + x34 * g13 - x12 * g24 - x13 * g34
            k23 = -x13 * g12 + x12 * g13 - x34 * g24 + x24 * g34
            k24 = -x14 * g12 + x12 * g14 + x34 * g23 - x23 * g34
            k34 = -x14 * g13 + x13 * g14 - x24 * g23 + x23 * g24
            s12, s13, s14 = s12 + 2.0 * k12, s13 + 2.0 * k13, s14 + 2.0 * k14
            s23, s24, s34 = s23 + 2.0 * k23, s24 + 2.0 * k24, s34 + 2.0 * k34
            x12, x13, x14 = m12 + half_h * k12, m13 + half_h * k13, m14 + half_h * k14
            x23, x24, x34 = m23 + half_h * k23, m24 + half_h * k24, m34 + half_h * k34
            g12, g13, g14 = a12 * x12, a13 * x13, a14 * x14
            g23, g24, g34 = a23 * x23, a24 * x24, a34 * x34
            k12 = -x23 * g13 - x24 * g14 + x13 * g23 + x14 * g24
            k13 = x23 * g12 - x34 * g14 - x12 * g23 + x14 * g34
            k14 = x24 * g12 + x34 * g13 - x12 * g24 - x13 * g34
            k23 = -x13 * g12 + x12 * g13 - x34 * g24 + x24 * g34
            k24 = -x14 * g12 + x12 * g14 + x34 * g23 - x23 * g34
            k34 = -x14 * g13 + x13 * g14 - x24 * g23 + x23 * g24
            s12, s13, s14 = s12 + 2.0 * k12, s13 + 2.0 * k13, s14 + 2.0 * k14
            s23, s24, s34 = s23 + 2.0 * k23, s24 + 2.0 * k24, s34 + 2.0 * k34
            x12, x13, x14 = m12 + h * k12, m13 + h * k13, m14 + h * k14
            x23, x24, x34 = m23 + h * k23, m24 + h * k24, m34 + h * k34
            g12, g13, g14 = a12 * x12, a13 * x13, a14 * x14
            g23, g24, g34 = a23 * x23, a24 * x24, a34 * x34
            k12 = -x23 * g13 - x24 * g14 + x13 * g23 + x14 * g24
            k13 = x23 * g12 - x34 * g14 - x12 * g23 + x14 * g34
            k14 = x24 * g12 + x34 * g13 - x12 * g24 - x13 * g34
            k23 = -x13 * g12 + x12 * g13 - x34 * g24 + x24 * g34
            k24 = -x14 * g12 + x12 * g14 + x34 * g23 - x23 * g34
            k34 = -x14 * g13 + x13 * g14 - x24 * g23 + x23 * g24
            m12, m13, m14 = m12 + sixth_h * (s12 + k12), m13 + sixth_h * (s13 + k13), m14 + sixth_h * (s14 + k14)
            m23, m24, m34 = m23 + sixth_h * (s23 + k23), m24 + sixth_h * (s24 + k24), m34 + sixth_h * (s34 + k34)
            if not isfinite(m12 + m13 + m14 + m23 + m24 + m34) and not all(map(isfinite, (m12, m13, m14, m23, m24, m34))):
                abort_step = k
                break
            done = k
            if k % record_every == 0 or k == n_steps:
                # Elapsed time; strictly increasing for either direction.
                times.append(k * dt)
                states.append(np.array((m12, m13, m14, m23, m24, m34)))
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

