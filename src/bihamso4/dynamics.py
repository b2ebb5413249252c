"""Fixed-step RK4 integration of the rigid-body flow with invariant monitoring.

Each stage takes dm/dt = P1(m)(a*m) in Euler-Manakov form, two products of
m-pairs per component with weights that are differences of the a_ij:

    dm12 = (a23 - a13) m13 m23 + (a24 - a14) m14 m24    dm23 = (a13 - a12) m12 m13 + (a34 - a24) m24 m34
    dm13 = (a12 - a23) m12 m23 + (a34 - a14) m14 m34    dm24 = (a14 - a12) m12 m14 + (a23 - a34) m23 m34
    dm14 = (a12 - a24) m12 m24 + (a13 - a34) m13 m34    dm34 = (a14 - a13) m13 m14 + (a24 - a23) m23 m24

The states match a per-stage RK4 over this same form bit for bit, and RK4 over
the matrix form so4.rigid_rhs to within 1e-12.

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
    states = [tuple(m.tolist())]
    abort_step = None
    done = 0

    # One straight-line RK4 step over float locals.  Each stage evaluates the form above with
    # the 12 weights fixed once per call, each component rounded as (b*x)*y + (c*u)*v; the
    # stages and the update round as element-wise array arithmetic does (x = m + c*k for
    # c = h/2, h/2, h; m + (h/6)*(s + k4) with s = (k1 + 2k2) + 2k3).  k1 is taken at m:
    # m + 0.0*k turns -0.0 into 0.0.  Overflow yields inf/nan; any inf or nan makes the
    # six-term sum non-finite, and only then does the per-component test run.
    start = time.perf_counter()
    a12, a13, a14, a23, a24, a34 = params.a.tolist()
    b12, c12, b13, c13 = a23 - a13, a24 - a14, a12 - a23, a34 - a14
    b14, c14, b23, c23 = a12 - a24, a13 - a34, a13 - a12, a34 - a24
    b24, c24, b34, c34 = a14 - a12, a23 - a34, a14 - a13, a24 - a23
    m12, m13, m14, m23, m24, m34 = states[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            s12 = b12 * m13 * m23 + c12 * m14 * m24
            s13 = b13 * m12 * m23 + c13 * m14 * m34
            s14 = b14 * m12 * m24 + c14 * m13 * m34
            s23 = b23 * m12 * m13 + c23 * m24 * m34
            s24 = b24 * m12 * m14 + c24 * m23 * m34
            s34 = b34 * m13 * m14 + c34 * m23 * m24
            x12, x13, x14 = m12 + half_h * s12, m13 + half_h * s13, m14 + half_h * s14
            x23, x24, x34 = m23 + half_h * s23, m24 + half_h * s24, m34 + half_h * s34
            k12 = b12 * x13 * x23 + c12 * x14 * x24
            k13 = b13 * x12 * x23 + c13 * x14 * x34
            k14 = b14 * x12 * x24 + c14 * x13 * x34
            k23 = b23 * x12 * x13 + c23 * x24 * x34
            k24 = b24 * x12 * x14 + c24 * x23 * x34
            k34 = b34 * x13 * x14 + c34 * x23 * x24
            s12, s13, s14 = s12 + 2.0 * k12, s13 + 2.0 * k13, s14 + 2.0 * k14
            s23, s24, s34 = s23 + 2.0 * k23, s24 + 2.0 * k24, s34 + 2.0 * k34
            x12, x13, x14 = m12 + half_h * k12, m13 + half_h * k13, m14 + half_h * k14
            x23, x24, x34 = m23 + half_h * k23, m24 + half_h * k24, m34 + half_h * k34
            k12 = b12 * x13 * x23 + c12 * x14 * x24
            k13 = b13 * x12 * x23 + c13 * x14 * x34
            k14 = b14 * x12 * x24 + c14 * x13 * x34
            k23 = b23 * x12 * x13 + c23 * x24 * x34
            k24 = b24 * x12 * x14 + c24 * x23 * x34
            k34 = b34 * x13 * x14 + c34 * x23 * x24
            s12, s13, s14 = s12 + 2.0 * k12, s13 + 2.0 * k13, s14 + 2.0 * k14
            s23, s24, s34 = s23 + 2.0 * k23, s24 + 2.0 * k24, s34 + 2.0 * k34
            x12, x13, x14 = m12 + h * k12, m13 + h * k13, m14 + h * k14
            x23, x24, x34 = m23 + h * k23, m24 + h * k24, m34 + h * k34
            k12 = b12 * x13 * x23 + c12 * x14 * x24
            k13 = b13 * x12 * x23 + c13 * x14 * x34
            k14 = b14 * x12 * x24 + c14 * x13 * x34
            k23 = b23 * x12 * x13 + c23 * x24 * x34
            k24 = b24 * x12 * x14 + c24 * x23 * x34
            k34 = b34 * x13 * x14 + c34 * x23 * x24
            m12, m13, m14 = m12 + sixth_h * (s12 + k12), m13 + sixth_h * (s13 + k13), m14 + sixth_h * (s14 + k14)
            m23, m24, m34 = m23 + sixth_h * (s23 + k23), m24 + sixth_h * (s24 + k24), m34 + sixth_h * (s34 + k34)
            if not isfinite(m12 + m13 + m14 + m23 + m24 + m34) and not all(map(isfinite, (m12, m13, m14, m23, m24, m34))):
                abort_step = k
                break
            done = k
            if k % record_every == 0 or k == n_steps:
                # Elapsed time; strictly increasing for either direction.
                times.append(k * dt)
                states.append((m12, m13, m14, m23, m24, m34))
    # The observables are element-wise, so one call on the (6, n) stack of recorded
    # states gives each value as a call per state would.
    states = np.array(states)
    invariants = {name: obs[name].value(states.T) for name in INVARIANT_NAMES[:4]}
    invariants["zeta1"] = _SQ2 * states[:, 3]
    wall_s = time.perf_counter() - start

    times = np.asarray(times)
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

