"""The four workloads: seeded inputs, CLI argument lists and the output gate.

Inputs come from the benchmark's own generator (Python's `random`, keyed by
workload, seed and operation index), never from the package's sampler, so a
change to `verify.sample_points` cannot change what the benchmark feeds in.

An operation is a list of CLI calls run back to back: one call for `verify`
and `integrate`, a `dn` and a `separation` call for `point_queries`.  Each
call's `check` returns a failure reason, or None.  The check fails closed: it
reads the program's outputs and re-derives pass/fail from them instead of
trusting the program's own verdict.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

MU_SYM = (10.0, 1.0, 2.0)
MU_GENERAL = (10.0, 1.0, 2.0, 5.0)
VERIFY_POINTS = 200
# Active (not skipped) checks of the suite for each model.
ACTIVE_SYM = 50
ACTIVE_GENERAL = 11

DT = 1e-3
T_END = 10.0
EVERY = 100
N_STEPS = round(T_END / DT)
CSV_HEADER = "t,m12,m13,m14,m23,m24,m34,H0,C,HE,KE,zeta1"
DRIFT_BOUND = 1e-8

# Tolerance tiers of the suite's dn_canonical_p/dn_brackets_q and
# separation_phi1/separation_phi2 checks.
TOL_DN = 1e-10
TOL_PHI1 = 1e-12
TOL_PHI2 = 1e-9
# The benchmark's own checks of zeta1 = z2 - z1 and
# lambda2 = mu1 - mu2 + mu3 (u1/u2 + u2/u1), relative.
TOL_CLOSED_FORM = 1e-12

# Non-degeneracy margin of the generated leaf and uv points: |u1|, |u2| must
# exceed U_MIN and |G|, |F|, |theta1| must exceed AWAY.  The package's own
# guards are 1e-8 and 1e-6.  With the wider margin the worst DN bracket
# residual over 4000 generated points was 2.7e-13, far below TOL_DN.
U_MIN = 0.1
AWAY = 0.05


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str


def _mu_text(mu) -> str:
    return ",".join(repr(float(x)) for x in mu)


def _floats(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _finite_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _derived_seed(*key) -> int:
    return random.Random(":".join(str(k) for k in key)).randrange(2**31)


def _nondegenerate(u1: complex, u2: complex) -> bool:
    if abs(u1) <= U_MIN or abs(u2) <= U_MIN:
        return False
    _, mu2, mu3 = MU_SYM
    g = u2 / u1 - u1 / u2
    f = mu3 * (u1 / u2 + u2 / u1) - 2.0 * mu2
    theta1 = 0.5 * mu3 * u1**2 - mu2 * u1 * u2 + 0.5 * mu3 * u2**2
    return min(abs(g), abs(f), abs(theta1)) > AWAY


def _complex_draw(rng: random.Random, u_slots) -> list:
    """Six complex coordinates in the unit box whose u-slots pass the guard."""
    while True:
        c = [complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) for _ in range(6)]
        if _nondegenerate(c[u_slots[0]], c[u_slots[1]]):
            return c


# ---------------------------------------------------------------- verify


class VerifyCall:
    """`verify --points 200 --report <path>` with a gate on the JSON report."""

    def __init__(self, mu, seed, report: Path, expected_active: int, points=VERIFY_POINTS, overrides=(), same_as=None):
        self.argv = ["verify", "--mu", _mu_text(mu), "--points", str(points), "--seed", str(seed)]
        for name in overrides:
            self.argv += ["--override", name]
        self.argv += ["--report", str(report)]
        self.report = report
        self.expected_active = expected_active
        self.same_as = same_as
        self.doc = None

    def check(self, out: Outcome):
        from bihamso4.verify import validate_report

        if out.code != 0:
            lines = out.stdout.splitlines()
            failing = [line.split()[0] for line in lines if line.endswith("FAIL") and not line.startswith("overall")]
            return f"exit code {out.code}, failing: {' '.join(failing) or 'none printed'}"
        try:
            raw = self.report.read_bytes()
            doc = json.loads(raw)
            validate_report(doc)
        except (OSError, ValueError, TypeError, KeyError) as exc:
            return f"unreadable report: {exc}"
        self.doc = doc
        if doc["overall"] is not True:
            return "overall is not true"
        active = [c for c in doc["checks"] if not c["skipped"]]
        if len(active) != self.expected_active:
            return f"{len(active)} active checks, expected {self.expected_active}"
        for c in active:
            n, r, tol = c["n_evaluated"], c["max_residual"], c["tolerance"]
            if not (isinstance(n, int) and not isinstance(n, bool) and n > 0):
                return f"{c['name']}: nothing evaluated"
            if not (_finite_number(r) and _finite_number(tol) and r <= tol):
                return f"{c['name']}: residual {r!r} not within tolerance {tol!r}"
        if self.same_as is not None and raw != self.same_as.read_bytes():
            return "same seed gave a different report"
        return None


def verify_ops(mu, expected_active: int, tag: str):
    """Operation factory: op 1 repeats op 0's seed so reports can be compared byte for byte."""

    def make(seed: int, index: int, workdir: Path):
        verify_seed = _derived_seed(tag, seed, 0 if index == 1 else index)
        if index == 0:
            return [VerifyCall(mu, verify_seed, workdir / "report-0.json", expected_active)]
        same_as = workdir / "report-0.json" if index == 1 else None
        return [VerifyCall(mu, verify_seed, workdir / "report.json", expected_active, same_as=same_as)]

    return make


# ---------------------------------------------------------------- integrate


def _pfaffian(m) -> float:
    m12, m13, m14, m23, m24, m34 = m
    return m12 * m34 + m14 * m23 - m13 * m24


def _rel_drift(series) -> float:
    return max(abs(x - series[0]) for x in series) / (1.0 + abs(series[0]))


class IntegrateCall:
    """`integrate ... --out <csv>` with a gate on the CSV and the printed drifts."""

    def __init__(self, m0, out: Path):
        self.argv = [
            "integrate", "--mu", _mu_text(MU_SYM), "--m0", _floats(m0),
            "--dt", repr(DT), "--t-end", repr(T_END), "--every", str(EVERY), "--out", str(out),
        ]
        self.out = out

    def check(self, out: Outcome):
        if out.code != 0:
            return f"exit code {out.code}"
        if "abort" in out.stderr:
            return "integration aborted"
        lines = out.stdout.strip().splitlines()
        prefix = "max relative drift:"
        if not lines or not lines[-1].startswith(prefix):
            return "no drift line"
        try:
            drifts = {k: float(v) for k, v in (part.split("=") for part in lines[-1][len(prefix):].split())}
        except ValueError:
            return "unparsable drift line"
        if len(drifts) != 5 or not all(_finite_number(d) and d < DRIFT_BOUND for d in drifts.values()):
            return f"drift out of bound: {drifts}"
        try:
            with open(self.out, newline="") as fh:
                rows = list(csv.reader(fh))
            header, data = ",".join(rows[0]), [[float(x) for x in row] for row in rows[1:]]
        except (OSError, ValueError, IndexError) as exc:
            return f"unreadable trajectory: {exc}"
        if header != CSV_HEADER or len(data) != N_STEPS // EVERY + 1:
            return f"trajectory has {len(data)} rows, expected {N_STEPS // EVERY + 1}"
        if not all(len(row) == 12 and all(math.isfinite(x) for x in row) for row in data):
            return "non-finite or short trajectory row"
        if abs(data[-1][0] - T_END) > 1e-9:
            return f"trajectory ends at t={data[-1][0]!r}"
        # Casimirs recomputed from the recorded states, independently of the program.
        states = [row[1:7] for row in data]
        for name, series in (("|m|^2", [sum(x * x for x in m) for m in states]), ("Pf", [_pfaffian(m) for m in states])):
            if not _rel_drift(series) < DRIFT_BOUND:
                return f"recomputed {name} drifts by {_rel_drift(series):.3e}"
        return None


def integrate_ops(seed: int, index: int, workdir: Path):
    rng = random.Random(f"integrate:{seed}:{index}")
    v = [rng.uniform(-1.0, 1.0) for _ in range(6)]
    norm = math.sqrt(sum(x * x for x in v))
    return [IntegrateCall([x / norm for x in v], workdir / "trajectory.csv")]


# ---------------------------------------------------------------- point queries


def _pair(doc, key) -> complex:
    re, im = doc[key]
    if not (_finite_number(re) and _finite_number(im)):
        raise ValueError(f"non-finite {key}")
    return complex(re, im)


class DnCall:
    """`dn --json` at one leaf point, gated on the bracket residuals and two closed forms."""

    def __init__(self, coords):
        u1, z1, u2, z2, h0, c2 = coords
        leaf = [u1, z1, u2, z2]
        self.argv = [
            "dn", "--mu", _mu_text(MU_SYM),
            "--leaf", _floats(x for z in leaf for x in (z.real, z.imag)),
            "--h0", _floats((h0.real, h0.imag)), "--c2", _floats((c2.real, c2.imag)), "--json",
        ]
        mu1, mu2, mu3 = MU_SYM
        self.zeta1 = z2 - z1
        self.lambda2 = mu1 - mu2 + mu3 * (u1 / u2 + u2 / u1)

    def check(self, out: Outcome):
        if out.code != 0:
            return f"exit code {out.code}"
        try:
            doc = json.loads(out.stdout)
            zeta1, lambda2 = _pair(doc, "zeta1"), _pair(doc, "lambda2")
            _pair(doc, "xi1"), _pair(doc, "xi2")
            p, q = doc["p_bracket_max_residual"], doc["q_bracket_max_residual"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable dn output: {exc}"
        if not (_finite_number(p) and _finite_number(q) and p <= TOL_DN and q <= TOL_DN):
            return f"DN bracket residuals P={p!r} Q={q!r}"
        if abs(zeta1 - self.zeta1) > TOL_CLOSED_FORM * (1.0 + abs(self.zeta1)):
            return "zeta1 differs from z2 - z1"
        if abs(lambda2 - self.lambda2) > TOL_CLOSED_FORM * (1.0 + abs(self.lambda2)):
            return "lambda2 differs from its closed form"
        return None


class SeparationCall:
    """`separation` at one uv point, gated on both normalized residuals."""

    def __init__(self, coords):
        self.argv = [
            "separation", "--mu", _mu_text(MU_SYM),
            "--uv", _floats(x for z in coords for x in (z.real, z.imag)),
        ]

    def check(self, out: Outcome):
        if out.code != 0:
            return f"exit code {out.code}"
        found = {}
        for line in out.stdout.splitlines():
            name, _, rest = line.partition(":")
            try:
                found[name] = float(dict(part.split("=") for part in rest.split())["normalized"])
            except (KeyError, ValueError):
                return f"unparsable separation line: {line!r}"
        phi1, phi2 = found.get("phi1"), found.get("phi2")
        if not (_finite_number(phi1) and _finite_number(phi2) and phi1 <= TOL_PHI1 and phi2 <= TOL_PHI2):
            return f"separation residuals phi1={phi1!r} phi2={phi2!r}"
        return None


def query_ops(seed: int, index: int, workdir: Path):
    """One `dn` and one `separation` query, each at its own fresh point.

    The two commands differ in cost by a factor of about 2.5; timing them as
    one operation keeps the latency distribution unimodal, so its median does
    not sit in the gap between two modes.
    """
    rng = random.Random(f"queries:{seed}:{index}")
    return [
        DnCall(_complex_draw(rng, (0, 2))),  # (u1, z1, u2, z2, h0, c2)
        SeparationCall(_complex_draw(rng, (0, 3))),  # (u1, v1, z1, u2, v2, z2)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: object
    trace_ops: int  # operations timed in a traced run, fixed so call counts repeat
    # Percentile reported as op_tail_ms.  It is fixed per workload, because
    # the number of operations in a run moves with the machine's speed.
    # point_queries completes about 10000 operations a run and reports p90:
    # its p99 had a run-to-run quartile spread of up to 0.21, driven by short
    # bursts of machine noise.  The other workloads complete 12 to 70
    # operations a run, too few for a tail, and report the median.
    tail_q: int


# The reason for each workload is in README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_sym", verify_ops(MU_SYM, ACTIVE_SYM, "verify_sym"), 2, 50),
        Workload("verify_general", verify_ops(MU_GENERAL, ACTIVE_GENERAL, "verify_general"), 4, 50),
        Workload("integrate", integrate_ops, 2, 50),
        Workload("point_queries", query_ops, 100, 90),
    )
}


def h2_sign_call(workdir: Path, points: int) -> VerifyCall:
    """A verify run with the quartic invariant's sign flipped; the gate must count it as failed."""
    return VerifyCall(MU_SYM, 0, workdir / "report-h2_sign.json", ACTIVE_SYM, points=points, overrides=("h2_sign",))
