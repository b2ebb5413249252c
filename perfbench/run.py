"""Benchmark of the bihamso4 command line tool.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_sym --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

One in-process client drives `bihamso4.cli.main` in a closed loop: the next
CLI invocation starts when the previous one has returned.  Every invocation's
output goes through the fail-closed gate in `workloads.py`.  With `--trace 0`
the run reports the end-to-end metrics (tracing off; operation latencies are
scaled to a reference machine speed, see `SpeedProbe`); with `--trace 1` it
runs a fixed number of operations once untraced and once traced and reports
the per-layer metrics.  The last line of standard output is one JSON object with
the keys `correct`, `attempted`, `failed` and `metrics`.

The package is imported from `src/` of the checkout and nowhere else; without
it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Fix the BLAS pools of this process (and of the set-up children, which
# inherit the environment) before numpy is imported anywhere.  The package
# works on 4x4 and 6x6 arrays, where extra BLAS threads only add noise.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import numpy  # noqa: E402
import workloads  # noqa: E402

# Never used while developing a change: run it once to confirm a claim.
HELD_OUT_SEED = 20061108
SETUP_REPEATS = 7
MIN_OPS = 3
# Median time of `reference_kernel` on the machine the baseline was taken on
# (2 cores, Python 3.11, numpy 2.4) in its usual state.  Timings are scaled
# by REFERENCE_KERNEL_S / (this run's median kernel time).
REFERENCE_KERNEL_S = 4.5e-3
KERNEL_EVERY_S = 0.2


def fail(message: str, code: int = 2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def import_package():
    """Import bihamso4.cli from this checkout's src/, refusing any other copy."""
    if not (SRC / "bihamso4" / "cli.py").is_file():
        fail(f"no package source at {SRC / 'bihamso4'}")
    sys.path.insert(0, str(SRC))
    import bihamso4.cli

    if Path(bihamso4.cli.__file__).resolve().parent != (SRC / "bihamso4").resolve():
        fail(f"bihamso4 imported from {bihamso4.cli.__file__}, not from {SRC}")
    return bihamso4.cli


class Client:
    """Calls the CLI in this process, from argv to exit code, capturing its output.

    The two capture buffers are reused for every call: click caches a wrapper
    per output stream object, so a fresh buffer per call would grow that cache
    (and the process) with the number of calls.
    """

    def __init__(self, main):
        self.main = main
        self.out = io.StringIO()
        self.err = io.StringIO()

    def call(self, argv) -> workloads.Outcome:
        for buf in (self.out, self.err):
            buf.seek(0)
            buf.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            try:
                self.main.main(args=argv, prog_name="bihamso4")
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a benchmark error
                traceback.print_exc(file=self.err)
                code = -1
        return workloads.Outcome(code, self.out.getvalue(), self.err.getvalue())

    def timed(self, op):
        """Run one operation (its CLI calls in order); return its wall time and outcomes."""
        start = time.perf_counter()
        outcomes = [self.call(call.argv) for call in op]
        return time.perf_counter() - start, outcomes


def _kernel_field(v):
    a, b, c, d, e, f = v
    return numpy.array([b * c - e * f, c * d - f * a, d * e - a * b, e * f - b * c, f * a - c * d, a * b - d * e])


def reference_kernel() -> float:
    """Wall time of a fixed job that does not touch the package.

    Its mix is that of the package: Python arithmetic on unpacked floats,
    small numpy arrays, one small decomposition and one dict store per step.
    """
    start = time.perf_counter()
    v = numpy.array([0.3, -0.2, 0.5, 0.1, -0.4, 0.2])
    eye = numpy.eye(6)
    h = 1e-2
    largest = {}
    for k in range(60):
        k1 = _kernel_field(v)
        k2 = _kernel_field(v + 0.5 * h * k1)
        k3 = _kernel_field(v + 0.5 * h * k2)
        k4 = _kernel_field(v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        largest[k] = float(numpy.max(numpy.abs(numpy.linalg.svd(numpy.outer(v, v) + eye, compute_uv=False))))
    return time.perf_counter() - start


class SpeedProbe:
    """Samples `reference_kernel` between operations, at most every KERNEL_EVERY_S.

    The machine's speed drifts by tens of percent over minutes.  The kernel
    drifts with it, so wall times scaled by its median in the same run
    compare across runs; the package cannot change the kernel's work.
    """

    def __init__(self):
        self.samples = []
        self._last = -math.inf

    def sample(self) -> None:
        if time.perf_counter() - self._last >= KERNEL_EVERY_S:
            self.samples.append(reference_kernel())
            self._last = time.perf_counter()

    def scale(self) -> float:
        return REFERENCE_KERNEL_S / statistics.median(self.samples)


def setup_seconds() -> list:
    """Wall time of fresh interpreters importing bihamso4.cli (one untimed warm-up)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import bihamso4.cli"]
    samples = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            fail(f"fresh import failed: {proc.stderr.strip()}")
        if i:
            samples.append(elapsed)
    return samples


def tail(samples, q: int) -> float:
    """Latency at percentile q (nearest rank); the median when q is 50."""
    if q == 50:
        return statistics.median(samples)
    ordered = sorted(samples)
    return ordered[-(-q * len(ordered) // 100) - 1]


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "bihamso4").glob("*.py")))


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_lines": source_lines(),
        "client": "one in-process client, closed loop",
        "held_out_seed": HELD_OUT_SEED,
    }


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def gate(self, op, outcomes) -> None:
        """Count one operation as attempted, and as failed if any of its calls fails."""
        self.attempted += 1
        for call, outcome in zip(op, outcomes):
            reason = call.check(outcome)
            if reason is not None:
                self.failed += 1
                if len(self.reasons) < 5:
                    self.reasons.append(f"{call.argv[0]}: {reason}")
                return


def gate_self_test(client, workdir: Path, points: int) -> list:
    """Feed bad verify outcomes through the gate; each must be counted as failed.

    - a run with the `h2_sign` mutation, as the CLI reports it;
    - the same report with the exit code taken as 0, so that only the report
      itself can reject it;
    - a passing report edited so that one residual is NaN while `pass` and
      `overall` stay true;
    - the same passing report with one active check removed.
    """
    ok = workloads.Outcome(0, "", "")
    mutated = workloads.h2_sign_call(workdir, points)
    outcome = client.call(mutated.argv)
    good = workloads.VerifyCall(workloads.MU_SYM, 0, workdir / "report-good.json", workloads.ACTIVE_SYM, points=points)
    if good.check(client.call(good.argv)) is not None:
        fail("the unmutated verify run used by the gate self-test failed", 3)
    doc = json.loads(good.report.read_text())
    active = [c for c in doc["checks"] if not c["skipped"]]

    def edited(change):
        bad = json.loads(json.dumps(doc))
        change(bad)
        good.report.write_text(json.dumps(bad))
        return good.check(ok)

    def nan_residual(bad):
        row = next(c for c in bad["checks"] if c["name"] == active[0]["name"])
        row["max_residual"] = float("nan")

    def drop_check(bad):
        bad["checks"] = [c for c in bad["checks"] if c["name"] != active[0]["name"]]

    reasons = {
        "h2_sign": mutated.check(outcome),
        "h2_sign report": mutated.check(ok),
        "NaN residual": edited(nan_residual),
        "dropped check": edited(drop_check),
    }
    for case, reason in reasons.items():
        if reason is None:
            fail(f"correctness gate accepted a bad verify outcome: {case}", 3)
    return [f"{case}: {reason}" for case, reason in reasons.items()]


def measure(client, workload, seed: int, seconds: float, workdir: Path, tally: Tally, record: dict) -> dict:
    setup = setup_seconds()
    probe = SpeedProbe()
    warm = workload.make_op(seed, 0, workdir)
    tally.gate(warm, client.timed(warm)[1])

    latencies = []
    deadline = time.perf_counter() + seconds
    index = 1
    while time.perf_counter() < deadline or len(latencies) < MIN_OPS:
        probe.sample()
        op = workload.make_op(seed, index, workdir)
        elapsed, outcomes = client.timed(op)
        latencies.append(elapsed)
        tally.gate(op, outcomes)
        index += 1

    q = workload.tail_q
    above = len(latencies) - math.ceil(q * len(latencies) / 100)
    raw = {"op_p50_ms": 1e3 * statistics.median(latencies), "op_tail_ms": 1e3 * tail(latencies, q)}
    scale = probe.scale()
    print(f"ops={len(latencies)} tail=p{q} ({above} above) setup_samples={len(setup)} kernel_samples={len(probe.samples)}")
    print(f"speed scale={scale:.6g} (reference kernel {1e3 * REFERENCE_KERNEL_S:g} ms over this run's median)")
    print("unscaled " + " ".join(f"{name}={value:.6g}" for name, value in raw.items()))
    record["unscaled"] = raw
    record["speed_scale"] = scale
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_tail_ms": (raw["op_tail_ms"] * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_layers(client, workload, seed: int, workdir: Path, tally: Tally) -> dict:
    n = workload.trace_ops
    ops = [workload.make_op(seed, i, workdir) for i in range(n + 1)]
    tally.gate(ops[0], client.timed(ops[0])[1])

    # Each operation runs untraced and then traced, back to back, so that
    # drift in machine speed over the run does not enter the overhead.
    tracer = layertrace.Tracer()
    plain = traced = 0.0
    for i, op in enumerate(ops[1:], start=1):
        elapsed, outcomes = client.timed(op)
        plain += elapsed
        tally.gate(op, outcomes)
        tracer.install()
        try:
            with tracer.root(i):
                elapsed, outcomes = client.timed(op)
        finally:
            tracer.uninstall()
        traced += elapsed
        tally.gate(op, outcomes)
    tracer.write(OUT / f"spans-{workload.name}-{seed}.tsv.gz")
    print(f"traced ops={n} spans={len(tracer.spans)} wrapped={len(tracer.wrapped)}")

    totals = tracer.self_times()
    metrics = {}

    def put(name, value, unit):
        metrics[name] = (value / n, unit)

    def self_s(name):
        return totals.get(name, (0, 0.0))[1]

    for layer, names in layertrace.REPORTED.items():
        if layer == "verify":  # its metrics are assembled below
            continue
        for fname in names:
            calls, s = totals.get(f"{layer}.{fname}", (0, 0.0))
            put(f"{layer}.{fname}.calls", calls, "count")
            put(f"{layer}.{fname}.self_s", s, "s")
    layer_self = dict.fromkeys(layertrace.LAYERS, 0.0)
    for name, (_, s) in totals.items():
        layer_self[name.split(".")[0]] += s
    for layer, s in layer_self.items():
        put(f"{layer}.self_s", s, "s")

    put("verify.sample_points.self_s", self_s("verify.sample_points"), "s")
    put("verify.run_suite.self_s", self_s("verify.run_suite"), "s")
    put("verify.report.self_s", self_s("verify.VerificationReport.to_dict") + self_s("verify.validate_report"), "s")
    kept = drawn = evaluated = skipped = 0
    for (call, *_) in ops[1:]:
        doc = getattr(call, "doc", None)
        if doc is None:
            continue
        n_kept = doc["n_points"] * len(doc["resamples"])
        kept += n_kept
        drawn += n_kept + sum(doc["resamples"].values())
        for c in doc["checks"]:
            if not c["skipped"]:
                evaluated += c["n_evaluated"]
                skipped += c["n_skipped_degenerate"]
    metrics["verify.sample_points.accept_ratio"] = (kept / drawn if drawn else 0.0, "ratio")
    metrics["verify.degenerate_skip_ratio"] = (skipped / (evaluated + skipped) if evaluated + skipped else 0.0, "ratio")

    # Every integrate call of the benchmark requests N_STEPS steps.
    steps = totals.get("dynamics.integrate", (0, 0.0))[0] * workloads.N_STEPS
    metrics["dynamics.step_us"] = (1e6 * self_s("dynamics.integrate") / steps if steps else 0.0, "us")
    put("trace.overhead_s", traced - plain, "s")
    return metrics


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
    )


def bench(args) -> None:
    workload = workloads.WORKLOADS[args.workload]
    client = Client(import_package().main)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": env}
    tally = Tally()
    try:
        gate_self_test(client, workdir, points=20)
        if args.trace:
            metrics = measure_layers(client, workload, args.seed, workdir, tally)
        else:
            metrics = measure(client, workload, args.seed, args.seconds, workdir, tally, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"error_ratio={tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        print(f"failed: {reason}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    line = result_line(tally, metrics)
    record["result"] = json.loads(line)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(line)


def self_test() -> int:
    """Gate, trace and reproducibility self-checks; exit code 0 when all hold."""
    client = Client(import_package().main)
    OUT.mkdir(exist_ok=True)
    problems = []
    workdir = OUT / f"work-selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for line in gate_self_test(client, workdir, points=workloads.VERIFY_POINTS):
            print(f"gate: counted as failed: {line}")

        tracer = layertrace.Tracer()
        tracer.install()
        tracer.uninstall()
        print(f"trace: {len(tracer.wrapped)} functions wrapped, every reported layer function present")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    seed = 1
    for name in workloads.WORKLOADS:
        counts = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", "1", "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                problems.append(f"{name}: traced run failed: {proc.stderr.strip()[-300:]}")
                break
            counts.append({k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")})
        if len(counts) == 2:
            same = counts[0] == counts[1]
            print(f"trace: {name} call counts {'repeat exactly' if same else 'DIFFER'} across two runs")
            if not same:
                problems.append(f"{name}: call counts differ between two traced runs")
    for p in problems:
        print(f"self-test problem: {p}")
    print("self-test: " + ("pass" if not problems else "FAIL"))
    return 1 if problems else 0


def main_entry() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the gate and the trace, then exit")
    args = parser.parse_args()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        parser.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    bench(args)


if __name__ == "__main__":
    main_entry()
