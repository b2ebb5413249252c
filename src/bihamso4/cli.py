"""Command line entry points."""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager

import click
import numpy as np

from . import dynamics
from . import leaf as leaf_mod
from . import verify as verify_mod
from . import xxz
from .fields import CHART_UV, PhasePoint
from .leaf import LeafChart
from .so4 import ModelParams

_CSV_HEADER = "t,m12,m13,m14,m23,m24,m34,H0,C,HE,KE,zeta1"


def _floats(text: str, counts: tuple, what: str) -> list:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise click.UsageError(f"{what} expects comma-separated reals")
    if len(values) not in counts:
        wanted = " or ".join(str(c) for c in counts)
        raise click.UsageError(f"{what} expects {wanted} comma-separated reals")
    if not all(math.isfinite(v) for v in values):
        raise click.UsageError(f"{what} expects finite reals")
    return values


def _params(mu_text: str) -> ModelParams:
    return ModelParams.from_mu(*_floats(mu_text, (3, 4), "--mu"))


def _complex_vector(text: str, n: int, what: str) -> np.ndarray:
    """n complex entries from 2n reals, pairwise real/imaginary."""
    vals = _floats(text, (2 * n,), what)
    # complex(re, im) keeps the sign of a zero part, which re + 1j * im would not.
    return np.array([complex(vals[2 * i], vals[2 * i + 1]) for i in range(n)], dtype=complex)


def _complex_pair(text: str, what: str) -> complex:
    parts = _floats(text, (1, 2), what)
    return complex(parts[0], parts[1] if len(parts) == 2 else 0.0)


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _pair(z: complex) -> list:
    return [z.real, z.imag]


@contextmanager
def _exit_on_error():
    """Report a library error on stderr as one line.

    The body runs with numpy overflow raising.  ValueError, OverflowError and
    FloatingPointError exit 2 (bad input: finite input can still overflow),
    RuntimeError exits 1.
    """
    try:
        with np.errstate(over="raise"):
            yield
    except (OverflowError, FloatingPointError) as exc:
        click.echo(f"error: input overflows ({exc})", err=True)
        sys.exit(2)
    except (ValueError, RuntimeError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2 if isinstance(exc, ValueError) else 1)


@click.group()
def main():
    """Bihamiltonian separation toolkit for the symmetric so(4) Euler top."""


@main.command(name="verify")
@click.option("--mu", "mu_text", required=True, help="mu1,mu2,mu3[,mu4]")
@click.option("--points", default=50, show_default=True, type=int)
@click.option("--seed", default=0, show_default=True, type=int)
@click.option("--report", "report_path", default=None, type=click.Path(dir_okay=False))
@click.option("--tol-scale", default=1.0, show_default=True, type=float)
@click.option(
    "--override",
    "overrides",
    multiple=True,
    help="named single-sign mutation (q_sign, h2_sign, nstar_sign); repeatable",
)
def verify_command(mu_text, points, seed, report_path, tol_scale, overrides):
    """Run the identity suite over seeded random ensembles."""
    with _exit_on_error():
        params = _params(mu_text)
        report = verify_mod.run_suite(
            params, seed=seed, n_points=points, overrides=tuple(overrides), tol_scale=tol_scale
        )

    width = max(len(c.name) for c in report.checks)
    lines = [
        f"{c.name:<{width}}  {'':>12}  {'':>9}  skip  ({c.note})"
        if c.skipped
        else f"{c.name:<{width}}  {c.max_residual:12.3e}  {c.tolerance:9.1e}  {'pass' if c.passed else 'FAIL'}"
        for c in report.checks
    ]
    click.echo("\n".join([*lines, f"overall: {'pass' if report.overall else 'FAIL'}"]))

    if report_path is not None:
        doc = report.to_dict()
        verify_mod.validate_report(doc)
        # Strict JSON: a non-finite value raises before the file is opened.
        text = verify_mod.report_json(doc)
        with open(report_path, "w") as fh:
            fh.write(text + "\n")
        click.echo(f"report written to {report_path}")
    sys.exit(0 if report.overall else 1)


@main.command(name="integrate")
@click.option("--mu", "mu_text", required=True, help="mu1,mu2,mu3[,mu4]")
@click.option("--m0", "m0_text", required=True, help="m12,m13,m14,m23,m24,m34")
@click.option("--dt", default=1e-3, show_default=True, type=float)
@click.option("--t-end", default=10.0, show_default=True, type=float)
@click.option("--every", default=100, show_default=True, type=int)
@click.option("--out", "out_path", default=None, type=click.Path(dir_okay=False))
def integrate_command(mu_text, m0_text, dt, t_end, every, out_path):
    """Integrate the rigid body flow and track invariant drift."""
    with _exit_on_error():
        params = _params(mu_text)
        m0 = np.array(_floats(m0_text, (6,), "--m0"))
        traj = dynamics.integrate(params, m0, dt=dt, t_end=t_end, record_every=every)

    lines = [_CSV_HEADER]
    for k, t in enumerate(traj.times):
        row = [repr(float(t))]
        row += [repr(float(x)) for x in traj.states[k]]
        row += [repr(float(traj.invariants[name][k])) for name in dynamics.INVARIANT_NAMES]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)

    drift = "  ".join(f"{name}={traj.drift[name]:.3e}" for name in dynamics.INVARIANT_NAMES)
    click.echo(f"max relative drift: {drift}")
    if traj.aborted:
        click.echo(
            f"error: integration aborted on non-finite state at step {traj.abort_step} "
            f"(t={traj.abort_time:.17g})",
            err=True,
        )
        sys.exit(1)
    sys.exit(0)


@main.command(name="dn")
@click.option("--mu", "mu_text", required=True, help="mu1,mu2,mu3[,mu4]")
@click.option(
    "--leaf",
    "leaf_text",
    required=True,
    help="u1re,u1im,z1re,z1im,u2re,u2im,z2re,z2im",
)
@click.option("--h0", "h0_text", required=True, help="re,im")
@click.option("--c2", "c2_text", required=True, help="re,im")
@click.option("--json", "as_json", is_flag=True, default=False)
def dn_command(mu_text, leaf_text, h0_text, c2_text, as_json):
    """Evaluate the Darboux coordinates on one symplectic leaf."""
    with _exit_on_error():
        params = _params(mu_text)
        obs = xxz.uv_observables(params)
        coords = _complex_vector(leaf_text, 4, "--leaf")
        levels = (_complex_pair(h0_text, "--h0"), _complex_pair(c2_text, "--c2"))
        leaf_mod.guard(params, coords[0], coords[2], theta=True)
        leaf = LeafChart(coords, levels)
        with np.errstate(over="ignore", invalid="ignore"):  # the finiteness test below reports these
            embedded = leaf_mod.embed(leaf).coords
        if not np.isfinite(embedded).all():
            raise ValueError("leaf point embeds to a non-finite uv point")
        forms = leaf_mod.closed_forms(leaf)
        chart = leaf_mod.dn_chart(params, leaf, obs, forms)
        if as_json:  # the document reads the bracket residuals, the text the P bracket table
            brackets = leaf_mod.dn_bracket_residuals(params, leaf, forms)
        else:
            p_matrix = leaf_mod.dn_bracket_matrix(params, leaf, forms)

    if as_json:
        doc = {
            "schema": verify_mod.SCHEMA,
            "mu": list(params.mu),
            "zeta1": _pair(chart.zeta1),
            "xi1": _pair(chart.xi1),
            "lambda2": _pair(chart.lambda2),
            "xi2": _pair(chart.xi2),
            "p_bracket_max_residual": brackets["P"].normalized,
            "q_bracket_max_residual": brackets["Q"].normalized,
        }
        click.echo(json.dumps(doc, indent=2))
    else:
        click.echo(f"zeta1   = {_fmt_complex(chart.zeta1)}")
        click.echo(f"xi1     = {_fmt_complex(chart.xi1)}")
        click.echo(f"lambda2 = {_fmt_complex(chart.lambda2)}")
        click.echo(f"xi2     = {_fmt_complex(chart.xi2)}")
        click.echo("bracket residual vs canonical (structure P):")
        # The P target is the constant canonical table; it reads no eigenvalue.
        for row in np.abs(p_matrix - leaf_mod.canonical_bracket_target(1.0, 1.0)):
            click.echo("  " + "  ".join(f"{x:9.3e}" for x in row))
    sys.exit(0)


@main.command(name="separation")
@click.option("--mu", "mu_text", required=True, help="mu1,mu2,mu3[,mu4]")
@click.option(
    "--uv",
    "uv_text",
    required=True,
    help="u1re,u1im,v1re,v1im,z1re,z1im,u2re,u2im,v2re,v2im,z2re,z2im",
)
def separation_command(mu_text, uv_text):
    """Evaluate both Jacobi separation relations at a uv-chart point."""
    with _exit_on_error():
        params = _params(mu_text)
        pt = PhasePoint(CHART_UV, _complex_vector(uv_text, 6, "--uv"))
        obs = xxz.uv_observables(params)
        r1 = leaf_mod.phi1_residual(params, pt, obs)  # holds on the whole chart
        leaf_mod.guard(params, pt.coords[0], pt.coords[3])
        r2 = leaf_mod.phi2_residual(params, pt, obs, leaf_mod.closed_forms())

    click.echo(f"phi1: residual={r1.raw:.6e}  normalized={r1.normalized:.6e}")
    click.echo(f"phi2: residual={r2.raw:.6e}  normalized={r2.normalized:.6e}")
    sys.exit(0)


if __name__ == "__main__":
    main()
