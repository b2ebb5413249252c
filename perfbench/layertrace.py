"""Per-layer tracing of the bihamso4 package from outside it.

`Tracer.install` wraps every public function of the seven package modules and
rebinds every module attribute that refers to one of them, so calls made
through names imported with `from .fields import bracket` are traced as well
as calls made through `fields.bracket`.  Nothing under `src/` is edited.

Spans are (op, name, start, end, parent) tuples kept in memory.  A span is
recorded only inside a root span opened with `Tracer.root`, which the
benchmark opens around one CLI invocation, so the correctness gate's own calls
into the package never show up as layer work.  Self time of a span is its
duration minus the durations of its direct children (one thread, so children
never overlap).
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from contextlib import contextmanager

PACKAGE = "bihamso4"
LAYERS = ("fields", "so4", "xxz", "leaf", "dynamics", "verify", "cli")

# Methods traced in addition to module functions: report assembly lives on
# the report class, not in a module function.
METHODS = (("verify", "VerificationReport", "to_dict"),)

# Functions the per-layer metrics are named after.  A name missing from its
# module stops the traced run instead of silently reporting zero work.
REPORTED = {
    "fields": (
        "schouten_residual", "bracket", "bracket_scale", "ham_field", "ham_field_scale",
        "lie_scalar", "lie_bivector", "lie_bivector_scale", "grad_fd_residual", "fd_grad",
        "linear_bivector",
    ),
    "so4": (
        "chart_map", "lenard_residuals_m", "char_poly_residual", "lax", "lax_flow_residual",
        "angular_velocity_commutator_residual", "observables_m", "p1_m", "p2_m",
    ),
    "xxz": (
        "uv_transport_residuals", "stackel_residual", "transversal_curve_residual",
        "uv_observables", "p1_uv", "p2_uv", "q_uv", "x1_field",
    ),
    "leaf": (
        "deformation_tower", "dn_gradients", "dn_bracket_residuals", "dn_bracket_matrix",
        "restricted_tensors", "nijenhuis", "aux", "deformation_field", "embed", "dn_chart",
        "phi1_residual", "phi2_residual",
    ),
    "verify": ("sample_points", "run_suite", "validate_report", "VerificationReport.to_dict"),
    "dynamics": ("integrate",),
    "cli": (),
}

ROOT = "cli"


def public_functions(module) -> dict:
    """Functions defined in `module` whose names do not start with an underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_")
    }


class Tracer:
    """Span recorder that wraps the package's public functions in place."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1
        self._bindings = []
        self.wrapped = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (self._op, name, start, end, parent)

        return wrapper

    def install(self) -> None:
        """Rebind every reference to a public layer function to its wrapper."""
        if not self._bindings:
            self._bindings = self._discover()
        for owner, attr, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put the original functions back; spans recorded so far are kept."""
        for owner, attr, original, _ in reversed(self._bindings):
            setattr(owner, attr, original)

    def _discover(self) -> list:
        package = importlib.import_module(PACKAGE)
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        bindings = []
        wrappers = {}
        for layer, module in modules.items():
            found = public_functions(module)
            for fname in REPORTED[layer]:
                if "." not in fname and fname not in found:
                    raise RuntimeError(f"traced layer function missing: {layer}.{fname}")
            for fname, fn in found.items():
                wrappers[fn] = self._wrap(f"{layer}.{fname}", fn)
                self.wrapped.append(f"{layer}.{fname}")

        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if not inspect.isfunction(fn):
                raise RuntimeError(f"traced layer method missing: {layer}.{cls_name}.{meth}")
            name = f"{layer}.{cls_name}.{meth}"
            bindings.append((cls, meth, fn, self._wrap(name, fn)))
            self.wrapped.append(name)

        for module in [package, *modules.values()]:
            for attr, value in vars(module).items():
                if inspect.isfunction(value) and value in wrappers:
                    bindings.append((module, attr, value, wrappers[value]))
        return bindings

    @contextmanager
    def root(self, op: int):
        """Open the root span of one CLI invocation; spans are recorded inside it."""
        self._op = op
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (op, ROOT, start, end, -1)

    def self_times(self) -> dict:
        """Per span name: (calls, summed self seconds)."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {}
        for (_, name, start, end, _), covered in zip(self.spans, child):
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + 1, self_s + (end - start) - covered)
        return totals

    def write(self, path) -> None:
        """Write the spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for op, name, start, end, parent in self.spans:
                fh.write(f"{op}\t{name}\t{start!r}\t{end!r}\t{parent}\n")
