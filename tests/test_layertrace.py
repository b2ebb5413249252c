"""The benchmark's layer tracer finds every function its per-layer metrics are named after."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = _layertrace()


@pytest.mark.parametrize("layer", layertrace.LAYERS)
def test_reported_names_are_public_functions_of_their_module(layer):
    # Tracer._discover stops a traced benchmark run when one of these is not
    # found this way; a wrapped or dropped function must fail here first
    module = importlib.import_module(f"{layertrace.PACKAGE}.{layer}")
    found = layertrace.public_functions(module)
    for name in layertrace.REPORTED[layer]:
        if "." in name:
            cls_name, meth = name.split(".")
            assert inspect.isfunction(vars(getattr(module, cls_name)).get(meth)), f"{layer}.{name}"
        else:
            assert name in found, f"{layer}.{name}"
