"""The traced benchmark rebinds package functions by name, so every
``(module, attr)`` it lists must exist: a rename or deletion in the package
would otherwise break every ``--trace 1`` run with ``AttributeError``."""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,attr", [layer[:2] for layer in _load_tracer().LAYERS])
def test_traced_layer_resolves(module, attr):
    owner = importlib.import_module(f"tcm_entangle.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))
