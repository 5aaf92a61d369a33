"""Every callable the perfbench tracer wraps exists in the package, so a
refactor that renames one fails here rather than turning a per-layer
metric into null."""

import importlib.util
import pathlib

import pytest

from iseasim import pipeline, solvers

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, path",
                         [(module, path) for module, path, _ in _load_tracing().HOOKS])
def test_trace_hook_resolves_to_a_callable(module, path):
    owner = {"pipeline": pipeline, "solvers": solvers}[module]
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"{module}.{path} is not a callable of iseasim.{module}"
