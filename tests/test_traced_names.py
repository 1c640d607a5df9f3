"""Every function the benchmark traces still exists in the package.

``perfbench/layers.py`` names the traced functions as ``module.function``;
the benchmark's tracer finds them by their home module and ``__name__``,
and wraps a private one only when ``layers.PRIVATE`` lists it.  A function
renamed or deleted here would make the benchmark's smoke tests, which are
not part of this suite, report it absent; this test reports it first.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS_MODULE = load_layers()


@pytest.mark.parametrize("name", sorted(LAYERS_MODULE.FUNCTIONS))
def test_traced_name_resolves_to_a_package_function(name):
    module_name, function_name = name.split(".")
    module = importlib.import_module(f"latentprox.{module_name}")
    fn = getattr(module, function_name, None)
    assert inspect.isfunction(fn), f"{name} is not a function of the package"
    assert fn.__module__ == f"latentprox.{module_name}"
    assert fn.__name__ == function_name
    assert not function_name.startswith("_") \
        or function_name in LAYERS_MODULE.PRIVATE
