import importlib.util
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci", derandomize=True, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("ci")

SCRIPT_DIR = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture
def load_script():
    """Load ``scripts/<name>.py`` as a module: its imports run, its
    ``main`` does not."""
    def load(name):
        path = SCRIPT_DIR / f"{name}.py"
        spec = importlib.util.spec_from_file_location(f"script_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load
