import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from latentprox import constraints as C

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


def centroid_prox_closed_form(spec, x, lam):
    """argmin_y g(y) + ||y - x||^2 / (2 lam) for g(y) = max(||B y - q - c||
    - r, 0), B = axes @ feature_map with B B^T = I: the prox of a distance
    on the preimage of a co-isometry (Bauschke & Combettes)."""
    m = spec.model
    B = m.axes @ m.feature_map
    u = C.pc_coordinates(m, x) - m.target_centroid
    s, r = np.linalg.norm(u), spec.accept_radius
    if s <= r:
        return x
    if s <= r + lam:
        return x - B.T @ u * (1.0 - r / s)
    return x - lam * B.T @ u / s


def same_states(rows, other):
    """Whether two traces' rows, pair by pair, hold bit-equal chain states.
    Each state must be an array: np.array_equal(None, None) is True, so a
    comparison of rows that carry no state would pass."""
    pairs = list(zip(rows, other))
    for a, b in pairs:
        assert isinstance(a.z, np.ndarray) and isinstance(b.z, np.ndarray), \
            "a trace row carries no chain state"
    return all(np.array_equal(a.z, b.z) for a, b in pairs)
