import numpy as np
import pytest
from hypothesis import given, strategies as st

from latentprox.errors import ParameterError
from latentprox.schedules import NoiseSchedule, make_schedule, noised_sample


def test_geometric_interpolation_by_hand():
    # oracle: 1 * (0.01/1)^(t/2) for t = 0, 1, 2 -> [1, 0.1, 0.01]
    s = make_schedule(T=2, abar_end=0.01, gamma_max=0.1,
                      gamma_min=0.1, M=1)
    assert np.allclose(s.abar, [1.0, 0.1, 0.01], atol=1e-12)
    assert np.allclose(s.gamma, [0.1, 0.1])


def test_single_level_endpoints_only():
    s = make_schedule(T=1, abar_end=0.04, gamma_max=0.05,
                      gamma_min=0.05, M=1)
    assert np.allclose(s.abar, [1.0, 0.04])
    with pytest.raises(IndexError):
        s.abar_at(2)


def test_invalid_gamma_order_names_field():
    with pytest.raises(ParameterError, match="gamma_min"):
        make_schedule(T=3, abar_end=0.01, gamma_max=0.01,
                      gamma_min=0.02, M=1)


def test_invalid_abar_order():
    with pytest.raises(ParameterError, match="abar"):
        make_schedule(T=3, abar_end=0.0, gamma_max=0.1,
                      gamma_min=0.01, M=1)


def test_abar_end_cap_enforced():
    with pytest.raises(ParameterError, match="abar_end"):
        make_schedule(T=3, abar_end=0.2, gamma_max=0.1,
                      gamma_min=0.01, M=1)


def test_schedule_invariants_validated():
    with pytest.raises(ParameterError):
        NoiseSchedule(T=2, abar=np.array([1.0, 0.5, 0.6]),
                      gamma=np.array([0.1, 0.1]))
    with pytest.raises(ParameterError):
        NoiseSchedule(T=1, abar=np.array([0.9, 0.01]), gamma=np.array([0.1]))
    with pytest.raises(ParameterError):
        NoiseSchedule(T=2, abar=np.array([1.0, 0.5, 0.01]),
                      gamma=np.array([0.2, 0.1]))  # increasing toward t=0


@given(T=st.integers(2, 30), abar_end=st.floats(1e-4, 0.05),
       gmin=st.floats(1e-4, 0.05), ratio=st.floats(1.0, 20.0))
def test_schedule_monotonicity_property(T, abar_end, gmin, ratio):
    s = make_schedule(T=T, abar_end=abar_end,
                      gamma_max=gmin * ratio, gamma_min=gmin, M=1)
    assert np.all(np.diff(s.abar) <= 0)
    assert np.all(s.gamma > 0)
    assert np.all(np.diff(s.gamma) >= 0)  # non-increasing as t decreases
    assert s.abar[0] == 1.0
    assert s.abar[-1] <= 0.05 + 1e-15


def test_forward_noise_zero_weight_is_exact():
    s = make_schedule(T=3, abar_end=0.02, gamma_max=0.1,
                      gamma_min=0.01, M=1)
    x0 = np.array([1.5, -2.25, 0.125])
    eps = np.random.default_rng(0).standard_normal(3)
    assert np.array_equal(noised_sample(x0, s.abar_at(0), eps), x0)


def test_noising_formula_pure_noise_case():
    # abar = 0 is outside a valid schedule; the formula itself returns eps
    eps = np.array([0.3, -0.7])
    assert np.array_equal(noised_sample(np.array([5.0, 5.0]), 0.0, eps), eps)


def test_forward_noise_variance_monte_carlo():
    # oracle: Var = 1 - abar_t per coordinate for x0 = 0
    s = NoiseSchedule(T=2, abar=np.array([1.0, 0.5, 0.02]),
                      gamma=np.array([0.1, 0.1]))
    rng = np.random.default_rng(123)
    n = 100_000
    draws = noised_sample(np.zeros(n), s.abar_at(1), rng.standard_normal(n))
    var = draws.var()
    se = 0.5 * np.sqrt(2.0 / (n - 1))
    assert abs(var - 0.5) < 3 * se


def test_forward_noise_mean_monte_carlo():
    s = NoiseSchedule(T=1, abar=np.array([1.0, 0.04]), gamma=np.array([0.1]))
    rng = np.random.default_rng(7)
    x0 = np.array([2.0, -1.0])
    n = 100_000
    eps = rng.standard_normal((n, 2))
    mean = noised_sample(x0, s.abar_at(1), eps).mean(axis=0)
    se = np.sqrt((1 - 0.04) / n)
    assert np.all(np.abs(mean - np.sqrt(0.04) * x0) < 4 * se)

