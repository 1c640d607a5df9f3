import sys

import numpy as np
import pytest
from scipy import stats

from latentprox.decoders import decode, random_linear_decoder
from latentprox.dpo import (DpoConfig, ExternalProcessSimulator, Simulator,
                            design_loop, dpo_loss_grad, linear_simulator,
                            make_simulator, piecewise_simulator,
                            saturating_simulator, smoothed_grad,
                            smoothed_value)
from latentprox.errors import (ConfigError, ParameterError, SimulatorError)


def test_config_validation():
    with pytest.raises(ParameterError):
        DpoConfig(nu=0.0, M=1)
    with pytest.raises(ParameterError):
        DpoConfig(nu=0.1, M=0)


def test_smoothed_value_constant_simulator():
    sim = Simulator(fn=lambda x: np.array([4.25]), response_dim=1)
    cfg = DpoConfig(nu=0.3, M=7, seed=0)
    assert smoothed_value(sim, np.zeros(3), cfg) == np.array([4.25])


def test_smoothed_value_linear_monte_carlo():
    # oracle: E[a.(x + nu eps)] = a.x; CI 3 nu ||a|| / sqrt(M)
    a = np.array([1.0, -2.0, 0.5])
    sim = linear_simulator(a[None, :])
    x = np.array([0.3, 0.1, -0.7])
    cfg = DpoConfig(nu=0.1, M=10_000, seed=1)
    val = smoothed_value(sim, x, cfg)[0]
    assert abs(val - a @ x) < 3 * cfg.nu * np.linalg.norm(a) / np.sqrt(cfg.M)


def test_smoothed_grad_constant_exactly_zero_with_baseline():
    sim = Simulator(fn=lambda x: np.array([2.0, -1.0]), response_dim=2)
    for M in (1, 3, 50):
        cfg = DpoConfig(nu=0.2, M=M, seed=0)
        assert np.array_equal(smoothed_grad(sim, np.zeros(4), cfg),
                              np.zeros((2, 4)))


def test_smoothed_grad_linear_accuracy():
    rng = np.random.default_rng(42)
    A = rng.standard_normal((3, 4))
    sim = linear_simulator(A)
    x = rng.standard_normal(4)
    cfg = DpoConfig(nu=0.1, M=1000, seed=5)
    J = smoothed_grad(sim, x, cfg)
    assert np.linalg.norm(J - A) / np.linalg.norm(A) < 0.10


def test_smoothed_grad_quadratic_at_unit_point():
    sim = Simulator(fn=lambda v: np.array([float(v @ v)]), response_dim=1)
    cfg = DpoConfig(nu=0.05, M=10_000, seed=2)
    J = smoothed_grad(sim, np.array([1.0, 0.0]), cfg)
    assert np.linalg.norm(J[0] - [2.0, 0.0]) / 2.0 < 0.10


def test_unbiasedness_confidence_ellipse():
    # mean estimate over 50 seeds lies inside the 99% confidence ellipse of
    # the analytic gradient (per-entry CLT, chi-square combination)
    rng = np.random.default_rng(3)
    A = rng.standard_normal((2, 3))
    sim = linear_simulator(A)
    x = rng.standard_normal(3)
    ests = np.array([smoothed_grad(sim, x, DpoConfig(nu=0.1, M=500, seed=s))
                     for s in range(50)])
    mean = ests.mean(axis=0)
    se = ests.std(axis=0, ddof=1) / np.sqrt(50)
    z = ((mean - A) / se).ravel()
    stat = float(z @ z)
    assert stat < stats.chi2.ppf(0.99, df=z.size)


def no_baseline_grad(sim, x, nu, M, seed):
    # the estimator without the phi(x) baseline, on the perturbations that
    # smoothed_grad draws from the same seed
    eps = np.random.default_rng(seed).standard_normal((M, x.size))
    vals = np.array([sim.fn(x + nu * e) for e in eps])
    return np.einsum("mr,md->rd", vals, eps) / M / nu


def test_baseline_does_not_change_expectation():
    # paired seeds: with/without baseline agree within the Monte Carlo CI
    rng = np.random.default_rng(4)
    A = rng.standard_normal((2, 2))
    sim = linear_simulator(A)
    x = np.array([0.5, -0.5])
    with_b, without_b = [], []
    for s in range(40):
        with_b.append(smoothed_grad(sim, x, DpoConfig(nu=0.1, M=400, seed=s)))
        without_b.append(no_baseline_grad(sim, x, nu=0.1, M=400, seed=s))
    drift = np.mean(with_b, axis=0) - np.mean(without_b, axis=0)
    spread = np.std(without_b, axis=0, ddof=1) / np.sqrt(40)
    assert np.all(np.abs(drift) < 4 * spread + 1e-12)


def test_seed_determinism():
    sim = saturating_simulator(np.eye(3), scale=1.5)
    cfg = DpoConfig(nu=0.1, M=32, seed=11)
    x = np.array([0.1, 0.2, 0.3])
    assert np.array_equal(smoothed_grad(sim, x, cfg),
                          smoothed_grad(sim, x, cfg))
    assert np.array_equal(smoothed_value(sim, x, cfg),
                          smoothed_value(sim, x, cfg))


def test_simulator_failure_carries_index():
    def flaky(x):
        return np.array([np.inf if x[0] > 0.35 else 0.0])

    sim = Simulator(fn=flaky, response_dim=1)
    cfg = DpoConfig(nu=1.0, M=50, seed=0)
    with pytest.raises(SimulatorError) as err:
        smoothed_value(sim, np.zeros(1), cfg)
    assert err.value.perturbation_index is not None


def test_dpo_loss_grad_zero_at_target():
    sim = linear_simulator(np.eye(2))
    x = np.array([0.7, -0.1])
    cfg = DpoConfig(nu=0.01, M=2000, seed=6, target=x.copy())
    d = dpo_loss_grad(sim, x, cfg)
    assert np.linalg.norm(d) < 5e-3  # Monte Carlo noise floor


def test_dpo_loss_grad_matches_least_squares_direction():
    # oracle: for phi = A x the loss gradient is A^T (A x - A x*)
    rng = np.random.default_rng(8)
    A = rng.standard_normal((3, 3))
    x = rng.standard_normal(3)
    x_star = rng.standard_normal(3)
    sim = linear_simulator(A)
    cfg = DpoConfig(nu=0.05, M=4000, seed=1, target=A @ x_star)
    d = dpo_loss_grad(sim, x, cfg)
    oracle = A.T @ (A @ x - A @ x_star)
    assert np.linalg.norm(d - oracle) / np.linalg.norm(oracle) < 0.15


def test_dpo_loss_grad_target_dim_mismatch():
    sim = linear_simulator(np.ones((2, 3)))
    cfg = DpoConfig(nu=0.1, M=4, seed=0, target=np.zeros(3))
    with pytest.raises(ParameterError):
        dpo_loss_grad(sim, np.zeros(3), cfg)


def test_design_loop_identity_simulator_converges():
    # oracle: convex least squares through a linear decoder contracts; the
    # MSE must fall below 1e-4 within 200 steps
    decoder = random_linear_decoder(2, 3, seed=1)
    sim = linear_simulator(np.eye(3))
    rng = np.random.default_rng(2)
    z_star = rng.standard_normal(2)
    cfg = DpoConfig(nu=0.05, M=64, seed=3, target=decode(decoder, z_star))
    z, trace = design_loop(np.zeros(2), decoder, sim, cfg, steps=200,
                           step_size=0.5, tol=1e-5)
    assert trace.mse[-1] < 1e-4
    assert trace.mse[1] < trace.mse[0]


def test_design_loop_step_validation():
    decoder = random_linear_decoder(2, 3, seed=1)
    sim = linear_simulator(np.eye(3))
    cfg = DpoConfig(nu=0.1, M=4, seed=0, target=np.zeros(3))
    with pytest.raises(ParameterError):
        design_loop(np.zeros(2), decoder, sim, cfg, steps=0, step_size=0.1)


def test_design_loop_mse_decreases_on_quadratic_suite():
    # monotone within 5% Monte Carlo slack after the first step; the loop
    # stops at a tolerance above the estimator's noise floor, where the
    # comparison is meaningful
    decoder = random_linear_decoder(2, 4, seed=7)
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    sim = saturating_simulator(Q[:3], scale=3.0)
    z_star = 0.5 * rng.standard_normal(2)
    cfg = DpoConfig(nu=0.05, M=64, seed=5,
                    target=np.asarray(sim.fn(decode(decoder, z_star))))
    _, trace = design_loop(rng.standard_normal(2), decoder, sim, cfg,
                           steps=8, step_size=0.8, tol=2e-3)
    assert len(trace.mse) >= 3
    for a, b in zip(trace.mse[1:], trace.mse[2:]):
        assert b <= 1.05 * a


def test_simulator_registry():
    sim = make_simulator("linear", matrix=np.eye(2))
    assert sim.response_dim == 2
    with pytest.raises(ConfigError):
        make_simulator("fem")
    pw = piecewise_simulator(np.eye(1), slope=0.5)
    assert pw.fn(np.array([-2.0]))[0] == -1.0
    assert pw.fn(np.array([2.0]))[0] == 2.0


def test_external_process_simulator_roundtrip():
    # child process doubles its input vector, one evaluation per line
    code = ("import sys\n"
            "for line in sys.stdin:\n"
            "    vals = [2.0 * float(t) for t in line.split()]\n"
            "    print(' '.join(repr(v) for v in vals), flush=True)\n")
    with ExternalProcessSimulator([sys.executable, "-c", code],
                                  response_dim=3) as ext:
        sim = ext.as_simulator()
        x = np.array([0.5, -1.25, 3.0])
        assert np.array_equal(sim.fn(x), 2.0 * x)
        cfg = DpoConfig(nu=0.1, M=8, seed=0)
        val = smoothed_value(sim, x, cfg)
        assert val.shape == (3,)
        assert np.all(np.isfinite(val))
