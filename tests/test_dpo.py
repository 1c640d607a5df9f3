import os
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import latentprox.runner as R
from latentprox import experiments as EXP
from latentprox.decoders import (decode, random_linear_decoder,
                                 random_mlp_decoder)
from latentprox.dpo import (DpoConfig, Simulator, design_loop, design_rows,
                            dpo_loss_grad, external_simulator,
                            linear_simulator, make_simulator,
                            piecewise_simulator, saturating_simulator,
                            smoothed_grad, smoothed_value)
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


def first_index_above(threshold, nu, M, seed):
    # the first perturbation x + nu eps_m of x = 0 whose entry exceeds the
    # threshold, on the draws the estimator makes from the same seed
    eps = np.random.default_rng(seed).standard_normal((M, 1))
    return int(np.flatnonzero(nu * eps[:, 0] > threshold)[0])


def test_batched_simulator_failure_carries_first_index():
    def flaky(x):  # a point (1,) or a batch (M, 1)
        return np.where(x > 0.35, np.inf, 0.0)

    cfg = DpoConfig(nu=1.0, M=50, seed=0)
    expected = first_index_above(0.35, cfg.nu, cfg.M, cfg.seed)
    assert expected > 0
    for batched in (True, False):
        sim = Simulator(fn=flaky, response_dim=1, batched=batched)
        with pytest.raises(SimulatorError) as err:
            smoothed_value(sim, np.zeros(1), cfg)
        assert err.value.perturbation_index == expected


@pytest.mark.parametrize("shape", [(8,), (8, 2), (7, 1), (8, 1, 1)])
def test_batched_simulator_wrong_shape(shape):
    sim = Simulator(fn=lambda X: np.zeros(shape), response_dim=1,
                    batched=True)
    with pytest.raises(SimulatorError, match="expected \\(8, 1\\)"):
        smoothed_value(sim, np.zeros(3), DpoConfig(nu=0.1, M=8, seed=0))


def builtin_simulators(A, rng):
    return [linear_simulator(A),
            linear_simulator(A, bias=rng.standard_normal(A.shape[0])),
            saturating_simulator(A, scale=float(rng.uniform(0.5, 4.0))),
            piecewise_simulator(A, slope=float(rng.uniform(0.0, 1.0)))]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 70), st.integers(1, 300), st.integers(1, 200),
       st.integers(0, 2**32 - 1), st.floats(1e-3, 1e3))
def test_builtin_batch_rows_equal_point_calls(r, d, M, seed, scale):
    # np.matvec runs the point's product once per row, so every row of a
    # batch is the point call bit for bit, a batch of one row included
    rng = np.random.default_rng(seed)
    A = scale * rng.standard_normal((r, d))
    X = rng.standard_normal((M, d))
    for sim in builtin_simulators(A, rng):
        assert sim.batched
        out = sim.fn(X)
        assert out.shape == (M, r)
        for m in range(M):
            assert np.array_equal(out[m], sim.fn(X[m]))
            assert np.array_equal(sim.fn(X[m:m + 1])[0], out[m])


def test_design_loop_batched_equals_loop():
    decoder = random_linear_decoder(3, 4, seed=77)
    rng = np.random.default_rng(12)
    for sim in builtin_simulators(rng.standard_normal((4, 4)), rng):
        target = sim.fn(decode(decoder, rng.standard_normal(3)))
        cfg = DpoConfig(nu=0.05, M=64, seed=9, target=target)
        z0 = rng.standard_normal(3)
        z_b, trace_b = design_loop(z0, decoder, sim, cfg, steps=5,
                                   step_size=0.9)
        z_l, trace_l = design_loop(z0, decoder, replace(sim, batched=False),
                                   cfg, steps=5, step_size=0.9)
        assert np.array_equal(z_b, z_l)
        assert np.array_equal(trace_b.mse, trace_l.mse)
        # six estimates of M = 64 points and five phi(x) baselines
        assert trace_b.simulator_evaluations == \
            trace_l.simulator_evaluations == 6 * 64 + 5
        assert (trace_b.simulator_calls, trace_l.simulator_calls) == \
            (6 + 5, 6 * 64 + 5)
        assert trace_b.steps == trace_l.steps == 5


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


def python_child(code, response_dim, timeout=30.0):
    return external_simulator([sys.executable, "-c", code], response_dim,
                              timeout=timeout)


DOUBLING_CHILD = ("import sys\n"
                  "for line in sys.stdin:\n"
                  "    vals = [2.0 * float(t) for t in line.split()]\n"
                  "    print(' '.join(repr(v) for v in vals))\n")


def test_external_simulator_roundtrip():
    # the child doubles each input point, one point per line
    sim = python_child(DOUBLING_CHILD, response_dim=3)
    assert sim.batched
    x = np.array([0.5, -1.25, 3.0])
    assert np.array_equal(sim.fn(x), 2.0 * x)
    X = np.random.default_rng(4).standard_normal((7, 3))
    assert np.array_equal(sim.fn(X), 2.0 * X)
    val = smoothed_value(sim, x, DpoConfig(nu=0.1, M=8, seed=0))
    assert val.shape == (3,)
    assert np.all(np.isfinite(val))


def external_failure(code, timeout=30.0):
    started = time.monotonic()
    with pytest.raises(SimulatorError) as err:
        python_child(code, response_dim=1, timeout=timeout).fn(np.zeros(1))
    return str(err.value), time.monotonic() - started


def test_external_simulator_timeout_kills_the_child(tmp_path):
    pid_file = tmp_path / "pid"
    code = ("import os, sys, time\n"
            "sys.stdin.read()\n"
            f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
            "sys.stderr.write('thinking\\n'); sys.stderr.flush()\n"
            "time.sleep(60)\n")
    message, elapsed = external_failure(code, timeout=0.5)
    assert "still ran after 0.5 s" in message and "thinking" in message
    assert elapsed < 10
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


def test_external_simulator_reports_exit_code_and_stderr():
    code = "import sys\nsys.stderr.write('no solver licence\\n')\nsys.exit(3)\n"
    message, elapsed = external_failure(code)
    assert "exited with code 3" in message and "no solver licence" in message
    assert elapsed < 10
    message, _ = external_failure("print('1.0 abc')")
    assert "not rows of numbers" in message and "'abc'" in message
    with pytest.raises(ParameterError):  # refused before any child starts
        external_simulator(["/nonexistent/solver"], response_dim=1,
                           timeout=0.0)


def test_external_simulator_needs_a_program_it_can_start(tmp_path):
    with pytest.raises(ParameterError):  # refused before any call
        external_simulator([], response_dim=1)
    missing = str(tmp_path / "no_such_solver")
    sim = external_simulator([missing], response_dim=1)
    with pytest.raises(SimulatorError, match="no_such_solver"):
        sim.fn(np.zeros(1))


def test_external_simulator_design_matches_the_builtin():
    # a child computing the saturating response with the same kernel gives
    # the design rows the built-in simulator's bits
    rng = np.random.default_rng(8)
    A = rng.standard_normal((4, 4))
    builtin = saturating_simulator(A, scale=2.0)
    code = ("import sys\nimport numpy as np\n"
            f"A = np.array({A.tolist()!r})\n"
            "X = np.array([[float(t) for t in line.split()] "
            "for line in sys.stdin])\n"
            "for row in 2.0 * np.tanh(np.matvec(A, X) / 2.0):\n"
            "    print(' '.join(repr(float(v)) for v in row))\n")
    child = python_child(code, response_dim=4)
    decoder = random_linear_decoder(3, 4, seed=77)
    cfg = DpoConfig(nu=0.05, M=16,
                    target=builtin.fn(decode(decoder, rng.standard_normal(3))))
    Z0 = rng.standard_normal((8, 3))
    runs = [design_rows(Z0, decoder, sim, cfg, list(range(8)), steps=5,
                        step_size=0.9) for sim in (builtin, child)]
    assert runs[1].errors == [None] * 8
    assert np.array_equal(runs[0].z, runs[1].z)
    assert runs[0].mse == runs[1].mse
    assert runs[1].simulator_calls == 11


# ---------------------------------------------------------------------------
# The rows loop: a block of design chains as one (rows, d) latent array


def test_design_rows_equal_one_row_calls():
    rng = np.random.default_rng(21)
    decoders = [random_linear_decoder(3, 4, seed=77),
                random_mlp_decoder(3, 4, hidden=6, seed=5)]
    for decoder in decoders:
        for sim in builtin_simulators(rng.standard_normal((4, 4)), rng):
            target = sim.fn(decode(decoder, rng.standard_normal(3)))
            cfg = DpoConfig(nu=0.05, M=16, target=target)
            Z0 = rng.standard_normal((5, 3))
            seeds = [int(s) for s in rng.integers(0, 2**32, size=5)]
            for batched in (True, False):
                block = design_rows(Z0, decoder, replace(sim, batched=batched),
                                    cfg, seeds, steps=4, step_size=0.9)
                for i in range(5):
                    z, trace = design_loop(
                        Z0[i], decoder, replace(sim, batched=batched),
                        replace(cfg, seed=seeds[i]), steps=4, step_size=0.9)
                    assert block.errors[i] is None
                    assert np.array_equal(block.z[i], z)
                    assert np.array_equal(block.mse[i], trace.mse)
                    assert block.steps[i] == trace.steps == 4
                # a batched simulator gets one call per estimate and one per
                # baseline for the whole block
                assert block.simulator_evaluations == 5 * (5 * 16 + 4)
                assert block.simulator_calls == \
                    (5 + 4 if batched else 5 * (5 * 16 + 4))


def test_design_rows_one_row_stops_early_at_tol():
    decoder = random_linear_decoder(3, 4, seed=77)
    rng = np.random.default_rng(3)
    sim = saturating_simulator(np.linalg.qr(rng.standard_normal((4, 4)))[0],
                               scale=3.0)
    z_star = rng.standard_normal(3)
    cfg = DpoConfig(nu=0.05, M=64, target=sim.fn(decode(decoder, z_star)))
    # row 1 starts at the optimum, so its first MSE is already below tol
    Z0 = np.vstack([rng.standard_normal(3), z_star, rng.standard_normal(3),
                    rng.standard_normal(3)])
    seeds = [1, 2, 3, 4]
    rows = design_rows(Z0, decoder, sim, cfg, seeds, steps=5, step_size=0.9,
                       tol=1e-4)
    assert [len(m) for m in rows.mse] == [5, 1, 4, 6]
    assert list(rows.steps) == [4, 0, 3, 5]
    assert rows.mse[1][0] < 1e-4 <= min(rows.mse[3])
    for i in range(4):
        z, trace = design_loop(Z0[i], decoder, sim, replace(cfg, seed=seeds[i]),
                               steps=5, step_size=0.9, tol=1e-4)
        assert np.array_equal(rows.z[i], z)
        assert np.array_equal(rows.mse[i], trace.mse)


def design_cfg(tmp_path, name, chains=3):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / name))
    cfg["chains"] = chains
    return cfg


def run_with_simulator(monkeypatch, cfg, wrap):
    """run_design with each built simulator passed through ``wrap``."""
    real_make = R.make_simulator
    monkeypatch.setattr(R, "make_simulator",
                        lambda name, **params: wrap(real_make(name, **params)))
    return R.run_design(R.RunConfig.from_dict(cfg))


def chain_lines(out, chain):
    lines = (out / "metrics.csv").read_text().splitlines()[1:]
    return [line for line in lines if line.startswith(f"{chain},")]


def near_chain_1(sim, batched, response):
    """``sim`` with ``response`` in place of phi wherever x[0] > 3: chain 1
    of the seed-0 design preset starts there and no other chain comes near."""
    def fn(X):
        X = np.asarray(X)
        out = sim.fn(X)
        far = X[..., :1] > 3.0
        return np.where(far, response(X), out)
    return Simulator(fn=fn, response_dim=sim.response_dim, name=sim.name,
                     batched=batched)


@pytest.mark.parametrize("batched", [True, False])
def test_non_finite_response_fails_only_its_chain(tmp_path, monkeypatch,
                                                   batched):
    clean = R.run_design(R.RunConfig.from_dict(design_cfg(tmp_path, "clean")))
    cfg = design_cfg(tmp_path, "nan")
    manifest = run_with_simulator(monkeypatch, cfg, lambda sim: near_chain_1(
        sim, batched, lambda X: np.full(X.shape, np.nan)))
    assert manifest["chain_errors"] == [
        {"chain": 1, "error": "SimulatorError: simulator 'saturating' "
         "returned non-finite values", "divergence": False}]
    assert manifest["reports"]["mse"] == [clean["reports"]["mse"][0],
                                          clean["reports"]["mse"][2]]
    for chain in (0, 2):
        assert chain_lines(tmp_path / "nan", chain) == \
            chain_lines(tmp_path / "clean", chain)
        name = f"design_{chain:04d}.txt"
        assert (tmp_path / "nan" / name).read_bytes() == \
            (tmp_path / "clean" / name).read_bytes()
    assert not (tmp_path / "nan" / "design_0001.txt").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_diverging_row_is_recorded_as_divergence(tmp_path, monkeypatch):
    clean = R.run_design(R.RunConfig.from_dict(design_cfg(tmp_path, "clean")))
    cfg = design_cfg(tmp_path, "div")
    manifest = run_with_simulator(monkeypatch, cfg, lambda sim: near_chain_1(
        sim, True, lambda X: 1e200 * X))
    assert manifest["chain_errors"] == [
        {"chain": 1, "error": "DivergenceError: latent diverged at design "
         "step 0", "divergence": True}]
    assert manifest["reports"]["mse"] == [clean["reports"]["mse"][0],
                                          clean["reports"]["mse"][2]]
    assert manifest["ok"] is False


def test_blocks_write_the_bytes_of_one_chain_at_a_time(tmp_path, monkeypatch):
    chains = R.BLOCK_ROWS + 13
    blocked = R.run_design(R.RunConfig.from_dict(
        design_cfg(tmp_path, "blocked", chains)))
    monkeypatch.setattr(R, "BLOCK_ROWS", 1)
    single = R.run_design(R.RunConfig.from_dict(
        design_cfg(tmp_path, "single", chains)))
    names = ["metrics.csv"] + [f"design_{i:04d}.txt" for i in range(chains)]
    for name in names:
        assert (tmp_path / "blocked" / name).read_bytes() == \
            (tmp_path / "single" / name).read_bytes()
    assert blocked["reports"] == single["reports"]
    assert blocked["chain_errors"] == single["chain_errors"] == []
    assert blocked["counters"]["simulator_evaluations"] == \
        single["counters"]["simulator_evaluations"] == chains * (6 * 64 + 5)
    assert (blocked["counters"]["simulator_calls"],
            single["counters"]["simulator_calls"]) == (2 * 11, chains * 11)
