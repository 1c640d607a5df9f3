import numpy as np
import pytest
from scipy import integrate, stats

from latentprox import constraints as C
from latentprox.decoders import estimate_lipschitz, random_linear_decoder
from latentprox.diagnostics import (BoundRecord, GaussianFit,
                                    check_feasibility_contraction,
                                    check_fidelity_drift, fit_gaussian,
                                    frechet_distance, gaussian_kl,
                                    kl_series_from_moments,
                                    measured_score_bound,
                                    propagate_linear_gaussian)
from latentprox.errors import DegeneracyError, ParameterError, ShapeError
from latentprox.samplers import SampleTrace, TraceRow
from latentprox.schedules import make_schedule
from latentprox.scores import linear_gaussian_field


def fit(mean, cov):
    return GaussianFit(mean=np.asarray(mean, float),
                       cov=np.atleast_2d(np.asarray(cov, float)))


# ---------------------------------------------------------------------------
# KL and Frechet


def test_kl_identical_fits_zero():
    a = fit([1.0, 2.0], [[1.0, 0.1], [0.1, 0.5]])
    assert gaussian_kl(a, a) == 0.0


def test_kl_unit_mean_shift_half():
    # oracle: numeric integration of the 1-D KL integrand
    a, b = fit([1.0], [[1.0]]), fit([0.0], [[1.0]])
    val = gaussian_kl(a, b)
    pa = stats.norm(1.0, 1.0)
    pb = stats.norm(0.0, 1.0)
    quad, _ = integrate.quad(
        lambda x: pa.pdf(x) * (pa.logpdf(x) - pb.logpdf(x)), -10, 12)
    assert abs(val - 0.5) < 1e-12
    assert abs(val - quad) < 1e-8


def test_kl_variance_mismatch_closed_form():
    # oracle: 0.5 (ratio - 1 - ln ratio) evaluated independently
    a, b = fit([0.0], [[4.0]]), fit([0.0], [[1.0]])
    expected = 0.5 * (4.0 - 1.0 - np.log(4.0))
    assert abs(gaussian_kl(a, b) - expected) < 1e-12
    assert abs(expected - 0.8068528194400547) < 1e-15


def test_kl_singular_reference_rejected():
    a = fit([0.0, 0.0], np.eye(2))
    b = fit([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DegeneracyError):
        gaussian_kl(a, b)


def test_kl_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        A = rng.standard_normal((2, 2))
        B = rng.standard_normal((2, 2))
        a = fit(rng.standard_normal(2), A @ A.T + 0.1 * np.eye(2))
        b = fit(rng.standard_normal(2), B @ B.T + 0.1 * np.eye(2))
        assert gaussian_kl(a, b) >= 0.0


def test_frechet_identical_zero():
    a = fit([0.5, -0.5], [[2.0, 0.3], [0.3, 1.0]])
    assert frechet_distance(a, a) <= 1e-9


def test_frechet_1d_closed_form():
    # oracle: (mu gap)^2 + (sigma gap)^2 in one dimension
    a, b = fit([0.0], [[1.0]]), fit([3.0], [[1.0]])
    assert abs(frechet_distance(a, b) - 9.0) < 1e-9


def test_frechet_commuting_diagonals_decompose():
    # oracle: sum of per-axis 1-D values for diagonal covariances
    mu_a, mu_b = np.array([1.0, -2.0]), np.array([0.0, 1.0])
    da, db = np.array([1.0, 4.0]), np.array([2.25, 0.25])
    a, b = fit(mu_a, np.diag(da)), fit(mu_b, np.diag(db))
    per_axis = sum((mu_a[i] - mu_b[i]) ** 2
                   + (np.sqrt(da[i]) - np.sqrt(db[i])) ** 2 for i in range(2))
    assert abs(frechet_distance(a, b) - per_axis) < 1e-9


def test_frechet_symmetric():
    rng = np.random.default_rng(4)
    for _ in range(25):
        A = rng.standard_normal((3, 3))
        B = rng.standard_normal((3, 3))
        a = fit(rng.standard_normal(3), A @ A.T + 0.05 * np.eye(3))
        b = fit(rng.standard_normal(3), B @ B.T + 0.05 * np.eye(3))
        assert abs(frechet_distance(a, b) - frechet_distance(b, a)) < 1e-9


def test_fit_gaussian_two_samples_by_hand():
    # oracle: unbiased covariance with divisor 1
    g = fit_gaussian(np.array([[0.0, 0.0], [2.0, 0.0]]))
    assert np.allclose(g.mean, [1.0, 0.0])
    assert np.allclose(g.cov, [[2.0, 0.0], [0.0, 0.0]])


def test_fit_gaussian_identical_samples():
    g = fit_gaussian(np.tile([1.0, 2.0], (5, 1)))
    assert np.allclose(g.cov, 0.0)


def test_fit_gaussian_needs_two_samples():
    with pytest.raises(ParameterError):
        fit_gaussian(np.array([[1.0, 2.0]]))


def test_fit_gaussian_monte_carlo_identity():
    rng = np.random.default_rng(1)
    X = rng.standard_normal((50_000, 2))
    g = fit_gaussian(X)
    se = np.sqrt(2.0 / 50_000)
    assert np.all(np.abs(g.cov - np.eye(2)) < 3 * np.array(
        [[se, se / np.sqrt(2)], [se / np.sqrt(2), se]]) * 1.5)


def test_dimension_mismatch_errors():
    with pytest.raises(ShapeError):
        gaussian_kl(fit([0.0], [[1.0]]), fit([0.0, 0.0], np.eye(2)))
    with pytest.raises(ShapeError):
        frechet_distance(fit([0.0], [[1.0]]), fit([0.0, 0.0], np.eye(2)))


# ---------------------------------------------------------------------------
# bound checks


def synthetic_trace(dists, gamma=0.01, score_norm=1.0):
    trace = SampleTrace()
    T = len(dists)
    for k, d in enumerate(dists):
        t = T - k
        trace.rows.append(TraceRow(t=t, i=1, phase="langevin", gamma=gamma,
                                   score_norm=score_norm, violation=d,
                                   dist=d))
    return trace


def test_contraction_feasible_trace_all_hold():
    trace = synthetic_trace([0.0] * 10)
    dec = random_linear_decoder(2, 3, seed=0)
    estimate_lipschitz(dec, 1, np.random.default_rng(0))
    spec = C.halfspace([1.0, 0.0, 0.0], 0.0)
    rep = check_feasibility_contraction(trace, spec, dec, beta=1.0)
    assert rep.fraction_holding == 1.0
    for r in rep.records:
        assert abs(r.slack - (0.01 ** 2) * rep.G ** 2) < 1e-15


def test_contraction_fabricated_violation_detected():
    # a jump in dist^2 faster than the bound must flag holds = False
    trace = synthetic_trace([0.2, 0.1, 5.0, 0.05])
    dec = random_linear_decoder(2, 3, seed=0)
    estimate_lipschitz(dec, 1, np.random.default_rng(0))
    spec = C.halfspace([1.0, 0.0, 0.0], 0.0)
    rep = check_feasibility_contraction(trace, spec, dec, beta=1.0)
    holds = [r.holds for r in rep.records]
    assert holds[0] is True and holds[1] is False
    assert rep.fraction_holding < 1.0


def test_contraction_drift_only_run_all_hold():
    # zero-noise drift-only run onto a halfspace with a linear decoder
    from latentprox.samplers import SamplerConfig, sample, chain_rng
    sched = make_schedule(T=20, abar_end=0.02,
                          gamma_max=0.02, gamma_min=0.005, M=1)
    dec = random_linear_decoder(2, 3, seed=1234, scale=1.0)
    estimate_lipschitz(dec, 1, np.random.default_rng(0))
    m = np.array([3.0, 0.0])
    f = linear_gaussian_field(m, np.eye(2), sched)
    mu_x = dec.weight @ m
    spec = C.halfspace(-mu_x / np.linalg.norm(mu_x), -1.0, prox_weight=1e5)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=dec, constraint=spec, lr=0.5, inner_cap=60,
                        noise_scale=0.0, final_projection=False)
    for seed in range(5):
        _, trace = sample(cfg, chain_rng(seed, 0))
        rep = check_feasibility_contraction(trace, spec, dec, beta=1.0)
        assert rep.fraction_holding == 1.0
        assert rep.precondition_ok


def test_contraction_precondition_flagged():
    trace = synthetic_trace([0.5] * 5, gamma=10.0, score_norm=2.0)
    dec = random_linear_decoder(2, 3, seed=0)
    estimate_lipschitz(dec, 1, np.random.default_rng(0))
    spec = C.halfspace([1.0, 0.0, 0.0], 0.0)
    rep = check_feasibility_contraction(trace, spec, dec, beta=1.0)
    assert not rep.precondition_ok  # gamma > beta / (2 G^2), advisory only
    assert rep.records  # the check still runs


def test_fidelity_drift_constant_series_holds():
    sched = make_schedule(T=5, abar_end=0.02, gamma_max=0.05,
                          gamma_min=0.01, M=1)
    rep = check_fidelity_drift(np.full(6, 0.7), sched, G=1.0)
    assert all(r.holds for r in rep.records)
    assert rep.cumulative.holds


def test_fidelity_drift_decreasing_series_holds():
    sched = make_schedule(T=5, abar_end=0.02, gamma_max=0.05,
                          gamma_min=0.01, M=1)
    rep = check_fidelity_drift(np.linspace(1.0, 0.0, 6)[::-1], sched, G=1.0)
    assert all(r.holds for r in rep.records)
    assert rep.cumulative.holds


def test_fidelity_drift_jump_fails_at_level():
    sched = make_schedule(T=4, abar_end=0.02, gamma_max=0.05,
                          gamma_min=0.05, M=1)
    kl = np.full(5, 0.2)
    kl[1] = kl[2] + 2 * sched.gamma_at(2) * 4.0  # G = 2 -> drift budget g*4
    rep = check_fidelity_drift(kl, sched, G=2.0)
    fails = [r for r in rep.records if not r.holds]
    assert len(fails) == 1 and fails[0].t == 2


def test_fidelity_drift_length_mismatch():
    sched = make_schedule(T=4, abar_end=0.02, gamma_max=0.05,
                          gamma_min=0.01, M=1)
    with pytest.raises(ParameterError):
        check_fidelity_drift(np.zeros(4), sched, G=1.0)


def test_bound_record_slack_semantics():
    r = BoundRecord(t=1, lhs=1.0, rhs=1.0)
    assert r.holds and r.slack == 0.0
    assert not BoundRecord(t=1, lhs=1.0, rhs=0.5).holds


def test_propagated_moments_match_monte_carlo():
    # oracle: simulate the linear chain directly and compare moments
    sched = make_schedule(T=6, abar_end=0.05, gamma_max=0.08,
                          gamma_min=0.03, M=2)
    f = linear_gaussian_field(np.array([0.8]), np.array([[0.9]]), sched)
    moments = propagate_linear_gaussian(sched, f)
    rng = np.random.default_rng(0)
    n = 200_000
    Z = rng.standard_normal((n, 1))
    from latentprox.scores import _level_cache
    for t in range(sched.T, 0, -1):
        gamma = sched.gamma_at(t)
        _, means, invs, _ = _level_cache(f, t)
        for _ in range(sched.inner_steps):
            S = -(Z - means[0]) @ invs[0].T
            Z = Z + gamma * S + np.sqrt(2 * gamma) * rng.standard_normal((n, 1))
    m0, S0 = moments[0]
    assert abs(Z.mean() - m0[0]) < 4 * np.sqrt(S0[0, 0] / n)
    assert abs(Z.var(ddof=1) - S0[0, 0]) < 4 * S0[0, 0] * np.sqrt(2.0 / n)


def test_kl_series_and_score_bound():
    sched = make_schedule(T=8, abar_end=0.02, gamma_max=0.03,
                          gamma_min=0.01, M=1)
    f = linear_gaussian_field(np.array([1.0, 0.0]), np.eye(2), sched)
    moments = propagate_linear_gaussian(sched, f)
    kl = kl_series_from_moments(moments, f)
    assert kl.shape == (9,)
    assert kl[0] < kl[sched.T]  # the chain approaches the data distribution
    G = measured_score_bound(f, moments, draws=128,
                             rng=np.random.default_rng(0))
    rep = check_fidelity_drift(kl, sched, G)
    assert rep.cumulative.holds


def test_canonical_convex_cumulative_fidelity_all_seeds():
    # population KL drift on the noisy halfspace experiment: the cumulative
    # inequality must hold on 20/20 seeded runs
    from latentprox.experiments import halfspace_contraction_config
    from latentprox.runner import RunConfig, build_sampler_config
    from latentprox.samplers import chain_rng, sample
    cfg = RunConfig.from_dict(halfspace_contraction_config(
        seed=0, out="unused", noise_scale=1.0))
    scfg = build_sampler_config(cfg)
    ref = GaussianFit(mean=scfg.score.means[0], cov=scfg.score.covs[0])
    sched = scfg.schedule
    holds = 0
    for seed in range(20):
        by_level = {t: [] for t in range(sched.T + 1)}
        traces = []
        for i in range(60):
            _, trace = sample(scfg, chain_rng(seed, i))
            traces.append(trace)
            for row in trace.level_final_rows():
                by_level[row.t - 1].append(row.z)
        kl = np.empty(sched.T + 1)
        kl[sched.T] = gaussian_kl(
            GaussianFit(mean=np.zeros(2), cov=np.eye(2)), ref)
        for t in range(sched.T):
            kl[t] = gaussian_kl(fit_gaussian(np.array(by_level[t])), ref)
        G = max(tr.max_score_norm() for tr in traces)
        rep = check_fidelity_drift(kl, sched, G)
        holds += rep.cumulative.holds
    assert holds == 20
