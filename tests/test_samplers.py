import numpy as np
import pytest

from latentprox import constraints as C
from latentprox.decoders import decode, random_linear_decoder
from latentprox.errors import ConfigError, ParameterError
from latentprox.samplers import (SamplerConfig, chain_rng,
                                 finalize_with_projection, langevin_step,
                                 sample, sample_projected_ambient,
                                 sample_proximal_latent, sample_unconstrained)
from latentprox.schedules import NoiseSchedule, make_schedule
from latentprox.scores import linear_gaussian_field, standard_normal_field


def small_schedule(T=6, M=2, gmax=0.05, gmin=0.01):
    return make_schedule(T=T, abar_start=1.0, abar_end=0.02, gamma_max=gmax,
                         gamma_min=gmin, M=M)


def vacuous_box(dim):
    return C.box([-1e9] * dim, [1e9] * dim)


def test_langevin_step_pure_noise():
    sched = small_schedule()
    f = linear_gaussian_field(np.zeros(2), 1e12 * np.eye(2), sched)
    # enormous covariance makes the score ~0; gamma = 0.5 gives noise scale 1
    z = np.array([0.4, -0.6])
    rng = np.random.default_rng(0)
    out, s = langevin_step(z, f, 1, 0.5, rng)
    eps = np.random.default_rng(0).standard_normal(2)
    assert np.allclose(out, z + 0.5 * (-z / 1e12 * 0 + 0) + eps, atol=1e-9)


def test_langevin_step_zero_score_at_mode():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    rng = np.random.default_rng(1)
    out, s = langevin_step(np.zeros(2), f, 0, 0.3, rng)
    eps = np.random.default_rng(1).standard_normal(2)
    assert np.allclose(out, np.sqrt(0.6) * eps)


def test_langevin_drift_only_contracts():
    sched = small_schedule()
    f = standard_normal_field(3, sched)
    z = np.array([1.0, -2.0, 0.5])
    for gamma in (0.1, 0.5, 0.9):
        out, s = langevin_step(z, f, 0, gamma, np.random.default_rng(0),
                            noise_scale=0.0)
        assert np.linalg.norm(out) < np.linalg.norm(z)


def test_langevin_gamma_validation():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    with pytest.raises(ParameterError):
        langevin_step(np.zeros(2), f, 1, 0.0, np.random.default_rng(0))


def test_unconstrained_gaussian_moment_check():
    # oracle: Monte Carlo mean of the sampled population approaches the
    # target mean within standard errors (schedule long enough that the
    # closed-form output bias sits well below the noise floor)
    sched = make_schedule(T=60, abar_start=1.0, abar_end=0.02, gamma_max=0.08,
                          gamma_min=0.04, M=10)
    mu = np.array([0.6, -0.3])
    f = linear_gaussian_field(mu, np.eye(2), sched)
    cfg = SamplerConfig(schedule=sched, score=f, mode="unconstrained",
                        record_vectors=False)
    n = 200
    xs = np.empty((n, 2))
    for i in range(n):
        xs[i], _ = sample_unconstrained(cfg, chain_rng(0, i))
    mean = xs.mean(axis=0)
    se = xs.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - mu) < 3 * se)


def test_unconstrained_gaussian_moment_check_large_population():
    # same check at 1e4 chains through the vectorized equivalent (identity
    # decoder, no constraint), which is bit-equivalent dynamics
    from latentprox.decoders import linear_decoder
    from latentprox.experiments import sample_population
    sched = make_schedule(T=300, abar_start=1.0, abar_end=0.02,
                          gamma_max=0.09, gamma_min=0.05, M=8)
    mu = np.array([0.6, -0.3])
    f = linear_gaussian_field(mu, np.eye(2), sched)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=linear_decoder(np.eye(2)),
                        record_vectors=False)
    xs = sample_population(cfg, 10_000, np.random.default_rng(0))
    mean = xs.mean(axis=0)
    se = xs.std(axis=0, ddof=1) / np.sqrt(10_000)
    assert np.all(np.abs(mean - mu) < 3 * se)


def test_unconstrained_zero_level_schedule():
    sched = NoiseSchedule(T=0, abar=np.array([1.0]), gamma=np.zeros(0))
    f = standard_normal_field(2, sched)
    cfg = SamplerConfig(schedule=sched, score=f, mode="unconstrained")
    z, trace = sample_unconstrained(cfg, chain_rng(3, 0))
    assert np.array_equal(z, np.random.default_rng(
        np.random.SeedSequence(entropy=3, spawn_key=(0,))).standard_normal(2))
    assert trace.rows == []


def test_unconstrained_seeded_determinism():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    cfg = SamplerConfig(schedule=sched, score=f, mode="unconstrained")
    z1, t1 = sample_unconstrained(cfg, chain_rng(5, 2))
    z2, t2 = sample_unconstrained(cfg, chain_rng(5, 2))
    assert np.array_equal(z1, z2)
    assert all(np.array_equal(a.z, b.z) for a, b in zip(t1.rows, t2.rows))


def test_projected_ambient_feasible_every_step():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    spec = C.l2_ball(1.0)
    cfg = SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                        constraint=spec)
    for i in range(5):
        x, trace = sample_projected_ambient(cfg, chain_rng(0, i))
        for row in trace.rows:
            assert row.violation == 0.0
        assert np.linalg.norm(x) <= 1.0 + 1e-12


def test_projected_ambient_halfspace_mean_shift():
    # oracle: rejection sampling of the constrained Gaussian gives the
    # restricted mean; the projected sampler must shift the same way
    sched = make_schedule(T=8, abar_start=1.0, abar_end=0.05, gamma_max=0.05,
                          gamma_min=0.02, M=25)
    f = standard_normal_field(2, sched)
    spec = C.halfspace([1.0, 0.0], 0.5)
    cfg = SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                        constraint=spec, record_vectors=False)
    n = 1500
    acc = np.zeros(2)
    for i in range(n):
        x, _ = sample_projected_ambient(cfg, chain_rng(1, i))
        acc += x
    mean = acc / n
    rng = np.random.default_rng(9)
    draws = rng.standard_normal((200_000, 2))
    restricted = draws[draws[:, 0] <= 0.5]
    assert mean[0] < -0.1  # clearly shifted off the unconstrained mean 0
    assert abs(mean[0] - restricted[:, 0].mean()) < 0.12


def test_projected_ambient_requires_exact_projection():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    spec = C.custom_constraint(lambda y: 0.0, lambda y: np.zeros_like(y))
    with pytest.raises(ConfigError):
        SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                      constraint=spec)


def test_identity_constraint_equivalence_all_modes():
    sched = small_schedule()
    lat = standard_normal_field(2, sched)
    amb = standard_normal_field(3, sched)
    dec = random_linear_decoder(2, 3, seed=5)

    u_lat = SamplerConfig(schedule=sched, score=lat, mode="unconstrained")
    prox = SamplerConfig(schedule=sched, score=lat, mode="proximal_latent",
                         decoder=dec, constraint=vacuous_box(3))
    z, tu = sample_unconstrained(u_lat, chain_rng(9, 0))
    x, tp = sample_proximal_latent(prox, chain_rng(9, 0))
    assert len(tu.rows) == len(tp.rows)
    assert all(np.array_equal(a.z, b.z) for a, b in zip(tu.rows, tp.rows))
    assert np.array_equal(decode(dec, z), x)

    u_amb = SamplerConfig(schedule=sched, score=amb, mode="unconstrained")
    proj = SamplerConfig(schedule=sched, score=amb, mode="projected_ambient",
                         constraint=vacuous_box(3))
    za, ta = sample_unconstrained(u_amb, chain_rng(9, 0))
    xa, tb = sample_projected_ambient(proj, chain_rng(9, 0))
    assert all(np.array_equal(a.z, b.x) for a, b in zip(ta.rows, tb.rows))
    assert np.array_equal(za, xa)


def test_proximal_latent_porosity_exact():
    sched = make_schedule(T=8, abar_start=1.0, abar_end=0.02, gamma_max=0.05,
                          gamma_min=0.01, M=1)
    lat_dim, grid = 6, (3, 3)
    f = standard_normal_field(lat_dim, sched)
    dec = random_linear_decoder(lat_dim, 9, seed=2, scale=1.5)
    spec = C.porosity_constraint(grid, 4, prox_weight=50.0)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=dec, constraint=spec, lr=0.2, inner_cap=100)
    for i in range(10):
        x, trace = sample_proximal_latent(cfg, chain_rng(4, i))
        assert C.porosity(x.reshape(grid)) == 4
        assert np.all(np.abs(x) <= 1.0)


def test_proximal_latent_trace_length_invariant():
    sched = small_schedule(T=5, M=3)
    f = standard_normal_field(2, sched)
    dec = random_linear_decoder(2, 3, seed=1)
    spec = C.halfspace([1.0, 0.0, 0.0], 0.2, prox_weight=1e4)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=dec, constraint=spec, lr=0.5, inner_cap=60)
    _, trace = sample_proximal_latent(cfg, chain_rng(7, 0))
    langevin_rows = [r for r in trace.rows if r.phase == "langevin"]
    correction_rows = [r for r in trace.rows if r.phase == "correction"]
    assert len(langevin_rows) == sched.T * sched.inner_steps
    assert len(trace.rows) == len(langevin_rows) + len(correction_rows)
    # step index monotone within a level and phase
    for t in range(1, sched.T + 1):
        idx = [r.i for r in trace.rows if r.t == t and r.phase == "langevin"]
        assert idx == sorted(idx)


def test_mode_solver_compatibility():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    dec = random_linear_decoder(2, 4, seed=0)
    poro = C.porosity_constraint((2, 2), 2)
    with pytest.raises(ConfigError):
        SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                      decoder=dec, constraint=poro, solver="alm")
    smooth = C.custom_constraint(lambda y: 0.0, lambda y: np.zeros_like(y))
    with pytest.raises(ConfigError):
        SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                      decoder=dec, constraint=smooth, solver="closed_form")
    with pytest.raises(ConfigError):
        SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                      decoder=dec, constraint=smooth, solver="dpo")


def test_finalize_with_projection():
    dec = random_linear_decoder(2, 4, seed=3)
    ball = C.l2_ball(1.0)
    z0 = np.array([3.0, 1.0])
    out = finalize_with_projection(z0, dec, ball)
    assert np.linalg.norm(out) <= 1.0 + 1e-12
    # feasible decode stays unchanged
    z_small = np.array([0.01, 0.0])
    x_dec = decode(dec, z_small)
    assert np.array_equal(finalize_with_projection(z_small, dec, ball), x_dec)
    smooth = C.custom_constraint(lambda y: 0.0, lambda y: np.zeros_like(y))
    with pytest.raises(ConfigError):
        finalize_with_projection(z0, dec, smooth)


def test_shortfall_recorded_when_cap_hit():
    sched = small_schedule(T=3, M=1)
    f = standard_normal_field(2, sched)
    dec = random_linear_decoder(2, 3, seed=1)
    # tiny lr so the correction loop cannot reach delta within the cap
    spec = C.halfspace([1.0, 0.0, 0.0], -5.0, delta=1e-6, prox_weight=1e6)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=dec, constraint=spec, lr=1e-6, inner_cap=5)
    _, trace = sample_proximal_latent(cfg, chain_rng(0, 0))
    assert trace.shortfalls
    t, iters, viol = trace.shortfalls[0]
    assert iters == 5 and viol > spec.delta


def test_replay_from_seed_lineage():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    dec = random_linear_decoder(2, 3, seed=8)
    spec = C.halfspace([1.0, 0.0, 0.0], 0.0, prox_weight=1e4)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=dec, constraint=spec, lr=0.5)
    x1, t1 = sample(cfg, chain_rng(11, 4))
    t1.seed_lineage = (11, 4)
    # regenerate from the recorded lineage
    x2, t2 = sample(cfg, chain_rng(*t1.seed_lineage))
    assert np.array_equal(x1, x2)
    assert all(np.array_equal(a.z, b.z) for a, b in zip(t1.rows, t2.rows))


def test_output_feasibility_convex_kinds():
    # with final projection on, the output violation is exactly zero
    sched = small_schedule(T=5, M=1)
    f = standard_normal_field(2, sched)
    dec = random_linear_decoder(2, 3, seed=6)
    specs = [C.halfspace([1.0, 0.5, -0.2], -0.5, prox_weight=1e4),
             C.l2_ball(0.5, center=np.array([2.0, 2.0, 2.0]),
                       prox_weight=1e4),
             C.box([-0.1] * 3, [0.1] * 3, prox_weight=1e4)]
    for spec in specs:
        cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                            decoder=dec, constraint=spec, lr=0.3,
                            final_projection=True)
        for i in range(10):
            x, _ = sample_proximal_latent(cfg, chain_rng(2, i))
            assert C.violation(spec, x) == 0.0
