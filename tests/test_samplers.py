import numpy as np
import pytest

from latentprox import constraints as C
from latentprox.alm import alm_project
from latentprox.decoders import (decode, random_linear_decoder,
                                 random_mlp_decoder, vjp)
from latentprox.dpo import DpoConfig, saturating_simulator
from latentprox.errors import (AlmNonConvergence, ConfigError,
                               DivergenceError, ParameterError)
from latentprox.experiments import centroid_config
from latentprox.runner import RunConfig, build_sampler_config
from latentprox.samplers import (SampleTrace, SamplerConfig, TraceRow,
                                 _correction_active, chain_rng,
                                 langevin_step, sample)
from latentprox.schedules import NoiseSchedule, make_schedule
from latentprox.scores import linear_gaussian_field, standard_normal_field


def small_schedule(T=6, M=2, gmax=0.05, gmin=0.01):
    return make_schedule(T=T, abar_end=0.02, gamma_max=gmax,
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


def test_langevin_step_batch_leaves_finiteness_to_caller():
    # a batch of rows steps with the point expression and one noise draw of
    # the batch's shape; a non-finite row comes back as it is
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    Z = np.array([[0.5, -1.0], [np.nan, 0.0], [2.0, 0.25]])
    out, s = langevin_step(Z, f, 1, 0.2, np.random.default_rng(4), 0.5)
    E = np.random.default_rng(4).standard_normal(Z.shape)
    expected = Z + 0.2 * (-Z) + np.sqrt(2.0 * 0.2) * 0.5 * E
    assert np.array_equal(s[[0, 2]], -Z[[0, 2]])
    assert np.array_equal(out[[0, 2]], expected[[0, 2]])
    assert np.isnan(out[1]).all()


def test_langevin_gamma_validation():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    with pytest.raises(ParameterError):
        langevin_step(np.zeros(2), f, 1, 0.0, np.random.default_rng(0))


def test_unconstrained_gaussian_moment_check():
    # oracle: Monte Carlo mean of the sampled population approaches the
    # target mean within standard errors (schedule long enough that the
    # closed-form output bias sits well below the noise floor)
    sched = make_schedule(T=60, abar_end=0.02, gamma_max=0.08,
                          gamma_min=0.04, M=10)
    mu = np.array([0.6, -0.3])
    f = linear_gaussian_field(mu, np.eye(2), sched)
    cfg = SamplerConfig(schedule=sched, score=f, mode="unconstrained",
                        record_vectors=False)
    n = 200
    xs = np.empty((n, 2))
    for i in range(n):
        xs[i], _ = sample(cfg, chain_rng(0, i))
    mean = xs.mean(axis=0)
    se = xs.std(axis=0, ddof=1) / np.sqrt(n)
    assert np.all(np.abs(mean - mu) < 3 * se)


def test_unconstrained_gaussian_moment_check_large_population():
    # same check at 1e4 chains through the vectorized equivalent (identity
    # decoder, no constraint), which is bit-equivalent dynamics
    from latentprox.decoders import linear_decoder
    from latentprox.experiments import sample_population
    sched = make_schedule(T=300, abar_end=0.02,
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
    z, trace = sample(cfg, chain_rng(3, 0))
    assert np.array_equal(z, np.random.default_rng(
        np.random.SeedSequence(entropy=3, spawn_key=(0,))).standard_normal(2))
    assert trace.rows == []


def test_unconstrained_seeded_determinism():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    cfg = SamplerConfig(schedule=sched, score=f, mode="unconstrained")
    z1, t1 = sample(cfg, chain_rng(5, 2))
    z2, t2 = sample(cfg, chain_rng(5, 2))
    assert np.array_equal(z1, z2)
    assert all(np.array_equal(a.z, b.z) for a, b in zip(t1.rows, t2.rows))


def test_projected_ambient_feasible_every_step():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    spec = C.l2_ball(1.0)
    cfg = SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                        constraint=spec)
    for i in range(5):
        x, trace = sample(cfg, chain_rng(0, i))
        for row in trace.rows:
            assert row.violation == 0.0
        assert np.linalg.norm(x) <= 1.0 + 1e-12


def test_projected_ambient_halfspace_mean_shift():
    # oracle: rejection sampling of the constrained Gaussian gives the
    # restricted mean; the projected sampler must shift the same way
    sched = make_schedule(T=8, abar_end=0.05, gamma_max=0.05,
                          gamma_min=0.02, M=25)
    f = standard_normal_field(2, sched)
    spec = C.halfspace([1.0, 0.0], 0.5)
    cfg = SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                        constraint=spec, record_vectors=False)
    n = 1500
    acc = np.zeros(2)
    for i in range(n):
        x, _ = sample(cfg, chain_rng(1, i))
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
    # the alm solver accepts a constraint with no exact projection, but
    # projected_ambient does not; and it needs a constraint at all
    for con in (spec, None):
        with pytest.raises(ConfigError, match="projected_ambient requires"):
            SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                          constraint=con, solver="alm")


def test_identity_constraint_equivalence_all_modes():
    sched = small_schedule()
    lat = standard_normal_field(2, sched)
    amb = standard_normal_field(3, sched)
    dec = random_linear_decoder(2, 3, seed=5)

    u_lat = SamplerConfig(schedule=sched, score=lat, mode="unconstrained")
    prox = SamplerConfig(schedule=sched, score=lat, mode="proximal_latent",
                         decoder=dec, constraint=vacuous_box(3))
    z, tu = sample(u_lat, chain_rng(9, 0))
    x, tp = sample(prox, chain_rng(9, 0))
    assert len(tu.rows) == len(tp.rows)
    assert all(np.array_equal(a.z, b.z) for a, b in zip(tu.rows, tp.rows))
    assert np.array_equal(decode(dec, z), x)

    u_amb = SamplerConfig(schedule=sched, score=amb, mode="unconstrained")
    proj = SamplerConfig(schedule=sched, score=amb, mode="projected_ambient",
                         constraint=vacuous_box(3))
    za, ta = sample(u_amb, chain_rng(9, 0))
    xa, tb = sample(proj, chain_rng(9, 0))
    assert all(np.array_equal(a.z, b.x) for a, b in zip(ta.rows, tb.rows))
    assert np.array_equal(za, xa)


def test_proximal_latent_porosity_exact():
    sched = make_schedule(T=8, abar_end=0.02, gamma_max=0.05,
                          gamma_min=0.01, M=1)
    lat_dim, grid = 6, (3, 3)
    f = standard_normal_field(lat_dim, sched)
    dec = random_linear_decoder(lat_dim, 9, seed=2, scale=1.5)
    spec = C.porosity_constraint(grid, 4, prox_weight=50.0)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=dec, constraint=spec, lr=0.2, inner_cap=100)
    for i in range(10):
        x, trace = sample(cfg, chain_rng(4, i))
        assert C.porosity(x.reshape(grid)) == 4
        assert np.all(np.abs(x) <= 1.0)


def test_proximal_latent_trace_length_invariant():
    sched = small_schedule(T=5, M=3)
    f = standard_normal_field(2, sched)
    dec = random_linear_decoder(2, 3, seed=1)
    spec = C.halfspace([1.0, 0.0, 0.0], 0.2, prox_weight=1e4)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=dec, constraint=spec, lr=0.5, inner_cap=60)
    _, trace = sample(cfg, chain_rng(7, 0))
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


def test_shortfall_recorded_when_cap_hit():
    sched = small_schedule(T=3, M=1)
    f = standard_normal_field(2, sched)
    dec = random_linear_decoder(2, 3, seed=1)
    # tiny lr so the correction loop cannot reach delta within the cap
    spec = C.halfspace([1.0, 0.0, 0.0], -5.0, delta=1e-6, prox_weight=1e6)
    cfg = SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                        decoder=dec, constraint=spec, lr=1e-6, inner_cap=5)
    _, trace = sample(cfg, chain_rng(0, 0))
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
    lineage = (11, 4)
    x1, t1 = sample(cfg, chain_rng(*lineage))
    # regenerate from the recorded lineage
    x2, t2 = sample(cfg, chain_rng(*lineage))
    assert np.array_equal(x1, x2)
    assert all(np.array_equal(a.z, b.z) for a, b in zip(t1.rows, t2.rows))


def test_trace_rows_copy_the_chain_state_only():
    sched = small_schedule(T=4, M=2)
    dec = random_linear_decoder(2, 3, seed=8)
    spec = C.halfspace([1.0, 0.0, 0.0], 0.0, prox_weight=1e4)
    prox = SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                         mode="proximal_latent", decoder=dec, constraint=spec,
                         lr=0.5)
    _, trace = sample(prox, chain_rng(3, 0))
    phases = {row.phase for row in trace.rows}
    assert phases == {"langevin", "correction"}
    # a proximal row keeps its latent; the decoded point is not copied
    assert all(row.x is None and row.z.shape == (2,) for row in trace.rows)

    proj = SamplerConfig(schedule=sched, score=standard_normal_field(3, sched),
                         mode="projected_ambient", constraint=spec)
    x, trace = sample(proj, chain_rng(3, 0))
    assert all(row.z is None and row.x.shape == (3,) for row in trace.rows)
    assert np.array_equal(trace.rows[-1].x, x)


def test_dpo_solver_corrects_each_level_and_replays():
    # a custom smooth constraint whose g is the tracking loss of a
    # saturating simulator, corrected by the smoothed-gradient estimator
    sched = small_schedule(T=6, M=1)
    dec = random_linear_decoder(2, 4, seed=3, scale=2.0)
    sim = saturating_simulator(
        np.random.default_rng(5).standard_normal((3, 4)), scale=2.0)
    target = sim.fn(decode(dec, np.array([0.6, -0.4])))
    spec = C.custom_constraint(
        lambda x: 0.5 * float(np.sum((sim.fn(x) - target) ** 2)),
        delta=1e-3, prox_weight=1e4)
    cfg = SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                        mode="proximal_latent", decoder=dec, constraint=spec,
                        solver="dpo", lr=0.1, inner_cap=30, simulator=sim,
                        dpo=DpoConfig(nu=0.05, M=64, target=target))
    x, trace = sample(cfg, chain_rng(1, 0))
    starts, ends = trace.level_end_rows(), trace.level_final_rows()
    assert [r.t for r in starts] == [r.t for r in ends] == [6, 5, 4, 3, 2, 1]
    for start, end in zip(starts, ends):
        assert end.phase == "correction"
        assert end.violation < start.violation
    assert ends[0].violation < 0.01 * starts[0].violation
    x2, trace2 = sample(cfg, chain_rng(1, 0))
    assert np.array_equal(x, x2)
    assert len(trace.rows) == len(trace2.rows)
    for row, again in zip(trace.rows, trace2.rows):
        assert row.violation == again.violation
        assert np.array_equal(row.z, again.z)


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
            x, _ = sample(cfg, chain_rng(2, i))
            assert C.violation(spec, x) == 0.0


# ---------------------------------------------------------------------------
# the proximal sampler against a reference built from the public primitives


def reference_proximal_latent(cfg, rng):
    """The proximal sampler written with the checked public primitives.

    Each decoded point is handed to violation and dist_to_set separately,
    the closed-form direction calls project_exact again, and every decode
    and vjp validates its latent.
    """
    sched, dec, con = cfg.schedule, cfg.decoder, cfg.constraint
    trace = SampleTrace()

    def stats(x):
        if con is None:
            return float("nan"), float("nan")
        return C.violation(con, x), C.dist_to_set(con, x)

    def direction(x):
        if cfg.solver == "closed_form":
            return x - C.project_exact(con, x), None
        try:
            y, rep = alm_project(x, lambda p: C.violation(con, p),
                                 lambda p: C.violation_gradient(con, p),
                                 cfg.alm)
        except AlmNonConvergence as exc:
            y, rep = exc.report.point, exc.report
        return x - y, rep

    def correct(z, x0, t, gamma):
        if not _correction_active(cfg, t, x0):
            return z
        lr, lam = cfg.lr_at(t), con.prox_weight
        i, x = 0, x0
        v = C.violation(con, x)
        while v >= con.delta and i < cfg.inner_cap:
            corr, rep = direction(x)
            if rep is not None:
                trace.alm_reports.append((t, i + 1, rep))
            z = z - lr * vjp(dec, z, corr + (x - x0) / lam)
            if not np.isfinite(z).all():
                raise DivergenceError(f"correction diverged at level {t}")
            i += 1
            x = decode(dec, z)
            v = C.violation(con, x)
            trace.rows.append(TraceRow(
                t=t, i=i, phase="correction", gamma=gamma, score_norm=0.0,
                violation=v, dist=C.dist_to_set(con, x), z=z.copy()))
        if v >= con.delta:
            trace.shortfalls.append((t, i, v))
        return z

    z = rng.standard_normal(dec.latent_dim)
    for t in range(sched.T, 0, -1):
        gamma = sched.gamma_at(t)
        for i in range(1, sched.inner_steps + 1):
            z, s = langevin_step(z, cfg.score, t, gamma, rng, cfg.noise_scale)
            x = decode(dec, z)
            v, d = stats(x)
            trace.rows.append(TraceRow(
                t=t, i=i, phase="langevin", gamma=gamma,
                score_norm=float(np.linalg.norm(s)), violation=v, dist=d,
                z=z.copy()))
            if cfg.correct_every_step and con is not None:
                z = correct(z, x, t, gamma)
        if con is not None and not cfg.correct_every_step:
            z = correct(z, x, t, gamma)
    x = decode(dec, z)
    if cfg.final_projection and con is not None and C.has_exact_projection(con):
        x = C.project_exact(con, x)
    return x, trace


def same_float(a, b):
    return a == b or (np.isnan(a) and np.isnan(b))


def assert_same_chain(got, ref):
    (x, trace), (x_ref, trace_ref) = got, ref
    assert np.array_equal(x, x_ref)
    assert len(trace.rows) == len(trace_ref.rows)
    for row, want in zip(trace.rows, trace_ref.rows):
        assert (row.t, row.i, row.phase) == (want.t, want.i, want.phase)
        for name in ("gamma", "score_norm", "violation", "dist"):
            assert same_float(getattr(row, name), getattr(want, name)), name
        assert np.array_equal(row.z, want.z)
    assert trace.shortfalls == trace_ref.shortfalls
    assert len(trace.alm_reports) == len(trace_ref.alm_reports)
    for (t, i, rep), (t_ref, i_ref, rep_ref) in zip(trace.alm_reports,
                                                    trace_ref.alm_reports):
        assert (t, i) == (t_ref, i_ref)
        assert np.array_equal(rep.point, rep_ref.point)
        assert (rep.outer_iterations, rep.inner_iterations,
                rep.final_violation, rep.converged) == (
            rep_ref.outer_iterations, rep_ref.inner_iterations,
            rep_ref.final_violation, rep_ref.converged)


def proximal_cases():
    sched = small_schedule(T=4, M=2)
    f2 = standard_normal_field(2, sched)
    lin = random_linear_decoder(2, 3, seed=4, scale=2.0)
    mlp = random_mlp_decoder(2, 4, hidden=8, seed=3, scale=1.5)
    poro_f = standard_normal_field(6, sched)
    poro_dec = random_linear_decoder(6, 16, seed=2, scale=2.0)

    def cfg(score, dec, con, **kw):
        kw.setdefault("lr", 0.3)
        kw.setdefault("inner_cap", 40)
        return SamplerConfig(schedule=sched, score=score,
                             mode="proximal_latent", decoder=dec,
                             constraint=con, **kw)

    yield "porosity", cfg(poro_f, poro_dec, C.porosity_constraint(
        (4, 4), 6, prox_weight=50.0), inner_cap=25)
    yield "halfspace", cfg(f2, lin, C.halfspace([1.0, 0.5, 0.0], -0.4,
                                                prox_weight=100.0))
    yield "halfspace_every_step", cfg(
        f2, lin, C.halfspace([1.0, 0.5, 0.0], -0.4, prox_weight=100.0),
        correct_every_step=True)
    yield "l2_ball", cfg(f2, lin, C.l2_ball(0.3, center=[1.0, 0.0, 0.0],
                                            prox_weight=100.0))
    yield "box", cfg(f2, lin, C.box([-0.2] * 3, [0.2] * 3, delta=1e-6,
                                    prox_weight=100.0), inner_cap=15)
    yield "smooth_mlp", cfg(f2, mlp, C.halfspace([1.0, -1.0, 0.5, 0.0], 0.0,
                                                 prox_weight=100.0))
    yield "unconstrained", cfg(f2, lin, None)
    centroid = centroid_config(seed=0, chains=1, out="unused")
    yield "centroid_alm", build_sampler_config(RunConfig.from_dict(centroid))


@pytest.mark.parametrize("name, cfg", list(proximal_cases()),
                         ids=[name for name, _ in proximal_cases()])
def test_proximal_latent_matches_reference(name, cfg):
    corrections = shortfalls = alm = 0
    for k in range(12 if name == "centroid_alm" else 3):
        got = sample(cfg, chain_rng(5, k))
        assert_same_chain(got, reference_proximal_latent(cfg, chain_rng(5, k)))
        trace = got[1]
        corrections += sum(r.phase == "correction" for r in trace.rows)
        shortfalls += len(trace.shortfalls)
        alm += len(trace.alm_reports)
    # the comparison covers the loop, not only the Langevin rows
    if name != "unconstrained":
        assert corrections > 0
    if name in ("porosity", "box"):
        assert shortfalls > 0
    if name == "centroid_alm":
        assert alm > 0
