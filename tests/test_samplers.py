import numpy as np
import pytest

from latentprox import constraints as C
from latentprox import samplers
from latentprox.alm import alm_project
from latentprox.decoders import (decode, estimate_lipschitz,
                                 random_linear_decoder, random_mlp_decoder,
                                 vjp)
from latentprox.dpo import DpoConfig, saturating_simulator
from latentprox.errors import (ConfigError, DivergenceError, NumericError,
                               ParameterError)
from latentprox.experiments import (centroid_config, fidelity_config,
                                    porosity_config)
from latentprox.runner import RunConfig, build_sampler_config
from latentprox.samplers import (PROGRESS_RATIO, STAGNATION_RATIO,
                                 SampleTrace, SamplerConfig, TraceRow,
                                 _correction_active, chain_rng, langevin_step,
                                 sample, sample_chains)
from latentprox.schedules import NoiseSchedule, make_schedule
from latentprox.scores import (MlpScoreConfig, ScoreField,
                               gaussian_mixture_field, init_mlp_params,
                               linear_gaussian_field, standard_normal_field)

from conftest import same_states


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
    out, s = langevin_step(z, f, 1, 0.5, rng.standard_normal(2))
    eps = np.random.default_rng(0).standard_normal(2)
    assert np.allclose(out, z + 0.5 * (-z / 1e12 * 0 + 0) + eps, atol=1e-9)


def test_langevin_step_zero_score_at_mode():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    rng = np.random.default_rng(1)
    out, s = langevin_step(np.zeros(2), f, 0, 0.3, rng.standard_normal(2))
    eps = np.random.default_rng(1).standard_normal(2)
    assert np.allclose(out, np.sqrt(0.6) * eps)


def test_langevin_drift_only_contracts():
    sched = small_schedule()
    f = standard_normal_field(3, sched)
    z = np.array([1.0, -2.0, 0.5])
    for gamma in (0.1, 0.5, 0.9):
        out, s = langevin_step(z, f, 0, gamma,
                               np.random.default_rng(0).standard_normal(3),
                               noise_scale=0.0)
        assert np.linalg.norm(out) < np.linalg.norm(z)


def test_langevin_step_batch_leaves_finiteness_to_caller():
    # a batch of rows steps with the point expression and the noise rows
    # its caller drew; a non-finite row comes back as it is
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    Z = np.array([[0.5, -1.0], [np.nan, 0.0], [2.0, 0.25]])
    out, s = langevin_step(Z, f, 1, 0.2,
                           np.random.default_rng(4).standard_normal(Z.shape),
                           0.5)
    E = np.random.default_rng(4).standard_normal(Z.shape)
    expected = Z + 0.2 * (-Z) + np.sqrt(2.0 * 0.2) * 0.5 * E
    assert np.array_equal(s[[0, 2]], -Z[[0, 2]])
    assert np.array_equal(out[[0, 2]], expected[[0, 2]])
    assert np.isnan(out[1]).all()


def test_langevin_gamma_validation():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    with pytest.raises(ParameterError):
        langevin_step(np.zeros(2), f, 1, 0.0,
                      np.random.default_rng(0).standard_normal(2))


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
    for i, (x, _) in enumerate(
            sample_chains(cfg, [chain_rng(0, i) for i in range(n)])):
        xs[i] = x
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
    assert same_states(t1.rows, t2.rows)


def test_projected_ambient_feasible_every_step():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    spec = C.l2_ball(1.0)
    cfg = SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                        constraint=spec)
    for x, trace in sample_chains(cfg, [chain_rng(0, i) for i in range(5)]):
        for row in trace.rows:
            assert row.violation == 0.0
        assert np.linalg.norm(x) <= 1.0 + 1e-12


def test_projected_ambient_rows_are_not_evaluated(monkeypatch):
    # a projection reads (0.0, 0.0) by project_exact's contract
    # (test_evaluation_of_a_projected_point_is_zero), so no row evaluates it
    sched = small_schedule()
    cfg = SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                        mode="projected_ambient",
                        constraint=C.halfspace([1.0, 0.0], 0.5))

    def evaluate(spec, x):
        raise AssertionError("a projected point was evaluated")

    monkeypatch.setattr(C, "evaluate", evaluate)
    _, trace = sample(cfg, chain_rng(0, 0))
    assert [(r.violation, r.dist) for r in trace.rows] == \
        [(0.0, 0.0)] * len(trace.rows)


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
    for x, _ in sample_chains(cfg, [chain_rng(1, i) for i in range(n)]):
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


def test_constraint_must_take_the_points_the_mode_checks():
    sched = small_schedule()
    f = standard_normal_field(2, sched)
    with pytest.raises(ConfigError, match="^porosity constraint takes 64-d "
                       "points, but the decoder's ambient_dim is 256$"):
        SamplerConfig(schedule=sched, score=f, mode="proximal_latent",
                      decoder=random_linear_decoder(2, 256, seed=5),
                      constraint=C.porosity_constraint((8, 8), 19))
    with pytest.raises(ConfigError, match="^halfspace constraint takes 3-d "
                       "points, but the score's dim is 2$"):
        SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                      constraint=C.halfspace([1.0, 0.0, 0.0], 0.5))
    # a ball about the origin takes points of any length, and an
    # unconstrained chain never checks its points
    SamplerConfig(schedule=sched, score=f, mode="projected_ambient",
                  constraint=C.l2_ball(1.0))
    SamplerConfig(schedule=sched, score=f, mode="unconstrained",
                  constraint=C.halfspace([1.0, 0.0, 0.0], 0.5))


def test_point_dim_of_each_kind():
    rng = np.random.default_rng(13)
    model = C.fit_centroid_model(rng.standard_normal((20, 3)) + 2.0,
                                 rng.standard_normal((20, 3)) - 2.0,
                                 feature_map=np.ones((3, 5)))
    assert C.point_dim(C.halfspace([1.0, 2.0, 3.0], 0.0)) == 3
    assert C.point_dim(C.l2_ball(1.0, center=[0.0, 1.0])) == 2
    assert C.point_dim(C.l2_ball(1.0)) is None
    assert C.point_dim(C.box([-1.0] * 4, [1.0] * 4)) == 4
    assert C.point_dim(C.box(-1.0, 1.0)) is None
    assert C.point_dim(C.porosity_constraint((16, 16), 77)) == 256
    assert C.point_dim(C.centroid_constraint(model, 0.5)) == 5
    assert C.point_dim(C.custom_constraint(lambda y: 0.0)) is None


@pytest.mark.parametrize("kind", ["custom_g", "surrogate_centroid"])
def test_closed_form_solver_requires_exact_projection(kind):
    # one rule covers every kind with no exact projection
    sched = small_schedule()
    rng = np.random.default_rng(13)
    spec = {"custom_g": C.custom_constraint(lambda y: 0.0,
                                            lambda y: np.zeros_like(y)),
            "surrogate_centroid": C.centroid_constraint(C.fit_centroid_model(
                rng.standard_normal((20, 3)) + 2.0,
                rng.standard_normal((20, 3)) - 2.0), 0.5)}[kind]
    with pytest.raises(ConfigError, match=f"^{kind} has no exact projection; "
                       "choose the alm or dpo solver$"):
        SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                      mode="proximal_latent", constraint=spec,
                      decoder=random_linear_decoder(2, 3, seed=5))


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
    assert same_states(tu.rows, tp.rows)
    assert np.array_equal(decode(dec, z), x)

    u_amb = SamplerConfig(schedule=sched, score=amb, mode="unconstrained")
    proj = SamplerConfig(schedule=sched, score=amb, mode="projected_ambient",
                         constraint=vacuous_box(3))
    za, ta = sample(u_amb, chain_rng(9, 0))
    xa, tb = sample(proj, chain_rng(9, 0))
    assert same_states(ta.rows, tb.rows)
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
    for x, trace in sample_chains(cfg, [chain_rng(4, i) for i in range(10)]):
        assert np.count_nonzero(x < 0) == 4
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


def far_halfspace_chain(prox_weight, lr, inner_cap, **kw):
    """Corrections toward a halfspace that every level starts far outside."""
    sched = small_schedule(T=3, M=1)
    spec = C.halfspace([1.0, 0.0, 0.0], -5.0, prox_weight=prox_weight, **kw)
    cfg = SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                        mode="proximal_latent",
                        decoder=random_linear_decoder(2, 3, seed=1),
                        constraint=spec, lr=lr, inner_cap=inner_cap)
    return spec, sample(cfg, chain_rng(0, 0))[1]


def test_level_stops_converged_after_a_secant_step():
    # lr is only the chain's first step: at lr 1e-3 a fixed step would need
    # thousands of updates, the secant step reaches delta at the second
    # update of level 3, and levels 2 and 1 start from that secant step
    # and reach delta at their first
    spec, trace = far_halfspace_chain(1e6, 1e-3, 50)
    assert trace.stops == [(3, 2, "converged"), (2, 1, "converged"),
                           (1, 1, "converged")]
    assert trace.shortfalls == []
    ends = trace.level_final_rows()
    assert all(row.phase == "correction" and row.violation < spec.delta
               for row in ends)


def test_level_end_rows_give_one_row_per_level_with_per_step_correction():
    # the fidelity preset corrects after every Langevin step; at M = 3,
    # chain 10 of seed 0 corrects after steps that do not end their level,
    # and each level still has one end row: its last Langevin row
    raw = fidelity_config(seed=0, chains=11, out="unused")
    raw["schedule"]["M"] = 3
    cfg = build_sampler_config(RunConfig.from_dict(raw))
    _, trace = sample(cfg, chain_rng(0, 10))
    corrected = [a for a, b in zip(trace.rows, trace.rows[1:])
                 if a.phase == "langevin" and b.phase == "correction"]
    assert any(row.i < 3 for row in corrected)
    levels = list(range(cfg.schedule.T, 0, -1))
    ends = trace.level_end_rows()
    assert [(r.t, r.i, r.phase) for r in ends] == [
        (t, 3, "langevin") for t in levels]
    assert [r.t for r in trace.level_final_rows()] == levels


def test_level_stops_stagnated_when_the_prox_minimizer_is_outside():
    # a strong anchor pull (lambda 1) puts the minimizer of the proximal
    # objective outside the set: the gradient stalls above delta, well
    # before the cap, and the level is a shortfall
    spec, trace = far_halfspace_chain(1.0, 0.2, 200, delta=1e-6)
    assert [reason for _, _, reason in trace.stops] == ["stagnated"] * 3
    assert all(i < 200 for _, i, _ in trace.stops)
    assert [(t, i) for t, i, _ in trace.shortfalls] == [
        (t, i) for t, i, _ in trace.stops]
    assert all(v >= spec.delta for _, _, v in trace.shortfalls)


def test_shortfall_recorded_when_cap_hit():
    # an l2 ball far from every level's decode, with its prox minimizer
    # outside (lambda 1).  Under the ball the objective's curvature along
    # the gradient changes with the decode, so the step a level carries on
    # from the level before does not land on the minimizer (a halfspace's
    # would), and with a cap of 2 each level ends capped after its secant
    # update, far outside
    sched = small_schedule(T=3, M=1)
    spec = C.l2_ball(0.5, center=[-5.0, 0.0, 0.0], delta=1e-6,
                     prox_weight=1.0)
    cfg = SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                        mode="proximal_latent",
                        decoder=random_linear_decoder(2, 3, seed=3),
                        constraint=spec, lr=1e-6, inner_cap=2)
    _, trace = sample(cfg, chain_rng(0, 0))
    assert trace.stops == [(3, 2, "capped"), (2, 2, "capped"),
                           (1, 2, "capped")]
    assert len(trace.shortfalls) == 3
    for (t, iters, viol), (t_stop, _, _) in zip(trace.shortfalls,
                                                trace.stops):
        assert t == t_stop and iters == 2 and viol > spec.delta


def recording_corrections(monkeypatch, restart=False):
    """Wrap ``samplers._run_correction`` so that every call appends (t, the
    step passed in, the step returned, the updates it ran); with
    ``restart`` every call is passed step None, as if no step carried."""
    run, calls = samplers._run_correction, []

    def recording(cfg, z, x0, ev, t, gamma, rng, trace, step=None):
        before = len(trace.stops)
        z, out = run(cfg, z, x0, ev, t, gamma, rng, trace,
                     None if restart else step)
        ran = trace.stops[before][1] if len(trace.stops) > before else 0
        calls.append((t, step, out, ran))
        return z, out

    monkeypatch.setattr(samplers, "_run_correction", recording)
    return calls


def test_step_carries_from_level_to_level(monkeypatch):
    # with lr None only the chain's first correction takes 0.1 * gamma_t;
    # every later level's first update takes the step the level before it
    # ended with.  The first step of a level is read off its first update,
    # z_1 = z_0 - step * g_0, where g_0 = W^T (x_0 - P(x_0)) since the
    # anchor pull is 0 at the anchor
    sched = small_schedule(T=4, M=1)
    dec = random_linear_decoder(2, 3, seed=1)
    spec = C.halfspace([1.0, 0.0, 0.0], -5.0, prox_weight=1e6)
    cfg = SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                        mode="proximal_latent", decoder=dec, constraint=spec,
                        lr=None, inner_cap=50)
    calls = recording_corrections(monkeypatch)
    _, trace = sample(cfg, chain_rng(0, 0))
    (W, _), = dec.layers
    firsts = []
    for start, first in zip(trace.rows, trace.rows[1:]):
        if start.phase == "langevin" and first.phase == "correction":
            x0 = decode(dec, start.z)
            g0 = W.T @ (x0 - C.project_exact(spec, x0))
            firsts.append((start.z - first.z) @ g0 / (g0 @ g0))
    assert [t for t, _, _, ran in calls if ran] == [4, 3, 2, 1]
    assert len(firsts) == 4
    np.testing.assert_allclose(firsts[0], 0.1 * sched.gamma_at(4),
                               rtol=1e-9)
    assert calls[0][1] is None
    for (t, _, carried, _), (_, step_in, _, _), first in zip(
            calls, calls[1:], firsts[1:]):
        assert step_in == carried
        np.testing.assert_allclose(first, carried, rtol=1e-9)
        assert not np.isclose(first, 0.1 * sched.gamma_at(t - 1),
                              rtol=1e-3)


@pytest.mark.parametrize("root_seed, chain", [
    (232001, 0), (11000, 3), (370000, 2), (580001, 2), (857001, 3)])
def test_porosity_chain_ends_near_the_decoders_range(root_seed, chain):
    # chains of the porosity preset's decoder (the frozen perfbench
    # porosity config; root seed 1000 s + k is sub-round k of --seed s).
    # A secant step that overshoots raises dist, and the progress stop
    # ends the level there; had the chain kept that latent, these chains
    # would end far from the decoder's range, against perfbench's
    # offmanifold_dist gate of 0.2.  With the step restarted at lr every
    # level, the first two ended 6.70 and 1.25 away (one level went from
    # dist 0.101 to 39.2); with the step carried but the overshooting
    # update kept, the last three ended 6.35, 7.25 and 1.27 away
    cfg = build_sampler_config(RunConfig.from_dict(porosity_config()))
    (W, b), = cfg.decoder.layers
    x, _ = sample(cfg, chain_rng(root_seed, chain))
    z = np.linalg.lstsq(W, x - b, rcond=None)[0]
    assert np.linalg.norm(x - b - W @ z) <= 0.2


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
    assert same_states(t1.rows, t2.rows)


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
    assert all(row.z.shape == (2,) for row in trace.rows)

    proj = SamplerConfig(schedule=sched, score=standard_normal_field(3, sched),
                         mode="projected_ambient", constraint=spec)
    x, trace = sample(proj, chain_rng(3, 0))
    assert all(row.z.shape == (3,) for row in trace.rows)
    assert np.array_equal(trace.rows[-1].z, x)


def dpo_chain_config():
    """A custom smooth constraint whose g is the tracking loss of a
    saturating simulator, corrected by the smoothed-gradient estimator."""
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
    return cfg


def test_dpo_solver_corrects_each_level_and_replays():
    cfg = dpo_chain_config()
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
        assert same_states([row], [again])


def test_dpo_levels_take_no_progress_stop(monkeypatch):
    # a dpo update's change of dist is Monte Carlo noise: updates from the
    # second on that cut dist by less than PROGRESS_RATIO (or raise it) do
    # not end their level, and no ratio changes the chain
    cfg = dpo_chain_config()
    x, trace = sample(cfg, chain_rng(1, 0))
    iterations = {t: i for t, i, _ in trace.stops}
    small_cuts = [(b.t, b.i) for a, b in zip(trace.rows, trace.rows[1:])
                  if a.phase == b.phase == "correction"
                  and a.dist - b.dist < PROGRESS_RATIO * a.dist]
    assert any(i < iterations[t] for t, i in small_cuts)
    # a ratio of 1 would end any other solver's level at its second update
    monkeypatch.setattr(samplers, "PROGRESS_RATIO", 1.0)
    x2, trace2 = sample(cfg, chain_rng(1, 0))
    assert np.array_equal(x, x2)
    assert trace2.stops == trace.stops
    assert [r.z.tobytes() for r in trace2.rows] == [
        r.z.tobytes() for r in trace.rows]


@pytest.mark.parametrize("lr", [0.1, None])
def test_dpo_levels_start_at_lr(monkeypatch, lr):
    # a dpo chain takes lr_at(t) on every update: its outputs equal those
    # of a chain whose every correction is handed no carried step
    cfg = dpo_chain_config()
    cfg.lr = lr
    calls = recording_corrections(monkeypatch)
    x, trace = sample(cfg, chain_rng(1, 0))
    ran = [(t, out) for t, _, out, ran in calls if ran]
    assert ran and all(out == cfg.lr_at(t) for t, out in ran)
    recording_corrections(monkeypatch, restart=True)
    x2, trace2 = sample(cfg, chain_rng(1, 0))
    assert np.array_equal(x, x2)
    assert trace2.stops == trace.stops
    assert [r.z.tobytes() for r in trace2.rows] == [
        r.z.tobytes() for r in trace.rows]


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
        for x, _ in sample_chains(cfg, [chain_rng(2, i)
                                        for i in range(10)]):
            assert C.violation(spec, x) == 0.0


# ---------------------------------------------------------------------------
# the proximal sampler against a reference built from the public primitives


def reference_proximal_latent(cfg, rng):
    """The proximal sampler written with the checked public primitives.

    Each decoded point is handed to violation and dist_to_set separately,
    the closed-form direction calls project_exact again, and every decode
    and vjp validates its latent.  Corrections take the secant step and
    stop for the sampler's three reasons; from the second update on, a
    cut of dist by less than PROGRESS_RATIO of the previous dist
    stagnates, except under the dpo solver; when that update raised dist by
    more than PROGRESS_RATIO of it (with the gradient not stalled), the
    level ends at the latent before it.  A level's first update takes
    the step the chain's previous correction ended with, and the chain's
    first correction takes lr_at(t); the dpo solver takes lr_at(t) on
    every update.
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
        y, rep = alm_project(
            x, lambda p: C.violation_and_gradient(con, p), cfg.alm)
        return x - y, rep

    def correct(z, x0, t, gamma, step):
        v = C.violation(con, x0)
        if v < con.delta or not _correction_active(cfg, t, x0):
            return z, step
        if step is None or cfg.solver == "dpo":
            step = cfg.lr_at(t)
        lam = con.prox_weight
        i, x, d, reason = 0, x0, None, None
        while reason is None:
            corr, rep = direction(x)
            if rep is not None:
                trace.alm_reports.append((t, i + 1, rep))
            g = vjp(dec, z, corr + (x - x0) / lam)
            if i == 0:
                g0 = np.linalg.norm(g)
            elif cfg.solver != "dpo":
                # Barzilai-Borwein: s.s / s.y, unless s.y <= 0
                s, y = z - z_prev, g - g_prev
                if s @ y > 0:
                    step = (s @ s) / (s @ y)
            z_prev, g_prev = z, g
            z = z - step * g
            if not np.isfinite(z).all():
                raise DivergenceError(f"correction diverged at level {t}")
            i += 1
            x = decode(dec, z)
            v_prev, d_prev = v, d
            v, d = C.violation(con, x), C.dist_to_set(con, x)
            stalled = np.linalg.norm(g) <= STAGNATION_RATIO * g0
            if v < con.delta:
                reason = "converged"
            elif stalled or (cfg.solver != "dpo" and i >= 2
                             and d_prev - d < PROGRESS_RATIO * d_prev):
                reason = "stagnated"
            elif i == cfg.inner_cap:
                reason = "capped"
            if (reason == "stagnated" and not stalled
                    and cfg.solver != "dpo" and i >= 2
                    and d - d_prev > PROGRESS_RATIO * d_prev):
                # the update raised dist: undo it, and leave it unrecorded
                z, v, i = z_prev, v_prev, i - 1
            else:
                trace.rows.append(TraceRow(
                    t=t, i=i, phase="correction", gamma=gamma,
                    score_norm=0.0, violation=v, dist=d, z=z.copy()))
        trace.stops.append((t, i, reason))
        if v >= con.delta:
            trace.shortfalls.append((t, i, v))
        return z, step

    z = rng.standard_normal(dec.latent_dim)
    step = None
    for t in range(sched.T, 0, -1):
        gamma = sched.gamma_at(t)
        for i in range(1, sched.inner_steps + 1):
            z, s = langevin_step(z, cfg.score, t, gamma,
                                 rng.standard_normal(z.shape), cfg.noise_scale)
            x = decode(dec, z)
            v, d = stats(x)
            trace.rows.append(TraceRow(
                t=t, i=i, phase="langevin", gamma=gamma,
                score_norm=float(np.linalg.norm(s)), violation=v, dist=d,
                z=z.copy()))
            if cfg.correct_every_step and con is not None:
                z, step = correct(z, x, t, gamma, step)
        if con is not None and not cfg.correct_every_step:
            z, step = correct(z, x, t, gamma, step)
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
        assert same_states([row], [want])
    assert trace.stops == trace_ref.stops
    assert trace.shortfalls == trace_ref.shortfalls
    assert len(trace.alm_reports) == len(trace_ref.alm_reports)
    for (t, i, rep), (t_ref, i_ref, rep_ref) in zip(trace.alm_reports,
                                                    trace_ref.alm_reports):
        assert (t, i) == (t_ref, i_ref)
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
    # the first update ends most box levels; a cap of 1 ends the others,
    # so the comparison covers capped levels
    box = C.box([-0.2] * 3, [0.2] * 3, delta=1e-6, prox_weight=100.0)
    yield "box", cfg(f2, lin, box, inner_cap=1)
    # with a cap of 3, the second update of each of those levels raises its
    # dist, and the progress stop ends it
    yield "box_progress", cfg(f2, lin, box, inner_cap=3)
    yield "smooth_mlp", cfg(f2, mlp, C.halfspace([1.0, -1.0, 0.5, 0.0], 0.0,
                                                 prox_weight=100.0))
    yield "unconstrained", cfg(f2, lin, None)
    centroid = centroid_config(seed=0, chains=1, out="unused")
    yield "centroid_alm", build_sampler_config(RunConfig.from_dict(centroid))


@pytest.mark.parametrize("name, cfg", list(proximal_cases()),
                         ids=[name for name, _ in proximal_cases()])
def test_proximal_latent_matches_reference(name, cfg):
    corrections = shortfalls = alm = 0
    reasons = set()
    for k in range(12 if name == "centroid_alm" else 3):
        got = sample(cfg, chain_rng(5, k))
        assert_same_chain(got, reference_proximal_latent(cfg, chain_rng(5, k)))
        trace = got[1]
        corrections += sum(r.phase == "correction" for r in trace.rows)
        shortfalls += len(trace.shortfalls)
        alm += len(trace.alm_reports)
        reasons.update(reason for _, _, reason in trace.stops)
    # the comparison covers the loop, not only the Langevin rows
    if name != "unconstrained":
        assert corrections > 0
    if name in ("porosity", "box", "box_progress"):
        assert shortfalls > 0
    if name == "porosity":
        assert reasons == {"converged", "stagnated"}
    if name == "box":
        assert reasons == {"converged", "capped"}
    if name == "box_progress":
        assert reasons == {"converged", "stagnated"}
    if name == "centroid_alm":
        assert alm > 0


def test_decoder_bound_covers_every_latent_a_chain_visits():
    # the smooth_mlp case, a scale-1.5 MLP: every Langevin and correction
    # row's latent
    cfg = dict(proximal_cases())["smooth_mlp"]
    dec = cfg.decoder
    ell = estimate_lipschitz(dec)
    rows = [row for _, trace in sample_chains(
        cfg, [chain_rng(11, k) for k in range(5)]) for row in trace.rows]
    assert {row.phase for row in rows} == {"langevin", "correction"}
    for z in (row.z for row in rows):
        # row i of J is J^T e_i transposed
        J = np.stack([vjp(dec, z, e) for e in np.eye(dec.ambient_dim)])
        assert np.linalg.norm(J, 2) <= ell * (1 + 1e-12)


def test_centroid_alm_projections_converge_in_few_inner_iterations():
    # the ALM inner loop takes the secant step after its first inner_step:
    # 40 preset chains make 74 projections at a mean of about 6 inner
    # iterations each (about 126 with the fixed step alone)
    cfg = RunConfig.from_dict(centroid_config(seed=0, chains=40, out="unused"))
    scfg = build_sampler_config(cfg)
    reports = [rep for _, trace in sample_chains(
        scfg, [chain_rng(0, i) for i in range(40)])
        for _, _, rep in trace.alm_reports]
    assert reports and all(rep.converged for rep in reports)
    mean_inner = sum(rep.inner_iterations for rep in reports) / len(reports)
    assert mean_inner <= 15


# ---------------------------------------------------------------------------
# a block of chains against its chains run alone


def chain_record(result):
    """Everything a chain returns, in comparable form: its error's type and
    message, or its final's bits and its trace."""
    if isinstance(result, Exception):
        return type(result), str(result)
    x, trace = result
    rows = [(repr((r.t, r.i, r.phase, r.gamma, r.score_norm, r.violation,
                   r.dist)), None if r.z is None else r.z.tobytes())
            for r in trace.rows]
    return (x.shape, x.tobytes(), rows, trace.stops, trace.shortfalls,
            [(t, i, repr(rep)) for t, i, rep in trace.alm_reports],
            trace.simulator_evaluations, trace.simulator_calls)


def block_cases():
    """Every score kind in every mode, per-level and per-step correction,
    row vectors on and off, the alm and dpo solvers, and each kind the
    block evaluates as rows: l2_ball, box, porosity and the centroid (alm)."""
    sched = small_schedule(T=4, M=2)
    fields = {
        "gaussian_mixture": gaussian_mixture_field(
            [0.3, 0.7], [[1.0, 0.0], [-1.0, 0.5]],
            [np.eye(2), 0.5 * np.eye(2)], sched),
        "linear_gaussian": linear_gaussian_field(
            [0.2, -0.1], [[1.0, 0.3], [0.3, 0.8]], sched),
        "mlp": ScoreField(kind="mlp", dim=2, schedule=sched,
                          mlp=init_mlp_params(2, MlpScoreConfig(hidden=(8, 8)),
                                              np.random.default_rng(0))),
    }
    dec = random_mlp_decoder(2, 3, hidden=6, seed=3, scale=1.5)
    ball = C.l2_ball(0.8, prox_weight=100.0)
    for kind, f in fields.items():
        yield f"{kind}-unconstrained", SamplerConfig(
            schedule=sched, score=f, mode="unconstrained")
        yield f"{kind}-projected_ambient", SamplerConfig(
            schedule=sched, score=f, mode="projected_ambient", constraint=ball)
        for every_step, vectors in ((False, True), (True, False)):
            yield (f"{kind}-proximal_latent-every_step_{every_step}"
                   f"-vectors_{vectors}"), SamplerConfig(
                schedule=sched, score=f, mode="proximal_latent", decoder=dec,
                constraint=ball, lr=0.3, correct_every_step=every_step,
                record_vectors=vectors)
    yield "box", SamplerConfig(
        schedule=sched, score=fields["linear_gaussian"],
        mode="proximal_latent", decoder=dec,
        constraint=C.box([-0.3] * 3, [0.3] * 3, prox_weight=100.0), lr=0.3)
    # 16 pixels decoded from N(0, I) latents: about 8 negative against 6, so
    # the count forces flips on both sides
    yield "porosity", SamplerConfig(
        schedule=sched, score=standard_normal_field(6, sched),
        mode="proximal_latent",
        decoder=random_linear_decoder(6, 16, seed=2, scale=2.0),
        constraint=C.porosity_constraint((4, 4), 6, prox_weight=50.0),
        lr=0.3, inner_cap=25)
    yield "alm", build_sampler_config(RunConfig.from_dict(
        centroid_config(seed=0, chains=1, out="unused")))
    yield "dpo", dpo_chain_config()


@pytest.mark.parametrize("name, cfg", list(block_cases()),
                         ids=[name for name, _ in block_cases()])
def test_a_block_equals_its_chains_run_alone(name, cfg, monkeypatch):
    # a lone chain takes the point evaluation, and a block of a row-exact
    # kind its rows evaluation, which must give each row the same bits
    n = 12 if name in ("alm", "porosity") else 5
    kind = cfg.constraint.kind if cfg.constraint is not None else None
    rows_calls = spy(monkeypatch, C, "evaluate_rows")
    got = sample_chains(cfg, [chain_rng(5, k) for k in range(n)])
    evaluated_as_rows = bool(rows_calls)
    alone = [sample(cfg, chain_rng(5, k)) for k in range(n)]
    assert [chain_record(r) for r in got] == [chain_record(r) for r in alone]
    assert evaluated_as_rows == (cfg.mode == "proximal_latent"
                                 and kind in C.ROW_EXACT_KINDS)
    traces = [trace for _, trace in got]
    # the comparison covers the corrections, not only the Langevin rows
    if cfg.mode == "proximal_latent":
        assert any(trace.stops for trace in traces)
    if name == "alm":
        assert any(trace.alm_reports for trace in traces)
    if name == "dpo":
        assert all(trace.simulator_evaluations for trace in traces)


def spy(monkeypatch, module, name):
    """The list of argument tuples of each call of ``module.name`` from now
    on; the calls go through to it."""
    calls, real = [], getattr(module, name)

    def recording(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, recording)
    return calls


class FixedDraw:
    """A chain's generator whose draw number ``at`` reads ``value``."""

    def __init__(self, rng, at, value):
        self.rng, self.at, self.value, self.draws = rng, at, value, 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        out = self.rng.standard_normal(*args, **kwargs)
        if self.draws == self.at:
            out[...] = self.value
        return out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_failing_chain_leaves_the_block_alone():
    # lr 1e300 flings a corrected latent far out of the ball and the secant
    # step after it overflows, so each chain that corrects at level 1
    # diverges there; chain 3 draws infinite noise at its 4th draw (level 3,
    # step 1; the 1st is z_T) and diverges in that Langevin step
    sched = small_schedule(T=4, M=2)
    cfg = SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                        mode="proximal_latent",
                        decoder=random_linear_decoder(2, 3, seed=4),
                        constraint=C.l2_ball(1.2), lr=1e300,
                        correct_levels=[1, 1])

    def rngs():
        return [FixedDraw(chain_rng(2, k), at=4, value=np.inf) if k == 3
                else chain_rng(2, k) for k in range(8)]

    got = sample_chains(cfg, rngs())
    alone = []
    for rng in rngs():
        try:
            alone.append(sample(cfg, rng))
        except DivergenceError as exc:
            alone.append(exc)
    assert [chain_record(r) for r in got] == [chain_record(r) for r in alone]
    errors = [str(r) if isinstance(r, Exception) else None for r in got]
    assert errors[3] == "langevin step diverged at level 3"
    assert "correction diverged at level 1" in errors
    assert None in errors


@pytest.mark.parametrize("mode", samplers.MODES)
def test_a_kernel_that_raises_fails_only_the_rows_that_raise(mode):
    # under an error state that raises on overflow, chain 2's huge noise
    # draw (level 4, step 1) flings it to about 1e200.  Unconstrained, the
    # mixture score of its next step overflows: the block's rows step again
    # one at a time.  Projected, the l2-ball projection's norm overflows;
    # proximal, the evaluation's does.  Chain 2 alone fails, as it does run
    # alone
    sched = small_schedule(T=4, M=2)
    f = gaussian_mixture_field([0.3, 0.7], [[1.0, 0.0], [-1.0, 0.5]],
                               [np.eye(2), 0.5 * np.eye(2)], sched)
    extra = {}
    if mode != "unconstrained":
        extra["constraint"] = C.l2_ball(1.2)
    if mode == "proximal_latent":
        extra["decoder"] = random_linear_decoder(2, 3, seed=4)
    cfg = SamplerConfig(schedule=sched, score=f, mode=mode, **extra)

    def rngs():
        return [FixedDraw(chain_rng(6, k), at=2, value=1e200) if k == 2
                else chain_rng(6, k) for k in range(5)]

    with np.errstate(over="raise"):
        got = sample_chains(cfg, rngs())
        alone = []
        for rng in rngs():
            try:
                alone.append(sample(cfg, rng))
            except FloatingPointError as exc:
                alone.append(exc)
    assert [chain_record(r) for r in got] == [chain_record(r) for r in alone]
    assert [isinstance(r, FloatingPointError) for r in got] == \
        [False, False, True, False, False]


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_decode_that_overflows_fails_only_its_chain(monkeypatch):
    # chain 2's huge noise draw (level 4, step 1) flings its latent to about
    # 3e299, still finite, and the decoder's 1e10 scale overflows its decode
    # to inf.  The block evaluates its other rows in one call and hands that
    # row to the point evaluation, which raises the NumericError the chain
    # raises run alone
    sched = small_schedule(T=4, M=2)
    cfg = SamplerConfig(schedule=sched, score=standard_normal_field(2, sched),
                        mode="proximal_latent",
                        decoder=random_linear_decoder(2, 3, seed=4,
                                                      scale=1e10),
                        constraint=C.l2_ball(1.2e10), lr=0.3)

    def rngs():
        return [FixedDraw(chain_rng(6, k), at=2, value=1e300) if k == 2
                else chain_rng(6, k) for k in range(5)]

    rows_calls = spy(monkeypatch, C, "evaluate_rows")
    got = sample_chains(cfg, rngs())
    assert rows_calls and all(len(X) == 4 for _, X in rows_calls[:2])
    alone = []
    for rng in rngs():
        try:
            alone.append(sample(cfg, rng))
        except NumericError as exc:
            alone.append(exc)
    assert [chain_record(r) for r in got] == [chain_record(r) for r in alone]
    assert [type(r) for r in got] == [tuple, tuple, NumericError, tuple,
                                      tuple]
    assert str(got[2]) == "constraint input contains non-finite values"
