"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (run pytest -s to see them inline).
Everything is seeded; reruns are bit-identical.  Criteria 1, 3, 4, 6 and 9
run the studies of the experiment scripts, which state their pass bars;
each criterion adds its time budget.
"""

import itertools
import time

import numpy as np

from latentprox import constraints as C
from latentprox import experiments as EXP
from latentprox.alm import AlmState, alm_project
from latentprox.decoders import linear_decoder, random_linear_decoder
from latentprox.diagnostics import fit_gaussian, frechet_distance
from latentprox.dpo import (DpoConfig, Simulator, linear_simulator,
                            smoothed_grad)
from latentprox.runner import (RunConfig, build_sampler_config,
                               rerun_from_manifest, run_design, run_experiment)
from latentprox.samplers import SamplerConfig, chain_rng, sample
from latentprox.schedules import make_schedule
from latentprox.scores import standard_normal_field

from conftest import same_states


def report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def timed(study, *args):
    """A study's result and the seconds it took."""
    started = time.time()
    result = study(*args)
    return result, time.time() - started


# ---------------------------------------------------------------------------


def test_criterion_01_porosity_exactness(tmp_path, load_script):
    study, elapsed = timed(load_script("run_porosity").porosity_study,
                           tmp_path)
    runs = study["runs"]
    report("1 porosity exactness", study["ok"] and elapsed < 60,
           f"30%: {runs[0.3]['exact']}/20 at K={runs[0.3]['K']}, "
           f"50%: {runs[0.5]['exact']}/20 at K={runs[0.5]['K']}, "
           f"{elapsed:.1f}s < 60s")


def brute_force_cost(flat, K, tau):
    """Independent oracle: enumerate every K-subset of pixels made negative."""
    n = flat.size
    base = float(np.sum(-flat[flat < 0]))
    # including pixel i in the negative set changes the cost by
    # (x_i + tau) when x_i >= 0 (flip down) or by x_i when x_i < 0 (stays)
    delta = np.where(flat >= 0, flat + tau, flat)
    subsets = np.array(list(itertools.combinations(range(n), K)), dtype=int)
    if subsets.size == 0:
        return base
    return base + float(delta[subsets].sum(axis=1).min())


def test_criterion_02_porosity_optimality():
    started = time.time()
    tau = C.MARGIN
    rng = np.random.default_rng(0)
    worst_gap = 0.0
    cases = 0
    for pattern in itertools.product([-1.0, 1.0], repeat=9):
        flat = np.array(pattern) * rng.uniform(0.05, 1.0, size=9)
        grid = flat.reshape(3, 3)
        for K in range(10):
            y = C.project_exact(C.porosity_constraint((3, 3), K), grid)
            assert np.count_nonzero(y < 0) == K
            cost = float(np.abs(y.ravel() - flat).sum())
            oracle = brute_force_cost(flat, K, tau)
            flipped = int(np.sum((y.ravel() < 0) != (flat < 0)))
            worst_gap = max(worst_gap, cost - oracle - tau * flipped)
            assert cost <= oracle + tau * flipped + 1e-12
            cases += 1
    elapsed = time.time() - started
    ok = elapsed < 30
    report("2 porosity optimality", ok,
           f"{cases} cases, worst excess {worst_gap:.2e}, {elapsed:.1f}s < 30s")


def test_criterion_03_feasibility_contraction(load_script):
    study, elapsed = timed(load_script("run_bound_checks").contraction_study)
    report("3 feasibility contraction bound", study["ok"] and elapsed < 120,
           f"fraction {study['held'] / study['total']:.4f} >= 0.99, "
           f"precondition {study['precondition_ok']}, hit within T* on "
           f"20/20: {study['hits_ok']}, {elapsed:.1f}s < 120s")


def test_criterion_04_kl_drift_bound(load_script):
    study, elapsed = timed(load_script("run_bound_checks").kl_drift_study)
    report("4 kl drift bound", study["ok"] and elapsed < 120,
           f"{study['passing']}/20 suites hold per-level and cumulatively, "
           f"{elapsed:.1f}s < 120s")


def test_criterion_05_dpo_estimator_accuracy():
    started = time.time()
    rng = np.random.default_rng(42)
    A = rng.standard_normal((3, 4))
    sim = linear_simulator(A)
    x = rng.standard_normal(4)
    errs = [np.linalg.norm(smoothed_grad(sim, x, DpoConfig(nu=0.1, M=1000,
                                                           seed=s)) - A)
            / np.linalg.norm(A) for s in range(50)]
    linear_err = float(np.mean(errs))

    quad = Simulator(fn=lambda v: np.array([float(v @ v)]), response_dim=1)
    x0 = np.array([1.0, 0.0])
    errs_q = [np.linalg.norm(
        smoothed_grad(quad, x0, DpoConfig(nu=0.05, M=10_000, seed=s))[0]
        - 2 * x0) / 2.0 for s in range(50)]
    quad_err = float(np.mean(errs_q))
    elapsed = time.time() - started
    ok = linear_err < 0.10 and quad_err < 0.10 and elapsed < 60
    report("5 dpo estimator accuracy", ok,
           f"linear {linear_err:.4f} < 0.10, quadratic {quad_err:.4f} < 0.10, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_06_design_loop_convergence(load_script):
    study, elapsed = timed(load_script("run_design_loop").design_study)
    ratios = [mse[5] / mse[0] for mse in study["mses"]]
    report("6 design loop convergence", study["ok"] and elapsed < 300,
           f"{study['reached']}/20 seeds reach <= 1% of step-0 MSE "
           f"(median ratio {np.median(ratios):.2e}), {elapsed:.1f}s < 300s")


def test_criterion_07_identity_constraint_equivalence():
    started = time.time()
    sched = make_schedule(T=6, abar_end=0.02, gamma_max=0.05,
                          gamma_min=0.01, M=2)
    lat = standard_normal_field(2, sched)
    amb = standard_normal_field(3, sched)
    dec = random_linear_decoder(2, 3, seed=5)
    vac = C.box([-1e9] * 3, [1e9] * 3)
    vac2 = C.box([-1e9] * 2, [1e9] * 2)

    all_ok = True
    # proximal_latent vs unconstrained (latent space)
    u = SamplerConfig(schedule=sched, score=lat, mode="unconstrained")
    p = SamplerConfig(schedule=sched, score=lat, mode="proximal_latent",
                      decoder=dec, constraint=vac)
    for seed in range(5):
        zu, tu = sample(u, chain_rng(seed, 0))
        xp, tp = sample(p, chain_rng(seed, 0))
        all_ok &= len(tu.rows) == len(tp.rows)
        all_ok &= same_states(tu.rows, tp.rows)
    # projected_ambient vs unconstrained (ambient space)
    ua = SamplerConfig(schedule=sched, score=amb, mode="unconstrained")
    pa = SamplerConfig(schedule=sched, score=amb, mode="projected_ambient",
                       constraint=vac)
    for seed in range(5):
        zu, tu = sample(ua, chain_rng(seed, 0))
        xa, ta = sample(pa, chain_rng(seed, 0))
        all_ok &= same_states(tu.rows, ta.rows)
        all_ok &= np.array_equal(zu, xa)
    # unconstrained sampler with a vacuous constraint configured (mode 3:
    # proximal run in the latent space of a 2-d ambient-identity decoder)
    p2 = SamplerConfig(schedule=sched, score=lat, mode="proximal_latent",
                       decoder=linear_decoder(np.eye(2)), constraint=vac2)
    for seed in range(5):
        zu, tu = sample(u, chain_rng(seed, 0))
        x2, t2 = sample(p2, chain_rng(seed, 0))
        all_ok &= np.array_equal(zu, x2)
    elapsed = time.time() - started
    ok = all_ok and elapsed < 10
    report("7 identity-constraint equivalence", ok,
           f"bit-identical traces in all three modes, {elapsed:.1f}s < 10s")


def test_criterion_08_alm_projection_fidelity():
    started = time.time()
    rng = np.random.default_rng(0)
    state = AlmState(tol=1e-3, inner_step=0.05)
    good = 0
    for k in range(25):
        if k % 2 == 0:
            a = rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b = float(rng.uniform(-1, 1))
            anchor = rng.uniform(-3, 3, size=2)

            def g_and_grad(y, a=a, b=b):
                return (abs(float(a @ y) - b),
                        np.sign(float(a @ y) - b) * a)

            oracle = anchor - (a @ anchor - b) * a
        else:
            center = rng.uniform(-1, 1, size=2)
            radius = float(rng.uniform(0.5, 2.0))
            u = rng.standard_normal(2)
            u /= np.linalg.norm(u)
            anchor = center + rng.uniform(radius + 0.5, radius + 3.0) * u
            spec = C.l2_ball(radius, center=center)

            def g_and_grad(y, s=spec):
                return C.violation_and_gradient(s, y)

            oracle = C.project_exact(spec, anchor)
        y, rep = alm_project(anchor, g_and_grad, state)
        good += (rep.final_violation < state.tol
                 and np.linalg.norm(y - oracle) < 10 * state.tol)
    elapsed = time.time() - started
    ok = good == 25 and elapsed < 30
    report("8 alm projection fidelity", ok,
           f"{good}/25 within 10*delta of the closed form with violation "
           f"< delta, {elapsed:.1f}s < 30s")


def test_criterion_09_surrogate_centroid_rates(load_script):
    study, elapsed = timed(load_script("run_centroid").centroid_study)
    report("9 surrogate centroid rates", study["ok"] and elapsed < 120,
           f"constrained {study['steered']:.1%} <= 10%, unconstrained "
           f"{study['base']:.1%} >= 40%, {elapsed:.1f}s < 120s")


def test_criterion_10_fidelity_preservation():
    started = time.time()
    n = 10_000
    cfg = RunConfig.from_dict(EXP.fidelity_config(seed=0, chains=n,
                                                  out="unused"))
    scfg = build_sampler_config(cfg)
    finals = EXP.sample_population(scfg, n, np.random.default_rng(0))

    def oracle(seed):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=123456,
                                                           spawn_key=(seed,)))
        out = np.empty((n, 2))
        k = 0
        while k < n:
            batch = rng.standard_normal((2 * n, 2))
            take = batch[batch[:, 0] <= 1.0][: n - k]
            out[k:k + len(take)] = take
            k += len(take)
        return out

    fit_sampler = fit_gaussian(finals)
    oracle_fits = [fit_gaussian(oracle(s)) for s in range(4)]
    floor = float(np.mean([frechet_distance(oracle_fits[i], oracle_fits[i + 1])
                           for i in range(3)]))
    fd = float(np.mean([frechet_distance(fit_sampler, oracle_fits[i])
                        for i in range(3)]))
    elapsed = time.time() - started
    ok = fd <= 2.0 * floor and elapsed < 180
    report("10 fidelity preservation", ok,
           f"frechet {fd:.2e} <= 2 x floor {floor:.2e} "
           f"(ratio {fd / floor:.2f}), {elapsed:.1f}s < 180s")


def test_criterion_11_determinism_replay(tmp_path):
    started = time.time()
    runs = {
        "porosity": EXP.porosity_config(fraction=0.3, seed=3, chains=2,
                                        out=str(tmp_path / "a"), grid=(8, 8),
                                        latent_dim=16),
        "halfspace": EXP.halfspace_contraction_config(
            seed=1, chains=2, out=str(tmp_path / "b"), noise_scale=1.0),
        "design": EXP.design_loop_config(seed=2, out=str(tmp_path / "c")),
    }
    all_ok = True
    for name, raw in runs.items():
        cfg = RunConfig.from_dict(raw)
        if name == "design":
            run_design(cfg)
        else:
            run_experiment(cfg)
        out = tmp_path / raw["out"].split("/")[-1]
        replay_dir = tmp_path / f"{name}_replay"
        rerun_from_manifest(out / "manifest.json", replay_dir)
        same = (out / "metrics.csv").read_bytes() == \
            (replay_dir / "metrics.csv").read_bytes()
        all_ok &= same
    elapsed = time.time() - started
    report("11 determinism/replay", all_ok,
           f"metrics bit-identical on replay for {len(runs)} experiments, "
           f"{elapsed:.1f}s")
