"""Canonical desk-scale experiment presets.

Each function returns a plain config dict for the runner, analogous to the
three application studies: exact-porosity microstructure grids, the
simulator-in-the-loop design refinement, and surrogate-steered generation
away from a forbidden cluster, plus the convex suite used by the bound
checks.  Everything is generated from explicit seeds so runs replay
bit-exactly.
"""

from __future__ import annotations

import numpy as np

from . import constraints as C
from .decoders import decode_unchecked, random_linear_decoder
from .errors import ConfigError, DivergenceError
from .samplers import _correct_rows, langevin_step
from .scores import score


def porosity_config(fraction: float = 0.3, seed: int = 0, chains: int = 20,
                    out: str = "runs/porosity", grid=(16, 16),
                    latent_dim: int = 32) -> dict:
    """Porosity-constrained grids with a linear decoder; final samples land on
    the target count exactly."""
    rows, cols = grid
    return {
        "experiment": "porosity",
        "seed": seed,
        "chains": chains,
        "out": out,
        "schedule": {"T": 20, "abar_end": 0.02, "gamma_max": 0.05,
                     "gamma_min": 0.005, "M": 2},
        "score": {"kind": "gaussian_mixture",
                  "weights": [0.5, 0.5],
                  "means": [([0.5] + [0.0] * (latent_dim - 1)),
                            ([-0.5] + [0.0] * (latent_dim - 1))],
                  "covs": [np.eye(latent_dim).tolist(),
                           np.eye(latent_dim).tolist()]},
        "decoder": {"kind": "linear", "latent_dim": latent_dim,
                    "ambient_dim": rows * cols,
                    "init": {"seed": seed + 1, "scale": 2.0}},
        "constraint": {"kind": "porosity", "grid": [rows, cols],
                       "fraction": fraction, "delta": 0.5,
                       "prox_weight": 50.0},
        "sampler": {"mode": "proximal_latent", "solver": "closed_form",
                    "lr": 0.2, "inner_cap": 200, "final_projection": True},
        "checks": {"porosity_exact": True},
    }


def halfspace_contraction_config(seed: int = 0, chains: int = 1,
                                 out: str = "runs/halfspace",
                                 noise_scale: float = 0.0) -> dict:
    """Convex suite for the feasibility-contraction bound.

    Drift-only by default, mirroring the gradient-plus-projection steps the
    contraction inequality is stated for; the decoded mode sits well inside
    the halfspace so iterates converge into the feasible region.  Langevin
    noise breaks the drift-only inequality on some transitions, so with
    ``noise_scale > 0`` the contraction is reported but not checked.
    """
    latent_dim, ambient_dim = 2, 3
    mode_depth = 4.0
    dec = random_linear_decoder(latent_dim, ambient_dim, seed=1234, scale=1.0)
    mean_latent = np.zeros(latent_dim)
    mean_latent[0] = mode_depth
    mu_x = dec.layers[0][0] @ mean_latent
    normal = (-mu_x / np.linalg.norm(mu_x)).tolist()
    return {
        "experiment": "halfspace_contraction",
        "seed": seed,
        "chains": chains,
        "out": out,
        "schedule": {"T": 40, "abar_end": 0.02, "gamma_max": 0.015,
                     "gamma_min": 0.002, "M": 1},
        "score": {"kind": "linear_gaussian", "mean": mean_latent.tolist(),
                  "cov": np.eye(latent_dim).tolist()},
        "decoder": {"kind": "linear", "latent_dim": latent_dim,
                    "ambient_dim": ambient_dim,
                    "init": {"seed": 1234, "scale": 1.0}},
        "constraint": {"kind": "halfspace", "normal": normal, "offset": -1.0,
                       "delta": 1e-4, "prox_weight": 1e5},
        "sampler": {"mode": "proximal_latent", "solver": "closed_form",
                    "lr": 0.5, "inner_cap": 50, "final_projection": False,
                    "noise_scale": noise_scale},
        "reports": {"contraction": True, "fidelity": noise_scale > 0},
        "checks": {"contraction_fraction": 0.99} if noise_scale == 0 else {},
    }


def linear_gaussian_fidelity_case(case_seed: int) -> dict:
    """One randomized linear-Gaussian suite member (schedule + target)."""
    rng = np.random.default_rng(case_seed)
    dim = int(rng.integers(1, 4))
    mean = rng.uniform(-1.5, 1.5, size=dim)
    # random SPD covariance with eigenvalues in [0.5, 1.5]
    Q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    vals = rng.uniform(0.5, 1.5, size=dim)
    cov = (Q * vals) @ Q.T
    T = int(rng.integers(10, 21))
    gamma_min = float(rng.uniform(0.005, 0.012))
    gamma_max = float(rng.uniform(gamma_min, 0.03))
    return {
        "schedule": {"T": T, "abar_end": float(rng.uniform(0.01, 0.05)),
                     "gamma_max": gamma_max, "gamma_min": gamma_min, "M": 1},
        "score": {"kind": "linear_gaussian", "mean": mean.tolist(),
                  "cov": cov.tolist()},
    }


def design_loop_config(seed: int = 0, out: str = "runs/design") -> dict:
    """Saturating-simulator inverse design with an in-range target."""
    latent_dim, ambient_dim, response_dim = 3, 4, 4
    rng = np.random.default_rng(9000 + seed)
    # well-conditioned response map keeps plain gradient steps fast
    Q, _ = np.linalg.qr(rng.standard_normal((ambient_dim, ambient_dim)))
    A = Q[:response_dim]
    dec = random_linear_decoder(latent_dim, ambient_dim, seed=77, scale=1.0)
    z_star = 0.6 * rng.standard_normal(latent_dim)
    scale = 3.0
    target = scale * np.tanh(A @ (dec.layers[0][0] @ z_star) / scale)
    return {
        "experiment": "design_loop",
        "seed": seed,
        "chains": 1,
        "out": out,
        "decoder": {"kind": "linear", "latent_dim": latent_dim,
                    "ambient_dim": ambient_dim,
                    "init": {"seed": 77, "scale": 1.0}},
        "dpo": {"nu": 0.05, "M": 64, "target": target.tolist(),
                "simulator": {"name": "saturating", "matrix": A.tolist(),
                              "scale": scale}},
        "design": {"steps": 5, "step_size": 0.9, "tol": 0.0},
        "checks": {"design_mse_ratio": 0.01},
    }


def _cluster_features(seed: int, n_per_class: int = 200):
    """Synthetic two-cluster geometry shared by the centroid experiment."""
    latent_dim, ambient_dim, feature_dim = 2, 4, 3
    sep = 1.645  # ~5% overlap between unit-variance clusters at +-sep
    dec = random_linear_decoder(latent_dim, ambient_dim, seed=4321, scale=1.0)
    rng = np.random.default_rng(seed)
    Qf, _ = np.linalg.qr(rng.standard_normal((ambient_dim, ambient_dim)))
    fmap = Qf[:feature_dim]
    m = np.array([sep, 0.0])
    z_pos = m + rng.standard_normal((n_per_class, latent_dim))
    z_neg = -m + rng.standard_normal((n_per_class, latent_dim))
    feats_pos = decode_unchecked(dec.layers, z_pos) @ fmap.T
    feats_neg = decode_unchecked(dec.layers, z_neg) @ fmap.T
    return dec, fmap, m, feats_pos, feats_neg


def centroid_config(seed: int = 0, chains: int = 200,
                    out: str = "runs/centroid",
                    constrained: bool = True) -> dict:
    """Surrogate-steered sampling away from the forbidden cluster.

    The latent prior is biased toward the forbidden cluster; corrections
    trigger on proximity to that cluster and run during the early levels.
    """
    latent_dim = 2
    dec, fmap, m, feats_pos, feats_neg = _cluster_features(777)
    model = C.fit_centroid_model(feats_pos, feats_neg, feature_map=fmap,
                                 p_trig=0.5)
    T = 15
    cfg = {
        "experiment": "centroid",
        "seed": seed,
        "chains": chains,
        "out": out,
        "schedule": {"T": T, "abar_end": 0.02, "gamma_max": 0.08,
                     "gamma_min": 0.02, "M": 2},
        "score": {"kind": "gaussian_mixture",
                  "weights": [0.35, 0.65],
                  "means": [m.tolist(), (-m).tolist()],
                  "covs": [np.eye(latent_dim).tolist(),
                           np.eye(latent_dim).tolist()]},
        "decoder": {"kind": "linear", "latent_dim": latent_dim,
                    "ambient_dim": 4,
                    "init": {"seed": 4321, "scale": 1.0}},
        "constraint": None,
        "sampler": {"mode": "proximal_latent", "solver": "closed_form",
                    "final_projection": False},
    }
    if constrained:
        cfg["constraint"] = {
            "kind": "surrogate_centroid", "accept_radius": 1.0,
            "delta": 0.05, "prox_weight": 50.0,
            "model": {
                "axes": model.axes.tolist(),
                "feature_mean": model.feature_mean.tolist(),
                "target_centroid": model.target_centroid.tolist(),
                "forbidden_centroid": model.forbidden_centroid.tolist(),
                "p_trig": model.p_trig,
                "feature_map": model.feature_map.tolist(),
            },
        }
        # correct at the late levels: the clusters are fully separated there,
        # so the trigger is reliable and no drift-back remains afterwards
        cfg["sampler"].update({"solver": "alm", "lr": 0.3, "inner_cap": 25,
                               "correct_levels": [1, 5]})
        cfg["alm"] = {"inner_step": 0.2, "max_inner": 60, "max_outer": 30,
                      "tol": 0.02}
    return cfg


def fidelity_config(seed: int = 0, chains: int = 10_000,
                    out: str = "runs/fidelity") -> dict:
    """Halfspace-restricted standard normal for the distribution-match test.

    Every level of a standard normal target shares the same marginal, so the
    sampler equilibrium is the restricted target itself up to discretization
    bias; the rejection oracle in the acceptance suite provides the
    reference.
    """
    dim = 2
    return {
        "experiment": "fidelity",
        "seed": seed,
        "chains": chains,
        "out": out,
        "schedule": {"T": 12, "abar_end": 0.05, "gamma_max": 0.012,
                     "gamma_min": 0.0005, "M": 400},
        "score": {"kind": "linear_gaussian", "mean": [0.0] * dim,
                  "cov": np.eye(dim).tolist()},
        "decoder": {"kind": "linear", "latent_dim": dim, "ambient_dim": dim,
                    "init": {"seed": 31, "scale": 1.0}},
        "constraint": {"kind": "halfspace", "normal": [1.0, 0.0],
                       "offset": 1.0, "delta": 1e-4, "prox_weight": 1e4},
        # per-step correction keeps the chain on the restricted stationary
        # law; level-end-only correction samples the clamped law instead
        "sampler": {"mode": "proximal_latent", "solver": "closed_form",
                    "lr": 0.5, "inner_cap": 100, "final_projection": True,
                    "correct_every_step": True},
    }


# ---------------------------------------------------------------------------
# Vectorized population sampling for distribution-level experiments


def _score_batch(field_, Z: np.ndarray, t: int) -> np.ndarray:
    # called by nothing: sample_population steps through
    # samplers.langevin_step; kept only because perfbench/layers.py traces
    # this name and perfbench/test_perfbench.py fails when a traced name is
    # absent
    return score(field_, Z, t)


def _correct_batch(cfg, Z: np.ndarray, t: int,
                   steps: np.ndarray) -> np.ndarray:
    """Proximal correction of every row of Z whose decoded violation is at
    least ``delta``: ``samplers._correct_rows``, the per-chain correction
    rule applied row by row, each row starting from its carried step in
    ``steps`` (NaN: never corrected, so ``lr_at(t)``) and writing back the
    step it stopped with.  Kept under this name because the benchmark
    traces it."""
    return _correct_rows(cfg, Z, t, steps)


def sample_population(cfg, n: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorized proximal-latent sampling of n independent chains.

    The per-chain sampler's Langevin kernel, constraint rules, correction
    rule and correction window, batched, on any decoder stack; restricted to
    closed_form corrections of ``constraints.CLOSED_FORM_KINDS``.  A
    correction takes each violating chain through the per-chain steps and
    stop reasons, iterating only the chains that have not stopped (see
    ``samplers._correct_rows``).  Each chain's correction step carries from
    one correction to the next, as in ``samplers.sample``: a chain's first
    correction starts at ``lr_at(t)``, each later one at the step its
    previous correction ended with.  Returns the decoded (and optionally
    final-projected) samples; raises ``DivergenceError`` if a chain ends
    non-finite.
    """
    if cfg.mode != "proximal_latent":
        raise ConfigError("population sampling needs proximal_latent mode")
    con = cfg.constraint
    if con is not None and (cfg.solver != "closed_form"
                            or con.kind not in C.CLOSED_FORM_KINDS):
        raise ConfigError(f"population sampling cannot correct {con.kind} "
                          f"constraints with the {cfg.solver} solver")
    sched = cfg.schedule
    Z = rng.standard_normal((n, cfg.decoder.latent_dim))
    steps = np.full(n, np.nan)   # each chain's carried correction step
    for t in range(sched.T, 0, -1):
        gamma = sched.gamma_at(t)
        corrects = cfg.corrects_at(t)
        for i in range(1, sched.inner_steps + 1):
            Z, _ = langevin_step(Z, cfg.score, t, gamma,
                                 rng.standard_normal(Z.shape), cfg.noise_scale)
            if corrects and (cfg.correct_every_step
                             or i == sched.inner_steps):
                Z = _correct_batch(cfg, Z, t, steps)
    # a non-finite latent stays non-finite, so one check covers every step
    bad = np.count_nonzero(~np.isfinite(Z).all(axis=1))
    if bad:
        raise DivergenceError(f"population sampling diverged: {bad} of {n} "
                              "chains are non-finite")
    X = decode_unchecked(cfg.decoder.layers, Z)
    if cfg.final_projection and con is not None:
        X = C._project_exact(con, X)
    return X
