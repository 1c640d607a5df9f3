"""The active-set population correction against the all-rows loop it
replaced, and the population sampler's window, divergence and kind checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentprox import constraints as C
from latentprox import experiments as EXP
from latentprox.decoders import linear_decoder
from latentprox.errors import ConfigError, DivergenceError
from latentprox.runner import RunConfig, build_sampler_config
from latentprox.samplers import SamplerConfig
from latentprox.schedules import make_schedule
from latentprox.scores import standard_normal_field

DELTA = 1e-3
SCHEDULE = make_schedule(T=2, abar_start=1.0, abar_end=0.02, gamma_max=0.05,
                         gamma_min=0.01)


def all_rows_correct(cfg, Z, t, updates=None):
    """Reference: decode, check and mask every row on every iteration.

    ``updates``, when given, counts the updates each row receives.
    """
    con = cfg.constraint
    W, b = cfg.decoder.weight, cfg.decoder.bias
    X0 = Z @ W.T + b
    lr = cfg.lr_at(t)
    lam = con.prox_weight
    for _ in range(cfg.inner_cap):
        X = Z @ W.T + b
        v = C._violation(con, X)
        mask = v >= con.delta
        if not mask.any():
            break
        D = (X[mask] - C._project_exact(con, X[mask])) \
            + (X[mask] - X0[mask]) / lam
        Z = Z.copy()
        Z[mask] = Z[mask] - lr * (D @ W)
        if updates is not None:
            updates[mask] += 1
    return Z


def _geometry(kind, rng, d, lam):
    """A constraint, a boundary point p, an outward direction u such that
    p + e u (e >= 0) projects to p and violates by exactly e, and a point
    strictly inside."""
    if kind == "halfspace":
        normal = rng.standard_normal(d) + 0.1
        u = normal / np.linalg.norm(normal)
        offset = float(rng.uniform(-1.0, 1.0))
        tangent = rng.standard_normal(d)
        tangent -= (tangent @ u) * u
        p = offset * normal / (normal @ normal) + tangent
        # violation is normal . x - offset, so an outward step e / |n| adds e
        scale = 1.0 / np.linalg.norm(normal)
        con = C.halfspace(normal, offset, delta=DELTA, prox_weight=lam)
        return con, p, u * scale, p - u
    if kind == "l2_ball":
        center = rng.standard_normal(d)
        radius = float(rng.uniform(0.5, 2.0))
        u = rng.standard_normal(d)
        u /= np.linalg.norm(u)
        con = C.l2_ball(radius, center=center, delta=DELTA,
                        prox_weight=lam)
        return con, center + radius * u, u, center + 0.5 * radius * u
    lower = rng.standard_normal(d)
    upper = lower + rng.uniform(0.5, 2.0, size=d)
    mid = 0.5 * (lower + upper)
    j = int(rng.integers(d))
    p = mid.copy()
    p[j] = upper[j]
    u = np.zeros(d)
    u[j] = 1.0
    con = C.box(lower, upper, delta=DELTA, prox_weight=lam)
    return con, p, u, mid


@st.composite
def correction_cases(draw):
    kind = draw(st.sampled_from(["halfspace", "l2_ball", "box"]))
    d = draw(st.integers(1, 4))
    cap = draw(st.integers(3, 10))
    rate = draw(st.floats(0.4, 0.7))          # excess shrink per update
    s = draw(st.floats(0.5, 2.0))              # decoder scale
    lam = draw(st.floats(1e7, 1e9))
    seed = draw(st.integers(0, 2**32 - 1))
    n_free = draw(st.integers(0, 12))
    rng = np.random.default_rng(seed)
    con, p, u, inside = _geometry(kind, rng, d, lam)
    # X = W z + b with W = s Q (Q orthogonal), so W W^T = s^2 I and one
    # update moves an outward point by lr s^2 = 1 - rate times its excess
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    W = s * Q
    bias = rng.standard_normal(d)
    # excess delta * rate^-(k - 1/2) falls below delta at update k
    excess = [DELTA * rate ** (0.5 - k) for k in range(1, cap)]
    excess.append(DELTA * rate ** (-cap - 2))   # still violating at the cap
    X = [inside, p] + [p + e * u for e in excess]
    X += list(inside + 4.0 * rng.standard_normal((n_free, d)))
    X = np.array(X)[rng.permutation(len(X))]
    Z = (X - bias) @ Q / s                     # Q^T (x - b) / s, row-wise
    cfg = SamplerConfig(
        schedule=SCHEDULE, score=standard_normal_field(d, SCHEDULE),
        mode="proximal_latent",
        decoder=linear_decoder(W, bias), constraint=con,
        lr=(1.0 - rate) / s**2, inner_cap=cap)
    return cfg, Z


@settings(max_examples=150, deadline=None)
@given(correction_cases())
def test_active_set_matches_all_rows_loop(case):
    cfg, Z = case
    Z_in = Z.copy()
    updates = np.zeros(len(Z), dtype=int)
    expected = all_rows_correct(cfg, Z, 1, updates)
    got = EXP._correct_batch(cfg, Z, 1)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(Z, Z_in)   # the input is left alone
    # the case holds rows feasible at entry, rows that converge after
    # different numbers of updates, and rows that reach the cap
    cap = cfg.inner_cap
    assert 0 in updates and cap in updates
    assert len(set(updates[(updates > 0) & (updates < cap)])) >= 2


def test_population_matches_all_rows_loop(monkeypatch):
    n = 500
    cfg = RunConfig.from_dict(EXP.fidelity_config(seed=0, chains=n,
                                                  out="unused"))
    scfg = build_sampler_config(cfg)
    got = EXP.sample_population(scfg, n, np.random.default_rng(0))
    monkeypatch.setattr(EXP, "_correct_batch", all_rows_correct)
    expected = EXP.sample_population(scfg, n, np.random.default_rng(0))
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("inner_cap", [1, 2])
def test_short_caps_match_all_rows_loop(inner_cap):
    cfg = build_sampler_config(RunConfig.from_dict(
        EXP.fidelity_config(seed=0, chains=1, out="unused")))
    cfg.inner_cap = inner_cap
    Z = np.random.default_rng(5).normal(1.0, 1.0, size=(200, 2))
    assert np.array_equal(EXP._correct_batch(cfg, Z, 1),
                          all_rows_correct(cfg, Z, 1))


def _fidelity(n, constraint=None, **sections):
    """The fidelity preset's sampler config for n chains, with its
    constraint replaced and its other sections updated."""
    cfg = EXP.fidelity_config(seed=0, chains=n, out="unused")
    if constraint is not None:
        cfg["constraint"] = constraint
    for section, values in sections.items():
        cfg[section].update(values)
    return build_sampler_config(RunConfig.from_dict(cfg))


def test_correction_window_outside_schedule_never_corrects():
    # T = 12, so the window (20, 20) holds no level
    n = 300
    windowed = _fidelity(n, schedule={"M": 20},
                         sampler={"correct_levels": [20, 20],
                                  "final_projection": False})
    free = replace(windowed, constraint=None, correct_levels=None)
    got = EXP.sample_population(windowed, n, np.random.default_rng(4))
    expected = EXP.sample_population(free, n, np.random.default_rng(4))
    assert np.array_equal(got, expected)
    # the unconstrained population does violate, so the window did skip work
    assert (got[:, 0] > 1.0).any()


def test_correction_window_is_inclusive(monkeypatch):
    n = 200
    cfg = _fidelity(n, schedule={"M": 5},
                    sampler={"correct_levels": [3, 5],
                             "correct_every_step": False})
    levels = []
    correct = EXP._correct_batch

    def recording(cfg_, Z, t):
        levels.append(t)
        return correct(cfg_, Z, t)

    monkeypatch.setattr(EXP, "_correct_batch", recording)
    EXP.sample_population(cfg, n, np.random.default_rng(0))
    assert levels == [5, 4, 3]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_population_divergence_raises():
    cfg = _fidelity(50, schedule={"gamma_max": 1e300, "M": 2})
    with pytest.raises(DivergenceError, match="50 of 50"):
        EXP.sample_population(cfg, 50, np.random.default_rng(0))


def test_population_rejects_porosity_before_sampling():
    cfg = build_sampler_config(RunConfig.from_dict(
        EXP.porosity_config(seed=0, chains=1, out="unused", grid=(4, 4),
                            latent_dim=4)))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ConfigError, match="cannot correct porosity"):
        EXP.sample_population(cfg, 10, rng)
    assert rng.bit_generator.state == state   # no draw was made


def test_final_l2_projection_keeps_feasible_rows():
    # a ball so large that every sample is inside it
    n = 500
    ball = {"kind": "l2_ball", "radius": 50.0, "center": [0.3, -0.2],
            "delta": 1e-4, "prox_weight": 1e4}
    kept = _fidelity(n, constraint=ball, schedule={"M": 20})
    raw = replace(kept, final_projection=False)
    X = EXP.sample_population(raw, n, np.random.default_rng(1))
    assert (np.linalg.norm(X - [0.3, -0.2], axis=1) < 50.0).all()
    assert np.array_equal(
        EXP.sample_population(kept, n, np.random.default_rng(1)), X)
