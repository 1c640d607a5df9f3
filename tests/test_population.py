"""The active-set population correction against the all-rows loop it
replaced and against the per-chain correction loop, and the population
sampler's window, divergence and kind checks."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentprox import constraints as C
from latentprox import experiments as EXP
from latentprox import samplers
from latentprox.decoders import (decode, decode_unchecked, linear_decoder,
                                 random_mlp_decoder, vjp_unchecked)
from latentprox.errors import ConfigError, DivergenceError
from latentprox.runner import RunConfig, build_sampler_config
from latentprox.samplers import (PROGRESS_RATIO, STAGNATION_RATIO,
                                  SampleTrace, SamplerConfig, _run_correction)
from latentprox.schedules import make_schedule
from latentprox.scores import standard_normal_field

DELTA = 1e-3
SCHEDULE = make_schedule(T=2, abar_end=0.02, gamma_max=0.05,
                         gamma_min=0.01)


def all_rows_correct(cfg, Z, t, steps=None, stops=None):
    """Reference: decode, check and mask every row on every iteration.

    Each row takes the per-chain rule of ``samplers._run_correction``: its
    carried step from ``steps`` first (``lr_at(t)`` where the entry is NaN
    or no ``steps`` is given), then its own secant step s.s / s.y (its
    previous step when s.y <= 0); a corrected row writes the step of its
    last update back to ``steps``.  It stops below ``delta``, once ||g_k|| <=
    STAGNATION_RATIO ||g_0|| after the update along g_k or, from the second
    update on, once an update cuts the row's dist (``C.dist_to_set``) by
    less than PROGRESS_RATIO of its previous dist, or after ``inner_cap``
    updates; a row whose update raised its dist by more than PROGRESS_RATIO
    of it (its gradient not stalled) ends at the latent before that
    update.  ``stops``, when given, receives one
    ``(updates, reason)`` per row: reason None for a row feasible at entry,
    else the first of converged, stagnated and capped that holds.
    """
    con = cfg.constraint
    layers = cfg.decoder.layers
    n = len(Z)
    X0 = decode_unchecked(layers, Z)
    lam = con.prox_weight
    step = np.full(n, np.nan) if steps is None else steps.copy()
    step[np.isnan(step)] = cfg.lr_at(t)
    g_norm, g0_norm = np.zeros(n), np.zeros(n)
    Z_prev, G_prev = np.zeros_like(Z), np.zeros_like(Z)
    updates = np.zeros(n, dtype=int)
    reasons = np.full(n, None, dtype=object)
    active = C._violation(con, X0) >= con.delta
    X, dist = X0, np.zeros(n)
    for k in range(1, cfg.inner_cap + 1):
        if not active.any():
            break
        m = active
        D = (X[m] - C._project_exact(con, X[m])) + (X[m] - X0[m]) / lam
        G = vjp_unchecked(layers, Z[m], D)
        g_norm[m] = np.sqrt(np.vecdot(G, G))
        if k == 1:
            g0_norm[m] = g_norm[m]
        else:
            S = Z[m] - Z_prev[m]
            sy = np.vecdot(S, G - G_prev[m])
            secant = np.vecdot(S, S) / np.where(sy > 0.0, sy, 1.0)
            step[m] = np.where(sy > 0.0, secant, step[m])
        Z_prev[m], G_prev[m] = Z[m], G
        Z = Z.copy()
        Z[m] = Z[m] - step[m, None] * G
        X = decode_unchecked(layers, Z)
        # a stopped row's dist is never read again
        dist_prev, dist = dist, dist.copy()
        dist[m] = [C.dist_to_set(con, x) for x in X[m]]
        for reason, hit in (
                ("converged", C._violation(con, X) < con.delta),
                ("stagnated", (g_norm <= STAGNATION_RATIO * g0_norm)
                 | ((k >= 2)
                    & (dist_prev - dist < PROGRESS_RATIO * dist_prev))),
                ("capped", k == cfg.inner_cap)):
            hit = active & hit
            reasons[hit], updates[hit] = reason, k
            active = active & ~hit
            if reason == "stagnated":
                # an update that raised dist, with the gradient not yet
                # stalled, is undone and not counted
                undone = hit & (k >= 2) & (
                    dist - dist_prev > PROGRESS_RATIO * dist_prev) & (
                    g_norm > STAGNATION_RATIO * g0_norm)
                Z[undone], updates[undone] = Z_prev[undone], k - 1
    if steps is not None:
        steps[updates > 0] = step[updates > 0]
    if stops is not None:
        stops.extend(zip(updates.tolist(), reasons.tolist()))
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


def _anisotropic_decoder(rng, n, lam, mu, beta):
    """W = B^(-1/2) R diag(sqrt(mu)) V^T, so that the latent Hessian of a
    halfspace's proximal objective outside the set, W^T B W with B = n n^T
    + I / lambda (n the unit normal), is V diag(mu) V^T, and an outward
    gradient g_0 has the share beta of its weight on the first eigenvector
    and 1 - beta on the second."""
    d = len(n)
    U, _ = np.linalg.qr(np.column_stack([n, rng.standard_normal((d, d - 1))]))
    U[:, 0] = n
    c, s = np.sqrt(beta), np.sqrt(1.0 - beta)
    G = np.eye(d)
    G[:2, :2] = [[c, -s], [s, c]]              # R^T n = G e_1 = (c, s, 0..)
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    nn = np.outer(n, n)
    B_inv_sqrt = (nn / np.sqrt(1.0 + 1.0 / lam)
                  + np.sqrt(lam) * (np.eye(d) - nn))
    return B_inv_sqrt @ U @ G.T @ np.diag(np.sqrt(mu)) @ V.T


def _between(lo, hi):
    """The geometric mean of two bounds on a row's entry violation."""
    return np.sqrt(lo * hi)


@st.composite
def correction_cases(draw):
    """A batch of latents for one correction at level 1, its sampler
    config, and the designed stop ``(updates, reason)`` of some of its rows
    by row index (reason None for a row feasible at entry).

    Every batch holds a point inside, a point on the boundary, rows that
    violate by chosen amounts v_0 along the outward line of ``_geometry``,
    and free rows around the inside point.  Every stop test of a designed
    row clears its threshold by a factor of at least 1.25.

    Designs named after a kind: the decoder is W = s Q (Q orthogonal), so
    a row stays on its outward line, where the proximal objective is a
    quadratic with its minimizer at violation kappa v_0 (kappa = 1 / (1 +
    lambda)).  The first update leaves v_1 = f1 v_0, f1 = kappa + rho (1 -
    kappa), and ||g_1|| / ||g_0|| = rho; the secant step of the second
    update is exact and lands on v_2 = kappa v_0.  Rows converge at update
    1 and at update 2, and a stalled row whose minimizer lies outside the
    set stagnates at update 2 (rho <= 0.008, inner_cap >= 3) or is capped
    (rho >= 0.2, inner_cap = 2).

    late, stall_below and stall_above (halfspaces, d >= 2): the decoder of
    ``_anisotropic_decoder`` makes the latent objective a quadratic with
    Hessian eigenvalues mu_1 and mu_2 = q mu_1 on the span of g_0.  The
    step lr = 1 / mu_1 clears the first component, the secant step of
    update 2 shrinks the second by 1 - alpha_1 mu_2 and the secant step of
    update 3 is 1 / mu_2, which lands on the minimizer.  Outside the set
    every row scales with its v_0: v_k = phi_k v_0 with phi_k = kappa + (1
    - kappa) P_k (P_1 = (1 - beta)(1 - q), P_2 = P_1 (1 - alpha_1 mu_2),
    phi_3 = kappa), and every row has the same r_k = ||g_k|| / ||g_0||.
    beta is solved from the drawn r_1.  In late cases r_1 >= 0.12: rows
    converge at updates 1, 2 and 3, and the stalled row stagnates at update
    4, once its gradient has vanished (or is capped when inner_cap = 3).
    In the stall designs r_1 lies within a factor 2 of STAGNATION_RATIO:
    below it, the stalled row stagnates at update 2 while its next step would
    still move it; above it, the row takes update 3 and stagnates, since
    r_2 <= r_1 / 2.  So halving or doubling the threshold changes the
    result.  There kappa = c (P_1 - P_2), c in [5, 20], so the second
    update cuts the stalled row's dist by 4.5-16%: the progress stop
    (PROGRESS_RATIO) does not end it.
    """
    design = draw(st.sampled_from(["halfspace", "l2_ball", "box", "late",
                                   "stall_below", "stall_above"]))
    kind = design if design in C.CLOSED_FORM_KINDS else "halfspace"
    d = draw(st.integers(1 if design == kind else 2, 4))
    s = draw(st.floats(0.5, 2.0))              # decoder scale
    seed = draw(st.integers(0, 2**32 - 1))
    n_free = draw(st.integers(0, 12))
    rng = np.random.default_rng(seed)
    if design == kind:
        stagnates = draw(st.booleans())
        if stagnates:
            rho = draw(st.floats(0.002, 0.008))
            kappa = rho * draw(st.floats(0.05, 0.4))
            cap = draw(st.integers(3, 10))
        else:
            rho = draw(st.floats(0.2, 0.5))
            kappa = draw(st.floats(0.01, 0.1))
            cap = 2
        lam = 1.0 / kappa - 1.0
        f1 = kappa + rho * (1.0 - kappa)
        con, p, u, inside = _geometry(kind, rng, d, lam)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        W = s * Q
        # the first update moves an outward row by lr s^2 (1 + 1/lambda) =
        # 1 - rho times its gap to the minimizer
        lr = (1.0 - rho) / (s**2 * (1.0 + 1.0 / lam))
        rows = {_between(DELTA, DELTA / f1): (1, "converged"),
                _between(DELTA / f1, DELTA / kappa): (2, "converged"),
                DELTA / kappa * draw(st.floats(1.5, 3.0)):
                    (2, "stagnated" if stagnates else "capped")}
    else:
        q = draw(st.floats(0.5, 0.7))
        if design == "late":
            r1 = (1.0 - q) * draw(st.floats(0.4, 0.6))
        elif design == "stall_below":
            r1 = STAGNATION_RATIO * draw(st.floats(0.625, 0.8))
        else:
            r1 = STAGNATION_RATIO * draw(st.floats(1.25, 1.6))
        beta = q * ((1 - q)**2 - r1**2) / ((1 - q) * (r1**2 + q * (1 - q)))
        alpha1_mu2 = q * (beta + q * (1 - beta)) / (beta + q**2 * (1 - beta))
        P1 = (1.0 - beta) * (1.0 - q)
        P2 = P1 * (1.0 - alpha1_mu2)
        if design == "late":
            kappa = P2 * draw(st.floats(0.1, 0.3))
        else:
            kappa = (P1 - P2) * draw(st.floats(5.0, 20.0))
        cap = draw(st.integers(3, 10))
        lam = 1.0 / kappa - 1.0
        phi1 = kappa + (1.0 - kappa) * P1
        phi2 = kappa + (1.0 - kappa) * P2
        con, p, u, inside = _geometry(kind, rng, d, lam)
        mu1 = s**2
        W = _anisotropic_decoder(rng, con.normal / np.linalg.norm(con.normal),
                                 lam, [mu1, q * mu1] + [mu1] * (d - 2), beta)
        lr = 1.0 / mu1
        stall = DELTA / kappa * draw(st.floats(1.5, 3.0))
        rows = {_between(DELTA, DELTA / phi1): (1, "converged")}
        if design == "late":
            rows[_between(DELTA / phi1, DELTA / phi2)] = (2, "converged")
            rows[_between(DELTA / phi2, DELTA / kappa)] = (3, "converged")
            rows[stall] = (3, "capped") if cap == 3 else (4, "stagnated")
        else:
            rows[stall] = (2 if design == "stall_below" else 3, "stagnated")
    bias = rng.standard_normal(d)
    stops = [(0, None), (0, None)] + list(rows.values())
    X = [inside, p] + [p + e * u for e in rows]
    X += list(inside + 4.0 * rng.standard_normal((n_free, d)))
    order = rng.permutation(len(X))
    X = np.array(X)[order]
    Z = np.linalg.solve(W, (X - bias).T).T
    cfg = SamplerConfig(
        schedule=SCHEDULE, score=standard_normal_field(d, SCHEDULE),
        mode="proximal_latent",
        decoder=linear_decoder(W, bias), constraint=con, lr=lr,
        inner_cap=cap)
    designed = {int(i): stops[j] for i, j in enumerate(order)
                if j < len(stops)}
    return cfg, Z, designed


@settings(max_examples=150, deadline=None)
@given(correction_cases())
def test_active_set_matches_all_rows_loop(case):
    cfg, Z, designed = case
    Z_in = Z.copy()
    stops = []
    expected = all_rows_correct(cfg, Z, 1, stops=stops)
    got = EXP._correct_batch(cfg, Z, 1)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(Z, Z_in)   # the input is left alone
    # the designed rows: feasible at entry, converging after 1, 2 or 3
    # updates, stagnating before the cap or reaching it
    for i, stop in designed.items():
        assert stops[i] == stop


@settings(max_examples=150, deadline=None)
@given(correction_cases())
def test_rows_loop_takes_the_per_chain_rule(case):
    # each row of a population correction equals the per-chain loop run on
    # that row alone, and stops after as many updates for the same reason
    cfg, Z, _ = case
    got = EXP._correct_batch(cfg, Z, 1)
    stops = []
    all_rows_correct(cfg, Z, 1, stops=stops)
    rng = np.random.default_rng(0)
    for z, row, (k, reason) in zip(Z, got, stops):
        x0 = decode(cfg.decoder, z)
        trace = SampleTrace()
        chain, _ = _run_correction(cfg, z, x0,
                                   C.evaluate(cfg.constraint, x0), 1,
                                   SCHEDULE.gamma_at(1), rng, trace)
        np.testing.assert_allclose(row, chain, rtol=0, atol=1e-12)
        assert trace.stops == ([] if reason is None else [(1, k, reason)])


@settings(max_examples=100, deadline=None)
@given(correction_cases(), st.integers(0, 2**32 - 1))
def test_rows_loop_carries_each_rows_step(case, seed):
    # two consecutive corrections of a batch, the second from a Langevin-
    # like perturbation of the first's output, with the step array carried
    # between them.  In each call every row equals the per-chain loop run
    # from the row's entry (None for NaN): its latent within 1e-12, and the
    # step it writes back is the one the chain returns.  A row that a call
    # does not correct keeps its entry bit for bit.
    #
    # A level that converges or is capped at its first update returns the
    # step it started from, bit for bit.  A later step is the secant step
    # s.s / s.y of the last change s of the latent; the two loop shapes
    # round the latent differently in its last bits (about 1e-14 here), and
    # on the stalled rows of the stagnation designs, where ||s|| falls to
    # about 0.01, the steps differ by up to 1.2e-11 of their value, so they
    # are held to 1e-10 of it
    cfg, Z, _ = case
    rng = np.random.default_rng(seed)
    n = len(Z)
    steps = np.where(rng.random(n) < 0.5, np.nan,
                     cfg.lr * rng.uniform(0.5, 2.0, size=n))
    for call in range(2):
        before = steps.copy()
        got = samplers._correct_rows(cfg, Z, 1, steps)
        for i, z in enumerate(Z):
            x0 = decode(cfg.decoder, z)
            trace = SampleTrace()
            first = None if np.isnan(before[i]) else before[i]
            chain, step = _run_correction(
                cfg, z, x0, C.evaluate(cfg.constraint, x0), 1,
                SCHEDULE.gamma_at(1), rng, trace, first)
            np.testing.assert_allclose(got[i], chain, rtol=0, atol=1e-12)
            if not trace.stops:
                assert steps[i].tobytes() == before[i].tobytes()
            elif trace.stops[0][1:] in ((1, "converged"), (1, "capped")):
                assert steps[i] == step == (cfg.lr if first is None
                                            else first)
            else:
                assert abs(steps[i] - step) <= 1e-10 * step
        Z = got + 0.3 * rng.standard_normal(Z.shape)


def test_rows_loop_takes_lr_at_t_only_for_a_row_never_corrected():
    # with lr None a row whose entry is NaN starts at 0.1 * gamma_t, and a
    # row with a carried step never reads gamma_t
    con = C.halfspace([1.0, 0.0], 0.0, delta=DELTA, prox_weight=100.0)
    cfg = SamplerConfig(
        schedule=SCHEDULE, score=standard_normal_field(2, SCHEDULE),
        mode="proximal_latent", decoder=linear_decoder(0.5 * np.eye(2)),
        constraint=con, lr=None, inner_cap=10)
    Z = np.random.default_rng(0).normal(1.0, 1.0, size=(50, 2))
    fresh = np.full(len(Z), np.nan)
    got = samplers._correct_rows(cfg, Z, 2, fresh)
    first = replace(cfg, lr=0.1 * SCHEDULE.gamma_at(2))
    assert np.array_equal(got, samplers._correct_rows(first, Z, 2))
    assert np.isfinite(fresh[(got != Z).any(axis=1)]).all()
    carried = np.full(len(Z), 0.7)
    at_1, at_2 = carried.copy(), carried.copy()
    assert np.array_equal(samplers._correct_rows(cfg, Z, 1, at_1),
                          samplers._correct_rows(cfg, Z, 2, at_2))
    assert np.array_equal(at_1, at_2)


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


@pytest.mark.parametrize("seed", range(4))
def test_mlp_population_matches_all_rows_loop(monkeypatch, seed):
    # the rows loop decodes and pulls back through the decoder's own stack,
    # so a tanh decoder takes the same path as a linear one; the halfspace
    # is moved in to 0.3, inside the range of every decoder here (at 1.0
    # three of them never leave it), and 40 steps a level keep the
    # reference's per-row dists quick
    n = 300
    halfspace = {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 0.3,
                 "delta": 1e-4, "prox_weight": 1e4}
    cfg = _fidelity(n, constraint=halfspace, schedule={"M": 40},
                    sampler={"inner_cap": 30},
                    decoder={"kind": "smooth_mlp",
                             "init": {"seed": seed, "hidden": 8}})
    assert cfg.decoder.layers[0][0].shape == (8, 2)
    correct, moved = EXP._correct_batch, []

    def recording(cfg_, Z, t, steps):
        out = correct(cfg_, Z, t, steps)
        moved.append(np.count_nonzero((out != Z).any(axis=1)))
        return out

    monkeypatch.setattr(EXP, "_correct_batch", recording)
    got = EXP.sample_population(cfg, n, np.random.default_rng(seed))
    assert sum(moved) > 0
    monkeypatch.setattr(EXP, "_correct_batch", all_rows_correct)
    expected = EXP.sample_population(cfg, n, np.random.default_rng(seed))
    assert np.array_equal(got, expected)
    assert (C._violation(cfg.constraint, got) == 0.0).all()


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

    def recording(cfg_, Z, t, steps):
        levels.append(t)
        return correct(cfg_, Z, t, steps)

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


def test_integer_lr_takes_the_float_steps():
    # a config built directly may hold an int lr; the rows' secant steps
    # are floats all the same
    con = C.halfspace([1.0, 0.0], 0.0, delta=DELTA, prox_weight=100.0)
    cfg = SamplerConfig(
        schedule=SCHEDULE, score=standard_normal_field(2, SCHEDULE),
        mode="proximal_latent", decoder=linear_decoder(0.5 * np.eye(2)),
        constraint=con, lr=1, inner_cap=10)
    Z = np.random.default_rng(0).normal(1.0, 1.0, size=(50, 2))
    got = EXP._correct_batch(cfg, Z, 1)
    assert (got != Z).any()
    assert np.array_equal(got, EXP._correct_batch(replace(cfg, lr=1.0), Z, 1))


def test_a_level_whose_dist_stops_falling_stagnates_in_both_loop_shapes(
        monkeypatch):
    # the prox minimizer of an l2 ball at lambda 1 lies outside it; under a
    # smooth decoder the secant steps approach it slowly, so dist flattens
    # long before the gradient falls to STAGNATION_RATIO of its first norm
    dec = random_mlp_decoder(2, 3, hidden=8, seed=3, scale=1.5)
    con = C.l2_ball(0.3, center=[1.0, 0.0, 0.0], delta=1e-6, prox_weight=1.0)
    cfg = SamplerConfig(
        schedule=SCHEDULE, score=standard_normal_field(2, SCHEDULE),
        mode="proximal_latent", decoder=dec, constraint=con, lr=0.3,
        inner_cap=100)
    Z = np.random.default_rng(0).normal(0.0, 2.0, size=(8, 2))

    def chains():
        out = []
        for z in Z:
            x0 = decode(dec, z)
            trace = SampleTrace()
            z, _ = _run_correction(cfg, z, x0, C.evaluate(con, x0), 1,
                                   SCHEDULE.gamma_at(1),
                                   np.random.default_rng(0), trace)
            out.append((z, trace))
        return out

    stopped = chains()
    for _, trace in stopped:
        (_, k, reason), = trace.stops
        assert reason == "stagnated" and k < cfg.inner_cap
        assert len(trace.rows) == k
    rows = EXP._correct_batch(cfg, Z, 1)
    np.testing.assert_allclose(rows, [z for z, _ in stopped], rtol=0,
                               atol=1e-12)
    # without the stop every level takes the same first updates and goes
    # on, so neither the gradient rule nor the cap ended it; the rows loop
    # goes on too.  The stop came at the first update from the second on
    # that cut dist by less than PROGRESS_RATIO; when that update raised
    # dist by more than PROGRESS_RATIO it was undone, and the level kept
    # the latent before it
    monkeypatch.setattr(samplers, "PROGRESS_RATIO", -math.inf)
    undone = 0
    for (z, trace), (_, longer) in zip(stopped, chains()):
        (_, k, _), = trace.stops
        (_, k_off, _), = longer.stops
        dist = [row.dist for row in longer.rows]
        # cuts[j] is the cut of update j + 2; the first update takes none
        cuts = [(a - b) / a for a, b in zip(dist, dist[1:])]
        j = next(j for j, c in enumerate(cuts) if c < PROGRESS_RATIO)
        rise = cuts[j] < -PROGRESS_RATIO
        undone += rise
        assert k == (j + 1 if rise else j + 2) < k_off
        assert [r.z.tobytes() for r in longer.rows[:k]] == [
            r.z.tobytes() for r in trace.rows]
        assert z.tobytes() == trace.rows[-1].z.tobytes()
    assert (EXP._correct_batch(cfg, Z, 1) != rows).any(axis=1).all()
    assert 0 < undone < len(Z)   # both ways of stopping are taken
