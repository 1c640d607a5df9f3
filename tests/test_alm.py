import numpy as np
import pytest

import warnings

from latentprox import constraints as C
from latentprox.alm import (GROWTH, PENALTY, PENALTY_CAP, AlmState,
                            alm_project, descend)
from latentprox.errors import NumericError, ParameterError


def hyperplane_violation(a, b):
    """|a.y - b| with the zero-subgradient convention at the kink."""
    a = np.asarray(a, dtype=float)

    def g(y):
        return abs(float(a @ y) - b)

    def grad(y):
        return np.sign(float(a @ y) - b) * a

    return g, grad


def pair(g, grad):
    """The ALM oracle of a value function and its gradient."""
    return lambda y: (g(y), grad(y))


def oracle_of(spec):
    return lambda p: C._violation_and_gradient(spec, p)


def test_hyperplane_projection_matches_oracle():
    # oracle: closed-form projection of (2, 3) onto {y : y[0] = 0} is (0, 3)
    y, report = alm_project(np.array([2.0, 3.0]),
                            pair(*hyperplane_violation([1.0, 0.0], 0.0)),
                            AlmState(tol=1e-3))
    assert np.linalg.norm(y - np.array([0.0, 3.0])) < 1e-3
    assert report.converged
    assert report.final_violation < 1e-3


def test_zero_violation_returns_anchor():
    y, report = alm_project(np.array([1.0, -2.0]),
                            lambda p: (0.0, np.zeros_like(p)), AlmState())
    assert np.array_equal(y, [1.0, -2.0])
    assert report.inner_iterations == 0
    assert report.converged


def test_non_finite_anchor_raises():
    # the solver checks its anchor, so the oracle may be unchecked
    with pytest.raises(NumericError, match="anchor"):
        alm_project(np.array([np.nan, 3.0]), oracle_of(C.l2_ball(1.0)),
                    AlmState())


def test_non_finite_accepted_step_raises():
    # an infinite gradient leaves every trial point infinite, so the line
    # search runs out of halvings and the step it accepts is not finite
    spec = C.l2_ball(1.0)
    with pytest.raises(NumericError, match="step"):
        alm_project(np.array([3.0, 0.0]),
                    lambda p: (C._violation(spec, p), np.array([np.inf, 0.0])),
                    AlmState())


def test_a_stalled_line_search_ends_the_inner_loop():
    # the reported gradient points uphill, so all 40 halvings let the
    # Lagrangian rise: each inner loop ends after one stalled iteration
    # and keeps its point, rather than take the last trial and run to
    # max_inner
    def uphill(y):
        grad = np.zeros_like(y)
        grad[0] = -np.sign(y[0])
        return max(abs(float(y[0])) - 1.0, 0.0), grad

    anchor = np.array([3.0, 0.0])
    state = AlmState(max_outer=5, max_inner=20)
    y, report = alm_project(anchor, uphill, state)
    assert report.inner_iterations == state.max_outer
    assert not report.converged
    assert np.array_equal(y, anchor)
    point, iterations, stop = descend(uphill, anchor, (anchor, *uphill(anchor)),
                                      0.0, 1.0, 0.01, 20)
    assert (iterations, stop) == (1, "stalled") and point[0] is anchor


def test_feasible_anchor_early_exit():
    spec = C.l2_ball(2.0)
    anchor = np.array([0.5, 0.5])
    y, report = alm_project(anchor,
                            lambda p: C.violation_and_gradient(spec, p),
                            AlmState(tol=1e-4))
    assert np.array_equal(y, anchor)
    assert report.inner_iterations == 0


def test_ball_projection_matches_oracle():
    spec = C.l2_ball(1.0)
    anchor = np.array([3.0, 4.0])
    y, report = alm_project(anchor,
                            lambda p: C.violation_and_gradient(spec, p),
                            AlmState(tol=1e-4, inner_step=0.05))
    oracle = C.project_exact(spec, anchor)
    assert np.linalg.norm(y - oracle) < 10 * 1e-4
    assert report.final_violation < 1e-4
    # distance-to-anchor within 10% of the true projection distance
    assert report.final_distance <= 1.1 * np.linalg.norm(oracle - anchor)


def test_penalty_never_exceeds_cap_and_is_monotone():
    # a never-feasible violation runs every outer iteration, each growing
    # the penalty GROWTH-fold until it reaches PENALTY_CAP, 2**14 > 1e4
    def g(y):
        return 1.0 + float(y @ y)

    def grad(y):
        return 2.0 * y

    penalties = []
    for outer in range(1, 17):
        state = AlmState(tol=1e-10, max_outer=outer, max_inner=5)
        _, report = alm_project(np.array([1.0]), pair(g, grad), state)
        assert report.outer_iterations == outer
        penalties.append(report.final_penalty)
    assert penalties == [min(PENALTY * GROWTH ** k, PENALTY_CAP)
                         for k in range(1, 17)]
    assert penalties[-3:] == [PENALTY_CAP] * 3


def test_nonconvergence_carries_report():
    # unbounded-below pathological gradient pointing away: never feasible
    def g(y):
        return 1.0 + float(y @ y)

    def grad(y):
        return 2.0 * y

    state = AlmState(tol=1e-6, max_outer=3, max_inner=10)
    anchor = np.array([1.0, 1.0])
    y, rep = alm_project(anchor, pair(g, grad), state)
    assert not rep.converged
    assert rep.outer_iterations == state.max_outer
    assert rep.final_violation >= 1e-6
    # y is the least-violating iterate, and the report describes it
    want_y, _ = reference_alm_project(anchor, g, grad, state)
    assert np.array_equal(y, want_y)
    assert rep.final_violation == g(y) < g(anchor)
    assert rep.final_distance == float(np.linalg.norm(y - anchor))


def test_state_validation():
    with pytest.raises(ParameterError, match="inner_step"):
        AlmState(inner_step=0.0)
    with pytest.raises(ParameterError, match="caps"):
        AlmState(max_outer=0)
    with pytest.raises(ParameterError, match="tol"):
        AlmState(tol=0.0)


def test_random_2d_suite_within_tolerance():
    # the acceptance criterion runs 25 cases; exercise a handful here
    rng = np.random.default_rng(0)
    state = AlmState(tol=1e-3, inner_step=0.05)
    for k in range(8):
        if k % 2 == 0:
            a = rng.standard_normal(2)
            a /= np.linalg.norm(a)
            b = float(rng.uniform(-1, 1))
            anchor = rng.uniform(-3, 3, size=2)
            g, grad = hyperplane_violation(a, b)
            oracle = anchor - (a @ anchor - b) * a
        else:
            spec = C.l2_ball(float(rng.uniform(0.5, 2.0)),
                             center=rng.uniform(-1, 1, size=2))
            anchor = spec.center + rng.uniform(2.5, 5.0) * _unit(rng)
            g = lambda p, s=spec: C.violation(s, p)
            grad = lambda p, s=spec: C.violation_gradient(s, p)
            oracle = C.project_exact(spec, anchor)
        y, report = alm_project(anchor, pair(g, grad), state)
        assert report.final_violation < state.tol
        assert np.linalg.norm(y - oracle) < 10 * state.tol


def _unit(rng):
    v = rng.standard_normal(2)
    return v / np.linalg.norm(v)


def reference_alm_project(anchor, g, grad_g, state):
    """The solver before it carried evaluations between iterations: it calls
    g and grad_g separately, and again on every point it already evaluated,
    so the secant step recomputes the previous point's gradient; only the
    previous point and step are kept.  Returns the point, the report fields
    and whether it converged."""
    anchor = np.asarray(anchor, dtype=float)
    y = anchor.copy()
    lam, mu, inner_total = 0.0, PENALTY, 0
    best_y, best_v = y.copy(), float(g(y))

    def lagrangian(pt, v):
        return 0.5 * float((pt - anchor) @ (pt - anchor)) + lam * v + 0.5 * mu * v * v

    def lagrangian_grad(pt):
        v = float(g(pt))
        return (pt - anchor) + (lam + mu * v) * np.asarray(grad_g(pt), float)

    for outer in range(state.max_outer + 1):
        v = float(g(y))
        if v < best_v:
            best_v, best_y = v, y.copy()
        if v < state.tol:
            return y, (outer, inner_total, v, float(np.linalg.norm(y - anchor)),
                       lam, mu, True)
        if outer == state.max_outer:
            break
        # inner_step first, then the Barzilai-Borwein step s.s / s.y; the
        # previous step stays when s.y <= 0
        step, y_prev = state.inner_step, None
        for _ in range(state.max_inner):
            grad = lagrangian_grad(y)
            if float(np.linalg.norm(grad)) <= 1e-12:
                break
            inner_total += 1
            if y_prev is not None:
                s = y - y_prev
                sy = float(s @ (grad - lagrangian_grad(y_prev)))
                if sy > 0.0:
                    step = float(s @ s) / sy
            y_prev = y
            base = lagrangian(y, float(g(y)))
            for _ in range(40):
                y_new = y - step * grad
                if lagrangian(y_new, float(g(y_new))) <= base + 1e-15:
                    break
                step *= 0.5
            y = y_new
        lam = lam + mu * float(g(y))
        mu = min(GROWTH * mu, PENALTY_CAP)
    return best_y, (state.max_outer, inner_total, best_v,
                    float(np.linalg.norm(best_y - anchor)), lam, mu, False)


def counting(g):
    calls = [0]

    def counted(y):
        calls[0] += 1
        return g(y)

    return counted, calls


def centroid_spec(rng, feature_map: bool):
    """A centroid constraint fitted to two random clusters of 3 features,
    read from 4 ambient coordinates through a map when ``feature_map``."""
    pos = rng.standard_normal((20, 3)) + [2.0, 1.0, 0.0]
    neg = rng.standard_normal((20, 3)) - [2.0, 1.0, 0.0]
    fmap = rng.standard_normal((3, 4)) if feature_map else None
    model = C.fit_centroid_model(pos, neg, feature_map=fmap)
    return C.centroid_constraint(model, accept_radius=0.5)


KINDS = ("ball", "plane", "never", "centroid", "centroid_map", "custom")


@pytest.mark.parametrize("case", range(2 * len(KINDS)))
def test_matches_reference_with_fewer_evaluations(case, monkeypatch):
    # the oracle is deterministic, so evaluating each point once must not
    # move a single bit
    rng = np.random.default_rng(case)
    kind = KINDS[case % len(KINDS)]
    spec, state = None, AlmState(tol=1e-3, inner_step=0.05)
    if kind == "ball":
        spec = C.l2_ball(float(rng.uniform(0.5, 2.0)),
                         center=rng.uniform(-1, 1, size=3))
        anchor = spec.center + rng.uniform(2.5, 5.0) * rng.standard_normal(3)
        state = AlmState(tol=1e-4, inner_step=0.05)
    elif kind == "plane":
        g, grad = hyperplane_violation(rng.standard_normal(3), 0.3)
        anchor = rng.uniform(-3, 3, size=3)
        state = AlmState(tol=1e-3, max_inner=30)
    elif kind == "never":
        g, grad = (lambda y: 1.0 + float(y @ y)), (lambda y: 2.0 * y)
        anchor = rng.standard_normal(3)
        state = AlmState(tol=1e-6, max_outer=3, max_inner=10)
    elif kind == "custom":
        spec = C.custom_constraint(
            *hyperplane_violation(rng.standard_normal(3), 0.3))
        anchor = rng.uniform(-3, 3, size=3)
    else:
        spec = centroid_spec(rng, feature_map=kind == "centroid_map")
        m = spec.model
        # start at the forbidden cluster, far outside the accepted disc
        anchor = m.feature_mean + m.axes.T @ m.forbidden_centroid
        if m.feature_map is not None:
            anchor = np.linalg.lstsq(m.feature_map, anchor, rcond=None)[0]
    if spec is not None:
        g = lambda p: C.violation(spec, p)
        grad = lambda p: C.violation_gradient(spec, p)
    pc_calls = [0]
    real_pc = C.pc_coordinates

    def counted_pc(model, x):
        pc_calls[0] += 1
        return real_pc(model, x)

    monkeypatch.setattr(C, "pc_coordinates", counted_pc)
    g_ref, ref_calls = counting(g)
    want_y, want = reference_alm_project(anchor, g_ref, grad, state)
    assert want[1] > 0
    pc_calls[0] = 0
    oracle, new_calls = counting(
        pair(g, grad) if spec is None else oracle_of(spec))
    y, rep = alm_project(anchor, oracle, state)
    assert np.array_equal(y, want_y)
    assert (rep.outer_iterations, rep.inner_iterations, rep.final_violation,
            rep.final_distance, rep.final_multiplier, rep.final_penalty,
            rep.converged) == want
    assert new_calls[0] < ref_calls[0]
    # one pc_coordinates call per evaluated point, none for other kinds
    assert pc_calls[0] == (new_calls[0] if kind.startswith("centroid")
                           else 0)


def test_non_finite_trial_is_halved_without_warning():
    # an infinite gradient at the anchor leaves every trial non-finite: the
    # centroid oracle gives each an infinite value, and a NaN gradient
    # rather than a division warning; each trial is halved, and the step
    # accepted after 40 halvings raises NumericError
    spec = centroid_spec(np.random.default_rng(0), feature_map=False)
    m = spec.model
    anchor = m.feature_mean + m.axes.T @ m.forbidden_centroid
    values = []

    def steep(p):
        v, grad = C._violation_and_gradient(spec, p)
        values.append(v)
        return v, grad if len(values) > 1 else np.array([np.inf, 0.0, 0.0])

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="step"):
            alm_project(anchor, steep, AlmState())
    assert values[0] > 0 and values[1:] == [np.inf] * 40


def test_rejected_trial_gradient_is_not_carried():
    # the first trial reports what the centroid oracle gives at a
    # non-finite point, an infinite value and a NaN gradient: the step is
    # halved, and the accepted trial carries its own gradient
    spec = centroid_spec(np.random.default_rng(1), feature_map=True)
    m = spec.model
    anchor = np.linalg.lstsq(m.feature_map,
                             m.feature_mean + m.axes.T @ m.forbidden_centroid,
                             rcond=None)[0]
    seen = []

    def barrier(p):
        seen.append(p)
        if len(seen) == 2:
            return np.inf, np.full_like(p, np.nan)
        return C._violation_and_gradient(spec, p)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y, rep = alm_project(anchor, barrier, AlmState(tol=1e-3,
                                                       inner_step=0.05))
    assert rep.converged and np.isfinite(y).all()
    assert np.allclose(seen[2] - anchor, 0.5 * (seen[1] - anchor))
