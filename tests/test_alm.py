import numpy as np
import pytest

from latentprox import constraints as C
from latentprox.alm import AlmState, alm_project
from latentprox.errors import AlmNonConvergence, ParameterError


def hyperplane_violation(a, b):
    """|a.y - b| with the zero-subgradient convention at the kink."""
    a = np.asarray(a, dtype=float)

    def g(y):
        return abs(float(a @ y) - b)

    def grad(y):
        return np.sign(float(a @ y) - b) * a

    return g, grad


def test_hyperplane_projection_matches_oracle():
    # oracle: closed-form projection of (2, 3) onto {y : y[0] = 0} is (0, 3)
    g, grad = hyperplane_violation([1.0, 0.0], 0.0)
    y, report = alm_project(np.array([2.0, 3.0]), g, grad,
                            AlmState(tol=1e-3))
    assert np.linalg.norm(y - np.array([0.0, 3.0])) < 1e-3
    assert report.converged
    assert report.final_violation < 1e-3


def test_zero_violation_returns_anchor():
    y, report = alm_project(np.array([1.0, -2.0]),
                            lambda p: 0.0, lambda p: np.zeros_like(p),
                            AlmState())
    assert np.array_equal(y, [1.0, -2.0])
    assert report.inner_iterations == 0
    assert report.converged


def test_feasible_anchor_early_exit():
    spec = C.l2_ball(2.0)
    anchor = np.array([0.5, 0.5])
    y, report = alm_project(anchor, lambda p: C.violation(spec, p),
                            lambda p: C.violation_gradient(spec, p),
                            AlmState(tol=1e-4))
    assert np.array_equal(y, anchor)
    assert report.inner_iterations == 0


def test_ball_projection_matches_oracle():
    spec = C.l2_ball(1.0)
    anchor = np.array([3.0, 4.0])
    y, report = alm_project(anchor, lambda p: C.violation(spec, p),
                            lambda p: C.violation_gradient(spec, p),
                            AlmState(tol=1e-4, inner_step=0.05))
    oracle = C.project_closed_form(spec, anchor)
    assert np.linalg.norm(y - oracle) < 10 * 1e-4
    assert report.final_violation < 1e-4
    # distance-to-anchor within 10% of the true projection distance
    assert report.final_distance <= 1.1 * np.linalg.norm(oracle - anchor)


def test_penalty_never_exceeds_cap_and_is_monotone():
    calls = []

    def g(y):
        return abs(float(y[0]) - 5.0)

    def grad(y):
        out = np.zeros_like(y)
        out[0] = np.sign(float(y[0]) - 5.0)
        return out

    state = AlmState(tol=1e-10, max_outer=8, max_inner=5, penalty_cap=16.0)
    try:
        _, report = alm_project(np.array([0.0]), g, grad, state)
    except AlmNonConvergence as exc:
        report = exc.report
    assert report.final_penalty <= 16.0


def test_nonconvergence_carries_report():
    # unbounded-below pathological gradient pointing away: never feasible
    def g(y):
        return 1.0 + float(y @ y)

    def grad(y):
        return 2.0 * y

    state = AlmState(tol=1e-6, max_outer=3, max_inner=10)
    with pytest.raises(AlmNonConvergence) as err:
        alm_project(np.array([1.0, 1.0]), g, grad, state)
    rep = err.value.report
    assert not rep.converged
    assert rep.final_violation >= 1e-6
    assert rep.point.shape == (2,)


def test_state_validation():
    with pytest.raises(ParameterError):
        AlmState(growth=1.0)
    with pytest.raises(ParameterError):
        AlmState(penalty=-1.0)
    with pytest.raises(ParameterError):
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
            oracle = C.project_closed_form(spec, anchor)
        y, report = alm_project(anchor, g, grad, state)
        assert report.final_violation < state.tol
        assert np.linalg.norm(y - oracle) < 10 * state.tol


def _unit(rng):
    v = rng.standard_normal(2)
    return v / np.linalg.norm(v)


def reference_alm_project(anchor, g, grad_g, state):
    """The solver as it was before g(y) was carried between iterations: it
    calls g again on every point it already evaluated.  Returns the point,
    the report fields and whether it converged."""
    anchor = np.asarray(anchor, dtype=float)
    y = anchor.copy()
    lam, mu, inner_total = state.multiplier, state.penalty, 0
    best_y, best_v = y.copy(), float(g(y))

    def lagrangian(pt, v):
        return 0.5 * float((pt - anchor) @ (pt - anchor)) + lam * v + 0.5 * mu * v * v

    for outer in range(state.max_outer + 1):
        v = float(g(y))
        if v < best_v:
            best_v, best_y = v, y.copy()
        if v < state.tol:
            return y, (outer, inner_total, v, lam, mu, True)
        if outer == state.max_outer:
            break
        for _ in range(state.max_inner):
            v_cur = float(g(y))
            grad = (y - anchor) + (lam + mu * v_cur) * np.asarray(grad_g(y), float)
            if float(np.linalg.norm(grad)) <= 1e-12:
                break
            inner_total += 1
            step = state.inner_step
            base = lagrangian(y, v_cur)
            for _ in range(40):
                y_new = y - step * grad
                if lagrangian(y_new, float(g(y_new))) <= base + 1e-15:
                    break
                step *= 0.5
            y = y_new
        lam = lam + mu * float(g(y))
        mu = min(state.growth * mu, state.penalty_cap)
    return best_y, (state.max_outer, inner_total, best_v, lam, mu, False)


def counting(g):
    calls = [0]

    def counted(y):
        calls[0] += 1
        return g(y)

    return counted, calls


@pytest.mark.parametrize("case", range(6))
def test_matches_reference_with_fewer_evaluations(case):
    # g is deterministic, so reusing g(y) must not move a single bit
    rng = np.random.default_rng(case)
    kind = ("ball", "plane", "never")[case % 3]
    if kind == "ball":
        spec = C.l2_ball(float(rng.uniform(0.5, 2.0)),
                         center=rng.uniform(-1, 1, size=3))
        g = lambda p: C.violation(spec, p)
        grad = lambda p: C.violation_gradient(spec, p)
        anchor = spec.center + rng.uniform(2.5, 5.0) * rng.standard_normal(3)
        state = AlmState(tol=1e-4, inner_step=0.05)
    elif kind == "plane":
        g, grad = hyperplane_violation(rng.standard_normal(3), 0.3)
        anchor = rng.uniform(-3, 3, size=3)
        state = AlmState(tol=1e-3, max_inner=30)
    else:
        g, grad = (lambda y: 1.0 + float(y @ y)), (lambda y: 2.0 * y)
        anchor = rng.standard_normal(3)
        state = AlmState(tol=1e-6, max_outer=3, max_inner=10)
    g_new, new_calls = counting(g)
    g_ref, ref_calls = counting(g)
    want_y, want = reference_alm_project(anchor, g_ref, grad, state)
    try:
        y, rep = alm_project(anchor, g_new, grad, state)
    except AlmNonConvergence as exc:
        y, rep = exc.report.point, exc.report
    assert np.array_equal(y, want_y)
    assert (rep.outer_iterations, rep.inner_iterations, rep.final_violation,
            rep.final_multiplier, rep.final_penalty, rep.converged) == want
    assert new_calls[0] < ref_calls[0]
