import itertools

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from latentprox import constraints as C
from latentprox.errors import (ConfigError, DegeneracyError, NumericError,
                               ParameterError, UnsupportedKindError)


# ---------------------------------------------------------------------------
# violation


def test_halfspace_interior_point():
    spec = C.halfspace([1.0, 0.0], 1.0)
    assert C.violation(spec, np.array([0.5, 7.0])) == 0.0


def test_ball_excess():
    spec = C.l2_ball(1.0)
    assert C.violation(spec, np.array([3.0, 4.0])) == 4.0


def test_porosity_violation_exact_count():
    spec = C.porosity_constraint((2, 2), 2)
    x = np.array([[0.5, -0.3], [0.2, -0.9]]).ravel()
    assert C.violation(spec, x) == 0.0


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        C.ConstraintSpec(kind="mystery")


# ---------------------------------------------------------------------------
# porosity count and projection


def test_porosity_counts():
    assert C.porosity(-np.ones((2, 2))) == 4
    assert C.porosity(np.ones((2, 2))) == 0
    assert C.porosity(np.array([[0.5, -0.3], [0.2, -0.9]])) == 2


def test_project_porosity_by_hand():
    # oracle (brute force over K-subsets): cheapest way to 3 negatives flips
    # the 0.1 pixel, cost 0.1 + tau
    tau = 1e-3
    x = np.array([[0.4, -0.2], [0.1, -0.8]])
    y = C.project_porosity(x, 3, tau)
    assert np.allclose(y.ravel(), [0.4, -0.2, -tau, -0.8])
    cost = np.abs(y - x).sum()
    assert abs(cost - (0.1 + tau)) < 1e-12


def test_project_porosity_idempotent_on_feasible():
    x = np.array([[0.5, -0.3], [0.2, -0.9]])
    assert np.array_equal(C.project_porosity(x, 2), x)


def test_project_porosity_full_flip():
    y = C.project_porosity(np.full((2, 3), 0.8), 6, 1e-3)
    assert np.all(y == -1e-3)


def test_project_porosity_param_errors():
    x = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        C.project_porosity(x, 5)
    with pytest.raises(ParameterError):
        C.project_porosity(x, 2, tau=0.5)
    with pytest.raises(ParameterError):
        C.project_porosity(np.full((2, 2), 1.5), 2)


def brute_force_porosity_cost(flat, K, tau):
    """Minimum L1 cost over all K-subsets of pixels forced negative."""
    n = flat.size
    best = np.inf
    for subset in itertools.combinations(range(n), K):
        chosen = np.zeros(n, dtype=bool)
        chosen[list(subset)] = True
        cost = 0.0
        for i in range(n):
            v = flat[i]
            if chosen[i] and v >= 0:
                cost += v + tau
            elif not chosen[i] and v < 0:
                cost += -v
        best = min(best, cost)
    return best


def test_porosity_projection_optimality_small_grids():
    # sign-pattern sweep on 2x2 grids against the brute-force oracle
    tau = 1e-3
    rng = np.random.default_rng(0)
    for pattern in itertools.product([-1, 1], repeat=4):
        mags = rng.uniform(0.05, 1.0, size=4)
        flat = np.array(pattern) * mags
        for K in range(5):
            y = C.project_porosity(flat.reshape(2, 2), K, tau)
            assert C.porosity(y) == K
            cost = np.abs(y.ravel() - flat).sum()
            oracle = brute_force_porosity_cost(flat, K, tau)
            assert cost <= oracle + 1e-12


def test_porosity_tie_break_row_major():
    x = np.array([[0.5, 0.5], [0.5, -0.1]])
    y = C.project_porosity(x, 2, 1e-3)
    # the tied 0.5 pixels flip in row-major order: index 0 first
    assert np.allclose(y.ravel(), [-1e-3, 0.5, 0.5, -0.1])


@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4,
                max_size=9),
       st.integers(0, 9))
def test_porosity_projection_properties(values, K):
    flat = np.array(values)
    K = min(K, flat.size)
    grid = flat.reshape(1, -1)
    y = C.project_porosity(grid, K)
    assert C.porosity(y) == K
    y2 = C.project_porosity(y, K)
    assert np.array_equal(y, y2)  # idempotent, bit-exact


# ---------------------------------------------------------------------------
# evaluate: one check and one projection per point


def assert_evaluate_matches(spec, x):
    """evaluate is bit-equal to violation, dist_to_set and the residual of
    project_exact, each called on its own."""
    v, d, residual = C.evaluate(spec, x)
    assert type(v) is float and type(d) is float
    assert v == C.violation(spec, x)
    assert d == C.dist_to_set(spec, x)
    assert np.array_equal(residual, x - C.project_exact(spec, x))
    return v, d, residual


coords = st.floats(-10.0, 10.0, allow_nan=False)


@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.lists(coords, min_size=d, max_size=d).filter(
        lambda a: np.linalg.norm(a) > 1e-3),
    coords, st.lists(coords, min_size=d, max_size=d))))
def test_evaluate_matches_separate_halfspace(case):
    normal, offset, x = case
    assert_evaluate_matches(C.halfspace(normal, offset), np.array(x))


@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.floats(0.1, 5.0), st.none() | st.lists(coords, min_size=d, max_size=d),
    st.lists(coords, min_size=d, max_size=d))))
def test_evaluate_matches_separate_l2_ball(case):
    radius, center, x = case
    assert_evaluate_matches(C.l2_ball(radius, center=center), np.array(x))


@given(st.integers(1, 6).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(coords, st.floats(0.0, 5.0)), min_size=d, max_size=d),
    st.lists(coords, min_size=d, max_size=d))))
def test_evaluate_matches_separate_box(case):
    bounds, x = case
    lower = np.array([lo for lo, _ in bounds])
    upper = lower + np.array([w for _, w in bounds])
    assert_evaluate_matches(C.box(lower, upper), np.array(x))


# pixels inside and outside [-1, 1], with repeated values for ties
pixels = st.floats(-3.0, 3.0, allow_nan=False) | st.sampled_from(
    [-2.0, -1.0, -0.5, -1e-3, -0.0, 0.0, 0.5, 1.0, 2.0])


@given(st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
    lambda shape: st.tuples(
        st.just(shape),
        st.lists(pixels, min_size=shape[0] * shape[1],
                 max_size=shape[0] * shape[1]),
        st.integers(0, shape[0] * shape[1]))))
@example(((2, 2), [0.5, 0.5, 0.5, 0.5], 0))
@example(((2, 2), [0.5, 0.5, 0.5, 0.5], 4))
@example(((2, 3), [-1.5, 2.0, -0.5, -0.5, 0.0, 3.0], 0))
@example(((2, 3), [-1.5, 2.0, -0.5, -0.5, 0.0, 3.0], 6))
def test_evaluate_matches_separate_porosity(case):
    shape, values, K = case
    x = np.array(values)
    v, _, _ = assert_evaluate_matches(C.porosity_constraint(shape, K), x)
    assert v == abs(int(np.count_nonzero(x < 0.0)) - K)


def test_evaluate_porosity_counts_above_and_below_target():
    x = np.array([-2.0, -0.5, -0.5, 0.3, 0.3, 1.5, 0.0, -1.0, 2.5])
    for K, gap in ((0, 4), (2, 2), (4, 0), (7, 3), (9, 5)):
        spec = C.porosity_constraint((3, 3), K)
        v, d, residual = assert_evaluate_matches(spec, x)
        assert v == gap
        assert d == float(np.linalg.norm(residual))
        assert C.porosity(np.clip((x - residual).reshape(3, 3), -1, 1)) == K


def test_evaluate_smooth_kinds_have_no_residual():
    spec = C.custom_constraint(lambda y: float(y @ y), lambda y: 2 * y)
    assert C.evaluate(spec, np.array([1.0, 2.0])) == (5.0, 5.0, None)


@pytest.mark.parametrize("spec", [
    C.halfspace([1.0, 0.0, 0.0, 0.0], 0.5), C.l2_ball(1.0),
    C.box(-np.ones(4), np.ones(4)), C.porosity_constraint((2, 2), 2),
    C.custom_constraint(lambda y: 0.0)])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_evaluate_rejects_non_finite(spec, bad):
    x = np.array([0.5, bad, -0.5, 0.1])
    with pytest.raises(NumericError):
        C.evaluate(spec, x)


# ---------------------------------------------------------------------------
# row-wise rules: a batch's rows against the point call


@st.composite
def row_batches(draw):
    """A closed-form constraint and a batch of rows inside it, on its
    boundary, at the l2 centre and anywhere."""
    kind = draw(st.sampled_from(C.CLOSED_FORM_KINDS))
    d = draw(st.integers(1, 6))
    vec = st.lists(coords, min_size=d, max_size=d).map(np.array)
    u = draw(vec.filter(lambda a: np.linalg.norm(a) > 1e-3))
    u = u / np.linalg.norm(u)
    rows = draw(st.lists(vec, min_size=1, max_size=8))
    if kind == "halfspace":
        offset = draw(coords)
        spec = C.halfspace(u, offset)
        rows += [offset * u, offset * u - 0.5 * u]
    elif kind == "l2_ball":
        center = draw(st.none() | vec)
        c = np.zeros(d) if center is None else center
        radius = draw(st.floats(0.1, 5.0))
        spec = C.l2_ball(radius, center=center)
        rows += [c, c + radius * u, c + 0.5 * radius * u]
    else:
        lower = draw(vec)
        upper = lower + draw(st.lists(st.floats(0.0, 5.0), min_size=d,
                                      max_size=d).map(np.array))
        spec = C.box(lower, upper)
        rows += [lower, upper, 0.5 * (lower + upper)]
    order = draw(st.permutations(range(len(rows))))
    return spec, np.array(rows)[order]


@given(row_batches())
def test_row_wise_rules_match_point_calls(case):
    spec, X = case
    with np.errstate(divide="raise", invalid="raise"):
        v = C._violation(spec, X)
        P = C._project_exact(spec, X)
        points = [(C._violation(spec, x), C._project_exact(spec, x))
                  for x in X]
    assert v.shape == (len(X),) and P.shape == X.shape
    for i, (v_i, p_i) in enumerate(points):
        assert type(v_i) is float
        # a row with no violation is returned as it is (for a box, the norm
        # of a tiny excess can underflow to a violation of 0)
        if v[i] == 0.0 and spec.kind != "box":
            assert np.array_equal(P[i], X[i])
        if spec.kind == "halfspace":
            # a batch's gemv and a point's dot round differently
            assert abs(v[i] - v_i) <= 1e-12
            np.testing.assert_allclose(P[i], p_i, rtol=0, atol=1e-12)
        else:
            assert v[i] == v_i
            assert np.array_equal(P[i], p_i)


def test_ball_gradient_vanishes_exactly_where_violation_does():
    # projected points sit on the sphere, within an ulp of either side
    rng = np.random.default_rng(7)
    for _ in range(20):
        spec = C.l2_ball(rng.uniform(0.5, 2.0), center=rng.standard_normal(3))
        for x in 5 * rng.standard_normal((100, 3)):
            y = C.project_exact(spec, x)
            assert (C.violation(spec, y) > 0) == \
                bool(C.violation_gradient(spec, y).any())


# ---------------------------------------------------------------------------
# closed-form projections and prox


def test_ball_projection_by_hand():
    spec = C.l2_ball(1.0)
    assert np.allclose(C.project_closed_form(spec, np.array([3.0, 4.0])),
                       [0.6, 0.8])


def test_halfspace_projection_by_hand():
    spec = C.halfspace([0.0, 1.0], 0.0)
    assert np.allclose(C.project_closed_form(spec, np.array([2.0, 5.0])),
                       [2.0, 0.0])


def test_box_projection_by_hand():
    spec = C.box([-1.0, -1.0], [1.0, 1.0])
    assert np.allclose(C.project_closed_form(spec, np.array([2.0, -3.0])),
                       [1.0, -1.0])


def test_projection_unsupported_kind():
    spec = C.porosity_constraint((2, 2), 2)
    with pytest.raises(UnsupportedKindError):
        C.project_closed_form(spec, np.zeros(4))


def test_projection_zeroes_violation():
    rng = np.random.default_rng(1)
    specs = [C.halfspace(rng.standard_normal(3), 0.5),
             C.l2_ball(2.0, center=rng.standard_normal(3)),
             C.box(-np.ones(3), np.ones(3))]
    for spec in specs:
        for _ in range(200):
            x = 5 * rng.standard_normal(3)
            y = C.project_closed_form(spec, x)
            assert C.violation(spec, y) <= spec.delta * 1e-3


def test_projection_idempotent_bit_exact():
    rng = np.random.default_rng(2)
    specs = [C.halfspace([1.0, -2.0], 0.3), C.l2_ball(1.5),
             C.box([-1.0, 0.0], [1.0, 2.0])]
    for spec in specs:
        for _ in range(100):
            x = 4 * rng.standard_normal(2)
            y = C.project_closed_form(spec, x)
            assert np.array_equal(C.project_closed_form(spec, y), y)


def test_projection_nonexpansive():
    rng = np.random.default_rng(3)
    specs = [C.halfspace([0.7, 0.7], -0.2), C.l2_ball(1.0),
             C.box([-0.5, -0.5], [0.5, 0.5])]
    for spec in specs:
        for _ in range(1000):
            x, y = 3 * rng.standard_normal((2, 2))
            px = C.project_closed_form(spec, x)
            py = C.project_closed_form(spec, y)
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12


def test_prox_indicator_reduces_to_projection():
    spec = C.l2_ball(1.0)
    for lam in (1e-3, 1.0, 1e3):
        assert np.allclose(C.prox(spec, np.array([3.0, 4.0]), lam), [0.6, 0.8])


def test_prox_quadratic_closed_form():
    # oracle: stationarity y + (y - x)/lam = 0 -> y = x / (1 + lam)
    spec = C.custom_constraint(lambda y: 0.5 * float(y @ y), lambda y: y)
    y = C.prox(spec, np.array([2.0, 2.0]), 1.0)
    assert np.allclose(y, [1.0, 1.0], atol=1e-7)


def test_prox_zero_g_returns_input():
    spec = C.custom_constraint(lambda y: 0.0, lambda y: np.zeros_like(y))
    x = np.array([0.3, -0.4])
    assert np.allclose(C.prox(spec, x, 2.0), x, atol=1e-12)


def test_prox_distance_monotone_in_weight():
    spec = C.custom_constraint(lambda y: 0.5 * float(y @ y), lambda y: y)
    x = np.array([1.0, -2.0])
    dists = [np.linalg.norm(C.prox(spec, x, lam) - x)
             for lam in [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2]]
    assert all(a <= b + 1e-9 for a, b in zip(dists, dists[1:]))
    assert dists[0] < 1e-2  # prox -> identity as lam -> 0


# ---------------------------------------------------------------------------
# centroid surrogate


def make_clouds(rng, gap=5.0, n=40):
    pos = np.array([gap, 0.0]) + rng.standard_normal((n, 2)) * [1.0, 0.4]
    neg = np.array([-gap, 0.0]) + rng.standard_normal((n, 2)) * [1.0, 0.4]
    return pos, neg


def test_fit_centroid_axis_aligned():
    rng = np.random.default_rng(5)
    pos, neg = make_clouds(rng)
    model = C.fit_centroid_model(pos, neg)
    # dominant variance is along the first coordinate: axis = +-e1
    assert abs(abs(model.axes[0, 0]) - 1.0) < 0.05
    assert np.max(np.abs(model.axes @ model.axes.T - np.eye(2))) < 1e-9


def test_fit_centroid_two_point_clouds():
    # oracle: hand-computed PCA on clouds at (+-5, 0); centroids land near
    # +-5 on the first principal axis, ~0 on the second
    rng = np.random.default_rng(6)
    pos, neg = make_clouds(rng, gap=5.0, n=200)
    model = C.fit_centroid_model(pos, neg)
    assert abs(abs(model.target_centroid[0]) - 5.0) < 0.3
    assert abs(model.target_centroid[1]) < 0.3
    assert np.allclose(model.target_centroid[0], -model.forbidden_centroid[0],
                       atol=0.3)


def test_fit_centroid_degenerate():
    p = np.array([[1.0, 2.0], [1.0, 2.0]])
    q = np.array([[1.0, 2.0], [1.0, 2.0]])
    with pytest.raises(DegeneracyError):
        C.fit_centroid_model(p, q)
    # distinct duplicated points: rank-1 covariance, second axis degenerate
    with pytest.raises(DegeneracyError):
        C.fit_centroid_model(p, q + 1.0)


def test_centroid_trigger_cases():
    rng = np.random.default_rng(7)
    pos, neg = make_clouds(rng, n=100)
    model = C.fit_centroid_model(pos, neg, p_trig=0.5)
    # reconstruct ambient points mapping onto each centroid
    forb_ambient = model.feature_mean + model.axes.T @ model.forbidden_centroid
    targ_ambient = model.feature_mean + model.axes.T @ model.target_centroid
    assert C.centroid_trigger(model, forb_ambient) is True
    assert C.centroid_trigger(model, targ_ambient) is False
    mid = 0.5 * (forb_ambient + targ_ambient)
    # oracle: midpoint distance equals exactly p_trig * gap -> strict
    # inequality decides False
    p = C.pc_coordinates(model, mid)
    gap = np.linalg.norm(model.target_centroid - model.forbidden_centroid)
    assert abs(np.linalg.norm(p - model.forbidden_centroid) - 0.5 * gap) < 1e-9
    assert C.centroid_trigger(model, mid) is False


def test_centroid_violation_and_gradient():
    rng = np.random.default_rng(8)
    pos, neg = make_clouds(rng, n=100)
    model = C.fit_centroid_model(pos, neg)
    spec = C.centroid_constraint(model, accept_radius=1.0)
    targ_ambient = model.feature_mean + model.axes.T @ model.target_centroid
    assert C.violation(spec, targ_ambient) == 0.0
    x = model.feature_mean + model.axes.T @ model.forbidden_centroid
    v = C.violation(spec, x)
    assert v > 0
    # finite-difference check of the violation gradient
    g = C.violation_gradient(spec, x)
    h = 1e-6
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fd = (C.violation(spec, x + e) - C.violation(spec, x - e)) / (2 * h)
        assert abs(fd - g[i]) < 1e-5
