import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from latentprox import constraints as C
from latentprox import experiments as EXP
from latentprox.errors import (ConfigError, ConvergenceError,
                               DegeneracyError, NumericError,
                               ParameterError, ShapeError,
                               UnsupportedKindError)
from latentprox.runner import RunConfig, build_constraint

from conftest import centroid_prox_closed_form


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


def project_porosity(grid, K):
    """The cheapest grid with exactly K negative pixels, through the spec."""
    return C.project_exact(C.porosity_constraint(grid.shape, K), grid)


def negatives(grid):
    return int(np.count_nonzero(grid < 0.0))


def test_porosity_counts():
    # the violation of a target of 0 negative pixels is their count
    for grid, count in ((-np.ones((2, 2)), 4), (np.ones((2, 2)), 0),
                        (np.array([[0.5, -0.3], [0.2, -0.9]]), 2)):
        assert C.violation(C.porosity_constraint((2, 2), 0), grid) == count


def test_project_porosity_by_hand():
    # oracle (brute force over K-subsets): cheapest way to 3 negatives flips
    # the 0.1 pixel, cost 0.1 + tau
    tau = C.MARGIN
    x = np.array([[0.4, -0.2], [0.1, -0.8]])
    y = project_porosity(x, 3)
    assert np.allclose(y.ravel(), [0.4, -0.2, -tau, -0.8])
    cost = np.abs(y - x).sum()
    assert abs(cost - (0.1 + tau)) < 1e-12


def test_project_porosity_idempotent_on_feasible():
    x = np.array([[0.5, -0.3], [0.2, -0.9]])
    assert np.array_equal(project_porosity(x, 2), x)


def test_project_porosity_full_flip():
    y = project_porosity(np.full((2, 3), 0.8), 6)
    assert np.all(y == -1e-3)


def test_project_porosity_param_errors():
    x = np.zeros((2, 2))
    with pytest.raises(ParameterError):
        project_porosity(x, 5)


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
    tau = C.MARGIN
    rng = np.random.default_rng(0)
    for pattern in itertools.product([-1, 1], repeat=4):
        mags = rng.uniform(0.05, 1.0, size=4)
        flat = np.array(pattern) * mags
        for K in range(5):
            y = project_porosity(flat.reshape(2, 2), K)
            assert negatives(y) == K
            cost = np.abs(y.ravel() - flat).sum()
            oracle = brute_force_porosity_cost(flat, K, tau)
            assert cost <= oracle + 1e-12


def test_porosity_tie_break_row_major():
    x = np.array([[0.5, 0.5], [0.5, -0.1]])
    y = project_porosity(x, 2)
    # the tied 0.5 pixels flip in row-major order: index 0 first
    assert np.allclose(y.ravel(), [-1e-3, 0.5, 0.5, -0.1])


@given(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4,
                max_size=9),
       st.integers(0, 9))
def test_porosity_projection_properties(values, K):
    flat = np.array(values)
    K = min(K, flat.size)
    grid = flat.reshape(1, -1)
    y = project_porosity(grid, K)
    assert negatives(y) == K
    y2 = project_porosity(y, K)
    assert np.array_equal(y, y2)  # idempotent, bit-exact


# ---------------------------------------------------------------------------
# evaluate: one check and one projection per point


def assert_evaluate_matches(spec, x):
    """evaluate is bit-equal to violation, the residual of project_exact and
    a distance computed without it: the norm of that residual for porosity,
    violation / |a| for a halfspace, the violation for l2_ball and box."""
    v, d, residual = C.evaluate(spec, x)
    assert type(v) is float and type(d) is float
    assert v == C.violation(spec, x)
    projected = C.project_exact(spec, x)
    assert np.array_equal(residual, x - projected)
    if spec.kind == "porosity":
        dist = float(np.linalg.norm(x - projected))
    elif spec.kind == "halfspace":
        dist = C.violation(spec, x) / float(np.linalg.norm(spec.normal))
    else:
        dist = C.violation(spec, x)
    assert d == dist
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
        assert negatives(x - residual) == K


def reference_porosity_projection(x, K, tau):
    """The count correction as separate steps: rank the non-negative pixels
    (or the negative ones) on their own, flip the cheapest, then clamp."""
    flat = x.ravel().copy()
    neg = flat < 0.0
    c = int(neg.sum())
    if c < K:
        idx = np.flatnonzero(~neg)
        flat[idx[np.argsort(flat[idx], kind="stable")][:K - c]] = -tau
    elif c > K:
        idx = np.flatnonzero(neg)
        flat[idx[np.argsort(-flat[idx], kind="stable")][:c - K]] = 0.0
    return np.clip(flat, -1.0, 1.0).reshape(x.shape)


def workload_porosity_points():
    """16x16 points against K = 77 around every branch of the flip rule."""
    rng = np.random.default_rng(19)
    n, K = 256, 77
    below = rng.uniform(-0.2, 1.0, n)                 # c < K
    above = rng.uniform(-1.0, 0.2, n)                 # c > K
    exact = np.abs(rng.uniform(-1.0, 1.0, n))         # c == K
    exact[rng.choice(n, K, replace=False)] *= -1.0
    # 40 negatives and 60 zeros of both signs, scattered; the zeros tie at
    # the flip boundary and 37 of them flip, in row-major order
    zeros_tie = rng.uniform(0.1, 1.0, n)
    perm = rng.permutation(n)
    zeros_tie[perm[:40]] = -0.5
    zeros_tie[np.sort(perm[40:100])] = np.where(np.arange(60) % 3, 0.0, -0.0)
    # 120 negatives, 80 of them tied closest to zero: 43 flip to 0
    neg_tie = rng.uniform(0.1, 1.0, n)
    negative = rng.choice(n, 120, replace=False)
    neg_tie[negative] = -0.75
    neg_tie[rng.choice(negative, 80, replace=False)] = -1e-3
    # pixels far outside [-1, 1] on both sides of the count
    wide_below = rng.uniform(-3.0, 3.0, n) + 1.5
    wide_above = rng.uniform(-3.0, 3.0, n) - 1.5
    return K, {"below": below, "above": above, "exact": exact,
               "zeros_tie": zeros_tie, "neg_tie": neg_tie,
               "wide_below": wide_below, "wide_above": wide_above,
               "grid_shaped": below.reshape(16, 16)}


@pytest.mark.parametrize("case", sorted(workload_porosity_points()[1]))
def test_evaluate_porosity_at_workload_size(case):
    K, points = workload_porosity_points()
    x = points[case]
    spec = C.porosity_constraint((16, 16), K)
    c = int(np.count_nonzero(x < 0.0))
    v, d, residual = assert_evaluate_matches(spec, x)
    assert v == abs(c - K)
    assert residual.shape == x.shape
    projected = C.project_exact(spec, x)
    assert np.array_equal(projected, reference_porosity_projection(x, K, 1e-3))
    assert negatives(projected) == K
    if case.startswith("wide"):
        assert np.abs(x).max() > 1.0 and np.abs(projected).max() == 1.0


def test_porosity_ties_flip_in_row_major_order():
    K, points = workload_porosity_points()
    spec = C.porosity_constraint((16, 16), K)
    x = points["zeros_tie"]
    y = C.project_exact(spec, x)
    assert np.array_equal(np.flatnonzero(y == -1e-3),
                          np.flatnonzero(x == 0.0)[:37])
    x = points["neg_tie"]
    y = C.project_exact(spec, x)
    assert np.array_equal(np.flatnonzero(y == 0.0),
                          np.flatnonzero(x == -1e-3)[:43])


@pytest.mark.parametrize("fn", [C.evaluate, C.violation, C.project_exact])
def test_porosity_point_of_wrong_size_is_rejected(fn):
    spec = C.porosity_constraint((16, 16), 77)
    with pytest.raises(ShapeError, match="255 values"):
        fn(spec, np.zeros(255))


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


@given(row_batches().filter(lambda case: case[0].kind != "box"))
def test_closed_form_projection_lands_inside(case):
    # halfspace and l2_ball results that rounding leaves outside are pulled
    # in, so a batch and each point land at violation 0 exactly; rows
    # already inside come back unchanged
    spec, X = case
    P = C.project_exact(spec, X)
    assert np.array_equal(C._violation(spec, P), np.zeros(len(X)))
    inside = C._violation(spec, X) == 0.0
    assert np.array_equal(P[inside], X[inside])
    for x in X:
        p = C.project_exact(spec, x)
        assert C.violation(spec, p) == 0.0
        if C.violation(spec, x) == 0.0:
            assert np.array_equal(p, x)


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
    assert np.allclose(C.project_exact(spec, np.array([3.0, 4.0])),
                       [0.6, 0.8])


def test_halfspace_projection_by_hand():
    spec = C.halfspace([0.0, 1.0], 0.0)
    assert np.allclose(C.project_exact(spec, np.array([2.0, 5.0])),
                       [2.0, 0.0])


def test_box_projection_by_hand():
    spec = C.box([-1.0, -1.0], [1.0, 1.0])
    assert np.allclose(C.project_exact(spec, np.array([2.0, -3.0])),
                       [1.0, -1.0])


def test_projection_unsupported_kind():
    # the kinds with no exact projection
    pos, neg = make_clouds(np.random.default_rng(4))
    specs = [C.centroid_constraint(C.fit_centroid_model(pos, neg), 0.5),
             C.custom_constraint(lambda y: 0.0, lambda y: np.zeros_like(y))]
    for spec in specs:
        assert not C.has_exact_projection(spec)
        with pytest.raises(UnsupportedKindError):
            C.project_exact(spec, np.zeros(2))


def test_projection_zeroes_violation():
    rng = np.random.default_rng(1)
    specs = [C.halfspace(rng.standard_normal(3), 0.5),
             C.l2_ball(2.0, center=rng.standard_normal(3)),
             C.box(-np.ones(3), np.ones(3))]
    for spec in specs:
        for _ in range(200):
            x = 5 * rng.standard_normal(3)
            y = C.project_exact(spec, x)
            assert C.violation(spec, y) <= spec.delta * 1e-3


def test_projection_idempotent_bit_exact():
    rng = np.random.default_rng(2)
    specs = [C.halfspace([1.0, -2.0], 0.3), C.l2_ball(1.5),
             C.box([-1.0, 0.0], [1.0, 2.0])]
    for spec in specs:
        for _ in range(100):
            x = 4 * rng.standard_normal(2)
            y = C.project_exact(spec, x)
            assert np.array_equal(C.project_exact(spec, y), y)


@pytest.mark.parametrize("kind", ["halfspace", "l2_ball", "box", "porosity"])
def test_evaluation_of_a_projected_point_is_zero(kind):
    # projected_ambient rows record violation and dist 0.0 without
    # evaluating the projection; this pins that it would read exactly that.
    # Compared as repr: 0.0 == -0.0, but a metrics row would write "-0.0"
    rng = np.random.default_rng(11)
    d = 16 if kind == "porosity" else 3
    for k in range(20):
        if kind == "halfspace":
            spec = C.halfspace(rng.standard_normal(d), rng.standard_normal())
        elif kind == "l2_ball":
            spec = C.l2_ball(rng.uniform(0.5, 2.0),
                             center=rng.standard_normal(d))
        elif kind == "box":
            lower = rng.standard_normal(d)
            spec = C.box(lower, lower + rng.uniform(0.0, 2.0, d))
        else:
            spec = C.porosity_constraint((4, 4), k % 17)
        points = 5 * rng.standard_normal((100, d))
        # far outside, and on a few axes only
        points[:10] *= 1e3
        points[10:20, 1:] = 0.0
        for x in points:
            y = C.project_exact(spec, x)
            assert repr(C.evaluate(spec, y)[:2]) == "(0.0, 0.0)"


def test_projection_nonexpansive():
    rng = np.random.default_rng(3)
    specs = [C.halfspace([0.7, 0.7], -0.2), C.l2_ball(1.0),
             C.box([-0.5, -0.5], [0.5, 0.5])]
    for spec in specs:
        for _ in range(1000):
            x, y = 3 * rng.standard_normal((2, 2))
            px = C.project_exact(spec, x)
            py = C.project_exact(spec, y)
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


def test_prox_raises_at_its_iteration_cap(monkeypatch):
    # the quadratic needs more than one iteration, so a cap of one ends
    # the descent capped, neither converged nor stalled
    monkeypatch.setattr(C, "PROX_CAP", 1)
    spec = C.custom_constraint(lambda y: 0.5 * float(y @ y), lambda y: y)
    with pytest.raises(ConvergenceError, match="cap") as info:
        C.prox(spec, np.array([2.0, 2.0]), 1.0)
    assert info.value.iterations == 1 and info.value.residual > 0


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


@pytest.mark.parametrize("weight", [0.01, 1.0, 50.0])
def test_centroid_prox_matches_its_closed_form(weight):
    # g has a kink at the disc's edge, where the gradient stays away from
    # 0 and every halving of the line search fails; prox then returns its
    # point instead of running to its cap
    cfg = RunConfig.from_dict(EXP.centroid_config(chains=1, out="unused"))
    spec = build_constraint(cfg["constraint"])
    B = spec.model.axes @ spec.model.feature_map
    np.testing.assert_allclose(B @ B.T, np.eye(2), rtol=0, atol=1e-12)
    points = [np.array([9.0, 9.0, 9.0, 9.0]), np.array([-5.0, 3.0, -2.0, 4.0]),
              *3 * np.random.default_rng(12).standard_normal((4, 4))]
    for x in points:
        np.testing.assert_allclose(
            C.prox(spec, x, weight),
            centroid_prox_closed_form(spec, x, weight), rtol=0, atol=1e-9)


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


@pytest.mark.parametrize("seed", range(5))
def test_fit_centroid_axes_are_top_eigenvectors(seed):
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((5, 5))
    pos = rng.standard_normal((60, 5)) @ mix + 2.0
    neg = rng.standard_normal((50, 5)) @ mix - 2.0
    model = C.fit_centroid_model(pos, neg)
    pooled = np.vstack([pos, neg])
    centered = pooled - pooled.mean(axis=0)
    _, vecs = np.linalg.eigh(centered.T @ centered / (len(pooled) - 1))
    oracle = vecs[:, [-1, -2]].T
    # sign rule: each axis's largest-magnitude entry is positive
    for axis in oracle:
        axis *= np.sign(axis[np.argmax(np.abs(axis))])
    assert np.max(np.abs(model.axes - oracle)) < 1e-12


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


def test_oracle_value_has_the_bits_of_violation():
    # ALM keeps or halves a trial by its value alone, so the one-call
    # oracle must give violation's bits
    rng = np.random.default_rng(9)
    pos, neg = make_clouds(rng, n=50)
    centroid = C.centroid_constraint(C.fit_centroid_model(pos, neg), 0.5)
    specs = [C.halfspace(rng.standard_normal(2), 0.2),
             C.l2_ball(1.3, center=rng.standard_normal(2)),
             C.box(-np.ones(2), np.ones(2)), centroid,
             C.custom_constraint(lambda y: float(y @ y), lambda y: 2 * y)]
    for spec in specs:
        for x in 3 * rng.standard_normal((50, 2)):
            v, _ = C.violation_and_gradient(spec, x)
            assert type(v) is float and v == C.violation(spec, x)
    with pytest.raises(UnsupportedKindError):
        C.violation_and_gradient(C.porosity_constraint((2, 2), 2),
                                 np.zeros(4))


@pytest.mark.parametrize("kind", ["l2_ball", "box", "surrogate_centroid"])
def test_oracle_at_a_non_finite_point_is_quiet(kind):
    # an ALM trial may be non-finite: its infinite value rejects it, and
    # its gradient is NaN instead of an inf / inf division warning
    rng = np.random.default_rng(10)
    spec = {"l2_ball": C.l2_ball(1.0),
            "box": C.box(-np.ones(3), np.ones(3)),
            "surrogate_centroid": C.centroid_constraint(C.fit_centroid_model(
                rng.standard_normal((20, 3)) + 2.0,
                rng.standard_normal((20, 3)) - 2.0), 0.5)}[kind]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, grad = C._violation_and_gradient(spec, np.array([np.inf, 0.0, 0.0]))
    assert v == np.inf and np.isnan(grad).all()


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
