import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentprox.errors import DivergenceError, ParameterError, ShapeError
from latentprox.schedules import make_schedule
from latentprox.scores import (MlpScoreConfig, ScoreField, _dsm_loss_of,
                               _level_cache, _mlp_forward, dsm_loss,
                               gaussian_mixture_field, init_mlp_params,
                               linear_gaussian_field, log_density, score,
                               standard_normal_field, train_score)


@pytest.fixture
def schedule():
    return make_schedule(T=5, abar_end=0.05, gamma_max=0.05,
                         gamma_min=0.01, M=1)


def fd_gradient(f, x, t, h=1e-5):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (log_density(f, x + e, t) - log_density(f, x - e, t)) / (2 * h)
    return g


def test_standard_normal_score(schedule):
    f = standard_normal_field(2, schedule)
    assert np.allclose(score(f, np.array([1.0, 2.0]), 0), [-1.0, -2.0])


def test_symmetric_mixture_zero_score(schedule):
    f = gaussian_mixture_field([0.5, 0.5], [[-1.5, 0.0], [1.5, 0.0]],
                               [np.eye(2), np.eye(2)], schedule)
    assert np.allclose(score(f, np.zeros(2), 2), 0.0, atol=1e-12)


def test_mixture_score_matches_finite_difference(schedule):
    cov1 = np.array([[1.0, 0.3], [0.3, 0.8]])
    cov2 = np.array([[0.5, -0.1], [-0.1, 1.2]])
    f = gaussian_mixture_field([0.3, 0.7], [[-1.0, 0.5], [0.8, -0.2]],
                               [cov1, cov2], schedule)
    rng = np.random.default_rng(0)
    for _ in range(25):
        x = rng.uniform(-2, 2, size=2)
        t = int(rng.integers(0, schedule.T + 1))
        s = score(f, x, t)
        fd = fd_gradient(f, x, t)
        assert np.linalg.norm(s - fd) <= 1e-4 * max(np.linalg.norm(fd), 1.0)


def test_score_consistency_all_analytic_fields(schedule):
    # spec invariant: 100 random (x, t) per analytic field at 1e-4 relative
    fields = [
        standard_normal_field(2, schedule),
        linear_gaussian_field([0.5, -1.0],
                              [[2.0, 0.4], [0.4, 1.0]], schedule),
        gaussian_mixture_field([0.2, 0.5, 0.3],
                               [[-2, 0], [0, 1], [2, -1]],
                               [np.eye(2), 0.5 * np.eye(2),
                                [[1.0, 0.2], [0.2, 0.7]]], schedule),
    ]
    rng = np.random.default_rng(42)
    for f in fields:
        for _ in range(100):
            x = rng.uniform(-3, 3, size=f.dim)
            t = int(rng.integers(0, schedule.T + 1))
            s = score(f, x, t)
            fd = fd_gradient(f, x, t)
            assert np.linalg.norm(s - fd) <= 1e-4 * max(np.linalg.norm(fd), 1.0)


def test_level_convolution_matches_marginal(schedule):
    # oracle: for N(mu, Sigma) data, the level-t marginal is
    # N(sqrt(ab) mu, ab Sigma + (1 - ab) I); compare against that density
    mu = np.array([1.0, -0.5])
    Sig = np.array([[1.5, 0.2], [0.2, 0.6]])
    f = linear_gaussian_field(mu, Sig, schedule)
    t = 3
    ab = schedule.abar_at(t)
    m = np.sqrt(ab) * mu
    S = ab * Sig + (1 - ab) * np.eye(2)
    x = np.array([0.3, 0.9])
    expect = -np.linalg.solve(S, x - m)
    assert np.allclose(score(f, x, t), expect, atol=1e-12)


def test_field_validation():
    sched = make_schedule(T=2, abar_end=0.02, gamma_max=0.1,
                          gamma_min=0.1, M=1)
    with pytest.raises(ParameterError):
        gaussian_mixture_field([0.5, 0.6], [[0.0], [1.0]],
                               [np.eye(1), np.eye(1)], sched)
    with pytest.raises(ParameterError):
        gaussian_mixture_field([1.0], [[0.0, 0.0]],
                               [np.array([[1.0, 2.0], [2.0, 1.0]])], sched)


def test_score_shape_error(schedule):
    f = standard_normal_field(2, schedule)
    with pytest.raises(ShapeError):
        score(f, np.zeros(3), 0)
    for bad in (np.zeros((4, 3)), np.zeros((2, 2, 2)), np.float64(0.0)):
        with pytest.raises(ShapeError):
            score(f, bad, 0)


def reference_score(f, x, t):
    """The point score as it was before ``score`` took a batch: gemv forms
    and a loop over the mixture components."""
    if f.kind == "mlp":
        ab = f.schedule.abar_at(t)
        return _mlp_forward(f.mlp, x[None, :], np.array([ab]))[0]
    logw, means, invs, logdets = _level_cache(f, t)
    K = len(logw)
    if K == 1:
        return -(invs[0] @ (x - means[0]))
    logps = np.empty(K)
    pulls = np.empty((K, f.dim))
    for k in range(K):
        diff = x - means[k]
        sol = invs[k] @ diff
        logps[k] = logw[k] - 0.5 * (f.dim * np.log(2 * np.pi)
                                    + logdets[k] + diff @ sol)
        pulls[k] = -sol
    r = np.exp(logps - logps.max())
    r /= r.sum()
    return r @ pulls


def reference_log_density(f, x, t):
    """The point log-density as it was before it shared ``score``'s
    component loop."""
    logw, means, invs, logdets = _level_cache(f, t)
    logps = np.empty(len(logw))
    for k in range(len(logw)):
        diff = x - means[k]
        logps[k] = logw[k] - 0.5 * (f.dim * np.log(2 * np.pi) + logdets[k]
                                    + diff @ (invs[k] @ diff))
    m = logps.max()
    return float(m + np.log(np.exp(logps - m).sum()))


def random_spd(rng, d):
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return (Q * rng.uniform(0.3, 3.0, size=d)) @ Q.T


@st.composite
def score_batches(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(("linear_gaussian", "mixture_2",
                                 "mixture_3", "mlp")))
    d = draw(st.integers(1, 8))
    n = draw(st.integers(2, 30))
    T = 6
    sched = make_schedule(T=T, abar_end=0.05,
                          gamma_max=0.05, gamma_min=0.01, M=1)
    rng = np.random.default_rng(seed)
    if kind == "linear_gaussian":
        f = linear_gaussian_field(rng.standard_normal(d), random_spd(rng, d),
                                  sched)
    elif kind == "mlp":
        cfg = MlpScoreConfig(hidden=(draw(st.integers(1, 16)),
                                     draw(st.integers(1, 16))))
        f = ScoreField(kind="mlp", dim=d, schedule=sched,
                       mlp=init_mlp_params(d, cfg, rng), mlp_config=cfg)
    else:
        K = int(kind[-1])
        w = rng.uniform(0.1, 1.0, size=K)
        f = gaussian_mixture_field(w / w.sum(),
                                   3.0 * rng.standard_normal((K, d)),
                                   [random_spd(rng, d) for _ in range(K)],
                                   sched)
    X = draw(st.floats(0.1, 10.0)) * rng.standard_normal((n, d))
    return f, X, draw(st.integers(0, T))


@settings(max_examples=200, deadline=None)
@given(score_batches())
def test_score_takes_a_point_or_a_batch(case):
    f, X, t = case
    S = score(f, X, t)
    assert S.shape == X.shape
    for x, row in zip(X, S):
        point = score(f, x, t)
        assert np.array_equal(point, reference_score(f, x, t))
        if f.kind != "mlp":
            assert log_density(f, x, t) == reference_log_density(f, x, t)
        assert np.abs(row - point).max() <= 1e-12 * max(np.abs(point).max(),
                                                        1.0)


def test_dsm_loss_zero_model_closed_form():
    # oracle: zero predictor at level abar -> E[eps^2]/(1 - abar); at
    # abar = 0.5 that per-level value is 2.0, and the loss averages levels
    from latentprox.schedules import NoiseSchedule
    sched = NoiseSchedule(T=2, abar=np.array([1.0, 0.5, 0.02]),
                          gamma=np.array([0.1, 0.1]))
    per_level = 1.0 / (1.0 - sched.abar[1:])
    assert per_level[0] == 2.0  # the abar = 0.5 hand computation
    expected = per_level.mean()
    cfg = MlpScoreConfig(hidden=(4, 4), epochs=0, seed=0)
    params = init_mlp_params(1, cfg, np.random.default_rng(0))
    params.W3[:] = 0.0
    params.b3[:] = 0.0
    f = ScoreField(kind="mlp", dim=1, schedule=sched, mlp=params,
                   mlp_config=cfg)
    rng = np.random.default_rng(3)
    batch = rng.standard_normal((60_000, 1))
    loss = dsm_loss(f, batch, sched, rng)
    assert abs(loss - expected) < 4 * expected * np.sqrt(2.0 / 60_000)


def test_dsm_loss_perfect_predictor_is_zero(schedule):
    # a model reproducing the conditional score exactly for a constant batch
    x0 = np.array([0.7, -0.3])
    batch = np.tile(x0, (64, 1))

    def predict(xt, ab):
        return -(xt - np.sqrt(ab)[:, None] * x0) / (1 - ab)[:, None]

    loss = _dsm_loss_of(predict, batch, schedule, np.random.default_rng(5))
    assert loss < 1e-24


def test_dsm_loss_nonnegative(schedule):
    cfg = MlpScoreConfig(hidden=(8, 8), epochs=0, seed=1)
    params = init_mlp_params(2, cfg, np.random.default_rng(1))
    f = ScoreField(kind="mlp", dim=2, schedule=schedule, mlp=params,
                   mlp_config=cfg)
    rng = np.random.default_rng(11)
    for _ in range(5):
        assert dsm_loss(f, rng.standard_normal((32, 2)), schedule, rng) >= 0.0


def test_dsm_loss_empty_batch(schedule):
    cfg = MlpScoreConfig(hidden=(4, 4), epochs=0)
    params = init_mlp_params(2, cfg, np.random.default_rng(0))
    f = ScoreField(kind="mlp", dim=2, schedule=schedule, mlp=params)
    with pytest.raises(ParameterError):
        dsm_loss(f, np.zeros((0, 2)), schedule, np.random.default_rng(0))


def test_train_score_learns_gaussian(schedule):
    rng = np.random.default_rng(8)
    data = rng.standard_normal((1500, 2))
    cfg = MlpScoreConfig(hidden=(48, 48), learning_rate=2e-2, epochs=120,
                         batch_size=128, seed=0)
    history = []
    f = train_score(data, cfg, schedule, loss_history=history)
    assert history[-1] <= history[0]
    # relative L2 error on a 5x5 grid vs the analytic score at level t=1;
    # for N(0, I) data the level marginal is N(0, I) so the score is -x
    grid = np.array([[a, b] for a in np.linspace(-2, 2, 5)
                     for b in np.linspace(-2, 2, 5)])
    pred = np.array([score(f, x, 1) for x in grid])
    truth = -grid
    rel = np.linalg.norm(pred - truth) / np.linalg.norm(truth)
    assert rel < 0.25


def test_train_score_zero_epochs_returns_init(schedule):
    data = np.random.default_rng(0).standard_normal((10, 2))
    cfg = MlpScoreConfig(hidden=(4, 4), epochs=0, seed=12)
    f = train_score(data, cfg, schedule)
    expect = init_mlp_params(2, cfg, np.random.default_rng(12))
    assert np.array_equal(f.mlp.W1, expect.W1)
    assert np.array_equal(f.mlp.W3, expect.W3)


def test_train_score_deterministic(schedule):
    data = np.random.default_rng(4).standard_normal((64, 2))
    cfg = MlpScoreConfig(hidden=(8, 8), epochs=5, batch_size=16, seed=7)
    f1 = train_score(data, cfg, schedule)
    f2 = train_score(data, cfg, schedule)
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        assert np.array_equal(getattr(f1.mlp, name), getattr(f2.mlp, name))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_score_divergence_carries_epoch(schedule):
    data = np.random.default_rng(0).standard_normal((64, 2))
    cfg = MlpScoreConfig(hidden=(16, 16), learning_rate=1e6, epochs=30,
                         batch_size=64, seed=0)
    with pytest.raises(DivergenceError) as err:
        train_score(data, cfg, schedule)
    assert err.value.step is not None
