"""Score fields: closed-form noised Gaussian mixtures and a small MLP model.

Analytic fields score the exact level-t marginal of their base distribution
(means scaled by sqrt(abar_t), covariances abar_t * Sigma + (1 - abar_t) * I),
so the sampler math can be verified independently of any learning error.  The
MLP field is a two-hidden-layer tanh network trained by denoising score
matching with hand-written backpropagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, ParameterError, ShapeError
from .schedules import NoiseSchedule, noised_sample

KINDS = ("gaussian_mixture", "linear_gaussian", "mlp")


@dataclass(frozen=True)
class MlpScoreConfig:
    """Training hyperparameters for the MLP score model."""

    hidden: tuple[int, int] = (64, 64)
    learning_rate: float = 1e-2
    epochs: int = 200
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if len(self.hidden) != 2 or any(int(h) < 1 for h in self.hidden):
            raise ParameterError("hidden must be two widths >= 1")
        if self.learning_rate <= 0:
            raise ParameterError("learning_rate must be positive")
        if self.epochs < 0:
            raise ParameterError("epochs must be non-negative")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")


@dataclass
class MlpParams:
    """Weights of the two-hidden-layer tanh score network.

    Input is [x, abar_t]; output has the dimension of x.
    """

    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray
    W3: np.ndarray
    b3: np.ndarray


@dataclass(frozen=True)
class ScoreField:
    """A source of s(x, t), the gradient of the level-t log-density."""

    kind: str
    dim: int
    schedule: NoiseSchedule
    weights: np.ndarray | None = None
    means: np.ndarray | None = None
    covs: np.ndarray | None = None
    mlp: MlpParams | None = None
    mlp_config: MlpScoreConfig | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown score field kind {self.kind!r}")
        if self.kind == "mlp":
            if self.mlp is None:
                raise ParameterError("mlp field requires parameters")
            return
        w, means, covs = _normalized_components(self)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ParameterError("mixture weights must be positive and sum to 1")
        if means.shape[1] != self.dim:
            raise ShapeError("component means do not match dim")
        for S in covs:
            if np.max(np.abs(S - S.T)) > 1e-12:
                raise ParameterError("covariances must be symmetric")
            if np.linalg.eigvalsh(S).min() <= 0:
                raise ParameterError("covariances must be positive definite")


def _normalized_components(f: ScoreField):
    """Return (weights, means, covs) arrays for any analytic field."""
    if f.kind == "linear_gaussian":
        w = np.array([1.0])
        means = np.asarray(f.means, dtype=float).reshape(1, f.dim)
        covs = np.asarray(f.covs, dtype=float).reshape(1, f.dim, f.dim)
    else:
        w = np.asarray(f.weights, dtype=float)
        means = np.asarray(f.means, dtype=float)
        covs = np.asarray(f.covs, dtype=float)
    return w, means, covs


def gaussian_mixture_field(weights, means, covs,
                           schedule: NoiseSchedule) -> ScoreField:
    means = np.atleast_2d(np.asarray(means, dtype=float))
    return ScoreField(kind="gaussian_mixture", dim=means.shape[1],
                      schedule=schedule, weights=np.asarray(weights, float),
                      means=means, covs=np.asarray(covs, float))


def linear_gaussian_field(mean, cov, schedule: NoiseSchedule) -> ScoreField:
    mean = np.asarray(mean, dtype=float)
    return ScoreField(kind="linear_gaussian", dim=mean.size, schedule=schedule,
                      means=mean, covs=np.asarray(cov, float))


def standard_normal_field(dim: int, schedule: NoiseSchedule) -> ScoreField:
    return linear_gaussian_field(np.zeros(dim), np.eye(dim), schedule)


def _level_components(f: ScoreField, t: int):
    """Level-t mixture parameters: the base mixture convolved with the noise."""
    ab = f.schedule.abar_at(t)
    eye = np.eye(f.dim)
    means = np.sqrt(ab) * f.means
    covs = np.array([ab * S + (1.0 - ab) * eye for S in f.covs])
    return f.weights, means, covs


class _Level(NamedTuple):
    """Solve data of one level's components, stacked on the leading axis."""

    logw: np.ndarray  # (K,)
    means: np.ndarray  # (K, dim)
    invs: np.ndarray  # (K, dim, dim)
    logdets: np.ndarray  # (K,)
    const: np.ndarray  # (K,): dim * log(2 pi) + logdet


def _level_cache(f: ScoreField, t: int) -> _Level:
    """Memoized per-level solve data of an analytic field."""
    cache = getattr(f, "_levels", None)
    if cache is None:
        cache = {}
        object.__setattr__(f, "_levels", cache)
    entry = cache.get(t)
    if entry is None:
        w, means, covs = _level_components(f, t)
        invs = np.array([np.linalg.inv(S) for S in covs])
        logdets = np.array([np.linalg.slogdet(S)[1] for S in covs])
        entry = _Level(np.log(w), means, invs, logdets,
                       f.dim * np.log(2 * np.pi) + logdets)
        cache[t] = entry
    return entry


def _check_point(f: ScoreField, x, batch: bool = False) -> np.ndarray:
    """x as floats of shape (dim,), or (n, dim) when ``batch`` is allowed."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (f.dim,) or x.ndim not in ((1, 2) if batch else (1,)):
        raise ShapeError(f"input of shape {x.shape} fed to field of dim {f.dim}")
    return x


def _components(f: ScoreField, x: np.ndarray, t: int):
    """Every level-t component at x on the last axis, in one stacked pass:
    log(weight * density), shape (..., K), and inv (x - mean), shape
    (..., K, dim), whose negation is the component's score.

    A point gets the bits of a loop over the components.  A batch pays for
    the (n, K, dim) intermediates: 2,000 rows cost about 1.3x to 1.5x the
    loop's time, which no workload meets (see README).
    """
    lv = _level_cache(f, t)
    diff = x[..., None, :] - lv.means
    sol = np.matvec(lv.invs, diff)
    return lv.logw - 0.5 * (lv.const + np.vecdot(diff, sol)), sol


def log_density(f: ScoreField, x, t: int) -> float:
    """Closed-form log-density of the level-t marginal (analytic kinds only)."""
    if f.kind == "mlp":
        raise ParameterError("mlp fields have no closed-form density")
    logps, _ = _components(f, _check_point(f, x), t)
    m = logps.max()
    return float(m + np.log(np.exp(logps - m).sum()))


def score(f: ScoreField, x, t: int) -> np.ndarray:
    """Gradient of the log-density of the field's level-t marginal at x.

    Works on the last axis: a point ``(dim,)`` gives its score, a batch
    ``(n, dim)`` one score per row.  A mixture's score is minus the
    softmax-weighted sum of its components' inv (x - mean), all K of them
    from one ``np.matvec`` over the stacked inverses.
    """
    x = _check_point(f, x, batch=True)
    if f.kind == "mlp":
        X = x.reshape(-1, f.dim)
        ab = np.full(len(X), f.schedule.abar_at(t))
        return _mlp_forward(f.mlp, X, ab).reshape(x.shape)
    if len(f.weights) == 1:
        lv = _level_cache(f, t)
        return -((x - lv.means[0]) @ lv.invs[0].T)
    logps, sol = _components(f, x, t)
    r = np.exp(logps - logps.max(axis=-1, keepdims=True))
    r /= r.sum(axis=-1, keepdims=True)
    return -np.vecmat(r, sol)


# ---------------------------------------------------------------------------
# MLP forward / backward


def _mlp_forward(p: MlpParams, X: np.ndarray, abar: np.ndarray,
                 cache: bool = False):
    A0 = np.concatenate([X, abar[:, None]], axis=1)
    Z1 = A0 @ p.W1.T + p.b1
    A1 = np.tanh(Z1)
    Z2 = A1 @ p.W2.T + p.b2
    A2 = np.tanh(Z2)
    out = A2 @ p.W3.T + p.b3
    if cache:
        return out, (A0, A1, A2)
    return out


def _mlp_backward(p: MlpParams, caches, dout: np.ndarray):
    A0, A1, A2 = caches
    dW3 = dout.T @ A2
    db3 = dout.sum(axis=0)
    dA2 = dout @ p.W3
    dZ2 = dA2 * (1.0 - A2 ** 2)
    dW2 = dZ2.T @ A1
    db2 = dZ2.sum(axis=0)
    dA1 = dZ2 @ p.W2
    dZ1 = dA1 * (1.0 - A1 ** 2)
    dW1 = dZ1.T @ A0
    db1 = dZ1.sum(axis=0)
    return dW1, db1, dW2, db2, dW3, db3


def init_mlp_params(dim: int, cfg: MlpScoreConfig,
                    rng: np.random.Generator) -> MlpParams:
    h1, h2 = (int(h) for h in cfg.hidden)
    def layer(n_out, n_in):
        return rng.standard_normal((n_out, n_in)) / np.sqrt(n_in)
    return MlpParams(W1=layer(h1, dim + 1), b1=np.zeros(h1),
                     W2=layer(h2, h1), b2=np.zeros(h2),
                     W3=layer(dim, h2), b3=np.zeros(dim))


def _dsm_draws(batch: np.ndarray, schedule: NoiseSchedule,
               rng: np.random.Generator):
    n = batch.shape[0]
    t = rng.integers(1, schedule.T + 1, size=n)
    ab = schedule.abar[t]
    eps = rng.standard_normal(batch.shape)
    xt = noised_sample(batch, ab[:, None], eps)
    target = -eps / np.sqrt(1.0 - ab)[:, None]
    return xt, ab, target


def dsm_loss(f: ScoreField, batch, schedule: NoiseSchedule,
             rng: np.random.Generator) -> float:
    """Denoising score-matching objective of an MLP field on a data batch.

    The regression target is the conditional score -eps / sqrt(1 - abar_t);
    the loss is averaged over batch entries, coordinates, sampled levels and
    sampled noise.
    """
    if f.kind != "mlp":
        raise ParameterError("dsm_loss is defined for mlp fields")
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ParameterError("batch must be a non-empty (n, dim) array")
    if batch.shape[1] != f.dim:
        raise ShapeError("batch dimension does not match field")
    xt, ab, target = _dsm_draws(batch, schedule, rng)
    return float(np.mean((_mlp_forward(f.mlp, xt, ab) - target) ** 2))


def train_score(data, cfg: MlpScoreConfig, schedule: NoiseSchedule,
                loss_history: list | None = None) -> ScoreField:
    """Train an MLP score field with plain SGD on the score-matching loss.

    Deterministic given ``cfg.seed``.  Raises DivergenceError (carrying the
    epoch index) if the loss goes non-finite.  When ``loss_history`` is a
    list it is filled with the mean loss of each epoch.
    """
    X = np.asarray(data, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ParameterError("data must be a non-empty (n, dim) array")
    n, dim = X.shape
    rng = np.random.default_rng(cfg.seed)
    params = init_mlp_params(dim, cfg, rng)
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            xb = X[perm[start:start + cfg.batch_size]]
            xt, ab, target = _dsm_draws(xb, schedule, rng)
            pred, caches = _mlp_forward(params, xt, ab, cache=True)
            diff = pred - target
            loss = float(np.mean(diff ** 2))
            epoch_loss += loss
            batches += 1
            dout = 2.0 * diff / diff.size
            grads = _mlp_backward(params, caches, dout)
            params.W1 -= lr * grads[0]
            params.b1 -= lr * grads[1]
            params.W2 -= lr * grads[2]
            params.b2 -= lr * grads[3]
            params.W3 -= lr * grads[4]
            params.b3 -= lr * grads[5]
        mean_loss = epoch_loss / batches
        if not np.isfinite(mean_loss):
            raise DivergenceError(
                f"training loss became non-finite at epoch {epoch}", step=epoch)
        if loss_history is not None:
            loss_history.append(mean_loss)
    return ScoreField(kind="mlp", dim=dim, schedule=schedule,
                      mlp=params, mlp_config=cfg)
