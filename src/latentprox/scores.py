"""Score fields: closed-form noised Gaussian mixtures and a small MLP model.

Analytic fields score the exact level-t marginal of their base distribution
(means scaled by sqrt(abar_t), covariances abar_t * Sigma + (1 - abar_t) * I),
so the sampler math can be verified independently of any learning error.  The
MLP field is a two-hidden-layer tanh network on the rows [x, abar_t], trained
by denoising score matching.  It is a ``[(W, b), ...]`` layer stack, as a
decoder is, so the two share one check (``decoders.check_layers``) and one
forward kernel (``decoders.decode_unchecked``); backpropagation is one loop
over the layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .decoders import check_layers, decode_unchecked
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


@dataclass(frozen=True)
class ScoreField:
    """A source of s(x, t), the gradient of the level-t log-density."""

    kind: str
    dim: int
    schedule: NoiseSchedule
    weights: np.ndarray | None = None
    means: np.ndarray | None = None
    covs: np.ndarray | None = None
    mlp: list | None = None  # [(W, b), ...]: [x, abar_t] in, dim out
    mlp_config: MlpScoreConfig | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown score field kind {self.kind!r}")
        if self.kind == "mlp":
            object.__setattr__(self, "mlp", check_layers(
                self.mlp, self.dim + 1, self.dim, "score network"))
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


def _mlp_forward(layers: list, X: np.ndarray, abar: np.ndarray,
                 acts: list | None = None) -> np.ndarray:
    """The network on the rows [x, abar]; when ``acts`` is a list, the
    input and each hidden layer's output are appended to it."""
    A0 = np.concatenate([X, abar[:, None]], axis=1)
    if acts is not None:
        acts.append(A0)
    return decode_unchecked(layers, A0, hidden=acts)


def _mlp_backward(layers: list, acts: list, dout: np.ndarray) -> list:
    """Each layer's (dW, db) for the output gradient ``dout``, from the
    ``acts`` that ``_mlp_forward`` appended."""
    grads, d = [], dout
    for k in range(len(layers) - 1, -1, -1):
        grads.append((d.T @ acts[k], d.sum(axis=0)))
        if k:
            d = (d @ layers[k][0]) * (1.0 - acts[k] ** 2)
    return grads[::-1]


def init_mlp_params(dim: int, cfg: MlpScoreConfig,
                    rng: np.random.Generator) -> list:
    """Layers of widths [dim + 1, *cfg.hidden, dim], drawn first to last:
    standard normal weights over sqrt(fan-in) and zero biases."""
    widths = [dim + 1, *(int(h) for h in cfg.hidden), dim]
    return [(rng.standard_normal((n_out, n_in)) / np.sqrt(n_in),
             np.zeros(n_out)) for n_in, n_out in zip(widths, widths[1:])]


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
    layers = init_mlp_params(dim, cfg, rng)
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, cfg.batch_size):
            xb = X[perm[start:start + cfg.batch_size]]
            xt, ab, target = _dsm_draws(xb, schedule, rng)
            acts = []
            diff = _mlp_forward(layers, xt, ab, acts) - target
            loss = float(np.mean(diff ** 2))
            epoch_loss += loss
            batches += 1
            dout = 2.0 * diff / diff.size
            for (W, b), (dW, db) in zip(layers,
                                        _mlp_backward(layers, acts, dout)):
                W -= lr * dW
                b -= lr * db
        mean_loss = epoch_loss / batches
        if not np.isfinite(mean_loss):
            raise DivergenceError(
                f"training loss became non-finite at epoch {epoch}", step=epoch)
        if loss_history is not None:
            loss_history.append(mean_loss)
    return ScoreField(kind="mlp", dim=dim, schedule=schedule,
                      mlp=layers, mlp_config=cfg)
