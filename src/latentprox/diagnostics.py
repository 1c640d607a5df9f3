"""Empirical bound checks and Gaussian divergence metrics.

The feasibility check evaluates the per-transition contraction inequality

    dist^2(D(z'_t), C) <= (1 - 2 beta' gamma_{t+1}) dist^2(D(z'_{t+1}), C)
                          + gamma_{t+1}^2 G^2

on consecutive pre-correction iterates of a trace, with G the largest score
norm observed, ell the decoder bound, and beta' = beta / (ell * L).  The
fidelity check evaluates the one-sided KL drift bound per level and
cumulatively.  KL and Frechet distances are evaluated in closed form on
Gaussian moment fits, which is exact for linear-Gaussian suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import constraints as C
from .decoders import DecoderMap, estimate_lipschitz
from .errors import (DegeneracyError, NumericError, ParameterError,
                     ShapeError)
from .schedules import NoiseSchedule
from .samplers import SampleTrace
from .scores import ScoreField, _level_components, score as score_fn

SLACK_TOL = 1e-9


@dataclass
class BoundRecord:
    t: int
    lhs: float
    rhs: float

    @property
    def slack(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.slack >= -SLACK_TOL


@dataclass
class BoundReport:
    """Per-transition inequality records plus the measured constants."""

    records: list = field(default_factory=list)
    G: float = 0.0
    lipschitz: float = 0.0
    beta: float = 1.0
    beta_prime: float = 1.0
    precondition_ok: bool = True
    cumulative: BoundRecord | None = None

    @property
    def fraction_holding(self) -> float:
        if not self.records:
            return 1.0
        return sum(r.holds for r in self.records) / len(self.records)


def check_feasibility_contraction(trace: SampleTrace,
                                  constraint: C.ConstraintSpec,
                                  decoder: DecoderMap,
                                  beta: float = 1.0) -> BoundReport:
    """Check the distance-contraction inequality on every pre-prox pair."""
    pre = trace.level_end_rows()
    if len(pre) < 2:
        raise ParameterError("trace has fewer than two levels to compare")
    G = trace.max_score_norm()
    ell = decoder.lipschitz_bound
    if ell is None:
        ell = estimate_lipschitz(decoder, 64, np.random.default_rng(0))
    L = constraint.smoothness
    beta_prime = beta / (ell * L)
    gammas = np.array([r.gamma for r in pre])
    precondition_ok = bool(np.all(gammas <= beta / (2.0 * G * G) + SLACK_TOL)) \
        if G > 0 else True
    report = BoundReport(G=G, lipschitz=float(ell), beta=float(beta),
                         beta_prime=float(beta_prime),
                         precondition_ok=precondition_ok)
    # pre[k] is level t_{k}; transitions pair (t+1 -> t) with gamma_{t+1}
    for prev, cur in zip(pre[:-1], pre[1:]):
        gamma = prev.gamma
        lhs = cur.dist ** 2
        rhs = (1.0 - 2.0 * beta_prime * gamma) * prev.dist ** 2 \
            + gamma ** 2 * G ** 2
        report.records.append(BoundRecord(t=cur.t, lhs=lhs, rhs=rhs))
    return report


def check_run_contraction(traces, constraint: C.ConstraintSpec,
                          decoder: DecoderMap,
                          beta: float = 1.0) -> BoundReport:
    """Contraction check over every chain of a run, merged into one report.

    Each chain is checked against its own G.  The merged report holds every
    transition and the largest G; its precondition holds only when it holds
    for every chain.
    """
    reports = [check_feasibility_contraction(t, constraint, decoder, beta)
               for t in traces]
    if not reports:
        raise ParameterError("no traces to check")
    return replace(reports[0],
                   records=[rec for r in reports for rec in r.records],
                   G=max(r.G for r in reports),
                   precondition_ok=all(r.precondition_ok for r in reports))


def feasibility_hitting_level(trace: SampleTrace, threshold: float) -> int | None:
    """Index (0-based, from level T) of the first pre-prox dist < threshold."""
    for k, row in enumerate(trace.level_end_rows()):
        if row.dist < threshold:
            return k
    return None


def contraction_horizon(beta_prime: float, gamma_min: float,
                        dist_start: float, eps: float) -> int:
    """Level budget ceil((1 / (2 beta' gamma_min)) log(dist^2 / eps))."""
    if dist_start ** 2 <= eps:
        return 0
    return int(np.ceil(np.log(dist_start ** 2 / eps)
                       / (2.0 * beta_prime * gamma_min)))


def check_fidelity_drift(kl_series, schedule: NoiseSchedule,
                         G: float) -> BoundReport:
    """Check KL[t-1] <= KL[t] + gamma_t G^2 per level, plus the cumulative sum."""
    kl = np.asarray(kl_series, dtype=float)
    if kl.shape != (schedule.T + 1,):
        raise ParameterError(
            f"kl_series must have length T+1={schedule.T + 1}, got {kl.shape}")
    report = BoundReport(G=float(G))
    for t in range(1, schedule.T + 1):
        drift = schedule.gamma_at(t) * G * G
        report.records.append(BoundRecord(t=t, lhs=float(kl[t - 1]),
                                          rhs=float(kl[t] + drift)))
    total_drift = float(np.sum(schedule.gamma)) * G * G
    report.cumulative = BoundRecord(t=0, lhs=float(kl[0]),
                                    rhs=float(kl[schedule.T] + total_drift))
    return report


# ---------------------------------------------------------------------------
# Gaussian moment fits and divergences


@dataclass(frozen=True)
class GaussianFit:
    mean: np.ndarray
    cov: np.ndarray

    @property
    def dim(self) -> int:
        return self.mean.size


def fit_gaussian(samples) -> GaussianFit:
    """Sample mean and unbiased covariance, symmetrized and eigenvalue-clipped."""
    X = np.asarray(samples, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ParameterError("need at least 2 samples to fit a Gaussian")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1)
    cov = 0.5 * (cov + cov.T)
    vals, vecs = np.linalg.eigh(cov)
    if vals.min() < 0:
        cov = (vecs * np.clip(vals, 0.0, None)) @ vecs.T
        cov = 0.5 * (cov + cov.T)
    return GaussianFit(mean=mean, cov=cov)


def gaussian_kl(a: GaussianFit, b: GaussianFit) -> float:
    """Closed-form KL(a || b) between Gaussian fits."""
    if a.dim != b.dim:
        raise ShapeError("fits have different dimensions")
    d = a.dim
    vals_b = np.linalg.eigvalsh(b.cov)
    if vals_b.min() < 1e-10:
        raise DegeneracyError("reference covariance is singular")
    vals_a = np.linalg.eigvalsh(a.cov)
    if vals_a.min() <= 0:
        return float("inf")
    diff = b.mean - a.mean
    sol_cov = np.linalg.solve(b.cov, a.cov)
    quad = diff @ np.linalg.solve(b.cov, diff)
    _, logdet_b = np.linalg.slogdet(b.cov)
    _, logdet_a = np.linalg.slogdet(a.cov)
    kl = 0.5 * (np.trace(sol_cov) + quad - d + logdet_b - logdet_a)
    return float(max(kl, 0.0))


def _sqrtm_psd(S: np.ndarray, what: str) -> np.ndarray:
    vals, vecs = np.linalg.eigh(0.5 * (S + S.T))
    floor = -1e-8 * max(vals.max(), 1.0)
    if vals.min() < floor:
        raise NumericError(
            f"{what} is indefinite (eigenvalues {vals.min():.3e}.."
            f"{vals.max():.3e}); cannot take a matrix square root")
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def frechet_distance(a: GaussianFit, b: GaussianFit) -> float:
    """Squared 2-Wasserstein distance between Gaussian fits.

    ||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a S_b)^{1/2}), with the cross
    square root taken through the symmetrized product
    S_a^{1/2} S_b S_a^{1/2}.
    """
    if a.dim != b.dim:
        raise ShapeError("fits have different dimensions")
    ra = _sqrtm_psd(a.cov, "covariance")
    inner = ra @ b.cov @ ra
    vals = np.linalg.eigvalsh(0.5 * (inner + inner.T))
    floor = -1e-8 * max(vals.max(), 1.0)
    if vals.min() < floor:
        raise NumericError(
            f"symmetrized product is indefinite (min eigenvalue "
            f"{vals.min():.3e}); condition of inputs "
            f"{np.linalg.cond(a.cov):.2e}/{np.linalg.cond(b.cov):.2e}")
    cross = np.sqrt(np.clip(vals, 0.0, None)).sum()
    diff = a.mean - b.mean
    val = float(diff @ diff + np.trace(a.cov) + np.trace(b.cov) - 2.0 * cross)
    return max(val, 0.0)


# ---------------------------------------------------------------------------
# Closed-form chain moments for linear-Gaussian suites


def propagate_linear_gaussian(schedule: NoiseSchedule, field_: ScoreField,
                              init_mean=None, init_cov=None):
    """Exact per-level moments of the annealed Langevin chain.

    The dynamics are linear when the score field is a single Gaussian, so the
    population distribution of the chain state stays Gaussian; this returns
    ``moments[t]`` = (mean, cov) of the state after completing level t+1,
    indexed t = T..0 (moments[T] is the initial N(0, I)).
    """
    if field_.kind != "linear_gaussian":
        raise ParameterError("moment propagation requires a linear_gaussian "
                             "score field")
    d = field_.dim
    mean = np.zeros(d) if init_mean is None else np.asarray(init_mean, float)
    cov = np.eye(d) if init_cov is None else np.asarray(init_cov, float)
    moments = {schedule.T: (mean.copy(), cov.copy())}
    eye = np.eye(d)
    for t in range(schedule.T, 0, -1):
        gamma = schedule.gamma_at(t)
        _, means_t, covs_t = _level_components(field_, t)
        m_t, S_t = means_t[0], covs_t[0]
        P = np.linalg.solve(S_t, eye)  # S_t^{-1}
        A = eye - gamma * P
        for _ in range(schedule.inner_steps):
            mean = A @ mean + gamma * (P @ m_t)
            cov = A @ cov @ A.T + 2.0 * gamma * eye
        moments[t - 1] = (mean.copy(), cov.copy())
    return moments


def kl_series_from_moments(moments, field_: ScoreField) -> np.ndarray:
    """Per-level KL to the field's data distribution, indexed by level t."""
    ref = GaussianFit(mean=field_.means[0], cov=field_.covs[0])
    T = max(moments)
    series = np.empty(T + 1)
    for t in range(T + 1):
        mean, cov = moments[t]
        series[t] = gaussian_kl(GaussianFit(mean=mean, cov=cov), ref)
    return series


def measured_score_bound(field_: ScoreField, moments, draws: int,
                         rng: np.random.Generator) -> float:
    """Max score norm over seeded draws from each level's exact state."""
    G = 0.0
    for t in sorted(moments):
        mean, cov = moments[t]
        vals, vecs = np.linalg.eigh(0.5 * (cov + cov.T))
        half = (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T
        pts = mean + rng.standard_normal((draws, field_.dim)) @ half.T
        level = max(t, 1)  # scores are defined for t >= 1 in the chain
        norms = np.linalg.norm(score_fn(field_, pts, level), axis=1)
        G = float(np.max(norms, initial=G))
    return G
