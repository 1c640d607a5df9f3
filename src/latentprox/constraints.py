"""Constraint violation functions, projections, proxes, and surrogates.

The porosity projection implements the exact top-k count correction: flipped
pixels land at -tau (a small margin) because the strictly-negative feasible
set is open at the flip boundary, so the minimizer would otherwise not exist.
Tie-breaking is stable row-major, which keeps results identical across
platforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (ConfigError, ConvergenceError, DegeneracyError,
                     NumericError, ParameterError, ShapeError,
                     UnsupportedKindError)

KINDS = ("halfspace", "l2_ball", "box", "porosity", "surrogate_centroid",
         "custom_g")
# closed-form kinds: their rules take a point or a batch of rows alike
CLOSED_FORM_KINDS = ("halfspace", "l2_ball", "box")
DEFAULT_MARGIN = 1e-3
PROX_GRAD_TOL = 1e-8
PROX_CAP = 10_000
# passes that may pull a rounded closed-form projection inside its set
INSIDE_PASSES = 64


# ---------------------------------------------------------------------------
# Porosity on image grids


def _check_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ShapeError("image grid must be a 2-D array")
    if not np.isfinite(grid).all():
        raise NumericError("image grid contains non-finite values")
    if grid.min() < -1.0 or grid.max() > 1.0:
        raise ParameterError("grid values must lie within [-1, 1]")
    return grid


def porosity(grid) -> int:
    """Count of strictly negative pixels."""
    grid = _check_grid(grid)
    return int(np.count_nonzero(grid < 0.0))


def _count_adjust(flat: np.ndarray, K: int, tau: float) -> np.ndarray:
    """Flip the cheapest pixels (by L1 cost) until exactly K are negative."""
    out = flat.copy()
    neg = out < 0.0
    c = int(neg.sum())
    if c < K:
        idx = np.flatnonzero(~neg)
        order = idx[np.argsort(out[idx], kind="stable")]
        out[order[:K - c]] = -tau
    elif c > K:
        idx = np.flatnonzero(neg)
        order = idx[np.argsort(-out[idx], kind="stable")]
        out[order[:c - K]] = 0.0
    return out


def project_porosity(grid, K: int, tau: float = DEFAULT_MARGIN) -> np.ndarray:
    """Cheapest (L1) adjustment of the grid to exactly K negative pixels.

    Rank pixels by value: if the count is short, the smallest non-negative
    pixels are set to -tau; if it overshoots, the negative pixels closest to
    zero are set to 0.  Ties break by row-major index.
    """
    grid = _check_grid(grid)
    n_pix = grid.size
    if not 0 <= K <= n_pix:
        raise ParameterError(f"K={K} outside 0..{n_pix}")
    if not 0.0 < tau <= 0.01:
        raise ParameterError("margin tau must lie in (0, 0.01]")
    return _count_adjust(grid.ravel(), K, tau).reshape(grid.shape)


# ---------------------------------------------------------------------------
# PCA-centroid surrogate


@dataclass(frozen=True)
class CentroidModel:
    """Linear feature map plus a 2-D principal-component cluster geometry.

    ``target_centroid`` is the allowed cluster; ``forbidden_centroid`` is the
    cluster corrections steer away from.  Coordinates are in the principal
    component basis of the pooled feature covariance.
    """

    axes: np.ndarray                 # (2, feature_dim), orthonormal rows
    feature_mean: np.ndarray         # (feature_dim,)
    target_centroid: np.ndarray      # (2,)
    forbidden_centroid: np.ndarray   # (2,)
    p_trig: float = 0.5
    feature_map: np.ndarray | None = None  # (feature_dim, ambient_dim)

    def __post_init__(self):
        gram = self.axes @ self.axes.T
        if np.max(np.abs(gram - np.eye(2))) > 1e-9:
            raise ParameterError("principal axes must be orthonormal")
        if np.linalg.norm(self.target_centroid - self.forbidden_centroid) <= 1e-12:
            raise DegeneracyError("centroids must be distinct")
        if not 0.0 < self.p_trig < 1.0:
            raise ParameterError("p_trig must lie in (0, 1)")


def _top_two_eigenvectors(C: np.ndarray) -> np.ndarray:
    """Top-2 eigenvectors of a symmetric PSD matrix as rows, largest first.

    Each row's largest-magnitude entry is positive, so the axes are
    deterministic.
    """
    vals, vecs = np.linalg.eigh(C)
    if vals.size < 2 or vals[-2] < 1e-12:
        raise DegeneracyError("pooled feature covariance is degenerate "
                              "(second eigenvalue < 1e-12)")
    axes = vecs[:, [-1, -2]].T
    peak = axes[[0, 1], np.argmax(np.abs(axes), axis=1)]
    return axes * np.sign(peak)[:, None]


def fit_centroid_model(features_pos, features_neg, feature_map=None,
                       p_trig: float = 0.5) -> CentroidModel:
    """Fit principal axes and per-class centroids from labelled features.

    ``features_pos`` is the target (allowed) class, ``features_neg`` the
    forbidden one.  Axes are the top-2 eigenvectors of the pooled feature
    covariance.
    """
    pos = np.atleast_2d(np.asarray(features_pos, dtype=float))
    neg = np.atleast_2d(np.asarray(features_neg, dtype=float))
    if pos.shape[0] < 2 or neg.shape[0] < 2:
        raise ParameterError("need at least 2 samples per class")
    if pos.shape[1] != neg.shape[1]:
        raise ShapeError("feature dimensions differ between classes")
    pooled = np.vstack([pos, neg])
    mean = pooled.mean(axis=0)
    centered = pooled - mean
    C = centered.T @ centered / (pooled.shape[0] - 1)
    C = 0.5 * (C + C.T)
    axes = _top_two_eigenvectors(C)
    target = axes @ (pos.mean(axis=0) - mean)
    forbidden = axes @ (neg.mean(axis=0) - mean)
    fmap = None if feature_map is None else np.asarray(feature_map, dtype=float)
    return CentroidModel(axes=axes, feature_mean=mean, target_centroid=target,
                         forbidden_centroid=forbidden, p_trig=p_trig,
                         feature_map=fmap)


def pc_coordinates(model: CentroidModel, x) -> np.ndarray:
    """Map an ambient point to principal-component coordinates."""
    x = np.asarray(x, dtype=float)
    f = x if model.feature_map is None else model.feature_map @ x
    if f.shape != model.feature_mean.shape:
        raise ShapeError("point does not match the model's feature space")
    return model.axes @ (f - model.feature_mean)


def centroid_trigger(model: CentroidModel, x) -> bool:
    """True iff x sits within p_trig of the way to the forbidden centroid."""
    p = pc_coordinates(model, x)
    gap = np.linalg.norm(model.target_centroid - model.forbidden_centroid)
    return bool(np.linalg.norm(p - model.forbidden_centroid) < model.p_trig * gap)


# ---------------------------------------------------------------------------
# Constraint specifications


@dataclass(frozen=True)
class ConstraintSpec:
    """A constraint: violation function, tolerance, and proximal weight."""

    kind: str
    delta: float = 1e-4          # violation tolerance for correction loops
    prox_weight: float = 1.0     # lambda in the proximal objective
    normal: np.ndarray | None = None     # halfspace {a . x <= b}
    offset: float | None = None
    radius: float | None = None          # l2 ball
    center: np.ndarray | None = None
    lower: np.ndarray | None = None      # box
    upper: np.ndarray | None = None
    grid_shape: tuple | None = None      # porosity
    target_count: int | None = None
    margin: float = DEFAULT_MARGIN
    model: CentroidModel | None = None   # surrogate_centroid
    accept_radius: float | None = None
    g: Callable | None = None            # custom_g callables
    grad: Callable | None = None
    smoothness: float = 1.0              # L used by the bound checker

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown constraint kind {self.kind!r}")
        if self.delta <= 0:
            raise ParameterError("delta must be positive")
        if self.prox_weight <= 0:
            raise ParameterError("prox_weight must be positive")


def halfspace(normal, offset: float, **kw) -> ConstraintSpec:
    normal = np.asarray(normal, dtype=float)
    if np.linalg.norm(normal) == 0.0:
        raise ParameterError("halfspace normal must be nonzero")
    return ConstraintSpec(kind="halfspace", normal=normal, offset=float(offset),
                          **kw)


def l2_ball(radius: float, center=None, **kw) -> ConstraintSpec:
    if radius <= 0:
        raise ParameterError("radius must be positive")
    c = None if center is None else np.asarray(center, dtype=float)
    return ConstraintSpec(kind="l2_ball", radius=float(radius), center=c, **kw)


def box(lower, upper, **kw) -> ConstraintSpec:
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    if np.any(lower > upper):
        raise ParameterError("box lower bound exceeds upper bound")
    return ConstraintSpec(kind="box", lower=lower, upper=upper, **kw)


def porosity_constraint(grid_shape, target_count: int,
                        margin: float = DEFAULT_MARGIN, **kw) -> ConstraintSpec:
    rows, cols = (int(v) for v in grid_shape)
    if not 0 <= target_count <= rows * cols:
        raise ParameterError("target_count outside 0..pixels")
    if not 0.0 < margin <= 0.01:
        raise ParameterError("margin must lie in (0, 0.01]")
    kw.setdefault("delta", 0.5)  # counts are integers; below 1 means exact
    return ConstraintSpec(kind="porosity", grid_shape=(rows, cols),
                          target_count=int(target_count), margin=margin, **kw)


def centroid_constraint(model: CentroidModel, accept_radius: float,
                        **kw) -> ConstraintSpec:
    if accept_radius < 0:
        raise ParameterError("accept_radius must be non-negative")
    return ConstraintSpec(kind="surrogate_centroid", model=model,
                          accept_radius=float(accept_radius), **kw)


def custom_constraint(g, grad=None, **kw) -> ConstraintSpec:
    return ConstraintSpec(kind="custom_g", g=g, grad=grad, **kw)


def _float_if_point(v):
    """A point's 0-d result as a float; a batch's per-row array as it is."""
    return float(v) if v.ndim == 0 else v


def _as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise NumericError("constraint input contains non-finite values")
    return x


def _violation(spec: ConstraintSpec, x: np.ndarray) -> float | np.ndarray:
    """g(x) of input already checked by ``_as_point``.

    The halfspace, l2_ball and box rules work on the last axis: a point
    ``(d,)`` gives a float, a batch ``(n, d)`` gives one violation per row.
    The other kinds take a point only.
    """
    if spec.kind == "halfspace":
        return _float_if_point(np.maximum(x @ spec.normal - spec.offset, 0.0))
    if spec.kind == "l2_ball":
        c = 0.0 if spec.center is None else spec.center
        return _float_if_point(np.maximum(
            np.linalg.norm(x - c, axis=-1) - spec.radius, 0.0))
    if spec.kind == "box":
        return _float_if_point(np.linalg.norm(
            x - np.clip(x, spec.lower, spec.upper), axis=-1))
    if spec.kind == "porosity":
        # clamping into the pixel box keeps every sign, so the count of the
        # clamped grid is the count of the raw values
        grid = x.reshape(spec.grid_shape)
        return float(abs(int(np.count_nonzero(grid < 0.0))
                         - spec.target_count))
    if spec.kind == "surrogate_centroid":
        p = pc_coordinates(spec.model, x)
        d = np.linalg.norm(p - spec.model.target_centroid)
        return float(max(d - spec.accept_radius, 0.0))
    if spec.kind == "custom_g":
        return float(spec.g(x))
    raise ConfigError(f"unknown constraint kind {spec.kind!r}")


def violation(spec: ConstraintSpec, x) -> float:
    """Non-negative violation g(x); zero (within delta) on feasible points."""
    return _violation(spec, _as_point(x))


def _violation_gradient(spec: ConstraintSpec, x: np.ndarray) -> np.ndarray:
    """``violation_gradient`` of a point already checked by ``_as_point``."""
    if spec.kind == "halfspace":
        if spec.normal @ x - spec.offset > 0:
            return spec.normal.copy()
        return np.zeros_like(x)
    if spec.kind == "l2_ball":
        c = 0.0 if spec.center is None else spec.center
        diff = x - c
        nrm = np.linalg.norm(diff, axis=-1)   # the norm of _violation
        if nrm > spec.radius:
            return diff / nrm
        return np.zeros_like(x)
    if spec.kind == "box":
        resid = x - np.clip(x, spec.lower, spec.upper)
        nrm = np.linalg.norm(resid, axis=-1)
        return resid / nrm if nrm > 0 else np.zeros_like(x)
    if spec.kind == "surrogate_centroid":
        m = spec.model
        p = pc_coordinates(m, x)
        diff = p - m.target_centroid
        nrm = np.linalg.norm(diff)
        if nrm <= spec.accept_radius or nrm == 0.0:
            return np.zeros_like(x)
        u = m.axes.T @ (diff / nrm)
        return u if m.feature_map is None else m.feature_map.T @ u
    if spec.kind == "custom_g":
        if spec.grad is None:
            raise UnsupportedKindError("custom constraint lacks a gradient")
        return np.asarray(spec.grad(x), dtype=float)
    raise UnsupportedKindError(
        f"violation gradient undefined for kind {spec.kind!r}")


def violation_gradient(spec: ConstraintSpec, x) -> np.ndarray:
    """Gradient of the violation where it is smooth (zero inside the set)."""
    return _violation_gradient(spec, _as_point(x))


def has_exact_projection(spec: ConstraintSpec) -> bool:
    return spec.kind in CLOSED_FORM_KINDS or spec.kind == "porosity"


def _project_closed_form(spec: ConstraintSpec, x: np.ndarray) -> np.ndarray:
    """Projection of a point or of each row of a batch; rows inside keep
    their values."""
    if spec.kind == "halfspace":
        a = spec.normal
        excess = x @ a - spec.offset
        if excess.max(initial=0.0) <= 0.0:
            return np.array(x, copy=True)
        # rows inside move by zero
        step = np.maximum(excess, 0.0) / (a @ a)
        y = x - step[..., None] * a
        out = y @ a - spec.offset > 0.0
        if out.any():
            # rounding left a row outside: lengthen its step so that the
            # coordinate with the largest |a| moves by at least one ulp of
            # the row's largest coordinate, doubling each pass
            extra = np.spacing(np.abs(y).max(axis=-1)) / np.abs(a).max()
            for _ in range(INSIDE_PASSES):
                step = np.where(out, step + extra, step)
                y = x - step[..., None] * a
                out = y @ a - spec.offset > 0.0
                if not out.any():
                    break
                extra = 2.0 * extra
        return y
    if spec.kind == "l2_ball":
        c = 0.0 if spec.center is None else spec.center
        diff = x - c
        nrm = np.linalg.norm(diff, axis=-1)
        over = nrm > spec.radius
        if not over.any():
            return np.array(x, copy=True)
        # rows inside divide by the radius, not by a norm that may be 0
        scale = spec.radius / np.where(over, nrm, spec.radius)
        y = np.where(over[..., None], c + diff * scale[..., None], x)
        out = np.linalg.norm(y - c, axis=-1) > spec.radius
        if out.any():
            # rounding left a row outside: step its scale down by one ulp,
            # doubling each pass
            shrink = np.spacing(scale)
            for _ in range(INSIDE_PASSES):
                scale = np.where(out, scale - shrink, scale)
                y = np.where(over[..., None], c + diff * scale[..., None], x)
                out = np.linalg.norm(y - c, axis=-1) > spec.radius
                if not out.any():
                    break
                shrink = 2.0 * shrink
        return y
    if spec.kind == "box":
        return np.clip(x, spec.lower, spec.upper)
    raise UnsupportedKindError(
        f"no closed-form projection for kind {spec.kind!r}")


def project_closed_form(spec: ConstraintSpec, x) -> np.ndarray:
    """Euclidean projection for halfspace, l2_ball, and box kinds.

    Every result lies inside: its violation is exactly 0, and a point
    inside comes back unchanged.  Box results are exact and idempotent.  A
    halfspace or l2_ball result that rounding leaves outside is pulled in
    by a few ulps (its halfspace step lengthened, its l2 scale shortened,
    by a doubling number of ulps per pass), so it can sit that far inside
    the boundary: over 40 random halfspaces and 40 random l2 balls with
    2,000 points each at scale 5, every result was inside and no halfspace
    result lay more than 7.9e-15 inside.
    """
    return _project_closed_form(spec, _as_point(x))


def _project_exact(spec: ConstraintSpec, x: np.ndarray) -> np.ndarray:
    """``project_exact`` of a point already checked by ``_as_point``."""
    if spec.kind == "porosity":
        # choose flip sets on the unclamped values so costs stay L1-optimal,
        # then clamp into the pixel box
        flat = _count_adjust(x.reshape(spec.grid_shape).ravel(),
                             spec.target_count, spec.margin)
        return np.clip(flat, -1.0, 1.0).reshape(x.shape)
    return _project_closed_form(spec, x)


def project_exact(spec: ConstraintSpec, x) -> np.ndarray:
    """Exact projection for any kind that has one (closed-form or porosity).

    Porosity inputs are clamped into the pixel box first; out-of-range values
    can only arise from decoded intermediates, and the clamp composes with the
    count correction to solve the boxed program.
    """
    return _project_exact(spec, _as_point(x))


def dist_to_set(spec: ConstraintSpec, x) -> float:
    """Euclidean distance to the set where a projection exists, else g(x)."""
    return evaluate(spec, x)[1]


def evaluate(spec: ConstraintSpec, x) -> tuple[float, float, np.ndarray | None]:
    """``(violation, dist, residual)`` of x from one check and one projection.

    The violation and residual equal ``violation(spec, x)`` and
    ``x - project_exact(spec, x)`` bit for bit; ``dist_to_set`` returns the
    distance.  The residual is the closed-form correction direction at x;
    kinds without an exact projection return None for it and their
    violation as the distance.
    """
    x = _as_point(x)
    v = _violation(spec, x)
    if not has_exact_projection(spec):
        return v, v, None
    residual = x - _project_exact(spec, x)
    if spec.kind == "halfspace":
        return v, v / float(np.linalg.norm(spec.normal)), residual
    if spec.kind == "porosity":
        return v, float(np.linalg.norm(residual)), residual
    return v, v, residual


def prox(spec: ConstraintSpec, x, weight: float | None = None) -> np.ndarray:
    """Proximal map argmin_y g(y) + ||y - x||^2 / (2 lambda).

    Indicator-style kinds reduce to their projection regardless of the
    weight.  Smooth kinds are solved by gradient descent (with backtracking)
    to first-order stationarity.
    """
    lam = spec.prox_weight if weight is None else float(weight)
    if lam <= 0:
        raise ParameterError("prox weight must be positive")
    x = _as_point(x)
    if has_exact_projection(spec):
        return project_exact(spec, x)

    def obj(y):
        return violation(spec, y) + float((y - x) @ (y - x)) / (2.0 * lam)

    def grad(y):
        return violation_gradient(spec, y) + (y - x) / lam

    y = x.copy()
    step = min(lam, 1.0)
    for it in range(PROX_CAP):
        gvec = grad(y)
        gnorm = float(np.linalg.norm(gvec))
        if gnorm <= PROX_GRAD_TOL:
            return y
        trial_step = step
        base = obj(y)
        for _ in range(40):
            y_new = y - trial_step * gvec
            if obj(y_new) <= base - 0.25 * trial_step * gnorm ** 2:
                break
            trial_step *= 0.5
        y = y_new
    raise ConvergenceError("prox solver hit its iteration cap",
                           residual=gnorm, iterations=PROX_CAP)
