"""Constraint violation functions, projections, proxes, and surrogates.

The porosity projection implements the exact top-k count correction: flipped
pixels land at -MARGIN because the strictly-negative feasible set is open at
the flip boundary, so the minimizer would otherwise not exist.
Tie-breaking is stable row-major, which keeps results identical across
platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .alm import descend
from .errors import (ConfigError, ConvergenceError, DegeneracyError,
                     NumericError, ParameterError, ShapeError,
                     UnsupportedKindError)

KINDS = ("halfspace", "l2_ball", "box", "porosity", "surrogate_centroid",
         "custom_g")
# closed-form kinds: their rules take a point or a batch of rows alike
CLOSED_FORM_KINDS = ("halfspace", "l2_ball", "box")
# kinds whose evaluate_rows gives each row its point's evaluate bit for bit;
# a halfspace batch takes gemv, which rounds differently from a point's dot
ROW_EXACT_KINDS = ("l2_ball", "box", "porosity", "surrogate_centroid")
MARGIN = 1e-3
# the negative float nearest 0: x < 0.0 iff x <= -TINY
TINY = 5e-324
PROX_CAP = 10_000
# passes that may pull a rounded closed-form projection inside its set
INSIDE_PASSES = 64


# ---------------------------------------------------------------------------
# Porosity on image grids


def _count_adjust(flat: np.ndarray, K: int) -> tuple[np.ndarray, int]:
    """Flip the cheapest pixels (by L1 cost) until exactly K are negative.

    Returns the adjusted copy of the flat grid and c, its count of negative
    pixels.  In ascending value order the c negative pixels come first, so
    the flips are the pixels at ranks c..K-1 (the smallest non-negative
    ones, set to -MARGIN) or K..c-1 (the negative ones closest to zero, set to
    0).  One partition finds the value thr at the far end of that range;
    every pixel strictly inside it flips, and of the pixels tied at thr
    (-0.0 and 0.0 among them) those earliest in row-major order.
    """
    out = flat.copy()
    neg = flat < 0.0
    c = int(np.count_nonzero(neg))
    if c < K:
        thr = np.partition(flat, K - 1)[K - 1]
        flip = flat <= thr
        flip &= ~neg
        value, count = -MARGIN, K - c
    elif c > K:
        thr = np.partition(flat, K)[K]
        flip = flat >= thr
        flip &= neg
        value, count = 0.0, c - K
    else:
        return out, c
    surplus = int(np.count_nonzero(flip)) - count
    if surplus:
        # keep the ties at thr that come last in row-major order
        flip[np.flatnonzero(flat == thr)[-surplus:]] = False
    out[flip] = value
    return out, c


def _count_adjust_rows(X: np.ndarray, K: int) -> tuple[np.ndarray, np.ndarray]:
    """``_count_adjust`` of each row of a batch X ``(n, pixels)``: the
    adjusted copy and each row's count, row i with the bits of X[i]'s.

    One partition along the last axis puts both ranks K - 1 and K in place,
    and each row reads its threshold thr at the rank its count needs.  A
    row's flips are then the pixels between 0 and thr: in [0, thr] when
    it has too few negatives (thr >= 0), in [thr, 0) when it has too many
    (thr < 0; the negative float nearest 0 closes the interval).  Of the
    pixels tied at thr, those last in row-major order are kept, as in the
    point rule.
    """
    out = X.copy()
    neg = X < 0.0
    # the ufunc reductions: np.count_nonzero goes through a Python wrapper
    c = np.add.reduce(neg, axis=-1, dtype=np.intp)
    gap = c - K
    if not gap.any():
        return out, c
    n = X.shape[-1]
    part = np.partition(X, [k for k in (K - 1, K) if 0 <= k < n], axis=-1)
    low = (gap < 0)[:, None]
    # a rank outside 0..n-1 belongs to a side no row takes (K = 0 or n)
    thr = np.where(low, part[:, max(K - 1, 0), None],
                   part[:, min(K, n - 1), None])
    flip = (X >= np.minimum(thr, 0.0)) & (X <= np.maximum(thr, -TINY))
    surplus = np.add.reduce(flip, axis=-1, dtype=np.intp) - np.abs(gap)
    if surplus.any():
        # keep the ties at thr that come last in row-major order
        ties = X == thr
        from_end = np.cumsum(ties[:, ::-1], axis=-1)[:, ::-1]
        flip &= ~(ties & (from_end <= surplus[:, None]))
    np.copyto(out, np.where(low, -MARGIN, 0.0), where=flip)
    return out, c


def _pixels(spec: ConstraintSpec, x: np.ndarray) -> np.ndarray:
    """A porosity point's pixels in row-major order, once their number
    matches the grid; any shape of that size is taken."""
    rows, cols = spec.grid_shape
    if x.size != rows * cols:
        raise ShapeError(f"porosity point has {x.size} values; the "
                         f"{rows}x{cols} grid needs {rows * cols}")
    return x.ravel()


def _project_pixels(spec: ConstraintSpec,
                    flat: np.ndarray) -> tuple[np.ndarray, int]:
    """The projection of a porosity point's flat pixels, and their count
    of negative pixels."""
    # choose flip sets on the unclamped values so costs stay L1-optimal,
    # then clamp into the pixel box
    y, c = _count_adjust(flat, spec.target_count)
    return _clamp_pixels(y), c


def _clamp_pixels(y: np.ndarray) -> np.ndarray:
    """y clamped into the pixel box [-1, 1], in place."""
    np.maximum(y, -1.0, out=y)
    np.minimum(y, 1.0, out=y)
    return y


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
        gap = self.target_centroid - self.forbidden_centroid
        # the bits of np.linalg.norm on a 1-D float vector
        gap = math.sqrt(gap.dot(gap))
        if gap <= 1e-12:
            raise DegeneracyError("centroids must be distinct")
        if not 0.0 < self.p_trig < 1.0:
            raise ParameterError("p_trig must lie in (0, 1)")
        # centroid_trigger's radius, fixed by the model
        object.__setattr__(self, "_trigger_radius", self.p_trig * gap)


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
    """Map an ambient point, or each row of a batch, to principal-component
    coordinates.

    np.matvec runs the point's matrix-vector product once per row, so row i
    of a batch has the bits of the point x[i].
    """
    x = np.asarray(x, dtype=float)
    f = x if model.feature_map is None else np.matvec(model.feature_map, x)
    if f.shape[-1:] != model.feature_mean.shape:
        raise ShapeError("point does not match the model's feature space")
    return np.matvec(model.axes, f - model.feature_mean)


def centroid_trigger(model: CentroidModel, x) -> bool | np.ndarray:
    """True iff x sits within p_trig of the way to the forbidden centroid;
    one bool per row of a batch."""
    d = pc_coordinates(model, x) - model.forbidden_centroid
    # np.vecdot of a row has the bits of its point's dot and of
    # np.linalg.norm's sum of squares
    near = np.sqrt(np.vecdot(d, d)) < model._trigger_radius
    return bool(near) if near.ndim == 0 else near


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
    model: CentroidModel | None = None   # surrogate_centroid
    accept_radius: float | None = None
    g: Callable | None = None            # custom_g callables
    grad: Callable | None = None

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


def porosity_constraint(grid_shape, target_count: int, **kw) -> ConstraintSpec:
    rows, cols = (int(v) for v in grid_shape)
    if not 0 <= target_count <= rows * cols:
        raise ParameterError("target_count outside 0..pixels")
    kw.setdefault("delta", 0.5)  # counts are integers; below 1 means exact
    return ConstraintSpec(kind="porosity", grid_shape=(rows, cols),
                          target_count=int(target_count), **kw)


def centroid_constraint(model: CentroidModel, accept_radius: float,
                        **kw) -> ConstraintSpec:
    if accept_radius < 0:
        raise ParameterError("accept_radius must be non-negative")
    return ConstraintSpec(kind="surrogate_centroid", model=model,
                          accept_radius=float(accept_radius), **kw)


def custom_constraint(g, grad=None, **kw) -> ConstraintSpec:
    return ConstraintSpec(kind="custom_g", g=g, grad=grad, **kw)


def point_dim(spec: ConstraintSpec) -> int | None:
    """Length of the points spec takes, or None where any length fits: a
    custom g, an l2 ball about the origin, a box with scalar bounds."""
    if spec.kind == "halfspace":
        return spec.normal.size
    if spec.kind == "l2_ball":
        return None if spec.center is None else spec.center.size
    if spec.kind == "box":
        shape = np.broadcast_shapes(spec.lower.shape, spec.upper.shape)
        return shape[-1] if shape else None
    if spec.kind == "porosity":
        rows, cols = spec.grid_shape
        return rows * cols
    if spec.kind == "surrogate_centroid":
        fmap = spec.model.feature_map
        return spec.model.axes.shape[1] if fmap is None else fmap.shape[1]
    return None


def _float_if_point(v):
    """A point's 0-d result as a float; a batch's per-row array as it is."""
    return float(v) if v.ndim == 0 else v


def _as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    # the ufunc reduction: the ndarray method goes through a Python wrapper
    if not np.logical_and.reduce(np.isfinite(x), axis=None):
        raise NumericError("constraint input contains non-finite values")
    return x


def _violation(spec: ConstraintSpec, x: np.ndarray) -> float | np.ndarray:
    """g(x) of input already checked by ``_as_point``.

    The halfspace, l2_ball, box and surrogate_centroid rules work on the
    last axis: a point ``(d,)`` gives a float, a batch ``(n, d)`` gives one
    violation per row.  Porosity and custom_g take a point only.
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
        return float(abs(int(np.count_nonzero(_pixels(spec, x) < 0.0))
                         - spec.target_count))
    if spec.kind == "surrogate_centroid":
        diff = pc_coordinates(spec.model, x) - spec.model.target_centroid
        return _float_if_point(np.maximum(
            np.sqrt(np.vecdot(diff, diff)) - spec.accept_radius, 0.0))
    if spec.kind == "custom_g":
        return float(spec.g(x))
    raise ConfigError(f"unknown constraint kind {spec.kind!r}")


def violation(spec: ConstraintSpec, x) -> float:
    """Non-negative violation g(x); zero (within delta) on feasible points."""
    return _violation(spec, _as_point(x))


def _violation_and_gradient(spec: ConstraintSpec,
                            x: np.ndarray) -> tuple[float, np.ndarray]:
    """``(g(x), grad g(x))`` of a point already checked by ``_as_point``.

    Both come from the same intermediates, with the bits of ``_violation``.
    A trial point of ALM may be non-finite; where its distance is not
    finite the gradient is NaN, with no warning, since the value alone
    decides whether the trial is kept.
    """
    if spec.kind == "halfspace":
        excess = x @ spec.normal - spec.offset
        v = float(np.maximum(excess, 0.0))
        return v, spec.normal.copy() if excess > 0 else np.zeros_like(x)
    if spec.kind == "l2_ball":
        c = 0.0 if spec.center is None else spec.center
        diff = x - c
        nrm = np.linalg.norm(diff, axis=-1)
        v = float(np.maximum(nrm - spec.radius, 0.0))
        if not np.isfinite(nrm):
            return v, np.full_like(x, np.nan)
        return v, diff / nrm if nrm > spec.radius else np.zeros_like(x)
    if spec.kind == "box":
        resid = x - np.clip(x, spec.lower, spec.upper)
        nrm = np.linalg.norm(resid, axis=-1)
        if not np.isfinite(nrm):
            return float(nrm), np.full_like(x, np.nan)
        return float(nrm), resid / nrm if nrm > 0 else np.zeros_like(x)
    if spec.kind == "surrogate_centroid":
        m = spec.model
        p = pc_coordinates(m, x)
        diff = p - m.target_centroid
        # the bits of np.linalg.norm on a 1-D float vector
        nrm = math.sqrt(diff.dot(diff))
        v = max(nrm - spec.accept_radius, 0.0)
        if not math.isfinite(nrm):
            return v, np.full_like(x, np.nan)
        if nrm <= spec.accept_radius or nrm == 0.0:
            return v, np.zeros_like(x)
        u = m.axes.T @ (diff / nrm)
        return v, u if m.feature_map is None else m.feature_map.T @ u
    if spec.kind == "custom_g":
        if spec.grad is None:
            raise UnsupportedKindError("custom constraint lacks a gradient")
        return float(spec.g(x)), np.asarray(spec.grad(x), dtype=float)
    raise UnsupportedKindError(
        f"violation gradient undefined for kind {spec.kind!r}")


def violation_and_gradient(spec: ConstraintSpec, x) -> tuple[float, np.ndarray]:
    """``(violation(spec, x), violation_gradient(spec, x))`` from one
    evaluation."""
    return _violation_and_gradient(spec, _as_point(x))


def violation_gradient(spec: ConstraintSpec, x) -> np.ndarray:
    """Gradient of the violation where it is smooth (zero inside the set)."""
    return violation_and_gradient(spec, x)[1]


def has_exact_projection(spec: ConstraintSpec) -> bool:
    return spec.kind in CLOSED_FORM_KINDS or spec.kind == "porosity"


def _project_exact(spec: ConstraintSpec, x: np.ndarray) -> np.ndarray:
    """``project_exact`` of input already checked by ``_as_point``.

    The halfspace, l2_ball and box rules work on the last axis: a point
    ``(d,)`` or each row of a batch ``(n, d)``, and rows inside keep their
    values.  Porosity takes a point only.
    """
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
    if spec.kind == "porosity":
        return _project_pixels(spec, _pixels(spec, x))[0].reshape(x.shape)
    raise UnsupportedKindError(f"no exact projection for kind {spec.kind!r}")


def project_exact(spec: ConstraintSpec, x) -> np.ndarray:
    """Euclidean projection for the kinds that have one: halfspace, l2_ball,
    box and porosity.

    Every result lies inside: its violation is exactly 0, and a point
    inside comes back unchanged (a porosity point up to the clamp below).
    Box results are exact and idempotent.  A halfspace or l2_ball result
    that rounding leaves outside is pulled in by a few ulps (its halfspace
    step lengthened, its l2 scale shortened, by a doubling number of ulps
    per pass), so it can sit that far inside the boundary: over 40 random
    halfspaces and 40 random l2 balls with 2,000 points each at scale 5,
    every result was inside and no halfspace result lay more than 7.9e-15
    inside.

    Porosity inputs are clamped into the pixel box after the count
    correction; out-of-range values can only arise from decoded
    intermediates, and the clamp composes with the count correction to
    solve the boxed program.
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
    violation as the distance.  A porosity point takes one pass: its
    negative count gives the violation, the flips chosen from that count
    and the clamp give the residual, and its norm is the distance.
    """
    x = _as_point(x)
    if spec.kind == "porosity":
        flat = _pixels(spec, x)
        y, c = _project_pixels(spec, flat)
        r = flat - y
        # the bits of np.linalg.norm on a 1-D float vector
        return (float(abs(c - spec.target_count)), math.sqrt(r.dot(r)),
                r.reshape(x.shape))
    v = _violation(spec, x)
    if not has_exact_projection(spec):
        return v, v, None
    return v, _dist_from_violation(spec, v), x - _project_exact(spec, x)


def evaluate_rows(spec: ConstraintSpec, X: np.ndarray):
    """``evaluate`` of each row of a finite float batch X ``(n, d)``: the
    rows' violations and distances as arrays, and their residuals (None for
    the surrogate_centroid kind).

    For the ``ROW_EXACT_KINDS`` row i has the bits of ``evaluate(spec,
    X[i])``.  The caller checks X for finiteness; a porosity row is one
    flat grid.
    """
    if spec.kind == "porosity":
        K = spec.target_count
        Y, c = _count_adjust_rows(X, K)
        R = X - _clamp_pixels(Y)
        return np.abs(c - K).astype(float), np.sqrt(np.vecdot(R, R)), R
    if spec.kind not in ROW_EXACT_KINDS:
        raise UnsupportedKindError(f"no rows evaluation for kind "
                                   f"{spec.kind!r}")
    v = _violation(spec, X)
    if not has_exact_projection(spec):
        return v, v, None
    return v, v, X - _project_exact(spec, X)


def _dist_from_violation(spec: ConstraintSpec, v):
    """The distance to the set of a closed-form kind, from its violation
    (a float, or one per row): a halfspace's excess over ``||normal||``,
    an l2_ball's or box's violation itself."""
    if spec.kind == "halfspace":
        a = spec.normal
        # the bits of np.linalg.norm on a 1-D float vector
        return v / math.sqrt(a.dot(a))
    return v


def prox(spec: ConstraintSpec, x, weight: float | None = None) -> np.ndarray:
    """Proximal map argmin_y g(y) + ||y - x||^2 / (2 lambda).

    Indicator-style kinds reduce to their projection regardless of the
    weight.  The others run ``alm.descend``, the ALM inner loop, at
    multiplier lambda and penalty 0: its Lagrangian lambda g(y) +
    ||y - x||^2 / 2 has the same minimizer.  The first step is min(lambda,
    1).  A kink of g, such as the centroid disc's edge, ends it stalled;
    ``PROX_CAP`` iterations raise ConvergenceError.
    """
    lam = spec.prox_weight if weight is None else float(weight)
    if lam <= 0:
        raise ParameterError("prox weight must be positive")
    x = _as_point(x)
    if has_exact_projection(spec):
        return _project_exact(spec, x)

    def oracle(y):
        return _violation_and_gradient(spec, y)

    # from a copy, so that no stop returns the caller's array
    (y, _, grad_g), _, stop = descend(oracle, x, (x.copy(), *oracle(x)), lam,
                                      0.0, min(lam, 1.0), PROX_CAP)
    if stop == "capped":
        raise ConvergenceError(
            "prox solver hit its iteration cap",
            residual=float(np.linalg.norm(y - x + lam * grad_g)),
            iterations=PROX_CAP)
    return y
