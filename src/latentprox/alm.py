"""Augmented Lagrangian projection for constraints without a closed form.

Solves argmin_{y : g(y) = 0} ||y - anchor|| through the relaxation
L = ||y - anchor|| + lambda g(y) + (mu/2) g(y)^2 with multiplier and penalty
updates across outer iterations, from lambda = 0 and mu = PENALTY in every
projection; mu grows GROWTH-fold per outer iteration up to PENALTY_CAP.  The
distance term is squared inside the gradient (its gradient is undefined at
y = anchor otherwise); the reported distance stays unsquared.

Each outer iteration runs ``descend``, the inner loop ``constraints.prox``
runs too: a first step, then the Barzilai-Borwein step (Barzilai & Borwein
1988) of ``secant_step``, the sampler's correction rule, halved while L
rises.  It stops converged (||grad L|| <= 1e-12), stalled (40 halvings all
let L rise, as at a kink of g; the point is kept) or capped.  Each point is
evaluated once, by one oracle call for g and its gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError


# the penalty mu of the first outer iteration, its growth factor alpha per
# outer iteration and its cap mu_max
PENALTY = 1.0
GROWTH = 2.0
PENALTY_CAP = 1e4


@dataclass(frozen=True)
class AlmState:
    """Hyperparameters of the augmented Lagrangian solver."""

    inner_step: float = 1e-2   # gamma_in, first step of each inner loop
    max_inner: int = 200
    max_outer: int = 50
    tol: float = 1e-4          # delta, violation tolerance

    def __post_init__(self):
        if self.inner_step <= 0:
            raise ParameterError("inner_step must be positive")
        if self.max_inner < 1 or self.max_outer < 1:
            raise ParameterError("iteration caps must be >= 1")
        if self.tol <= 0:
            raise ParameterError("tol must be positive")


@dataclass
class AlmReport:
    """Outcome of one augmented Lagrangian projection."""

    outer_iterations: int
    inner_iterations: int
    final_violation: float
    final_distance: float      # unsquared ||y - anchor||
    final_multiplier: float
    final_penalty: float
    converged: bool


def secant_step(s, dy, step: float) -> float:
    """The Barzilai-Borwein step s.s / s.y of a point's last move s and the
    change dy of its gradient; ``step`` is kept when s.y <= 0."""
    sy = float(s @ dy)
    return float(s @ s) / sy if sy > 0.0 else step


def descend(oracle, anchor, point, lam: float, mu: float, step: float,
            cap: int):
    """Descend L(y) = ||y - anchor||^2 / 2 + lam g(y) + (mu/2) g(y)^2 from
    ``point`` = (y, g(y), grad g(y)) with first step ``step``.

    Returns the last point, the iterations taken and the stop:
    "converged", "stalled" or "capped" (see the module docstring).  A line
    search that ends on a non-finite trial raises NumericError.
    """
    y, v, grad_g = point
    d = y - anchor
    d2 = float(d @ d)
    y_prev = None
    for it in range(cap):
        grad = d + (lam + mu * v) * np.asarray(grad_g, float)
        if math.sqrt(grad.dot(grad)) <= 1e-12:
            return (y, v, grad_g), it, "converged"
        if y_prev is not None:
            step = secant_step(y - y_prev, grad - grad_prev, step)
        y_prev, grad_prev = y, grad
        base = 0.5 * d2 + lam * v + 0.5 * mu * v * v
        for _ in range(40):
            trial = y - step * grad
            tv, t_grad = oracle(trial)
            tv, td = float(tv), trial - anchor
            td2 = float(td @ td)
            descended = 0.5 * td2 + lam * tv + 0.5 * mu * tv * tv \
                <= base + 1e-15
            if descended:
                break
            step *= 0.5
        if not np.isfinite(trial).all():
            raise NumericError("ALM step produced non-finite values")
        if not descended:
            return (y, v, grad_g), it + 1, "stalled"
        y, v, grad_g, d, d2 = trial, tv, t_grad, td, td2
    return (y, v, grad_g), cap, "capped"


def alm_project(anchor, oracle, state: AlmState) -> tuple[np.ndarray, AlmReport]:
    """Drive y toward g(y) = 0 while staying close to the anchor.

    ``oracle(y)`` returns the non-negative violation g(y), used for
    termination and multiplier updates, and its gradient away from the zero
    set (zero on it).  It need not check its input: a non-finite anchor, or
    a line search that ends on a non-finite trial, raises NumericError, and
    a trial whose value is not finite fails the line-search test, so the
    step is halved.  Returns the best iterate (least violation) and the
    report; ``converged`` is False when the outer cap is hit with
    g(y) >= tol, and the caller decides whether to use that iterate.
    """
    anchor = np.asarray(anchor, dtype=float)
    if not np.isfinite(anchor).all():
        raise NumericError("ALM anchor contains non-finite values")
    lam, mu, inner_total = 0.0, PENALTY, 0
    y = anchor.copy()
    v, grad_g = oracle(y)
    point = (y, float(v), grad_g)
    # no step changes y in place, so the best iterate needs no copy
    best_y, best_v = point[:2]
    for outer in range(state.max_outer + 1):
        y, v, _ = point
        if v < best_v:
            best_y, best_v = y, v
        if v < state.tol or outer == state.max_outer:
            break
        # the Lagrangian changes with lam and mu, so each inner loop starts
        # from inner_step and builds its secant pairs afresh
        point, inner, _ = descend(oracle, anchor, point, lam, mu,
                                  state.inner_step, state.max_inner)
        inner_total += inner
        lam = lam + mu * point[1]
        mu = min(GROWTH * mu, PENALTY_CAP)
    return best_y, AlmReport(
        outer_iterations=outer, inner_iterations=inner_total,
        final_violation=best_v,
        final_distance=float(np.linalg.norm(best_y - anchor)),
        final_multiplier=lam, final_penalty=mu, converged=best_v < state.tol)
