"""Augmented Lagrangian projection for constraints without a closed form.

Solves argmin_{y : g(y) = 0} ||y - anchor|| through the relaxation
L = ||y - anchor|| + lambda g(y) + (mu/2) g(y)^2 with multiplier and penalty
updates across outer iterations.  The distance term is squared inside the
gradient (its gradient is undefined at y = anchor otherwise); the reported
distance stays unsquared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlmNonConvergence, NumericError, ParameterError


@dataclass(frozen=True)
class AlmState:
    """Hyperparameters and dual state of the augmented Lagrangian solver."""

    multiplier: float = 0.0    # lambda, >= 0
    penalty: float = 1.0       # mu, > 0
    growth: float = 2.0        # alpha, > 1
    penalty_cap: float = 1e4   # mu_max
    inner_step: float = 1e-2   # gamma_in
    max_inner: int = 200
    max_outer: int = 50
    tol: float = 1e-4          # delta, violation tolerance

    def __post_init__(self):
        if self.multiplier < 0 or not np.isfinite(self.multiplier):
            raise ParameterError("multiplier must be finite and >= 0")
        if self.penalty <= 0:
            raise ParameterError("penalty must be positive")
        if self.growth <= 1:
            raise ParameterError("growth must exceed 1")
        if self.penalty_cap < self.penalty:
            raise ParameterError("penalty_cap must be >= penalty")
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
    point: np.ndarray


def alm_project(anchor, g, grad_g, state: AlmState) -> tuple[np.ndarray, AlmReport]:
    """Drive y toward g(y) = 0 while staying close to the anchor.

    ``g`` is the non-negative violation used for termination and multiplier
    updates; ``grad_g`` is its gradient away from the zero set (zero on it).
    Raises AlmNonConvergence carrying the report when the outer cap is hit
    with g(y) >= tol; the caller may accept the attached best iterate.

    ``g`` and ``grad_g`` need not check their input: a non-finite anchor or
    accepted step raises NumericError, and a non-finite trial point fails
    the line-search test, so the step is halved.
    """
    anchor = np.asarray(anchor, dtype=float)
    if not np.isfinite(anchor).all():
        raise NumericError("ALM anchor contains non-finite values")
    y = anchor.copy()
    lam = state.multiplier
    mu = state.penalty
    inner_total = 0
    best_y = y.copy()
    # v is g(y) throughout: each accepted line-search trial carries its value
    # into the next inner iteration, the multiplier update and the next
    # outer check, so g is evaluated once per point
    v = float(g(y))
    best_v = v

    def lagrangian(pt, v):
        # squared distance inside the optimization; see module docstring
        return 0.5 * float((pt - anchor) @ (pt - anchor)) + lam * v + 0.5 * mu * v * v

    for outer in range(state.max_outer + 1):
        if v < best_v:
            best_v, best_y = v, y.copy()
        if v < state.tol:
            return y, AlmReport(outer_iterations=outer,
                                inner_iterations=inner_total,
                                final_violation=v,
                                final_distance=float(np.linalg.norm(y - anchor)),
                                final_multiplier=lam, final_penalty=mu,
                                converged=True, point=y)
        if outer == state.max_outer:
            break
        for _ in range(state.max_inner):
            grad = (y - anchor) + (lam + mu * v) * np.asarray(grad_g(y), float)
            gnorm = float(np.linalg.norm(grad))
            if gnorm <= 1e-12:
                break
            inner_total += 1
            # fixed-step descent, halved when the penalty makes it unstable
            step = state.inner_step
            base = lagrangian(y, v)
            for _ in range(40):
                y_new = y - step * grad
                v_new = float(g(y_new))
                if lagrangian(y_new, v_new) <= base + 1e-15:
                    break
                step *= 0.5
            if not np.isfinite(y_new).all():
                raise NumericError("ALM step produced non-finite values")
            y, v = y_new, v_new
        lam = lam + mu * v
        mu = min(state.growth * mu, state.penalty_cap)

    report = AlmReport(outer_iterations=state.max_outer,
                       inner_iterations=inner_total,
                       final_violation=best_v,
                       final_distance=float(np.linalg.norm(best_y - anchor)),
                       final_multiplier=lam, final_penalty=mu,
                       converged=False, point=best_y)
    raise AlmNonConvergence(
        f"violation {best_v:.3e} still above tol {state.tol:.1e} after "
        f"{state.max_outer} outer iterations", report)
