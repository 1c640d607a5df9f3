"""Annealing schedules and the forward (noising) process."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

ABAR_END_CAP = 0.05


@dataclass(frozen=True)
class NoiseSchedule:
    """Annealing schedule over levels t = T..1 plus a data level t = 0.

    ``abar[t]`` is the retained signal fraction at level t (abar[0] = 1,
    non-increasing in t).  ``gamma[t - 1]`` is the Langevin step size used
    inside level t; step sizes shrink as t decreases toward 0.
    ``inner_steps`` is the number of Langevin iterations per level.
    """

    T: int
    abar: np.ndarray
    gamma: np.ndarray
    inner_steps: int = 1

    def __post_init__(self):
        abar = np.asarray(self.abar, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        object.__setattr__(self, "abar", abar)
        object.__setattr__(self, "gamma", gamma)
        if self.T < 0:
            raise ParameterError("T must be non-negative")
        if self.inner_steps < 1:
            raise ParameterError("inner_steps must be >= 1")
        if abar.shape != (self.T + 1,):
            raise ParameterError(
                f"abar must have length T+1={self.T + 1}, got {abar.shape}")
        if abs(abar[0] - 1.0) > 1e-12:
            raise ParameterError("abar[0] must equal 1 within 1e-12")
        if np.any(abar <= 0.0) or np.any(abar > 1.0):
            raise ParameterError("abar values must lie in (0, 1]")
        if np.any(np.diff(abar) > 0.0):
            raise ParameterError("abar must be non-increasing in t")
        # T = 0 is a degenerate test schedule (no levels); the terminal-noise
        # requirement only applies to schedules that anneal.
        if self.T >= 1 and abar[-1] > ABAR_END_CAP:
            raise ParameterError(f"abar[T] must be <= {ABAR_END_CAP}")
        if gamma.shape != (self.T,):
            raise ParameterError(
                f"gamma must have length T={self.T}, got {gamma.shape}")
        if self.T >= 1:
            if np.any(gamma <= 0.0):
                raise ParameterError("gamma values must be positive")
            if np.any(np.diff(gamma) < 0.0):
                raise ParameterError(
                    "gamma must be non-increasing as t decreases toward 0")

    def abar_at(self, t: int) -> float:
        if not 0 <= t <= self.T:
            raise IndexError(f"level t={t} outside schedule range 0..{self.T}")
        return float(self.abar[t])

    def gamma_at(self, t: int) -> float:
        if not 1 <= t <= self.T:
            raise IndexError(f"level t={t} outside step range 1..{self.T}")
        return float(self.gamma[t - 1])

    @property
    def gamma_min(self) -> float:
        return float(self.gamma[0])


def make_schedule(T: int, abar_end: float, gamma_max: float,
                  gamma_min: float, M: int = 1) -> NoiseSchedule:
    """Build a schedule with geometric interpolation for both abar and gamma.

    abar runs from 1 at t=0 to ``abar_end`` at t=T; gamma runs from
    ``gamma_max`` at t=T down to ``gamma_min`` at t=1.
    """
    if T < 1:
        raise ParameterError("T must be >= 1")
    if M < 1:
        raise ParameterError("M must be >= 1")
    if not 0.0 < abar_end <= ABAR_END_CAP:
        raise ParameterError(
            f"require 0 < abar_end <= {ABAR_END_CAP} (abar_end={abar_end})")
    if not 0.0 < gamma_min <= gamma_max:
        raise ParameterError(
            f"require 0 < gamma_min <= gamma_max (gamma_min={gamma_min}, "
            f"gamma_max={gamma_max})")

    abar = abar_end ** (np.arange(T + 1) / T)
    abar[-1] = abar_end
    if T == 1:
        gamma = np.array([gamma_max])
    else:
        gamma = gamma_min * (gamma_max / gamma_min) ** (np.arange(T) / (T - 1))
        gamma[0] = gamma_min
        gamma[-1] = gamma_max
    return NoiseSchedule(T=T, abar=abar, gamma=gamma, inner_steps=M)


def noised_sample(x0: np.ndarray, abar, eps: np.ndarray) -> np.ndarray:
    """The forward-process formula sqrt(abar) x0 + sqrt(1 - abar) eps.

    ``abar`` is a level's retained fraction, or a column of them that
    broadcasts over a batch of rows.
    """
    return np.sqrt(abar) * x0 + np.sqrt(1.0 - abar) * eps
