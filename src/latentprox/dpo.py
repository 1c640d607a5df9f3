"""Gaussian-smoothed zeroth-order gradients through black-box simulators.

A non-differentiable simulator phi is replaced by its smoothed expectation
phi_nu(x) = E[phi(x + nu eps)], whose gradient admits the Monte Carlo
estimator (1/(M nu)) sum phi(x + nu eps_m) eps_m.  A phi(x) baseline is
subtracted inside the sum: E[phi(x) eps] = 0 keeps the estimator unbiased and
the variance drops sharply at the small M the design loop uses.
"""

from __future__ import annotations

import inspect
import subprocess
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decoders import DecoderMap, decode, vjp
from .errors import (ConfigError, DivergenceError, ParameterError,
                     SimulatorError)


@dataclass(frozen=True)
class Simulator:
    """An opaque response map phi: ambient vector -> response vector."""

    fn: Callable[[np.ndarray], np.ndarray]
    response_dim: int
    name: str = "custom"


def evaluate(sim: Simulator, x, perturbation_index: int | None = None) -> np.ndarray:
    out = np.asarray(sim.fn(np.asarray(x, dtype=float)), dtype=float)
    if out.shape != (sim.response_dim,):
        raise SimulatorError(
            f"simulator {sim.name!r} returned shape {out.shape}, expected "
            f"({sim.response_dim},)", perturbation_index)
    if not np.isfinite(out).all():
        raise SimulatorError(
            f"simulator {sim.name!r} returned non-finite values",
            perturbation_index)
    return out


@dataclass(frozen=True)
class DpoConfig:
    """Smoothing scale, perturbation count, and target for the DPO estimator."""

    nu: float
    M: int
    seed: int = 0
    target: np.ndarray | None = None

    def __post_init__(self):
        if not self.nu > 0:
            raise ParameterError("smoothing scale nu must be positive")
        if self.M < 1:
            raise ParameterError("perturbation count M must be >= 1")
        if self.target is not None:
            object.__setattr__(self, "target",
                               np.asarray(self.target, dtype=float))


def _rng_for(cfg: DpoConfig, rng: np.random.Generator | None):
    return rng if rng is not None else np.random.default_rng(cfg.seed)


def _perturbed(sim: Simulator, x: np.ndarray, cfg: DpoConfig, rng):
    """The M perturbations eps_m and the responses phi(x + nu eps_m)."""
    eps = rng.standard_normal((cfg.M, x.size))
    vals = np.empty((cfg.M, sim.response_dim))
    for m in range(cfg.M):
        vals[m] = evaluate(sim, x + cfg.nu * eps[m], perturbation_index=m)
    return eps, vals


def smoothed_value(sim: Simulator, x, cfg: DpoConfig,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Monte Carlo estimate of E[phi(x + nu eps)]; deterministic given seed."""
    x = np.asarray(x, dtype=float)
    _, vals = _perturbed(sim, x, cfg, _rng_for(cfg, rng))
    return vals.mean(axis=0)


def _value_and_grad(sim: Simulator, x: np.ndarray, cfg: DpoConfig, rng):
    eps, vals = _perturbed(sim, x, cfg, rng)
    # fixed ascending-index reduction keeps results bit-identical
    jac = np.einsum("mr,md->rd", vals - evaluate(sim, x), eps) / cfg.M / cfg.nu
    return vals.mean(axis=0), jac


def smoothed_grad(sim: Simulator, x, cfg: DpoConfig,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Monte Carlo Jacobian estimate of the smoothed simulator at x.

    Shape (response_dim, dim).
    """
    x = np.asarray(x, dtype=float)
    _, jac = _value_and_grad(sim, x, cfg, _rng_for(cfg, rng))
    return jac


def dpo_loss_grad(sim: Simulator, x, cfg: DpoConfig,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Descent direction on the squared tracking loss 0.5||phi_nu(x) - target||^2.

    The residual composed with the smoothed Jacobian estimate.
    """
    x = np.asarray(x, dtype=float)
    if cfg.target is None:
        raise ParameterError("dpo config has no target response")
    if cfg.target.shape != (sim.response_dim,):
        raise ParameterError(
            f"target of shape {cfg.target.shape} does not match response_dim "
            f"{sim.response_dim}")
    value, jac = _value_and_grad(sim, x, cfg, _rng_for(cfg, rng))
    return jac.T @ (value - cfg.target)


@dataclass
class DesignTrace:
    """Tracking-MSE history of a design loop run."""

    mse: list = field(default_factory=list)


def design_loop(z0, decoder: DecoderMap, sim: Simulator, cfg: DpoConfig,
                steps: int, step_size: float,
                tol: float = 0.0) -> tuple[np.ndarray, DesignTrace]:
    """Iterative latent refinement against a simulator target.

    Each step decodes, estimates the tracking-loss gradient with fresh seeded
    perturbations, pulls it back through the decoder, and descends.  Stops
    early once the tracking MSE falls below ``tol``.
    """
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    if cfg.target is None:
        raise ParameterError("design loop requires a target response")
    z = np.asarray(z0, dtype=float).copy()
    trace = DesignTrace()
    for k in range(steps):
        # fresh perturbations per step, reproducible from the config seed
        rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed,
                                                           spawn_key=(k,)))
        x = decode(decoder, z)
        value, jac = _value_and_grad(sim, x, cfg, rng)
        residual = value - cfg.target
        mse = float(np.mean(residual ** 2))
        trace.mse.append(mse)
        if mse < tol:
            return z, trace
        z = z - step_size * vjp(decoder, z, jac.T @ residual)
        if not np.isfinite(z).all():
            raise DivergenceError(f"latent diverged at design step {k}", step=k)
    # closing MSE so the trace covers the final state too
    x = decode(decoder, z)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(steps,)))
    value = smoothed_value(sim, x, cfg, rng)
    trace.mse.append(float(np.mean((value - cfg.target) ** 2)))
    return z, trace


# ---------------------------------------------------------------------------
# Synthetic simulators (stand-ins for the external solver)


def linear_simulator(matrix, bias=None, name: str = "linear") -> Simulator:
    A = np.asarray(matrix, dtype=float)
    b = np.zeros(A.shape[0]) if bias is None else np.asarray(bias, float)
    return Simulator(fn=lambda x: A @ x + b, response_dim=A.shape[0], name=name)


def saturating_simulator(matrix, scale: float = 2.0,
                         name: str = "saturating") -> Simulator:
    """Elementwise smooth saturation of a linear response."""
    A = np.asarray(matrix, dtype=float)
    s = float(scale)
    return Simulator(fn=lambda x: s * np.tanh((A @ x) / s),
                     response_dim=A.shape[0], name=name)


def piecewise_simulator(matrix, slope: float = 0.3,
                        name: str = "piecewise") -> Simulator:
    """Non-differentiable kinked response max(Ax, slope * Ax)."""
    A = np.asarray(matrix, dtype=float)
    def fn(x):
        v = A @ x
        return np.maximum(v, slope * v)
    return Simulator(fn=fn, response_dim=A.shape[0], name=name)


_FACTORIES = {
    "linear": linear_simulator,
    "saturating": saturating_simulator,
    "piecewise": piecewise_simulator,
}


def make_simulator(name: str, **params) -> Simulator:
    """Named-factory lookup used by the run configuration.

    A missing ``matrix`` or a parameter the simulator does not take is a
    ``ConfigError``.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ConfigError(f"unknown simulator {name!r}; "
                          f"known: {sorted(_FACTORIES)}") from None
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as exc:
        raise ConfigError(f"simulator {name!r}: {exc}") from None
    return factory(**params)


class ExternalProcessSimulator:
    """Adapter that evaluates phi in a child process over stdin/stdout.

    Protocol: one evaluation per line; the parent writes the input vector as
    decimal text, flushes, and reads one line of response values back.
    """

    def __init__(self, argv: list[str], response_dim: int,
                 name: str = "external"):
        self.response_dim = response_dim
        self.name = name
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        line = " ".join(repr(float(v)) for v in np.asarray(x, float))
        try:
            self._proc.stdin.write(line + "\n")
            self._proc.stdin.flush()
            reply = self._proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise SimulatorError(f"external simulator {self.name!r} pipe "
                                 f"failure: {exc}") from exc
        if not reply:
            raise SimulatorError(
                f"external simulator {self.name!r} closed its output")
        try:
            return np.array([float(tok) for tok in reply.split()])
        except ValueError as exc:
            raise SimulatorError(
                f"external simulator {self.name!r} sent unparseable line "
                f"{reply!r}") from exc

    def as_simulator(self) -> Simulator:
        return Simulator(fn=self, response_dim=self.response_dim,
                         name=self.name)

    def close(self):
        if self._proc.stdin:
            self._proc.stdin.close()
        self._proc.wait(timeout=10)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
