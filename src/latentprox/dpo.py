"""Gaussian-smoothed zeroth-order gradients through black-box simulators.

A non-differentiable simulator phi is replaced by its smoothed expectation
phi_nu(x) = E[phi(x + nu eps)], whose gradient admits the Monte Carlo
estimator (1/(M nu)) sum phi(x + nu eps_m) eps_m.  A phi(x) baseline is
subtracted inside the sum: E[phi(x) eps] = 0 keeps the estimator unbiased and
the variance drops sharply at the small M the design loop uses.
"""

from __future__ import annotations

import inspect
import os
import selectors
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .decoders import DecoderMap, decode, vjp
from .errors import (ConfigError, DivergenceError, ParameterError,
                     SimulatorError)


@dataclass(frozen=True)
class Simulator:
    """An opaque response map phi: ambient vector -> response vector.

    ``batched`` says that ``fn`` also maps a batch of rows ``(M, d)`` to
    ``(M, response_dim)``, each row as the point call would; the estimator
    then evaluates all M perturbations in one call.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    response_dim: int
    name: str = "custom"
    batched: bool = False


def _checked(sim: Simulator, out, shape: tuple,
             perturbation_index: int | None = None) -> np.ndarray:
    """``out`` as floats of the expected shape, with every value finite.

    A non-finite row of a batch names the first such row as its
    ``perturbation_index``.
    """
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise SimulatorError(
            f"simulator {sim.name!r} returned shape {out.shape}, expected "
            f"{shape}", perturbation_index)
    bad = ~np.isfinite(out)
    if bad.any():
        if out.ndim == 2:
            perturbation_index = int(bad.any(axis=1).argmax())
        raise SimulatorError(
            f"simulator {sim.name!r} returned non-finite values",
            perturbation_index)
    return out


def evaluate(sim: Simulator, x, perturbation_index: int | None = None) -> np.ndarray:
    return _checked(sim, sim.fn(np.asarray(x, dtype=float)),
                    (sim.response_dim,), perturbation_index)


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


@dataclass
class SimulatorWork:
    """Simulator work of a run's chain: ``simulator_evaluations`` counts the
    points the simulator evaluated and ``simulator_calls`` the calls into its
    ``fn``."""

    simulator_evaluations: int = 0
    simulator_calls: int = 0

    def count(self, calls: int, evaluations: int) -> None:
        self.simulator_calls += calls
        self.simulator_evaluations += evaluations


def _perturbed(sim: Simulator, x: np.ndarray, cfg: DpoConfig, rng,
               trace: SimulatorWork | None = None):
    """The M perturbations eps_m and the responses phi(x + nu eps_m).

    A batched simulator gets all M points in one call; any other simulator
    is called once per point.
    """
    eps = rng.standard_normal((cfg.M, x.size))
    points = x + cfg.nu * eps
    if sim.batched:
        vals = _checked(sim, sim.fn(points), (cfg.M, sim.response_dim))
        calls = 1
    else:
        vals = np.empty((cfg.M, sim.response_dim))
        for m in range(cfg.M):
            vals[m] = evaluate(sim, points[m], perturbation_index=m)
        calls = cfg.M
    if trace is not None:
        trace.count(calls, cfg.M)
    return eps, vals


def smoothed_value(sim: Simulator, x, cfg: DpoConfig,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Monte Carlo estimate of E[phi(x + nu eps)]; deterministic given seed."""
    x = np.asarray(x, dtype=float)
    _, vals = _perturbed(sim, x, cfg, _rng_for(cfg, rng))
    return vals.mean(axis=0)


def _value_and_grad(sim: Simulator, x: np.ndarray, cfg: DpoConfig, rng,
                    trace: SimulatorWork | None = None):
    eps, vals = _perturbed(sim, x, cfg, rng, trace)
    baseline = evaluate(sim, x)
    if trace is not None:
        trace.count(1, 1)
    # fixed ascending-index reduction keeps results bit-identical
    jac = np.einsum("mr,md->rd", vals - baseline, eps) / cfg.M / cfg.nu
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
                  rng: np.random.Generator | None = None,
                  trace: SimulatorWork | None = None) -> np.ndarray:
    """Descent direction on the squared tracking loss 0.5||phi_nu(x) - target||^2.

    The residual composed with the smoothed Jacobian estimate.  ``trace``,
    if given, counts the simulator work.
    """
    x = np.asarray(x, dtype=float)
    if cfg.target is None:
        raise ParameterError("dpo config has no target response")
    if cfg.target.shape != (sim.response_dim,):
        raise ParameterError(
            f"target of shape {cfg.target.shape} does not match response_dim "
            f"{sim.response_dim}")
    value, jac = _value_and_grad(sim, x, cfg, _rng_for(cfg, rng), trace)
    return jac.T @ (value - cfg.target)


@dataclass
class DesignTrace(SimulatorWork):
    """Tracking-MSE history of a design loop run and the work it took;
    ``steps`` counts latent updates."""

    mse: list = field(default_factory=list)
    steps: int = 0


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
        value, jac = _value_and_grad(sim, x, cfg, rng, trace)
        residual = value - cfg.target
        mse = float(np.mean(residual ** 2))
        trace.mse.append(mse)
        if mse < tol:
            return z, trace
        z = z - step_size * vjp(decoder, z, jac.T @ residual)
        trace.steps += 1
        if not np.isfinite(z).all():
            raise DivergenceError(f"latent diverged at design step {k}", step=k)
    # closing MSE so the trace covers the final state too
    x = decode(decoder, z)
    rng = np.random.default_rng(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(steps,)))
    _, vals = _perturbed(sim, x, cfg, rng, trace)
    value = vals.mean(axis=0)
    trace.mse.append(float(np.mean((value - cfg.target) ** 2)))
    return z, trace


# ---------------------------------------------------------------------------
# Synthetic simulators (stand-ins for the external solver)


# Each fn takes a point (d,) or a batch of rows (M, d).  np.matvec runs the
# point's matrix-vector product once per row, so a batch row equals the point
# call bit for bit; X @ A.T and an einsum round some rows differently.


def linear_simulator(matrix, bias=None, name: str = "linear") -> Simulator:
    A = np.asarray(matrix, dtype=float)
    b = np.zeros(A.shape[0]) if bias is None else np.asarray(bias, float)
    return Simulator(fn=lambda x: np.matvec(A, x) + b,
                     response_dim=A.shape[0], name=name, batched=True)


def saturating_simulator(matrix, scale: float = 2.0,
                         name: str = "saturating") -> Simulator:
    """Elementwise smooth saturation of a linear response."""
    A = np.asarray(matrix, dtype=float)
    s = float(scale)
    return Simulator(fn=lambda x: s * np.tanh(np.matvec(A, x) / s),
                     response_dim=A.shape[0], name=name, batched=True)


def piecewise_simulator(matrix, slope: float = 0.3,
                        name: str = "piecewise") -> Simulator:
    """Non-differentiable kinked response max(Ax, slope * Ax)."""
    A = np.asarray(matrix, dtype=float)
    def fn(x):
        v = np.matvec(A, x)
        return np.maximum(v, slope * v)
    return Simulator(fn=fn, response_dim=A.shape[0], name=name, batched=True)


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
    decimal text, flushes, and reads one line of response values back.  A
    reply that takes longer than ``timeout`` seconds, or a child that closes
    its output, kills and reaps the child and raises ``SimulatorError`` with
    its exit code and the tail of its stderr.  Stderr goes to a temporary
    file, read once the child has exited, so a chatty child cannot block on
    a full pipe.
    """

    STDERR_TAIL = 2000  # characters of stderr quoted in the error

    def __init__(self, argv: list[str], response_dim: int,
                 name: str = "external", timeout: float = 60.0):
        if not timeout > 0:
            raise ParameterError("external simulator timeout must be positive")
        self.response_dim = response_dim
        self.name = name
        self.timeout = float(timeout)
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                          stdout=subprocess.PIPE,
                                          stderr=self._stderr)
        except OSError:
            self._stderr.close()
            raise
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._proc.stdout, selectors.EVENT_READ)
        self._pending = b""

    def _fail(self, what: str):
        """Kill and reap the child, then raise with its exit code and stderr."""
        if self._proc.poll() is None:
            self._proc.kill()
        code = self._proc.wait()
        self._stderr.seek(0)
        tail = self._stderr.read().decode(errors="replace")[-self.STDERR_TAIL:]
        raise SimulatorError(f"external simulator {self.name!r} {what}; exit "
                             f"code {code}; stderr: {tail.strip()!r}")

    def _readline(self) -> bytes:
        deadline = time.monotonic() + self.timeout
        while b"\n" not in self._pending:
            left = deadline - time.monotonic()
            if left <= 0 or not self._selector.select(left):
                self._fail(f"sent no reply within {self.timeout:g} s")
            chunk = os.read(self._proc.stdout.fileno(), 65536)
            if not chunk:
                self._fail("closed its output")
            self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return line

    def __call__(self, x: np.ndarray) -> np.ndarray:
        line = " ".join(repr(float(v)) for v in np.asarray(x, float))
        try:
            self._proc.stdin.write((line + "\n").encode())
            self._proc.stdin.flush()
        except OSError as exc:
            self._fail(f"pipe failure: {exc}")
        reply = self._readline().decode(errors="replace")
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
        try:
            self._proc.stdin.close()
        except OSError:
            pass  # the child is gone; the wait below reaps it
        try:
            self._proc.wait(timeout=self.timeout)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        finally:
            self._selector.close()
            self._proc.stdout.close()
            self._stderr.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
