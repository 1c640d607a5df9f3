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

# vjp is no longer called here; perfbench/test_perfbench.py checks that its
# tracer wraps this module's binding of it
from .decoders import DecoderMap, decode_rows, vjp, vjp_rows  # noqa: F401
from .errors import (ConfigError, DivergenceError, NumericError,
                     ParameterError, ShapeError, SimulatorError)


@dataclass(frozen=True)
class Simulator:
    """An opaque response map phi: ambient vector -> response vector.

    ``batched`` says that ``fn`` also maps a batch of rows ``(M, d)`` to
    ``(M, response_dim)``, each row as the point call would; the estimator
    then evaluates the M perturbations of every row it estimates at in one
    call, and their phi(x) baselines in one more.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    response_dim: int
    name: str = "custom"
    batched: bool = False


def _shaped(sim: Simulator, out, shape: tuple,
            perturbation_index: int | None = None) -> np.ndarray:
    """``out`` as floats of the expected shape."""
    out = np.asarray(out, dtype=float)
    if out.shape != shape:
        raise SimulatorError(
            f"simulator {sim.name!r} returned shape {out.shape}, expected "
            f"{shape}", perturbation_index)
    return out


def _non_finite(sim: Simulator,
                perturbation_index: int | None = None) -> SimulatorError:
    return SimulatorError(f"simulator {sim.name!r} returned non-finite "
                          "values", perturbation_index)


def evaluate(sim: Simulator, x, perturbation_index: int | None = None) -> np.ndarray:
    out = _shaped(sim, sim.fn(np.asarray(x, dtype=float)), (sim.response_dim,),
                  perturbation_index)
    if not np.isfinite(out).all():
        raise _non_finite(sim, perturbation_index)
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


def _responses(sim: Simulator, P: np.ndarray, work: SimulatorWork,
               errors: list, indexed: bool) -> np.ndarray:
    """phi at the points ``P`` (n, m, d) of each row whose ``errors`` entry
    is None, as ``(n, m, response_dim)``.

    A batched simulator gets the points of all those rows in one call; any
    other simulator is called once per point.  A row whose points come back
    non-finite (or raise) stores the exception in its ``errors`` entry, with
    the first bad point as its ``perturbation_index`` when ``indexed``, and
    reads NaN; the exception of a batched call is every such row's.
    """
    n, m, d = P.shape
    live = [i for i in range(n) if errors[i] is None]
    vals = np.full((n, m, sim.response_dim), np.nan)
    if sim.batched and live:
        work.count(1, len(live) * m)
        try:
            out = _shaped(sim, sim.fn(P[live].reshape(-1, d)),
                          (len(live) * m, sim.response_dim))
        except Exception as exc:  # the call is every live row's
            for i in live:
                errors[i] = exc
            return vals
        vals[live] = out.reshape(len(live), m, sim.response_dim)
        bad = ~np.isfinite(vals[live]).all(axis=2)
        for j in np.flatnonzero(bad.any(axis=1)):
            errors[live[j]] = _non_finite(
                sim, int(bad[j].argmax()) if indexed else None)
            vals[live[j]] = np.nan
        return vals
    for i in live:
        for j in range(m):
            work.count(1, 1)
            try:
                vals[i, j] = evaluate(sim, P[i, j], j if indexed else None)
            except Exception as exc:  # fails this row only
                errors[i] = exc
                vals[i] = np.nan
                break
    return vals


def _estimate_rows(sim: Simulator, X: np.ndarray, cfg: DpoConfig, rngs,
                   work: SimulatorWork, grad: bool = True):
    """Smoothed value at each row of ``X`` (n, d) and, with ``grad``, the
    Monte Carlo Jacobian estimate (n, response_dim, d).

    Row i draws its M perturbations from ``rngs[i]``.  Returns the values,
    the Jacobians (or None) and one error per row: None, or the exception
    that failed the row, whose value and Jacobian then read NaN.
    """
    errors = [None] * len(X)
    eps = np.stack([rng.standard_normal((cfg.M, X.shape[1])) for rng in rngs])
    vals = _responses(sim, X[:, None, :] + cfg.nu * eps, work, errors, True)
    if not grad:
        return vals.mean(axis=1), None, errors
    baseline = _responses(sim, X[:, None, :], work, errors, False)
    # fixed ascending-index reduction keeps each row bit-identical to the
    # estimate at that row alone
    jac = np.einsum("nmr,nmd->nrd", vals - baseline, eps) / cfg.M / cfg.nu
    return vals.mean(axis=1), jac, errors


def _estimate(sim: Simulator, x, cfg: DpoConfig, rng,
              work: SimulatorWork | None = None, grad: bool = True):
    """``_estimate_rows`` at the point x: its value and Jacobian (or None);
    raises the point's error."""
    x = np.asarray(x, dtype=float)
    value, jac, errors = _estimate_rows(
        sim, x[None], cfg, [rng], SimulatorWork() if work is None else work,
        grad)
    if errors[0] is not None:
        raise errors[0]
    return value[0], None if jac is None else jac[0]


def smoothed_value(sim: Simulator, x, cfg: DpoConfig,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Monte Carlo estimate of E[phi(x + nu eps)]; deterministic given seed."""
    return _estimate(sim, x, cfg, _rng_for(cfg, rng), grad=False)[0]


def smoothed_grad(sim: Simulator, x, cfg: DpoConfig,
                  rng: np.random.Generator | None = None) -> np.ndarray:
    """Monte Carlo Jacobian estimate of the smoothed simulator at x.

    Shape (response_dim, dim).
    """
    return _estimate(sim, x, cfg, _rng_for(cfg, rng))[1]


def _check_target(sim: Simulator, cfg: DpoConfig) -> None:
    if cfg.target is None:
        raise ParameterError("dpo config has no target response")
    if cfg.target.shape != (sim.response_dim,):
        raise ParameterError(
            f"target of shape {cfg.target.shape} does not match response_dim "
            f"{sim.response_dim}")


def dpo_loss_grad(sim: Simulator, x, cfg: DpoConfig,
                  rng: np.random.Generator | None = None,
                  trace: SimulatorWork | None = None) -> np.ndarray:
    """Descent direction on the squared tracking loss 0.5||phi_nu(x) - target||^2.

    The residual composed with the smoothed Jacobian estimate.  ``trace``,
    if given, counts the simulator work.
    """
    _check_target(sim, cfg)
    value, jac = _estimate(sim, x, cfg, _rng_for(cfg, rng), trace)
    return jac.T @ (value - cfg.target)


@dataclass
class DesignTrace(SimulatorWork):
    """Tracking-MSE history of a design loop run and the work it took;
    ``steps`` counts latent updates."""

    mse: list = field(default_factory=list)
    steps: int = 0


@dataclass
class DesignRows(SimulatorWork):
    """A block of design chains, one entry per row: the final latents
    ``z``, each row's tracking-MSE history, its latent updates and the
    exception that failed it (or None); the simulator counts are the whole
    block's."""

    z: np.ndarray | None = None
    mse: list = field(default_factory=list)
    steps: np.ndarray | None = None
    errors: list = field(default_factory=list)


def design_rows(Z0, decoder: DecoderMap, sim: Simulator, cfg: DpoConfig,
                seeds, steps: int, step_size: float,
                tol: float = 0.0) -> DesignRows:
    """Iterative latent refinement of each row of ``Z0`` against the
    simulator target.

    Each step decodes the active rows, estimates their tracking-loss
    gradients (one simulator call for all of them when the simulator is
    batched), pulls them back through the decoder and descends.  Row i draws
    step k's perturbations from ``SeedSequence(seeds[i], spawn_key=(k,))``,
    and every kernel gives a row the bits it gives that row alone, so a row
    ends where it would alone.  A row leaves the active set once its MSE
    falls below ``tol``, or when it fails: a non-finite latent, a simulator
    error, or an update that diverges.  Rows still active after ``steps``
    updates get a closing MSE, so their trace covers the final state too.
    """
    if steps < 1:
        raise ParameterError("steps must be >= 1")
    _check_target(sim, cfg)
    Z = np.array(Z0, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != decoder.latent_dim:
        raise ShapeError(f"latents of shape {Z.shape}, expected "
                         f"(rows, {decoder.latent_dim})")
    n = len(Z)
    out = DesignRows(z=Z, mse=[[] for _ in range(n)],
                     steps=np.zeros(n, dtype=int), errors=[None] * n)
    finite = np.isfinite(Z).all(axis=1)
    for i in np.flatnonzero(~finite):
        out.errors[i] = NumericError("latent input contains non-finite values")
    active = np.flatnonzero(finite)
    for k in range(steps + 1):
        if not active.size:
            break
        closing = k == steps
        # fresh perturbations per step, reproducible from the row's seed
        rngs = [np.random.default_rng(np.random.SeedSequence(
            entropy=seeds[i], spawn_key=(k,))) for i in active]
        value, jac, errors = _estimate_rows(
            sim, decode_rows(decoder, Z[active]), cfg, rngs, out,
            grad=not closing)
        ok = np.array([exc is None for exc in errors])
        for i, exc in zip(active, errors):
            if exc is not None:
                out.errors[i] = exc
        active = active[ok]
        residual = value[ok] - cfg.target
        mse = np.mean(residual ** 2, axis=1)
        for i, v in zip(active, mse.tolist()):
            out.mse[i].append(v)
        if closing:
            break
        going = ~(mse < tol)
        active, residual = active[going], residual[going]
        g = np.matvec(jac[ok][going].mT, residual)
        z = Z[active] - step_size * vjp_rows(decoder, Z[active], g)
        Z[active] = z
        out.steps[active] += 1
        diverged = ~np.isfinite(z).all(axis=1)
        for i in active[diverged]:
            out.errors[i] = DivergenceError(
                f"latent diverged at design step {k}", step=k)
        active = active[~diverged]
    return out


def design_loop(z0, decoder: DecoderMap, sim: Simulator, cfg: DpoConfig,
                steps: int, step_size: float,
                tol: float = 0.0) -> tuple[np.ndarray, DesignTrace]:
    """Iterative latent refinement against a simulator target: the one row
    ``z0`` of ``design_rows``, seeded by ``cfg.seed``; raises the error that
    fails it.

    Each step decodes, estimates the tracking-loss gradient with fresh seeded
    perturbations, pulls it back through the decoder, and descends.  Stops
    early once the tracking MSE falls below ``tol``.
    """
    rows = design_rows(np.asarray(z0, dtype=float)[None], decoder, sim, cfg,
                       [cfg.seed], steps, step_size, tol)
    if rows.errors[0] is not None:
        raise rows.errors[0]
    return rows.z[0], DesignTrace(
        mse=rows.mse[0], steps=int(rows.steps[0]),
        simulator_evaluations=rows.simulator_evaluations,
        simulator_calls=rows.simulator_calls)


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


# ---------------------------------------------------------------------------
# The external solver: a child process per call


STDERR_TAIL = 2000  # characters of a child's stderr quoted in its error


def external_simulator(argv, response_dim: int, timeout: float = 60.0,
                       name: str = "external") -> Simulator:
    """A batched simulator that runs ``argv`` as one child process per call.

    Protocol: the child reads one point per line, its coordinates as
    ``repr(float)`` text, until the end of its input, writes one line of
    ``response_dim`` numbers per point and exits 0.  ``timeout`` bounds the
    whole call: a child still running then is killed and reaped.  That, a
    non-zero exit and a reply that is not numbers raise ``SimulatorError``
    quoting the tail of the child's stderr; a child that cannot be started
    raises it naming ``argv[0]``.
    """
    if not timeout > 0:
        raise ParameterError("external simulator timeout must be positive")
    argv = list(argv)
    if not argv:
        raise ParameterError("external simulator argv names no program")

    def fail(what: str, stderr: bytes | None):
        tail = (stderr or b"").decode(errors="replace")[-STDERR_TAIL:]
        raise SimulatorError(f"external simulator {name!r} {what}; stderr: "
                             f"{tail.strip()!r}")

    def fn(x):
        X = np.asarray(x, dtype=float)
        text = "".join(" ".join(map(repr, row)) + "\n"
                       for row in np.atleast_2d(X).tolist())
        try:
            done = subprocess.run(argv, input=text.encode(),
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            fail(f"still ran after {timeout:g} s", exc.stderr)
        except OSError as exc:
            raise SimulatorError(f"external simulator {name!r} cannot start "
                                 f"{argv[0]!r}: {exc}") from None
        if done.returncode != 0:
            fail(f"exited with code {done.returncode}", done.stderr)
        try:
            out = np.array([[float(tok) for tok in line.split()] for line in
                            done.stdout.decode(errors="replace").splitlines()])
        except ValueError as exc:
            fail(f"sent a reply that is not rows of numbers ({exc})",
                 done.stderr)
        # a point gets one row back; _shaped checks the shape
        return out if X.ndim == 2 else out.reshape(-1)

    return Simulator(fn=fn, response_dim=response_dim, name=name,
                     batched=True)
