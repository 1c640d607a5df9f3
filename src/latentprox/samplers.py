"""One annealed Langevin chain loop with three modes: unconstrained,
projected-ambient, and the latent proximal-correction sampler.

The proximal mode runs M Langevin steps per annealing level, then corrects
the latent until the decoded violation drops below the constraint tolerance:
the ambient prox-objective gradient (constraint correction residual plus the
anchor pull (1/lambda)(x - x0)) is pulled back through the decoder and
descended, with the correction learning rate as the first step of a level and
a Barzilai-Borwein step after it.  For exact-projection constraint
kinds an optional final ambient projection restores feasibility exactly.

The correction rule has two loop shapes with the same steps and stops:
``_run_correction`` for one chain and ``_correct_rows`` for the violating
rows of a population.  A chain is not run as the one-row case of the rows
loop, because the rows loop's array bookkeeping costs more per iteration
than the point loop; ROADMAP item 3 holds the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import constraints as C
from .alm import AlmState, alm_project
from .decoders import DecoderMap, decode, decode_unchecked, vjp_unchecked
from .dpo import DpoConfig, Simulator, SimulatorWork, dpo_loss_grad
from .errors import (AlmNonConvergence, ConfigError, DivergenceError,
                     ParameterError)
from .schedules import NoiseSchedule
from .scores import ScoreField, score

MODES = ("unconstrained", "projected_ambient", "proximal_latent")
SOLVERS = ("closed_form", "alm", "dpo")
# why a correction level ended: below delta, a stalled gradient, inner_cap
STOP_REASONS = ("converged", "stagnated", "capped")
# a level stagnates once ||g_k|| <= STAGNATION_RATIO * ||g_0||
STAGNATION_RATIO = 1e-2


@dataclass
class TraceRow:
    """One recorded update: a Langevin step or a correction iteration."""

    t: int
    i: int
    phase: str            # "langevin" | "correction"
    gamma: float
    score_norm: float
    violation: float
    dist: float
    z: np.ndarray | None = None   # unconstrained and proximal rows
    x: np.ndarray | None = None   # projected-ambient rows: the chain state


@dataclass
class SampleTrace(SimulatorWork):
    """Complete evidence stream of one chain; the simulator counts stay 0
    unless the correction solver is dpo."""

    rows: list = field(default_factory=list)
    # one (t, iterations, reason) per correction loop that ran an update
    stops: list = field(default_factory=list)
    # (t, iterations, violation) of each loop that stopped at or above delta
    shortfalls: list = field(default_factory=list)
    alm_reports: list = field(default_factory=list)  # (t, i, AlmReport)

    def level_end_rows(self):
        """Pre-correction rows: the last Langevin row of each level."""
        out = []
        for k, row in enumerate(self.rows):
            if row.phase != "langevin":
                continue
            nxt = self.rows[k + 1] if k + 1 < len(self.rows) else None
            if nxt is None or nxt.phase != "langevin" or nxt.t != row.t:
                out.append(row)
        return out

    def level_final_rows(self):
        """The last recorded row of each level (post-correction state)."""
        out = []
        for k, row in enumerate(self.rows):
            nxt = self.rows[k + 1] if k + 1 < len(self.rows) else None
            if nxt is None or nxt.t != row.t:
                out.append(row)
        return out

    def max_score_norm(self) -> float:
        norms = [r.score_norm for r in self.rows if r.phase == "langevin"]
        return float(max(norms)) if norms else 0.0


@dataclass
class SamplerConfig:
    """Everything one chain needs: schedule, score, decoder, constraint."""

    schedule: NoiseSchedule
    score: ScoreField
    mode: str
    decoder: DecoderMap | None = None
    constraint: C.ConstraintSpec | None = None
    solver: str = "closed_form"
    lr: float | None = None          # None: 0.1 * gamma_t per level
    inner_cap: int = 500
    final_projection: bool = True
    noise_scale: float = 1.0
    correct_levels: tuple | list | None = None  # inclusive [t_low, t_high]
    correct_every_step: bool = False
    alm: AlmState | None = None
    simulator: Simulator | None = None
    dpo: DpoConfig | None = None
    # rows keep a copy of the chain state: z in the latent modes, x in
    # projected_ambient; a proximal row never copies its decoded point
    record_vectors: bool = True

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"unknown sampler mode {self.mode!r}")
        if self.solver not in SOLVERS:
            raise ConfigError(f"unknown inner solver {self.solver!r}")
        if self.lr is not None and self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.inner_cap < 1:
            raise ConfigError("inner_cap must be >= 1")
        window = self.correct_levels
        if window is not None and np.shape(window) != (2,):
            raise ConfigError(f"correct_levels must be [t_low, t_high], got "
                              f"{window!r}")
        con = self.constraint
        if self.mode == "proximal_latent":
            if self.decoder is None:
                raise ConfigError("proximal_latent mode requires a decoder")
            if self.decoder.latent_dim != self.score.dim:
                raise ConfigError(
                    f"decoder latent_dim {self.decoder.latent_dim} does not "
                    f"match the score's dim {self.score.dim}")
        if self.mode == "projected_ambient" and (
                con is None or not C.has_exact_projection(con)):
            raise ConfigError("projected_ambient requires a constraint with "
                              "an exact projection")
        if con is not None:
            if con.kind == "porosity" and self.solver != "closed_form":
                raise ConfigError("porosity constraints require the "
                                  "closed_form solver")
            if con.kind == "custom_g" and self.solver == "closed_form":
                raise ConfigError("custom smooth constraints require the alm "
                                  "or dpo solver")
            if self.solver == "closed_form" and not C.has_exact_projection(con):
                raise ConfigError(f"{con.kind} has no exact projection; "
                                  "choose the alm solver")
            if self.solver == "dpo" and (self.simulator is None or self.dpo is None):
                raise ConfigError("dpo solver requires simulator and dpo config")
            if self.solver == "alm" and self.alm is None:
                self.alm = AlmState(tol=con.delta)

    def lr_at(self, t: int) -> float:
        return self.lr if self.lr is not None else 0.1 * self.schedule.gamma_at(t)

    def corrects_at(self, t: int) -> bool:
        """A constraint is set and t lies in the inclusive window, if any."""
        window = self.correct_levels
        return self.constraint is not None and (
            window is None or window[0] <= t <= window[1])


def langevin_step(z, score_field: ScoreField, t: int, gamma: float,
                  rng: np.random.Generator,
                  noise_scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """One step z + gamma * s(z, t) + sqrt(2 gamma) * eps on a point (d,) or
    a batch of rows (n, d).

    Returns the new state and the score s(z, t) the step used; the caller
    checks the new state for finiteness.
    """
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    z = np.asarray(z, dtype=float)
    s = score(score_field, z, t)
    eps = rng.standard_normal(z.shape)
    return z + gamma * s + np.sqrt(2.0 * gamma) * noise_scale * eps, s


_NO_EVALUATION = (float("nan"), float("nan"), None)


def _correction_direction(cfg: SamplerConfig, x: np.ndarray, residual,
                          rng: np.random.Generator, trace: SampleTrace):
    """Ambient gradient of the constraint-correction term at x.

    ``residual`` is x - project_exact(x) from x's evaluation, which is the
    closed-form direction.
    """
    con = cfg.constraint
    if cfg.solver == "closed_form":
        return residual, None
    if cfg.solver == "alm":
        try:
            # alm_project checks x once and each accepted step
            y, rep = alm_project(x, lambda p: C._violation(con, p),
                                 lambda p: C._violation_gradient(con, p),
                                 cfg.alm)
        except AlmNonConvergence as exc:
            y, rep = exc.report.point, exc.report
        return x - y, rep
    # dpo: smoothed tracking-loss gradient through the simulator
    return dpo_loss_grad(cfg.simulator, x, cfg.dpo, rng, trace), None


def _correction_active(cfg: SamplerConfig, t: int, x0: np.ndarray) -> bool:
    if not cfg.corrects_at(t):
        return False
    con = cfg.constraint
    return con.kind != "surrogate_centroid" or C.centroid_trigger(con.model, x0)


def _run_correction(cfg, z, x0, evaluation, t, gamma, rng, trace):
    """Inner loop of the correction algorithm; returns the new latent.

    x0 is decode(cfg.decoder, z), the anchor the prox term pulls toward, and
    ``evaluation`` is C.evaluate(cfg.constraint, x0).  Every decoded point is
    evaluated once; z is finite on entry and checked after every update, so
    the decoder kernels run unchecked.

    Each update moves z along g_k, the pullback of the ambient prox-objective
    gradient.  The first update of a level takes the step ``lr``; later ones
    take the Barzilai-Borwein step s.s / s.y (s the last change of z, y the
    change of g), or keep the previous step when s.y <= 0.  A level that
    starts at or above ``delta`` stops for one of ``STOP_REASONS``, recorded
    in ``trace.stops``: the violation dropped below ``delta``, ||g_k|| fell
    to ``STAGNATION_RATIO`` times ||g_0|| (tested once the update along g_k
    is decoded and evaluated, so no direction is thrown away), or
    ``inner_cap`` updates ran.
    """
    con = cfg.constraint
    dec = cfg.decoder
    v, d, residual = evaluation
    if v < con.delta or not _correction_active(cfg, t, x0):
        return z
    step = cfg.lr_at(t)
    # a dpo direction is a Monte Carlo estimate: the difference of two
    # estimates measures their noise, not curvature, so a secant step from
    # it is meaningless and can fling z far off (it sent a 2-d test chain
    # to |z| ~ 370); dpo keeps the fixed step
    secant = cfg.solver != "dpo"
    lam = con.prox_weight
    i = 0
    # x is always decode(dec, z): the anchor at entry, then the decode that
    # ends each iteration, which the next iteration starts from
    x = x0
    z_prev = g_prev = reason = None
    while reason is None:
        correction, alm_report = _correction_direction(cfg, x, residual, rng,
                                                       trace)
        if alm_report is not None:
            trace.alm_reports.append((t, i + 1, alm_report))
        g = vjp_unchecked(dec, z, correction + (x - x0) / lam)
        g_norm = float(np.linalg.norm(g))
        if z_prev is None:
            g0_norm = g_norm
        elif secant:
            s, y = z - z_prev, g - g_prev
            sy = float(s @ y)
            if sy > 0.0:
                step = float(s @ s) / sy
        z_prev, g_prev = z, g
        z = z - step * g
        if not np.isfinite(z).all():
            raise DivergenceError(f"correction diverged at level {t}")
        i += 1
        x = decode_unchecked(dec, z)
        v, d, residual = C.evaluate(con, x)
        trace.rows.append(TraceRow(
            t=t, i=i, phase="correction", gamma=gamma, score_norm=0.0,
            violation=v, dist=d, z=z.copy() if cfg.record_vectors else None))
        if v < con.delta:
            reason = "converged"
        elif g_norm <= STAGNATION_RATIO * g0_norm:
            reason = "stagnated"
        elif i == cfg.inner_cap:
            reason = "capped"
    trace.stops.append((t, i, reason))
    if v >= con.delta:
        trace.shortfalls.append((t, i, v))
    return z


def _correct_rows(cfg: SamplerConfig, Z: np.ndarray, t: int) -> np.ndarray:
    """``_run_correction``'s rule on every row of a batch of latents Z whose
    decoded violation is at least ``delta``; returns the corrected latents
    (Z itself is not changed).

    Every row is decoded and checked once, then only the violating rows are
    updated.  Each takes the per-chain steps, ``lr`` first and then its own
    secant step s.s / s.y (its previous step when s.y <= 0), and stops for
    the per-chain reasons: its violation drops below ``delta``, its ||g_k||
    falls to ``STAGNATION_RATIO`` times its ||g_0||, or ``inner_cap``
    updates ran.  A row that stops is written back and never touched again,
    so the active set only shrinks; the cap's last update is not decoded.
    The loop runs the closed-form kinds through the unchecked violation and
    projection, records no trace and leaves a non-finite row to its
    caller's check.
    """
    con = cfg.constraint
    dec = cfg.decoder
    X = decode_unchecked(dec, Z)
    idx = np.flatnonzero(C._violation(con, X) >= con.delta)
    if not idx.size:
        return Z
    lam = con.prox_weight
    Z = Z.copy()
    Za, X0 = Z[idx], X[idx]
    Xa = X0
    step = np.full(len(idx), cfg.lr_at(t), dtype=float)
    for k in range(cfg.inner_cap):
        G = vjp_unchecked(dec, Za, (Xa - C._project_exact(con, Xa))
                          + (Xa - X0) / lam)
        g_norm = np.sqrt(np.vecdot(G, G))
        if k == 0:
            g0_norm = g_norm
        else:
            S = Za - Z_prev
            sy = np.vecdot(S, G - G_prev)
            np.divide(np.vecdot(S, S), sy, out=step, where=sy > 0.0)
        Z_prev, G_prev = Za, G
        Za = Za - step[:, None] * G
        if k + 1 == cfg.inner_cap:
            break
        # numpy multiplies a lone row on its vector path, whose low bits can
        # differ from the matrix path that decoded the whole batch; a copy
        # of the row keeps it on the matrix path
        m = len(idx)
        Zd = np.repeat(Za, 2, axis=0) if m == 1 < len(Z) else Za
        Xd = decode_unchecked(dec, Zd)
        keep = ((C._violation(con, Xd) >= con.delta)[:m]
                & (g_norm > STAGNATION_RATIO * g0_norm))
        Xa = Xd[:m]
        if not keep.all():
            Z[idx[~keep]] = Za[~keep]
            idx, Za, Xa, X0 = idx[keep], Za[keep], Xa[keep], X0[keep]
            if not idx.size:
                break
            step, g0_norm = step[keep], g0_norm[keep]
            Z_prev, G_prev = Z_prev[keep], G_prev[keep]
    Z[idx] = Za
    return Z


def sample(cfg: SamplerConfig,
           rng: np.random.Generator) -> tuple[np.ndarray, SampleTrace]:
    """Annealed Langevin dynamics from z_T ~ N(0, I) down to z_0, each step
    followed by the configured mode's step.

    unconstrained returns the latent.  projected_ambient projects the state
    after every step and returns it.  proximal_latent corrects the latent
    per level (or per step) when a constraint is set, and returns its
    decode, optionally projected.
    """
    sched = cfg.schedule
    dec = cfg.decoder
    con = cfg.constraint
    projected = cfg.mode == "projected_ambient"
    corrected = cfg.mode == "proximal_latent" and con is not None
    z = rng.standard_normal(cfg.score.dim)
    trace = SampleTrace()
    for t in range(sched.T, 0, -1):
        gamma = sched.gamma_at(t)
        for i in range(1, sched.inner_steps + 1):
            z, s = langevin_step(z, cfg.score, t, gamma, rng, cfg.noise_scale)
            if not np.isfinite(z).all():
                raise DivergenceError(f"langevin step diverged at level {t}")
            if projected:
                z = C.project_exact(con, z)
                ev = C.evaluate(con, z)
            elif corrected:
                x = decode_unchecked(dec, z)
                ev = C.evaluate(con, x)
            else:
                ev = _NO_EVALUATION
            state = z.copy() if cfg.record_vectors else None
            trace.rows.append(TraceRow(
                t=t, i=i, phase="langevin", gamma=gamma,
                score_norm=float(np.linalg.norm(s)), violation=ev[0],
                dist=ev[1], z=None if projected else state,
                x=state if projected else None))
            if corrected and cfg.correct_every_step:
                z = _run_correction(cfg, z, x, ev, t, gamma, rng, trace)
        if corrected and not cfg.correct_every_step:
            # x and ev belong to the decode of the level's last Langevin step
            z = _run_correction(cfg, z, x, ev, t, gamma, rng, trace)
    if cfg.mode != "proximal_latent":
        return z, trace
    x = decode(dec, z)
    if cfg.final_projection and con is not None and C.has_exact_projection(con):
        x = C.project_exact(con, x)
    return x, trace


def chain_rng(root_seed: int, chain_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one chain of a run."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(chain_index,)))
