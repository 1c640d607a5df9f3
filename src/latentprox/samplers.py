"""One annealed Langevin chain loop with three modes: unconstrained,
projected-ambient, and the latent proximal-correction sampler.

The proximal mode runs M Langevin steps per annealing level, then corrects the
latent until the decoded violation drops below the constraint tolerance: the
ambient prox-objective gradient (constraint correction residual plus the
anchor pull (1/lambda)(x - x0)) is pulled back through the decoder and
descended with the Barzilai-Borwein step (Barzilai & Borwein, *IMA
J. Numer. Anal.* 8, 1988).  A chain's step carries from one correction to the
next (Raydan, *SIAM J. Optim.* 7, 1997): a level's first update takes the step
the chain's previous correction ended with, and only the chain's first
correction takes the correction learning rate.  Consecutive levels correct
nearly the same decode, and a restart from the learning rate let the secant
steps after it overshoot.  The dpo solver keeps the fixed learning rate on
every update.  A level stops once the violation is below the tolerance, once
the gradient has stalled, or, from its second update on, once an update cuts
the distance to the set by less than ``PROGRESS_RATIO`` of the distance before
it; an update that stops it by raising that distance by more than
``PROGRESS_RATIO`` is undone, so a secant step that overshoots never becomes
the level's result.  The anchor pull can keep the prox minimizer outside the
set (for a fixed set of porosity flips it is x0 + lambda/(1 + lambda) (P(x0) -
x0); Parikh & Boyd, *Proximal Algorithms*, 2014), and a level would then spend
most of its updates moving the decode a few thousandths closer.  For
exact-projection constraint kinds an optional final ambient projection
restores feasibility exactly.

One chain loop, ``sample_chains``, runs a run's chains level by level as
the rows of a block: each step's Langevin update, decode, score norms and,
for the ``constraints.ROW_EXACT_KINDS``, evaluation are batched on kernels
that give each row its point's bits, and each chain's trace row and
correction take the point functions.  ``sample`` is its one-row case.

The correction rule has two loop shapes with the same steps and stops:
``_run_correction`` for one chain, which ``sample_chains`` calls row by
row, and ``_correct_rows`` for the violating rows of a population.  A
chain's correction is not run as the one-row case of the rows loop, because
the rows loop's array bookkeeping costs more per iteration than the point
loop; ROADMAP's "Decided, not open" record holds the measurements and the
decision to keep both shapes.  The point form of the secant step is
``alm.secant_step``, which the ALM inner loop takes too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import constraints as C
from .alm import AlmState, alm_project, secant_step
from .decoders import (DecoderMap, _matmul, decode, decode_rows,
                       decode_unchecked, vjp_unchecked)
from .dpo import (DpoConfig, Simulator, SimulatorWork, _check_target,
                  dpo_loss_grad)
from .errors import ConfigError, DivergenceError, ParameterError
from .schedules import NoiseSchedule
from .scores import ScoreField, score

MODES = ("unconstrained", "projected_ambient", "proximal_latent")
SOLVERS = ("closed_form", "alm", "dpo")
# why a correction level ended: below delta, a stalled gradient, inner_cap
STOP_REASONS = ("converged", "stagnated", "capped")
# a level stagnates once ||g_k|| <= STAGNATION_RATIO * ||g_0||
STAGNATION_RATIO = 1e-2
# or, from its second update on, once an update cuts dist by less than
# PROGRESS_RATIO times the dist before it
PROGRESS_RATIO = 1e-2
# the fewest live rows whose decodes a block step evaluates in one call, for
# each kind in C.ROW_EXACT_KINDS; fewer rows take their point calls, which
# then cost less.  A porosity batch pays for its partition and masks over
# the whole grid: on the perfbench porosity config, with the rows call
# against the point calls interleaved in one process, blocks of 2, 4, 6, 8
# and 12 chains ran 10.9%, 2.5%, 1.2% and 0.1% slower and 1.3% faster per
# chain.  The centroid's blocks of 2, 3 and 4 ran 2.9%, 10% and 14% faster,
# and the closed forms' rows calls cost no more than two point calls
ROWS_EVALUATED_FROM = {"l2_ball": 2, "box": 2, "surrogate_centroid": 2,
                       "porosity": 12}


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
    z: np.ndarray | None = None   # the chain state, where the score is read


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
    # the decode the final projection took; None where none ran
    unprojected: np.ndarray | None = None

    # a level's rows are contiguous and run from level T down, so a dict
    # keyed by level keeps the last row of each level, in level order

    def level_end_rows(self):
        """The last Langevin row of each level, one row per level: the
        state the level-end correction starts from."""
        ends = {r.t: r for r in self.rows if r.phase == "langevin"}
        return list(ends.values())

    def level_final_rows(self):
        """The last recorded row of each level (post-correction state)."""
        return list({r.t: r for r in self.rows}.values())

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
    # a chain's first correction step; None: 0.1 * gamma_t at that level
    # (the dpo solver takes it on every update, so 0.1 * gamma_t per level)
    lr: float | None = None
    inner_cap: int = 500
    final_projection: bool = True
    noise_scale: float = 1.0
    correct_levels: tuple | list | None = None  # inclusive [t_low, t_high]
    correct_every_step: bool = False
    alm: AlmState | None = None
    simulator: Simulator | None = None
    dpo: DpoConfig | None = None
    # rows keep a copy of the chain state, the latent in proximal_latent;
    # a proximal row never copies its decoded point
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
        if window is not None and window[0] > window[1]:
            raise ConfigError(f"correct_levels [t_low, t_high] must have "
                              f"t_low <= t_high, got {window!r}")
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
            self._check_point_dim(con)
            if con.kind == "porosity" and self.solver != "closed_form":
                raise ConfigError("porosity constraints require the "
                                  "closed_form solver")
            if self.solver == "closed_form" and not C.has_exact_projection(con):
                raise ConfigError(f"{con.kind} has no exact projection; "
                                  "choose the alm or dpo solver")
            if self.solver == "dpo":
                if self.simulator is None or self.dpo is None:
                    raise ConfigError("dpo solver requires simulator and dpo "
                                      "config")
                _check_target(self.simulator, self.dpo)
            if self.solver == "alm" and self.alm is None:
                self.alm = AlmState(tol=con.delta)

    def _check_point_dim(self, con: C.ConstraintSpec) -> None:
        """The constraint takes the points the mode checks: decodes in
        proximal_latent, chain states in projected_ambient."""
        if self.mode == "proximal_latent":
            where, dim = "decoder's ambient_dim", self.decoder.ambient_dim
        elif self.mode == "projected_ambient":
            where, dim = "score's dim", self.score.dim
        else:
            return
        need = C.point_dim(con)
        if need is not None and need != dim:
            raise ConfigError(f"{con.kind} constraint takes {need}-d points, "
                              f"but the {where} is {dim}")

    def lr_at(self, t: int) -> float:
        return self.lr if self.lr is not None else 0.1 * self.schedule.gamma_at(t)

    def corrects_at(self, t: int) -> bool:
        """A constraint is set and t lies in the inclusive window, if any."""
        window = self.correct_levels
        return self.constraint is not None and (
            window is None or window[0] <= t <= window[1])


def langevin_step(z, score_field: ScoreField, t: int, gamma: float,
                  eps: np.ndarray, noise_scale: float = 1.0,
                  product=_matmul) -> tuple[np.ndarray, np.ndarray]:
    """One step z + gamma * s(z, t) + sqrt(2 gamma) * eps on a point (d,) or
    a batch of rows (n, d), with the noise ``eps`` of z's shape drawn by
    the caller.  ``product`` is the score's (``scores.score``):
    ``np.matvec`` gives each row of a batch its point's bits.

    Returns the new state and the score s(z, t) the step used; the caller
    checks the new state for finiteness.
    """
    if gamma <= 0:
        raise ParameterError("gamma must be positive")
    z = np.asarray(z, dtype=float)
    s = score(score_field, z, t, product)
    return z + gamma * s + math.sqrt(2.0 * gamma) * noise_scale * eps, s


_NO_EVALUATION = (float("nan"), float("nan"), None)
_PROJECTED = (0.0, 0.0, None)


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
        # alm_project checks x once and each accepted step; an unconverged
        # projection's best iterate is used and counted in alm_unconverged
        y, rep = alm_project(
            x, lambda p: C._violation_and_gradient(con, p), cfg.alm)
        return x - y, rep
    # dpo: smoothed tracking-loss gradient through the simulator
    return dpo_loss_grad(cfg.simulator, x, cfg.dpo, rng, trace), None


def _correction_active(cfg: SamplerConfig, t: int, x0: np.ndarray) -> bool:
    if not cfg.corrects_at(t):
        return False
    con = cfg.constraint
    return con.kind != "surrogate_centroid" or C.centroid_trigger(con.model, x0)


def _run_correction(cfg, z, x0, evaluation, t, gamma, rng, trace,
                    step=None):
    """Inner loop of the correction algorithm; returns the new latent and
    the step of its last update (``step`` itself when no update ran).

    x0 is decode(cfg.decoder, z), the anchor the prox term pulls toward, and
    ``evaluation`` is C.evaluate(cfg.constraint, x0).  Every decoded point is
    evaluated once; z is finite on entry and checked after every update, so
    the decoder kernels run unchecked.

    Each update moves z along g_k, the pullback of the ambient prox-objective
    gradient.  The first update of a level takes ``step``, the step the
    chain's previous level ended with, or ``cfg.lr_at(t)`` when ``step`` is
    None (the chain's first correction); later ones take the
    Barzilai-Borwein step s.s / s.y (s the last change of z, y the change
    of g), or keep the previous step when s.y <= 0.  The dpo solver takes
    ``cfg.lr_at(t)`` on every update of every level.  A level that
    starts at or above ``delta`` stops for one of ``STOP_REASONS``, recorded
    in ``trace.stops``: the violation dropped below ``delta`` (converged);
    ||g_k|| fell to ``STAGNATION_RATIO`` times ||g_0|| (tested once the
    update along g_k is decoded and evaluated, so no direction is thrown
    away), or an update from the second on cut ``dist`` (from
    ``C.evaluate``) by less than ``PROGRESS_RATIO`` times the ``dist``
    before it (stagnated; a level's first update is exempt, and so is
    every update of the dpo solver); or ``inner_cap`` updates ran (capped).
    When the progress test stops a level on an update that raised ``dist``
    by more than ``PROGRESS_RATIO`` of it (a secant step that overshot),
    that update is undone: the level returns the latent before it, and
    neither ``trace.rows`` nor the stop's update count include it.
    """
    con = cfg.constraint
    layers = cfg.decoder.layers
    v, d, residual = evaluation
    if v < con.delta or not _correction_active(cfg, t, x0):
        return z, step
    # a dpo direction is a Monte Carlo estimate: the difference of two
    # estimates measures their noise, not curvature, so a secant step from
    # it is meaningless and can fling z far off (it sent a 2-d test chain
    # to |z| ~ 370); dpo keeps the fixed step, and since a change of dist
    # between two of its updates is noise too, it takes no progress stop
    secant = cfg.solver != "dpo"
    if step is None or not secant:
        step = cfg.lr_at(t)
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
        g = vjp_unchecked(layers, z, correction + (x - x0) / lam)
        # the bits of np.linalg.norm on a 1-D float vector
        g_norm = math.sqrt(g.dot(g))
        if z_prev is None:
            g0_norm = g_norm
        elif secant:
            step = secant_step(z - z_prev, g - g_prev, step)
        z_prev, g_prev = z, g
        z = z - step * g
        if not np.isfinite(z).all():
            raise DivergenceError(f"correction diverged at level {t}")
        i += 1
        x = decode_unchecked(layers, z)
        v_prev, d_prev = v, d
        v, d, residual = C.evaluate(con, x)
        if v < con.delta:
            reason = "converged"
        elif g_norm <= STAGNATION_RATIO * g0_norm:
            reason = "stagnated"
        elif secant and i > 1 and d_prev - d < PROGRESS_RATIO * d_prev:
            reason = "stagnated"
            if d - d_prev > PROGRESS_RATIO * d_prev:
                # an overshooting secant step is undone: the level ends at
                # the latent before it, and the update is not counted
                z, v, i = z_prev, v_prev, i - 1
                break
        elif i == cfg.inner_cap:
            reason = "capped"
        trace.rows.append(TraceRow(
            t=t, i=i, phase="correction", gamma=gamma, score_norm=0.0,
            violation=v, dist=d, z=z.copy() if cfg.record_vectors else None))
    trace.stops.append((t, i, reason))
    if v >= con.delta:
        trace.shortfalls.append((t, i, v))
    return z, step


def _correct_rows(cfg: SamplerConfig, Z: np.ndarray, t: int,
                  steps: np.ndarray) -> np.ndarray:
    """``_run_correction``'s rule on every row of a batch of latents Z whose
    decoded violation is at least ``delta``; returns the corrected latents
    (Z itself is not changed).

    ``steps`` holds each row's carried step, NaN for a row never corrected,
    which starts at ``cfg.lr_at(t)``; a corrected row's entry is
    overwritten with the step of its last update, and the others are left
    alone.

    Every row is decoded and checked once, then only the violating rows are
    updated.  Each takes the per-chain steps, its carried step first and
    then its own secant step s.s / s.y (its previous step when s.y <= 0),
    and stops for the per-chain reasons: its violation drops below
    ``delta``, its ||g_k|| falls to ``STAGNATION_RATIO`` times its ||g_0||
    or an update from its second on cuts its distance to the set by less
    than ``PROGRESS_RATIO`` of the distance before it (and a row whose
    update raised that distance by more than ``PROGRESS_RATIO`` ends at its
    latent before the update), or ``inner_cap`` updates ran.  The distance
    comes from the violation already computed (``C._dist_from_violation``),
    not from a projection.  A row that stops is written back and never
    touched again, so the active set only shrinks.  The loop runs the
    closed-form kinds through the unchecked violation and projection,
    records no trace and leaves a non-finite row to its caller's check.
    """
    con = cfg.constraint
    layers = cfg.decoder.layers
    X = decode_unchecked(layers, Z)
    idx = np.flatnonzero(C._violation(con, X) >= con.delta)
    if not idx.size:
        return Z
    lam = con.prox_weight
    Z = Z.copy()
    Za, X0 = Z[idx], X[idx]
    Xa = X0
    step = steps[idx]
    step[np.isnan(step)] = cfg.lr_at(t)
    for k in range(cfg.inner_cap):
        G = vjp_unchecked(layers, Za, (Xa - C._project_exact(con, Xa))
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
        # numpy multiplies a lone row on its vector path, whose low bits can
        # differ from the matrix path that decoded the whole batch; a copy
        # of the row keeps it on the matrix path
        m = len(idx)
        Zd = np.repeat(Za, 2, axis=0) if m == 1 < len(Z) else Za
        Xd = decode_unchecked(layers, Zd)
        v = C._violation(con, Xd)[:m]
        keep = (v >= con.delta) & (g_norm > STAGNATION_RATIO * g0_norm)
        # the first update takes no progress test, and when every row
        # stops anyway no dist is needed
        if k and keep.any():
            d_prev = C._dist_from_violation(con, v_prev)
            d = C._dist_from_violation(con, v)
            stop = keep & (d_prev - d < PROGRESS_RATIO * d_prev)
            # a row stopped by an update that raised dist by more than
            # PROGRESS_RATIO of the dist before it ends at its latent
            # before that update
            rise = stop & (d - d_prev > PROGRESS_RATIO * d_prev)
            Za[rise] = Z_prev[rise]
            keep &= ~stop
        if k + 1 == cfg.inner_cap:
            keep[:] = False
        Xa, v_prev = Xd[:m], v
        if not keep.all():
            Z[idx[~keep]] = Za[~keep]
            steps[idx[~keep]] = step[~keep]
            idx, Za, step = idx[keep], Za[keep], step[keep]
            if not idx.size:
                break
            Xa, X0 = Xa[keep], X0[keep]
            g0_norm, v_prev = g0_norm[keep], v_prev[keep]
            Z_prev, G_prev = Z_prev[keep], G_prev[keep]
    return Z


def _step_rows(cfg: SamplerConfig, Z: np.ndarray, eps: np.ndarray, t: int,
               gamma: float, decoded: bool):
    """One Langevin step of each row of Z with its row of noise ``eps``,
    on kernels that give each row its point's bits, and the decode of each
    new row when ``decoded``.

    Returns the new rows, their scores, their decodes (None unless
    ``decoded``) and ``{row: error}`` for the rows that failed, whose
    entries are not to be read: a row that went non-finite gets the
    DivergenceError its chain run alone raises, and it and its score are
    zeroed before the decode.  When a kernel raises on the block (a
    floating-point error state the caller set to raise, say), the rows step
    again one at a time, so that only the rows that raise fail.
    """
    try:
        Z1, S = langevin_step(Z, cfg.score, t, gamma, eps, cfg.noise_scale,
                              np.matvec)
        failed = {}
        # the ufunc reduction: the ndarray method goes through a Python wrapper
        if not np.logical_and.reduce(np.isfinite(Z1), axis=None):
            bad = ~np.isfinite(Z1).all(axis=1)
            failed = {int(j): DivergenceError(
                f"langevin step diverged at level {t}")
                for j in np.flatnonzero(bad)}
            Z1[bad] = S[bad] = 0.0
        X = decode_rows(cfg.decoder, Z1) if decoded else None
        return Z1, S, X, failed
    except Exception as exc:
        if len(Z) == 1:
            X = np.zeros((1, cfg.decoder.ambient_dim)) if decoded else None
            return Z, np.zeros_like(Z), X, {0: exc}
        parts = [_step_rows(cfg, Z[j:j + 1], eps[j:j + 1], t, gamma, decoded)
                 for j in range(len(Z))]
        Z1, S, X = (None if parts[0][m] is None
                    else np.concatenate([part[m] for part in parts])
                    for m in range(3))
        return Z1, S, X, {j: part[3][0] for j, part in enumerate(parts)
                          if part[3]}


def _row_stats(con, S: np.ndarray, X: np.ndarray | None):
    """Each row's score norm and, where X holds the rows' decodes, its
    ``C.evaluate``, from one batched call each: returns two lists, one entry
    per row.

    An entry is None where the row's point call is to give it: both
    entries of a lone row, whose point calls cost less; the evaluation of
    every row of a block with fewer rows than ``ROWS_EVALUATED_FROM`` gives
    its constraint's kind (halfspace and custom_g are not row-exact and
    have no entry) and of a row whose decode is not finite (its point call
    raises its chain's error); and both entries of every row when a batched
    call raises (a floating-point error state the caller set to raise,
    say), so that only the rows that raise fail.
    """
    n = len(S)
    none = [None] * n
    if n == 1:
        return none, none
    try:
        norms = np.sqrt(np.vecdot(S, S)).tolist()
        if X is None or n < ROWS_EVALUATED_FROM.get(con.kind, n + 1):
            return norms, none
        rows = np.flatnonzero(np.logical_and.reduce(np.isfinite(X), axis=1))
        v, d, R = C.evaluate_rows(con, X if len(rows) == n else X[rows])
    except Exception:
        return none, none
    evaluations = list(none)
    for j, ev in zip(rows.tolist(), zip(v.tolist(), d.tolist(),
                                        none if R is None else R)):
        evaluations[j] = ev
    return norms, evaluations


def sample_chains(cfg: SamplerConfig, rngs) -> list:
    """Annealed Langevin dynamics from z_T ~ N(0, I) down to z_0 for one
    chain per generator in ``rngs``, each step followed by the configured
    mode's step; returns each chain's ``(final, trace)``, or the exception
    that failed it.

    unconstrained returns the latent.  projected_ambient projects the state
    after every step, records violation and dist 0.0 (the projection lies
    inside its set) and returns it.  proximal_latent corrects the latent
    per level (or per step) when a constraint is set, and returns its
    decode, optionally projected.

    The chains run level by level as the rows of one block.  Each step is
    one Langevin step and one decode of the live rows, batched on kernels
    that give each row its point's bits (``_step_rows``), then one call for
    the rows' score norms and one for their evaluations where the kind's
    rows rules are row-exact (``_row_stats``); then each row takes the
    point functions: its evaluation where the block's gave none, its trace
    row, its projection in projected_ambient and its correction
    (``_run_correction``).  Chain k draws only from ``rngs[k]``, in the
    order of a chain run alone, so a chain's output does not depend on the
    other chains.  A chain whose latent goes non-finite, or whose step,
    evaluation, projection, correction or final decode raises, leaves the
    block with its exception, and the others go on.
    """
    sched = cfg.schedule
    dec = cfg.decoder
    con = cfg.constraint
    projected = cfg.mode == "projected_ambient"
    corrected = cfg.mode == "proximal_latent" and con is not None
    results = [None] * len(rngs)
    traces = [SampleTrace() for _ in rngs]
    steps = [None] * len(rngs)  # correction steps, carried level to level
    live = list(range(len(rngs)))  # the chain of each row of Z
    Z = np.empty((len(rngs), cfg.score.dim))
    for k, rng in enumerate(rngs):
        rng.standard_normal(out=Z[k])
    eps = np.empty_like(Z)  # each step's noise, drawn row by row
    for t in range(sched.T, 0, -1):
        gamma = sched.gamma_at(t)
        for i in range(1, sched.inner_steps + 1):
            for j, k in enumerate(live):
                rngs[k].standard_normal(out=eps[j])
            Z, S, X, failed = _step_rows(cfg, Z, eps, t, gamma, corrected)
            norms, evaluations = _row_stats(con, S, X)
            correct = corrected and (cfg.correct_every_step
                                     or i == sched.inner_steps)
            for j, k in enumerate(live):
                if j in failed:
                    continue
                try:
                    z = Z[j]
                    if projected:
                        # z was just checked finite: skip project_exact's
                        # check
                        z = Z[j] = C._project_exact(con, z)
                        ev = _PROJECTED
                    elif corrected:
                        x = X[j]
                        ev = evaluations[j] or C.evaluate(con, x)
                    else:
                        ev = _NO_EVALUATION
                    score_norm = norms[j]
                    if score_norm is None:
                        s = S[j]
                        # the bits of np.vecdot on a row
                        score_norm = math.sqrt(s.dot(s))
                    traces[k].rows.append(TraceRow(
                        t=t, i=i, phase="langevin", gamma=gamma,
                        score_norm=score_norm, violation=ev[0], dist=ev[1],
                        z=z.copy() if cfg.record_vectors else None))
                    if correct:
                        Z[j], steps[k] = _run_correction(
                            cfg, z, x, ev, t, gamma, rngs[k], traces[k],
                            steps[k])
                except Exception as exc:  # fails this chain alone
                    failed[j] = exc
            if failed:
                for j, exc in failed.items():
                    results[live[j]] = exc
                keep = [j not in failed for j in range(len(live))]
                live = [k for k, ok in zip(live, keep) if ok]
                Z, eps = Z[keep], eps[keep]
    decoded = cfg.mode == "proximal_latent"
    project = decoded and cfg.final_projection and con is not None \
        and C.has_exact_projection(con)
    for j, k in enumerate(live):
        try:
            x = decode(dec, Z[j]) if decoded else Z[j]
            if project:
                traces[k].unprojected = x
                x = C.project_exact(con, x)
            results[k] = (x, traces[k])
        except Exception as exc:  # fails this chain alone
            results[k] = exc
    return results


def sample(cfg: SamplerConfig,
           rng: np.random.Generator) -> tuple[np.ndarray, SampleTrace]:
    """One chain of ``sample_chains``, its one-row case: returns the
    chain's ``(final, trace)`` and raises the error that failed it."""
    [result] = sample_chains(cfg, [rng])
    return chain_result(result)


def chain_result(result) -> tuple[np.ndarray, SampleTrace]:
    """One entry of ``sample_chains``'s list: the chain's ``(final,
    trace)``; raises the error that failed the chain."""
    if isinstance(result, Exception):
        raise result
    return result


def chain_rng(root_seed: int, chain_index: int) -> np.random.Generator:
    """Independent, reproducible stream for one chain of a run."""
    return np.random.default_rng(
        np.random.SeedSequence(entropy=root_seed, spawn_key=(chain_index,)))
