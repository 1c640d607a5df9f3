"""Run configuration, experiment orchestration, and persistence.

Configs are strict: unknown keys are rejected with a suggestion, a retired
key loads only at the value the code hard-wires, every resolved default is
echoed into the manifest, and a manifest alone suffices
to reproduce a run bit-exactly (all randomness flows from the root seed
through per-chain spawn keys).  Metrics are append-only CSV rows with a fixed
header; samples are decimal-text vectors plus portable graymaps for grids.
"""

from __future__ import annotations

import dataclasses
import difflib
import json
import math
import numbers
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from . import constraints as C
from .alm import GROWTH, PENALTY, PENALTY_CAP, AlmState
from .decoders import (DecoderMap, estimate_lipschitz, random_linear_decoder,
                       random_mlp_decoder)
from .diagnostics import (BoundReport, GaussianFit, check_fidelity_drift,
                          check_run_contraction, fit_gaussian, gaussian_kl)
from .dpo import DpoConfig, design_rows, make_simulator
from .errors import ConfigError, DivergenceError, ParameterError
from .samplers import (STOP_REASONS, SampleTrace, SamplerConfig, TraceRow,
                       chain_rng, sample)
from .schedules import NoiseSchedule, make_schedule
from .scores import ScoreField, gaussian_mixture_field, linear_gaussian_field
from .serialize import (load_decoder, load_score_field, save_decoder,
                        save_score_field, save_vector, typed)

METRICS_HEADER = "chain,t,i,phase,gamma,score_norm,violation,dist"
ALM_HEADER = ("chain,t,i,outer_iterations,inner_iterations,final_violation,"
              "final_multiplier,final_penalty,converged,final_distance")
DESIGN_HEADER = "chain,step,mse"

# design chains run this many at a time, as the rows of one design_rows
# call: one simulator call per step for the block, with (rows, M, d)
# temporaries that stay small however many chains a run has
DESIGN_BLOCK_ROWS = 32

# libyaml's C scanner and parser composed with PyYAML's own safe
# constructor and resolver, so values resolve as under yaml.safe_load; the
# pure-Python loader where PyYAML was built without libyaml
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

REQUIRED = object()

SCHEMA = {
    "experiment": "run",
    "seed": REQUIRED,
    "chains": 1,
    "out": REQUIRED,
    "schedule": {"T": 20, "abar_end": 0.02, "gamma_max": 0.05,
                 "gamma_min": 0.005, "M": 1},
    "score": {"kind": REQUIRED, "mean": None, "cov": None, "weights": None,
              "means": None, "covs": None, "file": None},
    "decoder": {"kind": "linear", "latent_dim": None, "ambient_dim": None,
                "init": {"seed": 0, "scale": 1.0, "hidden": 16},
                "file": None},
    "constraint": {"kind": REQUIRED, "delta": 1e-4, "prox_weight": 1.0,
                   "normal": None, "offset": None, "radius": None,
                   "center": None, "lower": None, "upper": None,
                   "grid": None, "fraction": None, "accept_radius": None,
                   "model": {"axes": REQUIRED, "feature_mean": REQUIRED,
                             "target_centroid": REQUIRED,
                             "forbidden_centroid": REQUIRED,
                             "p_trig": REQUIRED, "feature_map": None}},
    "sampler": {"mode": "proximal_latent", "solver": "closed_form",
                "lr": None, "inner_cap": 500, "final_projection": True,
                "noise_scale": 1.0, "correct_levels": None,
                "correct_every_step": False},
    # alm.tol None: the constraint's delta (see resolve_config)
    "alm": {**{f.name: f.default for f in dataclasses.fields(AlmState)},
            "tol": None},
    "dpo": {"nu": REQUIRED, "M": REQUIRED, "target": None,
            "simulator": {"name": REQUIRED, "matrix": None, "bias": None,
                          "scale": 2.0, "slope": 0.3}},
    "design": {"steps": 5, "step_size": 0.5, "tol": 0.0},
    "reports": {"contraction": False, "fidelity": False},
    "checks": {"porosity_exact": False, "contraction_fraction": None,
               "design_mse_ratio": None},
}

SECTION_NONE_IF_ABSENT = ("score", "decoder", "constraint",
                          "constraint.model", "alm", "dpo", "design")

# the kind of each key whose schema default does not show it: a string, a
# number (int or float), a flat list of numbers ([int] or [float]) or a
# nested one ([[float]]); every other key takes the kind of its default
KEY_KINDS = {
    "out": str, "score.kind": str, "score.file": str, "decoder.file": str,
    "constraint.kind": str, "dpo.simulator.name": str,
    "score.mean": [float], "score.cov": [[float]], "score.weights": [float],
    "score.means": [[float]], "score.covs": [[float]],
    "decoder.latent_dim": int, "decoder.ambient_dim": int,
    "constraint.normal": [float], "constraint.offset": float,
    "constraint.radius": float, "constraint.center": [float],
    "constraint.lower": [float], "constraint.upper": [float],
    "constraint.grid": [int], "constraint.fraction": float,
    "constraint.accept_radius": float,
    "constraint.model.axes": [[float]],
    "constraint.model.feature_mean": [float],
    "constraint.model.target_centroid": [float],
    "constraint.model.forbidden_centroid": [float],
    "constraint.model.p_trig": float,
    "constraint.model.feature_map": [[float]],
    "sampler.lr": float, "sampler.correct_levels": [int], "alm.tol": float,
    "dpo.nu": float, "dpo.M": int, "dpo.target": [float],
    "dpo.simulator.matrix": [[float]], "dpo.simulator.bias": [float],
    "checks.contraction_fraction": float, "checks.design_mse_ratio": float}

# the keys each kind of a section needs set, unless the section names a file
NEEDED_KEYS = {
    "score": {"linear_gaussian": ("mean", "cov"),
              "gaussian_mixture": ("weights", "means", "covs")},
    "decoder": {"linear": ("latent_dim", "ambient_dim"),
                "smooth_mlp": ("latent_dim", "ambient_dim")},
    "constraint": {"halfspace": ("normal", "offset"), "l2_ball": ("radius",),
                   "box": ("lower", "upper"),
                   "porosity": ("grid", "fraction"),
                   "surrogate_centroid": ("model", "accept_radius")}}

ANY = object()

# keys the schema no longer has, by section path, each with the one value
# the code now hard-wires; a config or a manifest written while they existed
# still loads when it holds that value, and a key at ANY, which no run ever
# read, loads at any value
RETIRED_KEYS = {("schedule", "abar_start"): 1.0,
                ("constraint", "count"): None,
                ("dpo", "absorb_scale"): False,
                ("dpo", "baseline"): True,
                ("design", "mode"): "chain",
                ("checks", "feasible_final"): False,
                ("checks", "fidelity_cumulative"): False,
                ("constraint", "smoothness"): 1.0,
                ("alm", "multiplier"): 0.0,
                ("decoder", "lipschitz_probes"): 64,
                ("reports", "beta"): 1.0,
                ("decoder.init", "method"): "orthonormal",
                ("dpo", "seed"): ANY,
                ("alm", "penalty"): PENALTY,
                ("alm", "growth"): GROWTH,
                ("alm", "penalty_cap"): PENALTY_CAP,
                ("sampler", "record_vectors"): ANY,
                ("constraint", "margin"): C.MARGIN}


def _suggest(key: str, known) -> str:
    close = difflib.get_close_matches(key, list(known), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _reads_as(value, runs) -> bool:
    """Whether a retired key's ``value``, taken as the kind of ``runs`` as
    ``typed`` took it while the key existed, equals ``runs``: YAML reads an
    exponent without a dot, such as 1e4, as a string, which was 10000.0."""
    try:
        return typed("", value, type(runs)) == runs
    except ConfigError:
        return False


def _resolve(section: dict, schema: dict, path: str) -> dict:
    if not isinstance(section, dict):
        raise ConfigError(f"{path or 'configuration document'} must be a "
                          "mapping")
    for key, value in section.items():
        if key in schema:
            continue
        if (path, key) not in RETIRED_KEYS:
            raise ConfigError(f"unknown key {key!r} at {path or 'top level'}"
                              f"{_suggest(key, schema)}")
        # a retired key is left out of the resolved section
        runs = RETIRED_KEYS[path, key]
        if runs is not ANY and not _reads_as(value, runs):
            raise ConfigError(f"{path}.{key} = {value!r} is retired: this "
                              f"version runs only {runs!r}")
    out = {}
    for key, default in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            sub = section.get(key)
            if sub is None and where in SECTION_NONE_IF_ABSENT:
                out[key] = None
            else:
                out[key] = _resolve({} if sub is None else sub, default,
                                    where)
        elif key in section and section[key] is not None:
            out[key] = typed(where, section[key],
                              KEY_KINDS.get(where, type(default)))
        elif default is REQUIRED:
            note = " (no implicit seeding)" if where == "seed" else ""
            raise ConfigError(f"missing required key {where!r}{note}")
        else:
            out[key] = default
    return out


def resolve_config(data: dict) -> dict:
    """Validate a raw config mapping, fill in every default, and store
    each value as its kind (``KEY_KINDS``).

    Unknown keys are rejected (with a close-match suggestion), and so is a
    retired key (``RETIRED_KEYS``) at a value other than the one it runs, a
    boolean key whose value is not true or false, a numeric key whose value
    is not a number (a whole number for an integer key), a list-valued key
    with an entry that is not one or rows of unequal length, and a section
    whose kind lacks a key it needs (``NEEDED_KEYS``); the root seed is
    mandatory so no run is ever implicitly seeded, and it must be a
    non-negative integer.  An unset ``alm.tol`` resolves to the
    constraint's ``delta``, and a run with the alm solver and no alm
    section gets the section's defaults.
    """
    out = _resolve(data, SCHEMA, "")
    for key, least in (("seed", 0), ("chains", 1)):
        value = out[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                or value < least:
            raise ConfigError(f"{key} must be an integer >= {least}, "
                              f"got {value!r}")
    for name, kinds in NEEDED_KEYS.items():
        section = out[name]
        if section is None or section.get("file"):
            continue
        for key in kinds.get(section["kind"], ()):
            if section[key] is None:
                raise ConfigError(f"{section['kind']} {name} needs {key!r}")
    alm, con = out["alm"], out["constraint"]
    if alm is None and con is not None and out["sampler"]["solver"] == "alm":
        alm = out["alm"] = _resolve({}, SCHEMA["alm"], "alm")
    if alm is not None and alm["tol"] is None:
        alm["tol"] = (con if con is not None else SCHEMA["constraint"])["delta"]
    return out


@dataclass
class RunConfig:
    """A fully resolved run configuration."""

    data: dict

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        return cls(data=resolve_config(raw))

    def __getitem__(self, key):
        return self.data[key]


def load_config(path) -> RunConfig:
    """Load and validate a YAML (or JSON) configuration document."""
    text = Path(path).read_text()
    try:
        raw = yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" \
            if mark else ""
        # the problem alone: the full text repeats the position on a line
        # of its own
        problem = getattr(exc, "problem", None) or exc
        raise ConfigError(f"cannot parse {path}{where}: {problem}") from exc
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# Component builders


def build_score(cfg: dict, schedule: NoiseSchedule) -> ScoreField:
    if cfg.get("file"):
        return load_score_field(cfg["file"])
    kind = cfg["kind"]
    if kind == "linear_gaussian":
        return linear_gaussian_field(cfg["mean"], cfg["cov"], schedule)
    if kind == "gaussian_mixture":
        return gaussian_mixture_field(cfg["weights"], cfg["means"],
                                      cfg["covs"], schedule)
    raise ConfigError(f"cannot build score field of kind {kind!r}")


def build_decoder(cfg: dict | None) -> DecoderMap | None:
    if cfg is None:
        return None
    if cfg.get("file"):
        return load_decoder(cfg["file"])
    init = cfg["init"]
    kind = cfg["kind"]
    lat, amb = cfg["latent_dim"], cfg["ambient_dim"]
    if kind == "linear":
        return random_linear_decoder(lat, amb, seed=init["seed"],
                                     scale=init["scale"])
    if kind == "smooth_mlp":
        return random_mlp_decoder(lat, amb, hidden=init["hidden"],
                                  seed=init["seed"], scale=init["scale"])
    raise ConfigError(f"unknown decoder kind {kind!r}")


def build_constraint(cfg: dict | None) -> C.ConstraintSpec | None:
    if cfg is None:
        return None
    kind = cfg["kind"]
    common = {key: cfg[key] for key in ("delta", "prox_weight")}
    if kind == "halfspace":
        return C.halfspace(cfg["normal"], cfg["offset"], **common)
    if kind == "l2_ball":
        return C.l2_ball(cfg["radius"], center=cfg["center"], **common)
    if kind == "box":
        return C.box(cfg["lower"], cfg["upper"], **common)
    if kind == "porosity":
        if np.shape(cfg["grid"]) != (2,):
            raise ConfigError(f"porosity grid must be [rows, cols], got "
                              f"{cfg['grid']!r}")
        rows, cols = cfg["grid"]
        # round half up, recorded in the manifest as measured.porosity_count
        K = math.floor(cfg["fraction"] * rows * cols + 0.5)
        return C.porosity_constraint((rows, cols), K, **common)
    if kind == "surrogate_centroid":
        model = C.CentroidModel(**{
            key: np.array(value) if isinstance(value, list) else value
            for key, value in cfg["model"].items()})
        return C.centroid_constraint(model, cfg["accept_radius"], **common)
    raise ConfigError(f"cannot build constraint of kind {kind!r}")


def build_dpo(cfg: dict | None):
    if cfg is None:
        return None, None
    sim_cfg = dict(cfg["simulator"])
    name = sim_cfg.pop("name")
    # a parameter passes only when set away from its schema default, which
    # is also the simulator's own, so make_simulator rejects just a key the
    # config sets for a simulator that does not take it
    defaults = SCHEMA["dpo"]["simulator"]
    sim = make_simulator(name, **{key: value for key, value in sim_cfg.items()
                                  if value != defaults[key]})
    dpo_cfg = DpoConfig(nu=cfg["nu"], M=cfg["M"], target=cfg["target"])
    return sim, dpo_cfg


def build_sampler_config(cfg: RunConfig) -> SamplerConfig:
    if cfg["score"] is None:
        raise ConfigError("sampling run requires a score section")
    schedule = make_schedule(**cfg["schedule"])
    score = build_score(cfg["score"], schedule)
    if score.schedule.T < schedule.T:
        raise ConfigError(f"score.file {cfg['score']['file']} holds a "
                          f"schedule of {score.schedule.T} levels, fewer "
                          f"than schedule.T {schedule.T}")
    decoder = build_decoder(cfg["decoder"])
    constraint = build_constraint(cfg["constraint"])
    sim, dpo_cfg = build_dpo(cfg["dpo"])
    alm = None if cfg["alm"] is None else AlmState(**cfg["alm"])
    return SamplerConfig(schedule=schedule, score=score, decoder=decoder,
                         constraint=constraint, alm=alm, simulator=sim,
                         dpo=dpo_cfg, **cfg["sampler"])


# ---------------------------------------------------------------------------
# Artifacts


def render_grid(grid, path) -> None:
    """Write a binary portable graymap; v in [-1, 1] maps to round-half-up
    of (v + 1) / 2 * 255."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2:
        raise ParameterError("render_grid expects a 2-D grid")
    levels = np.floor((grid + 1.0) / 2.0 * 255.0 + 0.5)
    data = np.clip(levels, 0, 255).astype(np.uint8)
    rows, cols = grid.shape
    header = f"P5\n{cols} {rows}\n255\n".encode("ascii")
    try:
        Path(path).write_bytes(header + data.tobytes())
    except OSError as exc:
        raise OSError(f"cannot write graymap {path}: {exc}") from exc


def _fmt(v) -> str:
    return repr(float(v))


def _metrics_row(chain: int, row) -> str:
    return (f"{chain},{row.t},{row.i},{row.phase},{_fmt(row.gamma)},"
            f"{_fmt(row.score_norm)},{_fmt(row.violation)},{_fmt(row.dist)}")


def load_traces(path) -> list[SampleTrace]:
    """One trace per chain, in chain order, rebuilt from a metrics.csv.

    The floats are written with repr, so they read back exactly; the rows
    carry no vectors.  A row that does not have the header's fields, or a
    field that is not a number, raises ConfigError naming the line.
    """
    traces: dict = {}
    with open(path) as fh:
        fh.readline()  # header
        for number, line in enumerate(fh, start=2):
            try:
                chain, t, i, phase, gamma, score_norm, violation, dist = \
                    line.rstrip("\n").split(",")
                row = TraceRow(t=int(t), i=int(i), phase=phase,
                               gamma=float(gamma),
                               score_norm=float(score_norm),
                               violation=float(violation), dist=float(dist))
            except ValueError as exc:
                raise ConfigError(f"{path} line {number}: {exc}") from None
            traces.setdefault(chain, SampleTrace()).rows.append(row)
    return list(traces.values())


@dataclass
class RunManifest:
    """Everything needed to reproduce and audit a run."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.data, indent=1, sort_keys=True))

    @classmethod
    def load(cls, path) -> "RunManifest":
        """The manifest at ``path``; a file that is not JSON, or not an
        object whose ``resolved_config`` is an object, raises ConfigError."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        if not (isinstance(data, dict)
                and isinstance(data.get("resolved_config"), dict)):
            raise ConfigError(f"{path} is not a run manifest")
        return cls(data=data)


def _report_doc(report: BoundReport) -> dict:
    """The fields every bound check measures."""
    doc = {"G": report.G, "fraction_holding": report.fraction_holding,
           "transitions": len(report.records)}
    if report.cumulative is not None:
        doc["cumulative_holds"] = report.cumulative.holds
        doc["cumulative_lhs"] = report.cumulative.lhs
        doc["cumulative_rhs"] = report.cumulative.rhs
    return doc


def run_experiment(cfg: RunConfig) -> RunManifest:
    """Execute a sampling experiment: chains, metrics, samples, reports."""
    started = time.time()
    sampler_cfg = build_sampler_config(cfg)
    # the fidelity report is the one reader of the rows' chain states
    sampler_cfg.record_vectors = cfg["reports"]["fidelity"]
    constraint = sampler_cfg.constraint
    decoder = sampler_cfg.decoder
    measured = {}
    if decoder is not None:
        measured["lipschitz"] = estimate_lipschitz(decoder)
    _refuse_unrunnable(cfg, sampler_cfg, measured.get("lipschitz"))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    if decoder is not None:
        save_decoder(decoder, out / "decoder.json")
    save_score_field(sampler_cfg.score, out / "score.json")

    chains, root_seed = cfg["chains"], cfg["seed"]
    finals, traces, errors = [], [], []
    samples_dir = out / "samples"
    samples_dir.mkdir(exist_ok=True)

    alm_rows = []
    with open(out / "metrics.csv", "w") as metrics:
        metrics.write(METRICS_HEADER + "\n")
        for i in range(chains):
            try:
                final, trace = sample(sampler_cfg, chain_rng(root_seed, i))
            except Exception as exc:  # record, keep running other chains
                errors.append(_chain_error(i, exc))
                continue
            for row in trace.rows:
                metrics.write(_metrics_row(i, row) + "\n")
            metrics.flush()
            finals.append(final)
            traces.append(trace)
            for t, it, rep in trace.alm_reports:
                alm_rows.append(
                    f"{i},{t},{it},{rep.outer_iterations},"
                    f"{rep.inner_iterations},{_fmt(rep.final_violation)},"
                    f"{_fmt(rep.final_multiplier)},"
                    f"{_fmt(rep.final_penalty)},{int(rep.converged)},"
                    f"{_fmt(rep.final_distance)}")
            save_vector(final, samples_dir / f"chain_{i:04d}.txt")
            if constraint is not None and constraint.kind == "porosity":
                render_grid(final.reshape(constraint.grid_shape),
                            samples_dir / f"chain_{i:04d}.pgm")
    if alm_rows:
        (out / "alm.csv").write_text(ALM_HEADER + "\n"
                                     + "\n".join(alm_rows) + "\n")

    measured["G"] = max((t.max_score_norm() for t in traces), default=0.0)
    reports = {}
    violations = []  # each final's, for the porosity report and the check
    if constraint is not None and (constraint.kind == "porosity"
                                   or cfg["checks"]["porosity_exact"]):
        violations = [C.violation(constraint, f) for f in finals]
    if constraint is not None and constraint.kind == "porosity":
        measured["porosity_count"] = constraint.target_count
        pixels = constraint.grid_shape[0] * constraint.grid_shape[1]
        # a porosity violation is the final's count gap
        errs = [v / pixels for v in violations]
        # count-gap fraction per sample; > 0.10 mirrors the headline
        # mismatch metric used for grid experiments
        reports["porosity_error"] = {
            "max_fraction": max(errs, default=0.0),
            "samples_above_0.10": int(sum(e > 0.10 for e in errs)),
        }
    rep_cfg = cfg["reports"]
    if rep_cfg["contraction"] and traces:
        report = check_run_contraction(traces, measured["lipschitz"])
        reports["contraction"] = dict(
            _report_doc(report), lipschitz=report.lipschitz,
            beta_prime=report.beta_prime,
            precondition_ok=report.precondition_ok)
    if rep_cfg["fidelity"] and traces:
        reports["fidelity"] = _fidelity_report(sampler_cfg, traces,
                                               measured["G"])

    checks = _run_checks(cfg, violations, reports)
    counters = _trace_counters(traces)
    summary = _summary(cfg, len(finals), counters, reports, checks)
    artifacts = {"metrics": "metrics.csv", "score": "score.json",
                 "decoder": "decoder.json" if decoder is not None else None,
                 "samples": sorted(p.name for p in samples_dir.iterdir())}
    return _save_manifest(cfg, "sample", started, errors, checks,
                          measured=measured, artifacts=artifacts,
                          reports=reports, counters=counters, summary=summary)


def _refuse_unrunnable(cfg: RunConfig, sampler_cfg: SamplerConfig,
                       lipschitz: float | None) -> None:
    """Raise ConfigError, before any chain runs, for a constraint the run
    never reads or a report or check it cannot compute; ``lipschitz`` is
    the decoder's bound, None without a decoder."""
    reports, checks = cfg["reports"], cfg["checks"]
    constraint = sampler_cfg.constraint
    if sampler_cfg.mode == "unconstrained" and constraint is not None:
        raise ConfigError(f"a {constraint.kind} constraint needs a "
                          "constrained mode; an unconstrained run never "
                          "reads it, and its finals are latents")
    if constraint is None:
        for name, wanted in (("checks.porosity_exact",
                              checks["porosity_exact"]),
                             ("reports.contraction", reports["contraction"])):
            if wanted:
                raise ConfigError(f"{name} needs a constraint section")
    if checks["contraction_fraction"] is not None \
            and not reports["contraction"]:
        raise ConfigError("checks.contraction_fraction reads the contraction "
                          "report; set reports.contraction: true")
    if reports["contraction"] and not lipschitz:
        raise ConfigError("reports.contraction needs a decoder with a "
                          "positive Lipschitz bound: the check divides by it")
    if reports["contraction"] and sampler_cfg.schedule.T < 2:
        raise ConfigError("reports.contraction compares consecutive levels "
                          "and needs schedule.T >= 2")
    if reports["fidelity"] and sampler_cfg.score.kind != "linear_gaussian":
        raise ConfigError("reports.fidelity needs a linear_gaussian score, "
                          f"not {sampler_cfg.score.kind}")


def counters_line(counters: dict) -> str:
    """One line of a run's counters, ``name value`` in sorted name order,
    the order of a saved manifest; the correction stops read
    ``<n> converged / <n> stagnated / <n> capped``."""
    parts = []
    for name, value in sorted(counters.items()):
        if name == "correction_stops":
            value = " / ".join(f"{value[r]} {r}" for r in STOP_REASONS)
        parts.append(f"{name} {value}")
    return "counters: " + ", ".join(parts)


def _summary(cfg: RunConfig, completed: int, counters: dict, reports: dict,
             checks: dict) -> list:
    """The run's summary lines: chains completed, counters, reports, checks."""
    lines = [f"experiment {cfg['experiment']}: {completed}/"
             f"{cfg['chains']} chains completed", counters_line(counters)]
    for name, rep in reports.items():
        if "fraction_holding" in rep:
            lines.append(f"{name}: {rep['fraction_holding']:.4f} of "
                         f"{rep['transitions']} transitions hold")
        elif name == "porosity_error":
            lines.append(f"porosity error: max fraction "
                         f"{rep['max_fraction']:.4f}, "
                         f"{rep['samples_above_0.10']} sample(s) above 10%")
        if rep.get("cumulative_holds") is not None:
            lines.append(f"{name}: cumulative bound "
                         f"{'holds' if rep['cumulative_holds'] else 'FAILS'}")
    for name, ok in checks.items():
        lines.append(f"check {name}: {'pass' if ok else 'FAIL'}")
    return lines


def _save_manifest(cfg: RunConfig, kind: str, started: float, errors: list,
                   checks: dict, **sections) -> RunManifest:
    """Write and return the manifest of a finished run."""
    chains, root_seed = cfg["chains"], cfg["seed"]
    manifest = RunManifest(data={
        "version": __version__,
        "experiment": cfg["experiment"],
        "experiment_kind": kind,
        "resolved_config": cfg.data,
        "chain_seeds": [[root_seed, i] for i in range(chains)],
        "chain_errors": errors,
        "checks": checks,
        "timing": {"started_unix": started,
                   "elapsed_s": time.time() - started},
        # a chain that raised fails the run even when every check passes
        "ok": not errors and all(checks.values()),
        **sections,
    })
    manifest.save(Path(cfg["out"]) / "manifest.json")
    return manifest


def _chain_error(chain: int, exc: Exception) -> dict:
    """The ``chain_errors`` entry of a chain that raised."""
    return {"chain": chain, "error": f"{type(exc).__name__}: {exc}",
            "divergence": isinstance(exc, DivergenceError)}


def _trace_counters(traces) -> dict:
    """Work done by the completed chains, counted from their traces.

    Each correction loop that ran an update ends for one reason, counted in
    ``correction_stops``: ``converged`` (the violation fell below
    ``delta``), ``stagnated`` (the pulled-back gradient fell to
    ``samplers.STAGNATION_RATIO`` of its first norm, or an update from the
    second on cut the distance to the set by less than
    ``samplers.PROGRESS_RATIO`` of the distance before it) or ``capped``
    (it ran ``inner_cap`` updates).  A shortfall is a loop that stopped with the
    violation still at or above ``delta``: a stagnated or capped one.  An
    unconverged ALM projection hit its outer cap and handed back its best
    iterate; ``alm_inner_iterations`` sums the inner iterations of all the
    projections.  The simulator counts are the dpo solver's.
    """
    phases = [row.phase for trace in traces for row in trace.rows]
    reports = [rep for trace in traces for _, _, rep in trace.alm_reports]
    reasons = [reason for trace in traces for _, _, reason in trace.stops]
    return {"langevin_steps": phases.count("langevin"),
            "correction_iterations": phases.count("correction"),
            "correction_stops": {r: reasons.count(r) for r in STOP_REASONS},
            "shortfalls": sum(len(trace.shortfalls) for trace in traces),
            "alm_projections": len(reports),
            "alm_unconverged": sum(not rep.converged for rep in reports),
            "alm_inner_iterations": sum(rep.inner_iterations
                                        for rep in reports),
            "simulator_evaluations": sum(trace.simulator_evaluations
                                         for trace in traces),
            "simulator_calls": sum(trace.simulator_calls for trace in traces)}


def _fidelity_report(sampler_cfg: SamplerConfig, traces, G: float) -> dict:
    """Population KL drift across chains, evaluated on the chain states the
    score reads; ``G`` is the run's largest Langevin score norm."""
    field_ = sampler_cfg.score
    schedule = sampler_cfg.schedule
    ref = GaussianFit(mean=field_.means[0], cov=field_.covs[0])
    by_level = {t: [] for t in range(schedule.T + 1)}
    for trace in traces:
        for row in trace.level_final_rows():
            by_level[row.t - 1].append(row.z)
    kl = np.full(schedule.T + 1, np.nan)
    kl[schedule.T] = gaussian_kl(GaussianFit(
        mean=np.zeros(field_.dim), cov=np.eye(field_.dim)), ref)
    for t, pts in by_level.items():
        if len(pts) >= 2:
            kl[t] = gaussian_kl(fit_gaussian(np.array(pts)), ref)
    report = check_fidelity_drift(kl, schedule, G)
    doc = _report_doc(report)
    doc["space"] = "ambient" if sampler_cfg.mode == "projected_ambient" \
        else "latent"
    doc["kl_series"] = [float(v) for v in kl]
    return doc


def _run_checks(cfg, violations, reports) -> dict:
    """The configured checks; ``violations`` holds each final's."""
    checks = {}
    ck = cfg["checks"]
    if ck["porosity_exact"]:
        checks["porosity_exact"] = bool(violations) and all(
            v == 0.0 for v in violations)
    if ck["contraction_fraction"] is not None:
        frac = reports.get("contraction", {}).get("fraction_holding", 0.0)
        checks["contraction_fraction"] = frac >= ck["contraction_fraction"]
    return checks


def run_design(cfg: RunConfig) -> RunManifest:
    """Execute the simulator-in-the-loop design experiment."""
    started = time.time()
    decoder = build_decoder(cfg["decoder"])
    sim, dpo_cfg = build_dpo(cfg["dpo"])
    # refuse what the loop cannot run before the run directory exists
    if decoder is None:
        raise ConfigError("design experiment requires a decoder")
    if sim is None or dpo_cfg.target is None:
        raise ConfigError("design experiment requires a dpo section with a "
                          "target")
    if dpo_cfg.target.shape != (sim.response_dim,):
        raise ConfigError(f"dpo.target of shape {dpo_cfg.target.shape} "
                          f"does not match response_dim {sim.response_dim} "
                          f"of simulator {sim.name!r}")
    # a run without a design section takes the section's defaults
    design = cfg["design"] or SCHEMA["design"]
    if design["steps"] < 1:
        raise ConfigError("design.steps must be >= 1")
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    chains, root_seed = cfg["chains"], cfg["seed"]
    save_decoder(decoder, out / "decoder.json")
    mses, errors = [], []
    counters = {"design_steps": 0, "simulator_evaluations": 0,
                "simulator_calls": 0}
    with open(out / "metrics.csv", "w") as metrics:
        metrics.write(DESIGN_HEADER + "\n")
        for start in range(0, chains, DESIGN_BLOCK_ROWS):
            block = range(start, min(start + DESIGN_BLOCK_ROWS, chains))
            rows = design_rows(
                [chain_rng(root_seed, i).standard_normal(decoder.latent_dim)
                 for i in block], decoder, sim, dpo_cfg,
                [root_seed * 100_003 + i for i in block], **design)
            counters["simulator_evaluations"] += rows.simulator_evaluations
            counters["simulator_calls"] += rows.simulator_calls
            for i, z, mse, steps, exc in zip(block, rows.z, rows.mse,
                                             rows.steps, rows.errors):
                if exc is not None:
                    errors.append(_chain_error(i, exc))
                    continue
                metrics.write("".join(f"{i},{k},{_fmt(v)}\n"
                                      for k, v in enumerate(mse)))
                save_vector(z, out / f"design_{i:04d}.txt")
                mses.append(mse)
                counters["design_steps"] += int(steps)

    checks = {}
    ratio = cfg["checks"]["design_mse_ratio"]
    if ratio is not None:
        checks["design_mse_ratio"] = all(
            m[-1] <= ratio * m[0] for m in mses)
    summary = _summary(cfg, len(mses), counters, {}, checks)
    return _save_manifest(
        cfg, "design", started, errors, checks, measured={},
        artifacts={"metrics": "metrics.csv", "decoder": "decoder.json"},
        reports={"mse": [[float(v) for v in m] for m in mses]},
        counters=counters, summary=summary)


def manifest_config(manifest: RunManifest, **changes) -> RunConfig:
    """The run configuration a manifest echoes, with ``changes`` set."""
    return RunConfig.from_dict({**manifest["resolved_config"], **changes})


def rerun_from_manifest(manifest_path, out_dir) -> RunManifest:
    """Re-execute a run from its manifest into a fresh directory."""
    manifest = RunManifest.load(manifest_path)
    cfg = manifest_config(manifest, out=str(out_dir))
    if manifest.data.get("experiment_kind") == "design":
        return run_design(cfg)
    return run_experiment(cfg)
