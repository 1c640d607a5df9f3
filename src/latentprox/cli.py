"""Command-line surface: sample, train-score, design, project, diagnose.

Exit codes: 0 success, 2 acceptance-check failure or a failed chain,
3 configuration error (a bad value, a degenerate fit, a path that cannot
be used or a command line argparse rejects), 4 numeric divergence (of the
run or of one chain).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import constraints as C
from .diagnostics import check_run_contraction, correction_loop_violations
from .errors import (ConfigError, DegeneracyError, DivergenceError,
                     NumericError, ParameterError, ShapeError)
from .runner import (RunConfig, RunManifest, build_constraint, build_score,
                     counters_line, final_projection_line, load_config,
                     load_traces, manifest_config, run_design, run_experiment)
from .schedules import make_schedule
from .scores import MlpScoreConfig, train_score
from .serialize import load_vector, save_score_field, save_vector

EXIT_OK = 0
EXIT_CHECK_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here reads as a failed
    check; a missing or unknown flag is a configuration error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _report_run(manifest: RunManifest) -> int:
    """Print the run's summary; exit 4 if a chain diverged, else 0 or 2."""
    _print_summary(manifest)
    if any(err["divergence"] for err in manifest["chain_errors"]):
        return EXIT_NUMERIC
    return EXIT_OK if manifest["ok"] else EXIT_CHECK_FAILED


def _cmd_run(args) -> int:
    """``sample`` and ``design``: the config with the command line's
    overrides, run by the subcommand's run function."""
    raw = dict(load_config(args.config).data)
    for key in ("seed", "out", "chains"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    return _report_run(args.run_fn(RunConfig.from_dict(raw)))


def _print_summary(manifest: RunManifest) -> None:
    print(f"experiment: {manifest['experiment']}")
    out = Path(manifest["resolved_config"]["out"])
    print(f"manifest:   {out / 'manifest.json'}")
    for err in manifest["chain_errors"]:
        print(f"chain {err['chain']} failed: {err['error']}")
    for line in manifest["summary"]:
        print(line)


def _cmd_train_score(args) -> int:
    cfg = load_config(args.config)
    schedule = make_schedule(**cfg["schedule"])
    seed = cfg["seed"] if args.seed is None else args.seed
    rng = np.random.default_rng(seed)
    n = args.samples
    if n < 1:
        raise ConfigError(f"--samples must be >= 1, got {n}")
    if cfg["score"] is None:
        raise ConfigError("train-score needs a score section describing the "
                          "data distribution")
    data_field = build_score(cfg["score"], schedule)
    # draw training data from the analytic base distribution
    w, means, covs = data_field.weights, data_field.means, data_field.covs
    comps = rng.choice(len(w), size=n, p=w)
    data = np.empty((n, data_field.dim))
    for k in range(len(w)):
        mask = comps == k
        if mask.any():
            data[mask] = rng.multivariate_normal(means[k], covs[k],
                                                 size=int(mask.sum()))
    mlp_cfg = MlpScoreConfig(hidden=(args.hidden, args.hidden),
                             learning_rate=args.lr, epochs=args.epochs,
                             batch_size=args.batch, seed=seed)
    history: list = []
    field = train_score(data, mlp_cfg, schedule, loss_history=history)
    out = Path(args.out or "score_mlp.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    save_score_field(field, out)
    first = history[0] if history else float("nan")
    last = history[-1] if history else float("nan")
    print(f"trained score field -> {out} (loss {first:.4f} -> {last:.4f})")
    return EXIT_OK


def _cmd_project(args) -> int:
    if args.weight is not None and not args.prox:
        raise ConfigError("--weight sets the proximal weight; it needs --prox")
    cfg = load_config(args.config)
    spec = build_constraint(cfg["constraint"])
    if spec is None:
        raise ConfigError("project needs a constraint section")
    x = load_vector(args.input)
    need = C.point_dim(spec)
    if need is not None and x.size != need:
        raise ShapeError(f"input has {x.size} values; the {spec.kind} "
                         f"constraint takes {need}")
    if args.prox:
        y = C.prox(spec, x, args.weight)
    else:
        y = C.project_exact(spec, x)
    out = Path(args.out or (str(args.input) + ".projected"))
    save_vector(y, out)
    print(f"violation before={C.violation(spec, x):.6g} "
          f"after={C.violation(spec, y):.6g} -> {out}")
    return EXIT_OK


def _correction_loops_line(ends) -> str:
    """The number of correction loops and the median violation at their
    entry and at their exit."""
    line = f"correction loops: {len(ends)}"
    if ends:
        entry, exit_ = np.median(ends, axis=0)
        line += (f", median violation at entry {entry:.6g}, "
                 f"at exit {exit_:.6g}")
    return line


def _cmd_diagnose(args) -> int:
    run_dir = Path(args.run)
    path = run_dir / "manifest.json"
    manifest = RunManifest.load(path)
    print(counters_line(manifest.data.get("counters", {})))
    cfg = manifest_config(manifest)
    if manifest.data.get("experiment_kind") == "design":
        print("design run: its metrics.csv holds MSE rows and no sampling "
              "trace; nothing to diagnose")
        return EXIT_OK
    sampled = cfg["constraint"] is not None and cfg["decoder"] is not None
    traces = load_traces(run_dir / "metrics.csv") if sampled else []
    if not traces:
        print("run has no constraint/decoder or no completed chain; "
              "nothing to diagnose")
        return EXIT_OK
    # the bound the run measured, so the report is the run's own
    measured = manifest.data.get("measured")
    if not isinstance(measured, dict):
        raise ConfigError(f"{path} has no 'measured' section")
    if "lipschitz" not in measured:
        raise ConfigError(f"{path} has no 'measured.lipschitz'")
    report = check_run_contraction(traces, measured["lipschitz"])
    print(f"transitions: {len(report.records)}  fraction_holding: "
          f"{report.fraction_holding:.4f}  G: {report.G:.4f}  "
          f"precondition_ok: {report.precondition_ok}")
    projection = manifest.data.get("reports", {}).get("final_projection")
    if projection is not None:
        print(final_projection_line(projection))
    if cfg["sampler"]["mode"] == "proximal_latent":
        print(_correction_loops_line(correction_loop_violations(traces)))
    threshold = args.min_fraction
    if threshold is not None and report.fraction_holding < threshold:
        return EXIT_CHECK_FAILED
    return EXIT_OK


def main(argv=None) -> int:
    parser = _Parser(
        prog="latentprox",
        description="Constrained sampling experiments for latent score models")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_, run in (
            ("sample", "run a sampling experiment", run_experiment),
            ("design", "run the simulator design loop", run_design)):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True)
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--chains", type=int)
        p.set_defaults(fn=_cmd_run, run_fn=run)

    p = sub.add_parser("train-score", help="train the MLP score model")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--hidden", type=int, default=64)
    p.add_argument("--batch", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-2)
    p.set_defaults(fn=_cmd_train_score)

    p = sub.add_parser("project", help="one-shot projection/prox of a vector")
    p.add_argument("--config", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--prox", action="store_true",
                   help="apply the proximal map instead of the projection")
    p.add_argument("--weight", type=float, default=None)
    p.set_defaults(fn=_cmd_project)

    p = sub.add_parser("diagnose", help="bound checks over a stored run")
    p.add_argument("--run", required=True)
    p.add_argument("--min-fraction", type=float, default=None)
    p.set_defaults(fn=_cmd_diagnose)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ParameterError, ShapeError, DegeneracyError,
            FileNotFoundError, IsADirectoryError, NotADirectoryError,
            PermissionError) as exc:
        # a builder rejects an out-of-range, misshapen or degenerate config
        # value, or a path the command was given cannot be used
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DivergenceError, NumericError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
