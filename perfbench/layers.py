"""Per-layer metrics of the traced run: what is measured and how.

``FUNCTIONS`` names the traced functions whose call counts and self times are
reported; ``Counters`` reads work counts from what those functions return.
Every ``.calls``/``.self_s`` figure and every counter is per chain completed in
the traced passes, except ``runner.load_config.self_s``, which is the one
setup-time call in seconds.
"""

from __future__ import annotations

from pathlib import Path

# traced private helpers of the batched population path
PRIVATE = ("_correct_batch", "_score_batch", "_violation_batch")

# span name -> reported fields
FUNCTIONS = {
    "constraints.violation": ("calls", "self_s"),
    "constraints.violation_gradient": ("calls", "self_s"),
    "constraints.project_exact": ("calls", "self_s"),
    "constraints.dist_to_set": ("calls", "self_s"),
    "decoders.decode": ("calls", "self_s"),
    "decoders.vjp": ("calls", "self_s"),
    "decoders.estimate_lipschitz": ("self_s",),
    "alm.alm_project": ("calls", "self_s"),
    "dpo.evaluate": ("calls", "self_s"),
    "dpo.design_loop": ("calls", "self_s"),
    "samplers.sample": ("calls", "self_s"),
    "experiments.sample_population": ("self_s",),
    "experiments._correct_batch": ("calls", "self_s"),
    "experiments._score_batch": ("calls", "self_s"),
    "scores.score": ("calls", "self_s"),
    "runner.run_experiment": ("self_s",),
    "runner.run_design": ("self_s",),
    "runner.build_sampler_config": ("self_s",),
    "runner.load_config": ("self_s",),
    "runner.render_grid": ("calls", "self_s"),
    "serialize.save_vector": ("calls", "self_s"),
}

# modules whose summed self time is reported as a share of traced wall time
MODULES = ("constraints", "decoders", "alm", "dpo", "samplers", "experiments",
           "scores", "runner", "serialize")

# (name, unit); values per chain unless the unit says otherwise
COUNTERS = (
    ("alm.outer_iterations", "iterations/chain"),
    ("alm.inner_iterations", "iterations/chain"),
    ("alm.converged_ratio", "ratio"),
    ("samplers.langevin_steps", "steps/chain"),
    ("samplers.correction_iterations", "iterations/chain"),
    ("samplers.shortfalls", "levels/chain"),
    ("samplers.useful_correction_ratio", "ratio"),
    ("experiments.active_row_ratio", "ratio"),
    ("runner.metrics_bytes", "bytes/chain"),
)

# a correction iteration is useful when it cuts the distance to the set by
# more than this fraction of the distance before it
USEFUL_DROP = 0.01


class Counters:
    """Work counts read from traced results; ``hooks()`` feeds the tracer."""

    def __init__(self):
        self.n = dict.fromkeys(
            ("alm_calls", "alm_converged", "alm_outer", "alm_inner",
             "langevin", "correction", "useful", "shortfalls",
             "rows_active", "rows_seen", "metrics_bytes"), 0)

    def hooks(self) -> dict:
        return {"alm.alm_project": self._alm,
                "samplers.sample": self._sample,
                "experiments._violation_batch": self._violation_batch,
                "runner.run_experiment": self._metrics_file,
                "runner.run_design": self._metrics_file}

    def _alm(self, args, result, exc):
        report = result[1] if exc is None else getattr(exc, "report", None)
        if report is None:
            return
        self.n["alm_calls"] += 1
        self.n["alm_converged"] += bool(report.converged)
        self.n["alm_outer"] += report.outer_iterations
        self.n["alm_inner"] += report.inner_iterations

    def _sample(self, args, result, exc):
        if exc is not None:
            return
        trace = result[1]
        prev = None
        for row in trace.rows:
            if row.phase == "langevin":
                self.n["langevin"] += 1
            else:
                self.n["correction"] += 1
                if prev is not None and prev.dist > 0 and \
                        row.dist < (1.0 - USEFUL_DROP) * prev.dist:
                    self.n["useful"] += 1
            prev = row
        self.n["shortfalls"] += len(trace.shortfalls)

    def _violation_batch(self, args, result, exc):
        if exc is None:
            self.n["rows_active"] += int((result >= args[0].delta).sum())
            self.n["rows_seen"] += len(result)

    def _metrics_file(self, args, result, exc):
        if exc is None:
            path = Path(result["resolved_config"]["out"]) / "metrics.csv"
            self.n["metrics_bytes"] += path.stat().st_size

    def reset(self) -> None:
        for key in self.n:
            self.n[key] = 0

    def values(self, chains: int) -> dict:
        n = self.n
        return {
            "alm.outer_iterations": n["alm_outer"] / chains,
            "alm.inner_iterations": n["alm_inner"] / chains,
            "alm.converged_ratio": _ratio(n["alm_converged"], n["alm_calls"]),
            "samplers.langevin_steps": n["langevin"] / chains,
            "samplers.correction_iterations": n["correction"] / chains,
            "samplers.shortfalls": n["shortfalls"] / chains,
            "samplers.useful_correction_ratio": _ratio(n["useful"],
                                                       n["correction"]),
            "experiments.active_row_ratio": _ratio(n["rows_active"],
                                                   n["rows_seen"]),
            "runner.metrics_bytes": n["metrics_bytes"] / chains,
        }


def _ratio(num: int, den: int) -> float:
    """num / den, and 0.0 when the layer did no such work."""
    return num / den if den else 0.0


def layer_metrics(timed: dict, setup: dict, wall_s: float, chains: int,
                  counters: Counters, offered: set) -> tuple[dict, list]:
    """Build the per-layer metric dict from tracer summaries.

    ``timed`` and ``setup`` map span name -> (calls, self seconds) for the
    traced passes and the traced set-up.  A function the package no longer
    offers is returned in the absent list instead of being reported as zero.
    """
    metrics, absent = {}, []
    for name, fields in FUNCTIONS.items():
        if name not in offered:
            absent.append(name)
            continue
        src = setup if name == "runner.load_config" else timed
        calls, self_s = src.get(name, (0, 0.0))
        if name == "runner.load_config":
            metrics[f"{name}.self_s"] = (self_s, "s")
            continue
        if "calls" in fields:
            metrics[f"{name}.calls"] = (calls / chains, "calls/chain")
        metrics[f"{name}.self_s"] = (self_s / chains, "s/chain")
    for module in MODULES:
        total = sum(s for name, (_, s) in timed.items()
                    if name.split(".")[0] == module)
        metrics[f"{module}.self_share"] = (total / wall_s, "ratio")
    units = dict(COUNTERS)
    for name, value in counters.values(chains).items():
        metrics[name] = (value, units[name])
    return metrics, absent
