"""The benchmark's four workloads and their output checks.

Each workload loads its frozen config from ``configs/`` through
``runner.load_config`` and calls the entry point a user calls.  A pass is a
fixed list of sub-rounds; sub-round ``k`` of a run with seed ``s`` uses the
root seed ``s * 1000 + k``, so a seed fixes every input and every pass of a
run repeats the same chains.  Only the entry-point call is timed; reading and
checking its outputs happens after the clock stops.

Why these four (see README.md for the metric definitions):

* ``porosity``: per-chain, interpreter-bound path; ``constraints`` and
  ``decoders`` on 256-d vectors, correction loops that run to their cap, and
  4,040 metrics rows written per chain.
* ``centroid``: ALM-bound path on 2-d/4-d arrays, where per-call overhead
  dominates and work varies widely from chain to chain.
* ``population``: the only batched path (``experiments.sample_population``),
  no per-chain Python and no files.
* ``design``: the only path where ``dpo`` does the work (simulator
  evaluations in a Python loop).
"""

from __future__ import annotations

import json
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from latentprox import experiments, runner
from latentprox.diagnostics import fit_gaussian, frechet_distance

CONFIGS = Path(__file__).resolve().parent / "configs"

# porosity: mean distance to the decoder's range may be at most this (today
# ~0.11; inner_cap=1 gives ~0.72)
OFFMANIFOLD_GATE = 0.2
# population: halfspace slack tolerated after the final projection
HALFSPACE_TOL = 1e-9
# population: number of rejection-sampling oracles, and the gate on the ratio
ORACLES = 8
FRECHET_GATE = 5.0
# centroid and design: share of chains that must pass (acceptance 9 allows a
# 10% forbidden rate; the design script's rule is 18 of 20)
PASS_SHARE = 0.9
DESIGN_MSE_RATIO = 0.01


def round_seed(seed: int, k: int) -> int:
    return seed * 1000 + k


@dataclass
class RoundResult:
    """One timed entry-point call and what its outputs showed."""

    elapsed_s: float
    attempted: int
    failed: int
    passed: list = field(default_factory=list)    # per completed chain
    values: list = field(default_factory=list)    # per-chain quality value
    samples: np.ndarray | None = None             # population only
    error: str | None = None


@dataclass
class PassReport:
    """What one pass's outputs showed."""

    attempted: int
    feasible: int
    quality: dict                 # name -> (value, unit)
    gates: dict                   # name -> bool

    @property
    def feasible_fraction(self) -> float:
        return self.feasible / self.attempted


class Workload:
    """A frozen config, an entry point, and the checks on its outputs."""

    name = ""
    chains = 1          # chains per sub-round
    rounds = 1          # sub-rounds per pass
    # None: the timed passes run the chains --seed picks.  A number: the
    # timed passes run fixed chains, and --seed picks the chains of one
    # untimed pass of this many sub-rounds, whose outputs are checked
    check_rounds = None

    def __init__(self):
        self.base = runner.load_config(CONFIGS / f"{self.name}.yaml")
        self.prepare()

    def prepare(self) -> None:
        """Build what a caller builds once before the timed calls."""

    def run_round(self, seed: int, out: Path,
                  around=nullcontext) -> RoundResult:
        """Time one entry-point call; ``around`` wraps the call but not the
        config building or the output checks (the tracer uses it)."""
        shutil.rmtree(out, ignore_errors=True)
        cfg = runner.RunConfig.from_dict(
            dict(self.base.data, seed=seed, chains=self.chains, out=str(out)))
        with around():
            t0 = time.perf_counter()
            try:
                result = self.call(cfg, seed)
            except Exception as exc:  # the call lost every chain of the round
                return RoundResult(time.perf_counter() - t0, self.chains,
                                   self.chains,
                                   error=f"{type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
        return self.collect(cfg, result, elapsed)

    def call(self, cfg, seed):
        return runner.run_experiment(cfg)

    def collect(self, cfg, manifest, elapsed) -> RoundResult:
        raise NotImplementedError

    def report(self, rounds: list[RoundResult], seed: int) -> PassReport:
        raise NotImplementedError


def _finals(cfg, manifest):
    """Final samples of the chains that completed, read from the run dir."""
    out = Path(cfg["out"]) / "samples"
    failed = {e["chain"] for e in manifest["chain_errors"]}
    return [np.array((out / f"chain_{i:04d}.txt").read_text().split(),
                     dtype=float)
            for i in range(int(cfg["chains"])) if i not in failed]


class Porosity(Workload):
    """Exact count on every sample; mean distance to the decoder's range."""

    name = "porosity"
    chains, rounds = 4, 2

    def collect(self, cfg, manifest, elapsed):
        doc = json.loads((Path(cfg["out"]) / "decoder.json").read_text())
        W, b = np.array(doc["weight"]), np.array(doc["bias"])
        con = cfg["constraint"]
        rows, cols = con["grid"]
        target = int(np.floor(float(con["fraction"]) * rows * cols + 0.5))
        finals = _finals(cfg, manifest)
        res = RoundResult(elapsed, int(cfg["chains"]),
                          len(manifest["chain_errors"]))
        for x in finals:
            z = np.linalg.lstsq(W, x - b, rcond=None)[0]
            res.values.append(float(np.linalg.norm(x - b - W @ z)))
            res.passed.append(int(np.count_nonzero(x < 0.0)) == target)
        return res

    def report(self, rounds, seed):
        values = [v for r in rounds for v in r.values]
        dist = float(np.mean(values)) if values else float("inf")
        rep = _pass(rounds, {"offmanifold_dist": (dist, "L2")})
        rep.gates = {"every_sample_exact": rep.feasible == rep.attempted,
                     "offmanifold_dist": dist <= OFFMANIFOLD_GATE}
        return rep


class Centroid(Workload):
    """Final sample nearer the target centroid than the forbidden one.

    Correction work is trigger-gated and heavy-tailed per chain: the ALM
    inner iterations of a 160-chain pass differ by up to 25% from seed to
    seed (141k to 176k over seeds 11-15), which would swamp a 10% bound.  So
    the timed passes run the same chains on every run, and ``--seed`` picks
    the chains of the untimed pass that the checks read.
    """

    name = "centroid"
    chains, rounds = 20, 4
    check_rounds = 8

    def collect(self, cfg, manifest, elapsed):
        m = cfg["constraint"]["model"]
        axes, fmap = np.array(m["axes"]), np.array(m["feature_map"])
        mean = np.array(m["feature_mean"])
        target = np.array(m["target_centroid"])
        forbidden = np.array(m["forbidden_centroid"])
        res = RoundResult(elapsed, int(cfg["chains"]),
                          len(manifest["chain_errors"]))
        for x in _finals(cfg, manifest):
            p = axes @ (fmap @ x - mean)
            res.passed.append(bool(np.linalg.norm(p - target)
                                   < np.linalg.norm(p - forbidden)))
        return res

    def report(self, rounds, seed):
        rep = _pass(rounds, {})
        rep.quality["forbidden_rate"] = (1.0 - rep.feasible_fraction, "ratio")
        rep.gates = {"forbidden_rate": rep.feasible_fraction >= PASS_SHARE}
        return rep


class Population(Workload):
    """Halfspace-feasible samples whose fit matches a rejection oracle.

    One call of 2,000 chains per pass, so that batching dominates: per chain,
    a call of 800 chains costs about 1.5x one of 2,000.
    """

    name = "population"
    chains, rounds = 2000, 1

    def prepare(self):
        # sample_population takes a built sampler config; a caller builds it
        # once, before sampling
        self.sampler = runner.build_sampler_config(self.base)

    def call(self, cfg, seed):
        return experiments.sample_population(
            self.sampler, int(cfg["chains"]), np.random.default_rng(seed))

    def collect(self, cfg, X, elapsed):
        con = cfg["constraint"]
        normal, offset = np.array(con["normal"]), float(con["offset"])
        ok = np.isfinite(X).all(axis=1) & \
            (X @ normal <= offset + HALFSPACE_TOL)
        return RoundResult(elapsed, int(cfg["chains"]), 0,
                           passed=ok.tolist(), samples=X)

    def report(self, rounds, seed):
        samples = [r.samples for r in rounds if r.samples is not None]
        X = np.concatenate(samples) if samples else np.zeros((0, 2))
        ratio = frechet_ratio(X, self.base["constraint"], seed) \
            if len(X) > 2 else float("inf")
        rep = _pass(rounds, {"frechet_ratio": (ratio, "ratio")})
        rep.gates = {"halfspace_feasible": rep.feasible == rep.attempted,
                     "frechet_ratio": ratio <= FRECHET_GATE}
        return rep


class Design(Workload):
    """At least 90% of chains reach final MSE / initial MSE <= 0.01."""

    name = "design"
    chains, rounds = 200, 4

    def call(self, cfg, seed):
        return runner.run_design(cfg)

    def collect(self, cfg, manifest, elapsed):
        res = RoundResult(elapsed, int(cfg["chains"]),
                          len(manifest["chain_errors"]))
        for mse in manifest["reports"]["mse"]:
            ratio = mse[-1] / mse[0]
            res.values.append(ratio)
            res.passed.append(ratio <= DESIGN_MSE_RATIO)
        return res

    def report(self, rounds, seed):
        values = [v for r in rounds for v in r.values]
        rep = _pass(rounds, {"mse_ratio": (float(np.median(values))
                                           if values else float("inf"),
                                           "ratio")})
        rep.gates = {"mse_ratio_share": rep.feasible_fraction >= PASS_SHARE}
        return rep


def _pass(rounds, quality) -> PassReport:
    return PassReport(attempted=sum(r.attempted for r in rounds),
                      feasible=sum(sum(r.passed) for r in rounds),
                      quality=quality, gates={})


def _oracle(con, n: int, rng) -> np.ndarray:
    """Rejection sample of N(0, I) restricted to {x : normal . x <= offset}."""
    normal, offset = np.array(con["normal"]), float(con["offset"])
    out = np.empty((n, len(normal)))
    k = 0
    while k < n:
        batch = rng.standard_normal((2 * n, len(normal)))
        take = batch[batch @ normal <= offset][: n - k]
        out[k:k + len(take)] = take
        k += len(take)
    return out


def frechet_ratio(X, con, seed: int) -> float:
    """Acceptance-10 statistic: Frechet distance of the samples' Gaussian fit
    to rejection-sampling oracles of the same size, over the oracle-to-oracle
    floor.  Uses ``ORACLES`` oracles (acceptance 10 uses 4) so that the floor
    is an average over more pairs."""
    fits = [fit_gaussian(_oracle(con, len(X), np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(j,)))))
        for j in range(ORACLES)]
    floor = np.mean([frechet_distance(fits[j], fits[j + 1])
                     for j in range(ORACLES - 1)])
    fit = fit_gaussian(X)
    return float(np.mean([frechet_distance(fit, f) for f in fits[:-1]])
                 / floor)


WORKLOADS = {w.name: w for w in (Porosity, Centroid, Population, Design)}
