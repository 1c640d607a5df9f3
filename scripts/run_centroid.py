#!/usr/bin/env python3
"""Surrogate-steered generation away from a forbidden feature cluster.

Compares the forbidden-cluster rate of the unconstrained sampler (prior
biased toward the forbidden mode) against the constrained sampler, which
triggers proximal corrections on proximity to the forbidden centroid, and
the constrained run's ALM work: its projections, how many did not converge
and their mean inner iterations.  Acceptance criterion 9 runs
``centroid_study``.
"""

import sys

import numpy as np

from latentprox import constraints as C
from latentprox.experiments import centroid_config
from latentprox.runner import (RunConfig, build_constraint,
                               build_sampler_config)
from latentprox.samplers import chain_rng, chain_result, sample_chains


def forbidden_rate(constrained: bool, model, chains: int = 200):
    """The forbidden-cluster rate and the ALM reports of every chain."""
    cfg = RunConfig.from_dict(centroid_config(seed=0, chains=chains,
                                              out="unused",
                                              constrained=constrained))
    scfg = build_sampler_config(cfg)
    hits, reports = 0, []
    for result in sample_chains(scfg, [chain_rng(0, i) for i in range(chains)]):
        x, trace = chain_result(result)
        reports += [rep for _, _, rep in trace.alm_reports]
        p = C.pc_coordinates(model, x)
        hits += (np.linalg.norm(p - model.forbidden_centroid)
                 < np.linalg.norm(p - model.target_centroid))
    return hits / chains, reports


def centroid_study():
    """The unconstrained and the constrained forbidden-cluster rate, and the
    constrained run's ALM reports; it passes when the constrained rate is at
    most 10% and the unconstrained one at least 40%."""
    spec = build_constraint(RunConfig.from_dict(
        centroid_config(seed=0, chains=1, out="unused"))["constraint"])
    base, _ = forbidden_rate(False, spec.model)
    steered, reports = forbidden_rate(True, spec.model)
    return {"base": base, "steered": steered, "reports": reports,
            "ok": steered <= 0.10 and base >= 0.40}


def main():
    study = centroid_study()
    reports = study["reports"]
    print(f"unconstrained forbidden-cluster rate: {study['base']:.1%}")
    print(f"constrained forbidden-cluster rate:   {study['steered']:.1%}")
    unconverged = sum(not rep.converged for rep in reports)
    inner = sum(rep.inner_iterations for rep in reports)
    print(f"constrained ALM projections: {len(reports)}  unconverged: "
          f"{unconverged}  mean inner iterations: "
          f"{inner / len(reports):.1f}")
    return 0 if study["ok"] else 2


if __name__ == "__main__":
    sys.exit(main())
