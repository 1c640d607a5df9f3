#!/usr/bin/env python3
"""Surrogate-steered generation away from a forbidden feature cluster.

Compares the forbidden-cluster rate of the unconstrained sampler (prior
biased toward the forbidden mode) against the constrained sampler, which
triggers proximal corrections on proximity to the forbidden centroid.
"""

import sys

import numpy as np

from latentprox import constraints as C
from latentprox.experiments import centroid_config
from latentprox.runner import (RunConfig, build_constraint,
                               build_sampler_config)
from latentprox.samplers import chain_rng, sample


def forbidden_rate(constrained: bool, model, chains: int = 200) -> float:
    cfg = RunConfig.from_dict(centroid_config(seed=0, chains=chains,
                                              out="unused",
                                              constrained=constrained))
    scfg = build_sampler_config(cfg)
    hits = 0
    for i in range(chains):
        x, _ = sample(scfg, chain_rng(0, i))
        p = C.pc_coordinates(model, x)
        hits += (np.linalg.norm(p - model.forbidden_centroid)
                 < np.linalg.norm(p - model.target_centroid))
    return hits / chains


def main():
    spec = build_constraint(RunConfig.from_dict(
        centroid_config(seed=0, chains=1, out="unused"))["constraint"])
    base = forbidden_rate(False, spec.model)
    steered = forbidden_rate(True, spec.model)
    print(f"unconstrained forbidden-cluster rate: {base:.1%}")
    print(f"constrained forbidden-cluster rate:   {steered:.1%}")
    return 0 if steered <= 0.10 and base >= 0.40 else 2


if __name__ == "__main__":
    sys.exit(main())
