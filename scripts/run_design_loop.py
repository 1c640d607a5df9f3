#!/usr/bin/env python3
"""Simulator-in-the-loop inverse design on the saturating synthetic response.

Prints the tracking-MSE trajectory per seed; five smoothed-gradient steps
bring the MSE below 1% of its starting value.
"""

import sys

import numpy as np

from latentprox.dpo import DpoConfig, design_loop
from latentprox.experiments import design_loop_config
from latentprox.runner import RunConfig, build_decoder, build_dpo
from latentprox.samplers import chain_rng


def main():
    cfg = RunConfig.from_dict(design_loop_config(seed=0, out="runs/design"))
    decoder = build_decoder(cfg["decoder"])
    sim, dpo_cfg = build_dpo(cfg["dpo"])
    ok = 0
    for seed in range(20):
        z0 = chain_rng(seed, 0).standard_normal(decoder.latent_dim)
        chain_cfg = DpoConfig(nu=dpo_cfg.nu, M=dpo_cfg.M, seed=seed,
                              target=dpo_cfg.target)
        _, trace = design_loop(z0, decoder, sim, chain_cfg, steps=5,
                               step_size=cfg["design"]["step_size"])
        ratio = trace.mse[5] / trace.mse[0]
        ok += ratio <= 0.01
        print(f"seed {seed:2d}: mse " +
              " -> ".join(f"{v:.4g}" for v in trace.mse) +
              f"   (ratio {ratio:.2e})")
    print(f"{ok}/20 seeds reached <= 1% of the step-0 MSE in 5 steps")
    return 0 if ok >= 18 else 2


if __name__ == "__main__":
    sys.exit(main())
