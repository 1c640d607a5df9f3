#!/usr/bin/env python3
"""Simulator-in-the-loop inverse design on the saturating synthetic response.

Prints the tracking-MSE trajectory per seed; five smoothed-gradient steps
bring the MSE below 1% of its starting value.  Acceptance criterion 6 runs
``design_study``.
"""

import sys

from latentprox.dpo import design_rows
from latentprox.experiments import design_loop_config
from latentprox.runner import RunConfig, build_decoder, build_dpo
from latentprox.samplers import chain_rng


def design_study():
    """Each of 20 seeds' MSE after 0..5 design steps, and how many seeds
    reach 1% of their step-0 MSE; it passes when at least 18 do.  The 20
    chains run as the rows of one ``design_rows`` block, the path
    ``latentprox design`` runs, chain i seeded by i."""
    cfg = RunConfig.from_dict(design_loop_config(seed=0, out="unused"))
    decoder = build_decoder(cfg["decoder"])
    sim, dpo_cfg = build_dpo(cfg["dpo"])
    seeds = range(20)
    rows = design_rows(
        [chain_rng(seed, 0).standard_normal(decoder.latent_dim)
         for seed in seeds], decoder, sim, dpo_cfg, seeds, steps=5,
        step_size=cfg["design"]["step_size"])
    for error in rows.errors:
        if error is not None:
            raise error
    mses = rows.mse
    reached = sum(mse[5] / mse[0] <= 0.01 for mse in mses)
    return {"mses": mses, "reached": reached, "ok": reached >= 18}


def main():
    study = design_study()
    for seed, mse in enumerate(study["mses"]):
        print(f"seed {seed:2d}: mse " + " -> ".join(f"{v:.4g}" for v in mse)
              + f"   (ratio {mse[5] / mse[0]:.2e})")
    print(f"{study['reached']}/20 seeds reached <= 1% of the step-0 MSE in 5 "
          f"steps")
    return 0 if study["ok"] else 2


if __name__ == "__main__":
    sys.exit(main())
