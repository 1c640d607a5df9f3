#!/usr/bin/env python3
"""Empirical checks of the feasibility-contraction and KL-drift bounds.

Part 1 runs the drift-only halfspace experiment over 20 seeds and reports
the fraction of level transitions where the contraction inequality holds,
plus the hitting level against the T* budget.  Part 2 propagates 20
randomized linear-Gaussian chains in closed form and checks the per-level
and cumulative KL drift bounds.
"""

import sys

import numpy as np

from latentprox.diagnostics import (check_fidelity_drift, check_run_contraction,
                                    contraction_horizon,
                                    feasibility_hitting_level,
                                    kl_series_from_moments,
                                    measured_score_bound,
                                    propagate_linear_gaussian)
from latentprox.experiments import (halfspace_contraction_config,
                                    linear_gaussian_fidelity_case)
from latentprox.runner import (RunConfig, build_sampler_config,
                               build_schedule, build_score)
from latentprox.samplers import chain_rng, sample


def main():
    cfg = RunConfig.from_dict(halfspace_contraction_config(seed=0,
                                                           out="unused"))
    scfg = build_sampler_config(cfg)
    traces = [sample(scfg, chain_rng(seed, 0))[1]
              for seed in range(20)]
    rep = check_run_contraction(traces, scfg.constraint, scfg.decoder,
                                beta=1.0)
    held = sum(r.holds for r in rep.records)
    total = len(rep.records)
    hits_ok = True
    for trace in traces:
        d0 = trace.level_end_rows()[0].dist
        t_star = contraction_horizon(rep.beta_prime, scfg.schedule.gamma_min,
                                     d0, eps=1e-6)
        hit = feasibility_hitting_level(trace, 1e-3)
        hits_ok &= hit is not None and hit <= t_star
    print(f"contraction: {held}/{total} transitions hold "
          f"({held / total:.2%}); hit below 1e-3 within T* on all seeds: "
          f"{hits_ok}")

    drift_ok = 0
    for seed in range(20):
        case = linear_gaussian_fidelity_case(seed)
        sched = build_schedule(case["schedule"])
        field = build_score(case["score"], sched)
        moments = propagate_linear_gaussian(sched, field)
        kl = kl_series_from_moments(moments, field)
        G = measured_score_bound(field, moments, draws=256,
                                 rng=np.random.default_rng(1000 + seed))
        rep = check_fidelity_drift(kl, sched, G)
        drift_ok += all(r.holds for r in rep.records) and rep.cumulative.holds
    print(f"kl drift: per-level and cumulative bounds hold on {drift_ok}/20 "
          f"linear-Gaussian suites")
    return 0 if (held / total >= 0.99 and hits_ok and drift_ok == 20) else 2


if __name__ == "__main__":
    sys.exit(main())
