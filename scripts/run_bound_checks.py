#!/usr/bin/env python3
"""Empirical checks of the feasibility-contraction and KL-drift bounds.

``contraction_study`` runs the drift-only halfspace experiment over 20
seeds and measures the fraction of level transitions where the contraction
inequality holds, its precondition, and the hitting level against the T*
budget.  ``kl_drift_study`` propagates 20 randomized linear-Gaussian chains
in closed form and checks the per-level and cumulative KL drift bounds.
Acceptance criteria 3 and 4 run these two studies.
"""

import sys

import numpy as np

from latentprox.decoders import estimate_lipschitz
from latentprox.diagnostics import (check_fidelity_drift, check_run_contraction,
                                    contraction_horizon,
                                    feasibility_hitting_level,
                                    kl_series_from_moments,
                                    measured_score_bound,
                                    propagate_linear_gaussian)
from latentprox.experiments import (halfspace_contraction_config,
                                    linear_gaussian_fidelity_case)
from latentprox.runner import RunConfig, build_sampler_config, build_score
from latentprox.samplers import chain_rng, sample
from latentprox.schedules import make_schedule


def contraction_study():
    """Transitions that hold out of all, the precondition, and whether every
    seed hits violation 1e-3 within T*; it passes when at least 99% hold,
    the precondition holds and every seed hits in time."""
    cfg = RunConfig.from_dict(halfspace_contraction_config(seed=0,
                                                           out="unused"))
    scfg = build_sampler_config(cfg)
    traces = [sample(scfg, chain_rng(seed, 0))[1]
              for seed in range(20)]
    ell = estimate_lipschitz(scfg.decoder)
    rep = check_run_contraction(traces, ell)
    held = sum(r.holds for r in rep.records)
    total = len(rep.records)
    hits_ok = True
    for trace in traces:
        d0 = trace.level_end_rows()[0].dist
        t_star = contraction_horizon(rep.beta_prime, scfg.schedule.gamma_min,
                                     d0, eps=1e-6)
        hit = feasibility_hitting_level(trace, 1e-3)
        hits_ok &= hit is not None and hit <= t_star
    return {"held": held, "total": total,
            "precondition_ok": rep.precondition_ok, "hits_ok": hits_ok,
            "ok": held / total >= 0.99 and rep.precondition_ok and hits_ok}


def kl_drift_study():
    """Suites whose per-level and cumulative bounds all hold, out of 20; it
    passes when all 20 do."""
    passing = 0
    for seed in range(20):
        case = linear_gaussian_fidelity_case(seed)
        sched = make_schedule(**case["schedule"])
        field = build_score(case["score"], sched)
        moments = propagate_linear_gaussian(sched, field)
        kl = kl_series_from_moments(moments, field)
        G = measured_score_bound(field, moments, draws=256,
                                 rng=np.random.default_rng(1000 + seed))
        rep = check_fidelity_drift(kl, sched, G)
        passing += all(r.holds for r in rep.records) and rep.cumulative.holds
    return {"passing": passing, "ok": passing == 20}


def main():
    c = contraction_study()
    print(f"contraction: {c['held']}/{c['total']} transitions hold "
          f"({c['held'] / c['total']:.2%}); hit below 1e-3 within T* on all "
          f"seeds: {c['hits_ok']}; precondition: {c['precondition_ok']}")
    k = kl_drift_study()
    print(f"kl drift: per-level and cumulative bounds hold on "
          f"{k['passing']}/20 linear-Gaussian suites")
    return 0 if c["ok"] and k["ok"] else 2


if __name__ == "__main__":
    sys.exit(main())
