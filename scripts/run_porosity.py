#!/usr/bin/env python3
"""Porosity-constrained grid generation: 20 chains per target fraction.

Every final sample lands on the target negative-pixel count exactly; the
manifest records the count, the error fractions, and the graymap dumps.
Acceptance criterion 1 runs ``porosity_study``.
"""

import sys
from pathlib import Path

import numpy as np

from latentprox.experiments import porosity_config
from latentprox.runner import RunConfig, run_experiment
from latentprox.serialize import load_vector


def porosity_study(root="runs"):
    """Run 20 chains at 30% and at 50% into ``root``.

    Returns each fraction's summary lines, target count K and number of
    samples with exactly K negative pixels; it passes when all 20 are exact
    at both fractions.
    """
    runs = {}
    for fraction in (0.3, 0.5):
        out = Path(root) / f"porosity_{int(fraction * 100)}"
        manifest = run_experiment(RunConfig.from_dict(porosity_config(
            fraction=fraction, seed=0, chains=20, out=str(out))))
        K = manifest["measured"]["porosity_count"]
        exact = sum(np.count_nonzero(load_vector(path) < 0) == K
                    for path in (out / "samples").glob("*.txt"))
        runs[fraction] = {"summary": manifest["summary"], "K": K,
                          "exact": exact}
    return {"runs": runs,
            "ok": all(run["exact"] == 20 for run in runs.values())}


def main():
    study = porosity_study()
    for fraction, run in study["runs"].items():
        for line in run["summary"]:
            print(f"[P={fraction:.0%}] {line}")
    return 0 if study["ok"] else 2


if __name__ == "__main__":
    sys.exit(main())
