"""Write the benchmark's frozen workload configs from the package presets.

Run once, from the repository root, when a workload is defined or changed:

    PYTHONPATH=src python3 perfbench/freeze_configs.py

The benchmark loads only the YAML files this writes, so a later edit to
``latentprox.experiments`` or to ``configs/`` changes the program under test,
never silently the workload.  ``seed``, ``chains`` and ``out`` are placeholders
here: the benchmark sets them for each sub-round from ``--seed``.
"""

from pathlib import Path

import yaml

from latentprox import experiments as EXP

HERE = Path(__file__).resolve().parent / "configs"

PRESETS = {
    "porosity": EXP.porosity_config(fraction=0.3, seed=0, chains=1,
                                    out="unused", grid=(16, 16),
                                    latent_dim=32),
    "centroid": EXP.centroid_config(seed=0, chains=1, out="unused",
                                    constrained=True),
    "population": EXP.fidelity_config(seed=0, chains=1, out="unused"),
    "design": EXP.design_loop_config(seed=0, out="unused"),
}


def main() -> None:
    HERE.mkdir(exist_ok=True)
    for name, raw in PRESETS.items():
        # block style, as in configs/, so load_config parses what a CLI
        # user's file would hold (the porosity file is ~2,150 lines)
        text = yaml.safe_dump(raw, sort_keys=False)
        (HERE / f"{name}.yaml").write_text(
            f"# Frozen from latentprox.experiments; see "
            f"perfbench/freeze_configs.py.\n{text}")


if __name__ == "__main__":
    main()
