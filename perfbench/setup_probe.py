"""Time what a command-line user pays before the first chain starts.

Run in a fresh interpreter by ``run.py``:

    python3 perfbench/setup_probe.py <config.yaml> <workload>

It times importing ``latentprox``, ``runner.load_config`` of the YAML, and
the build functions the entry point needs (``build_sampler_config``, or
``build_decoder`` and ``build_dpo`` for design), and prints the seconds
taken.  The interpreter's own start-up is not included.
"""

import sys
import time


def main() -> None:
    t0 = time.perf_counter()
    from latentprox import runner

    cfg = runner.load_config(sys.argv[1])
    if sys.argv[2] == "design":
        runner.build_decoder(cfg["decoder"])
        runner.build_dpo(cfg["dpo"])
    else:
        runner.build_sampler_config(cfg)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
