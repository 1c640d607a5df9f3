"""latentprox benchmark: one command, four workloads, end-to-end or traced.

    python3 perfbench/run.py --workload design --seed 1 --seconds 16 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The exit code
is 0 only when every output check passed.  See README.md for the metrics.
"""

from __future__ import annotations

import os

# one BLAS thread in this process, before numpy loads (threads are not a
# lever for these interpreter-bound paths)
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("porosity", "centroid", "population", "design")
SETUP_REPS = 5
WARMUP_ROUND = 999   # round_seed(seed, 999) is never a timed sub-round
FIXED_TIMING_SEED = 0


def measure_setup(workload: str, cal) -> list[float]:
    """Calibrated set-up seconds from SETUP_REPS fresh interpreters."""
    from calibration import scale

    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(HERE / "setup_probe.py"),
           str(HERE / "configs" / f"{workload}.yaml"), workload]
    out = []
    for rep in range(SETUP_REPS + 1):   # the first one warms the file cache
        before = cal.reading()
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=120, check=True)
        after = cal.reading(time.perf_counter() - t0)
        if rep:
            raw = float(done.stdout.strip().splitlines()[-1])
            out.append(scale(raw, [before, after]))
    return out


def environment(readings) -> dict:
    import numpy as np

    from calibration import REF_S

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "calibration_s": statistics.median(readings),
        "calibration_ref_s": REF_S,
    }


def _completed(rounds) -> int:
    return sum(r.attempted - r.failed for r in rounds)


def run_pass(wl, seed, out, cal, readings, around=None) -> dict:
    """One pass of sub-rounds, calibrated by the readings around it."""
    from calibration import scale
    from workloads import round_seed

    kw = {} if around is None else {"around": around}
    first = len(readings) - 1
    rounds = []
    for k in range(wl.rounds):
        gc.collect()
        rounds.append(wl.run_round(round_seed(seed, k), out, **kw))
        readings.append(cal.reading(rounds[-1].elapsed_s))
    raw = sum(r.elapsed_s for r in rounds)
    return {"rounds": rounds, "raw_s": raw,
            "norm_s": scale(raw, readings[first:]),
            "traced": around is not None, "report": wl.report(rounds, seed)}


def bench(wl, seed: int, seconds: float, out: Path, cal, tracer=None,
          counters=None) -> dict:
    """Warm up, then run passes until ``seconds`` have gone by.

    Untraced, every pass is timed.  Traced, one untraced pass is followed by
    traced passes, and the ratio of their times is the tracing overhead.
    For a workload with ``check_rounds``, the warm-up is an untimed pass of
    that many sub-rounds on ``seed``, and the timed passes run
    FIXED_TIMING_SEED.
    """
    from workloads import round_seed

    seeded = None
    if wl.check_rounds:
        rounds = [wl.run_round(round_seed(seed, k), out)
                  for k in range(wl.check_rounds)]
        seeded = {"rounds": rounds, "report": wl.report(rounds, seed)}
        seed = FIXED_TIMING_SEED
        last = rounds[-1]
    else:
        last = wl.run_round(round_seed(seed, WARMUP_ROUND), out)
    # like every later reading, the first covers a tenth of the call before
    # it; a reading of only a few repeats skewed the first pass
    readings = [cal.reading(last.elapsed_s)]
    passes = []
    started = time.perf_counter()
    span_lo = None
    while True:
        around = None
        if tracer is not None and passes:
            if span_lo is None:
                counters.reset()
                span_lo = tracer.mark()
            around = tracer.installed
        passes.append(run_pass(wl, seed, out, cal, readings, around))
        if time.perf_counter() - started >= seconds and \
                (tracer is None or len(passes) >= 2):
            break
    result = {"passes": passes, "readings": readings, "seeded": seeded}
    if tracer is not None:
        result["span_range"] = (span_lo, tracer.mark())
    return result


def checked(res):
    """The pass whose outputs the checks and quality figures read."""
    return (res["seeded"] or res["passes"][0])["report"]


def check(res) -> dict:
    """Gates of the first timed pass and of the seeded pass, if any, plus:
    every timed pass repeated its outputs."""
    first = res["passes"][0]["report"]
    checks = dict(first.gates)
    if res["seeded"] is not None:
        checks.update({f"seed_{k}": v for k, v in
                       res["seeded"]["report"].gates.items()})
    checks["passes_repeat"] = all(
        p["report"].quality == first.quality
        and p["report"].feasible == first.feasible for p in res["passes"])
    return checks


def end_to_end(res, setup) -> dict:
    rates = [_completed(p["rounds"]) / p["norm_s"] for p in res["passes"]]
    return {
        "chains_per_s": (statistics.median(rates), "chains/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "feasible_fraction": (checked(res).feasible_fraction, "ratio"),
    }


def per_layer(res, tracer, counters, setup_range) -> tuple[dict, list]:
    from layers import layer_metrics

    traced = [p for p in res["passes"] if p["traced"]]
    plain = [p for p in res["passes"] if not p["traced"]]
    wall = sum(p["raw_s"] for p in traced)
    chains = sum(_completed(p["rounds"]) for p in traced)
    metrics, absent = layer_metrics(
        tracer.summary(*res["span_range"]), tracer.summary(*setup_range),
        wall, max(chains, 1), counters, tracer.wrapped_names())
    metrics["trace_overhead"] = (
        statistics.median(p["norm_s"] for p in traced)
        / statistics.median(p["norm_s"] for p in plain), "ratio")
    return metrics, absent


def report(args, wl, res, metrics, checks, absent, env) -> dict:
    """Print the human-readable summary; return the result object."""
    passes = res["passes"] + ([res["seeded"]] if res["seeded"] else [])
    rounds = [r for p in passes for r in p["rounds"]]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    quality = checked(res).quality
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(res['passes'])} x {wl.rounds} rounds x {wl.chains} "
          f"chains")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'error_fraction':<40} {failed / attempted:>14.6g} ratio")
    for name, (value, unit) in quality.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print("  per pass chains/s (calibrated, raw): " + ", ".join(
        f"({_completed(p['rounds']) / p['norm_s']:.4g}, "
        f"{_completed(p['rounds']) / p['raw_s']:.4g})" for p in res["passes"]))
    for name, ok in checks.items():
        print(f"  check {name}: {'pass' if ok else 'FAIL'}")
    for r in rounds:
        if r.error:
            print(f"  round error: {r.error}")
    if absent:
        print(f"  absent (no longer in the package): {', '.join(absent)}")
    print(f"  env {json.dumps(env)}")
    return {"correct": all(checks.values()), "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "detail": {"error_fraction": failed / attempted,
                       "quality": {k: v for k, (v, _) in quality.items()},
                       "checks": checks, "absent": absent, "env": env}}


def run_one(args) -> int:
    from calibration import Calibration
    from layers import PRIVATE, Counters
    from tracer import Tracer
    from workloads import WORKLOADS

    out = OUT / args.workload
    out.mkdir(parents=True, exist_ok=True)
    cal = Calibration()
    tracer = counters = None
    if args.trace:
        counters = Counters()
        tracer = Tracer(private=PRIVATE, hooks=counters.hooks())
        lo = tracer.mark()
        with tracer.installed():
            wl = WORKLOADS[args.workload]()
        setup_range = (lo, tracer.mark())
    else:
        wl = WORKLOADS[args.workload]()
    res = bench(wl, args.seed, args.seconds, out / "run", cal, tracer,
                counters)
    absent = []
    if args.trace:
        metrics, absent = per_layer(res, tracer, counters, setup_range)
        tracer.save(out / "spans.npz")
    else:
        metrics = end_to_end(res, measure_setup(args.workload, cal))
    result = report(args, wl, res, metrics, check(res), absent,
                    environment(res["readings"]))
    detail = result.pop("detail")
    (out / f"result_trace{args.trace}.json").write_text(
        json.dumps(dict(result, seed=args.seed, **detail), indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "latentprox" / "__init__.py").is_file():
        print(f"error: no latentprox sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
