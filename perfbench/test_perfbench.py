"""Smoke tests of the benchmark itself (not part of the tier-1 suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from calibration import Calibration  # noqa: E402
from latentprox import runner  # noqa: E402
from layers import FUNCTIONS, PRIVATE, Counters, layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_CHAINS = {"porosity": 1, "centroid": 2, "population": 40, "design": 4}


def tiny(name):
    wl = WORKLOADS[name]()
    wl.chains, wl.rounds = TINY_CHAINS[name], 1
    return wl


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_frozen_configs_resolve_under_the_strict_schema(name):
    cfg = runner.load_config(HERE / "configs" / f"{name}.yaml")
    assert cfg["seed"] == 0 and cfg["experiment"]


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_every_end_to_end_metric_is_emitted(name, tmp_path):
    cal = Calibration()
    res = run.bench(tiny(name), 3, 0.0, tmp_path, cal)
    metrics = run.end_to_end(res, [0.1])
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        value, unit = metrics[m["name"]]
        assert unit == m["unit"] and value > 0


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_layer_metric_within_wall_time(name,
                                                              tmp_path):
    counters = Counters()
    tracer = Tracer(private=PRIVATE, hooks=counters.hooks())
    lo = tracer.mark()
    with tracer.installed():
        wl = tiny(name)
    setup = (lo, tracer.mark())
    res = run.bench(wl, 3, 0.0, tmp_path, Calibration(), tracer, counters)
    metrics, absent = run.per_layer(res, tracer, counters, setup)
    assert absent == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]][1] == m["unit"]
    wall = sum(p["raw_s"] for p in res["passes"] if p["traced"])
    self_total = sum(s for _, s in tracer.summary(*res["span_range"]).values())
    assert 0 < self_total <= wall


def test_tracer_wraps_every_binding_and_restores_it():
    from latentprox import decoders, dpo, runner as R, samplers

    originals = (samplers.decode, dpo.vjp, R.sample, samplers.alm_project)
    tracer = Tracer()
    with tracer.installed():
        assert samplers.decode is decoders.decode
        assert samplers.decode is not originals[0]
        assert dpo.vjp is decoders.vjp and R.sample is samplers.sample
        assert samplers.alm_project.__perfbench_original__ is originals[3]
    assert (samplers.decode, dpo.vjp, R.sample,
            samplers.alm_project) == originals


def test_removed_function_is_reported_absent_not_zero():
    offered = set(FUNCTIONS) - {"experiments._correct_batch"}
    metrics, absent = layer_metrics({}, {}, 1.0, 1, Counters(), offered)
    assert absent == ["experiments._correct_batch"]
    assert not any(k.startswith("experiments._correct_batch")
                   for k in metrics)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
