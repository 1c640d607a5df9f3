import json
import numbers
import re
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
import yaml

from latentprox import constraints as C
from latentprox import experiments as EXP
from latentprox.cli import main as cli_main
from latentprox.decoders import random_mlp_decoder
from latentprox.errors import ConfigError
from latentprox import runner
from latentprox.runner import (KEY_KINDS, SCHEMA, YAML_LOADER, RunConfig,
                               build_constraint, build_sampler_config,
                               load_config,
                               RETIRED_KEYS, render_grid,
                               rerun_from_manifest,
                               resolve_config, run_design, run_experiment)
from latentprox.samplers import chain_rng, sample_chains
from latentprox.schedules import make_schedule
from latentprox.scores import MlpScoreConfig, ScoreField, init_mlp_params
from latentprox.serialize import (decoder_doc, load_vector, save_decoder,
                                  save_score_field, save_vector)

from conftest import centroid_prox_closed_form


def minimal_config(out):
    return {
        "experiment": "mini",
        "seed": 7,
        "chains": 2,
        "out": str(out),
        "schedule": {"T": 4, "abar_end": 0.02, "gamma_max": 0.05,
                     "gamma_min": 0.01, "M": 1},
        "score": {"kind": "linear_gaussian", "mean": [0.0, 0.0],
                  "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "decoder": {"kind": "linear", "latent_dim": 2, "ambient_dim": 3,
                    "init": {"seed": 1}},
        "constraint": {"kind": "halfspace", "normal": [1.0, 0.0, 0.0],
                       "offset": 0.5, "prox_weight": 1e4},
        "sampler": {"mode": "proximal_latent", "lr": 0.5},
    }


def test_minimal_config_resolves_defaults(tmp_path):
    cfg = RunConfig.from_dict(minimal_config(tmp_path / "run"))
    # every default the loader resolves appears in the config
    assert cfg["sampler"]["inner_cap"] == 500
    assert cfg["sampler"]["final_projection"] is True
    assert cfg["reports"]["contraction"] is False


def test_unknown_key_suggestion():
    raw = minimal_config("x")
    raw["schedule"]["gama"] = 0.1
    del raw["schedule"]["gamma_max"]
    with pytest.raises(ConfigError, match="gama"):
        resolve_config(raw)
    try:
        resolve_config(raw)
    except ConfigError as exc:
        assert "gamma" in str(exc)


def test_missing_seed_rejected():
    raw = minimal_config("x")
    del raw["seed"]
    with pytest.raises(ConfigError, match="seed"):
        resolve_config(raw)


# keys removed from the schema, each with a value other than the one it
# now runs
REMOVED_KEYS = [("schedule", "abar_start", 0.9),
                ("dpo", "absorb_scale", True),
                ("dpo", "baseline", False),
                ("design", "mode", "population"),
                ("constraint", "count", 1),
                ("checks", "feasible_final", True),
                ("checks", "fidelity_cumulative", True),
                ("constraint", "smoothness", 2.0),
                ("alm", "multiplier", 0.5),
                ("decoder", "lipschitz_probes", 16),
                ("reports", "beta", 0.5),
                ("decoder.init", "method", "gaussian"),
                ("alm", "penalty", 10.0),
                ("alm", "growth", 0.5),
                ("alm", "penalty_cap", 16.0),
                ("constraint", "margin", 0.01)]
# the sections of the replay test's presets that hold retired keys; between
# them they hold every one
REPLAY_SECTIONS = {
    "design": {"schedule", "decoder", "decoder.init", "sampler", "dpo",
               "design", "reports", "checks"},
    "porosity": {"schedule", "decoder", "decoder.init", "constraint",
                 "sampler", "reports", "checks"},
    "centroid": {"schedule", "decoder", "decoder.init", "constraint",
                 "sampler", "alm", "reports", "checks"}}


def with_key(raw, path, key, value):
    """``raw`` with ``key`` set in its section at the dotted ``path``."""
    section = raw
    for name in path.split("."):
        section = section.setdefault(name, {})
    section[key] = value
    return raw


def retired_key_base(path):
    """A config that resolves with the key of a retired entry at ``path``
    set, since it has the section's required keys."""
    if path in ("dpo", "design"):
        return EXP.design_loop_config(out="x")
    if path == "alm":
        return EXP.centroid_config(out="x")
    return minimal_config("x")


@pytest.mark.parametrize("section, key, value", REMOVED_KEYS,
                         ids=[f"{s}.{k}" for s, k, _ in REMOVED_KEYS])
def test_removed_key_rejected(section, key, value, tmp_path, capsys):
    # a config that sets the key to another value than the one the code
    # runs is refused, naming both, before a run directory is made
    raw = with_key(retired_key_base(section), section, key, value)
    message = (f"{section}.{key} = {value!r} is retired: this version runs "
               f"only {RETIRED_KEYS[section, key]!r}")
    with pytest.raises(ConfigError, match=re.escape(message)):
        resolve_config(raw)
    raw["out"] = str(tmp_path / "run")
    path = write_yaml(tmp_path / "cfg.yaml", raw)
    command = "design" if section in ("dpo", "design") else "sample"
    assert cli_main([command, "--config", str(path)]) == 3
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "run").exists()


RETIRED_VALUES = [(path, key, value)
                  for (path, key), runs in sorted(RETIRED_KEYS.items())
                  for value in ([runs] if runs is not runner.ANY
                                else [0, True, "any"])]


@pytest.mark.parametrize("section, key, value", RETIRED_VALUES,
                         ids=[f"{s}.{k}={v!r}" for s, k, v in RETIRED_VALUES])
def test_retired_key_loads_at_its_value(section, key, value, tmp_path):
    # a config that still sets the key to the one value it runs, or to any
    # value for a key no run read, resolves, from a file too, as the config
    # without it: the key leaves the resolved config the manifest echoes
    want = resolve_config(retired_key_base(section))
    raw = with_key(retired_key_base(section), section, key, value)
    assert resolve_config(raw) == want
    path = write_yaml(tmp_path / "cfg.yaml", raw)
    assert load_config(path).data == want
    assert RunConfig.from_dict(dict(raw, seed=9)).data == dict(want, seed=9)


def exponent_literal(value, change=0):
    """A non-negative ``value`` written as an exponent without a dot, such
    as 1e4, with ``change`` added to its mantissa."""
    _, digits, exp = Decimal(repr(float(value))).normalize().as_tuple()
    return f"{int(''.join(map(str, digits))) + change}e{exp}"


NUMERIC_RETIRED = [(path, key, runs)
                   for (path, key), runs in sorted(RETIRED_KEYS.items())
                   if isinstance(runs, numbers.Real)
                   and not isinstance(runs, bool)]


@pytest.mark.parametrize("section, key, value", NUMERIC_RETIRED,
                         ids=[f"{s}.{k}" for s, k, _ in NUMERIC_RETIRED])
def test_retired_key_loads_as_an_exponent_literal(section, key, value,
                                                   tmp_path):
    # YAML reads an exponent without a dot as a string, which the key's
    # kind read as a number while the key existed: at the value the key
    # runs it loads; at another value, or as a value of another kind (a
    # bool is not a number), it is refused as retired
    want = resolve_config(retired_key_base(section))
    literal = exponent_literal(value)
    raw = with_key(retired_key_base(section), section, key, literal)
    path = write_yaml(tmp_path / "cfg.yaml", raw)
    assert f" {key}: {literal}\n" in path.read_text()
    assert load_config(path).data == want
    for other in (exponent_literal(value, change=1), True, [literal]):
        write_yaml(path, with_key(raw, section, key, other))
        message = (f"{section}.{key} = {other!r} is retired: this version "
                   f"runs only {value!r}")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(path)


def test_retired_keys_are_not_in_the_schema():
    assert sorted(RETIRED_KEYS) == sorted(
        {(s, k) for s, k, _ in REMOVED_KEYS + RETIRED_VALUES})
    assert len(RETIRED_KEYS) == 18
    for path, key in RETIRED_KEYS:
        section = SCHEMA
        for name in path.split("."):
            section = section[name]
        assert key not in section, f"{path}.{key}"
    # only the keys no run read are dropped at any value
    assert sorted(k for k, v in RETIRED_KEYS.items() if v is runner.ANY) == [
        ("dpo", "seed"), ("sampler", "record_vectors")]
    assert set().union(*REPLAY_SECTIONS.values()) == {
        path for path, _ in RETIRED_KEYS}


ROOT = Path(__file__).resolve().parent.parent
CONFIG_FILES = sorted(ROOT.glob("configs/*.yaml")) \
    + sorted(ROOT.glob("perfbench/configs/*.yaml"))


@pytest.mark.parametrize("path", CONFIG_FILES,
                         ids=[str(p.relative_to(ROOT)) for p in CONFIG_FILES])
def test_committed_config_files_load(path):
    # the presets and the benchmark's frozen configs stay valid under the
    # strict schema
    assert load_config(path)["seed"] is not None


PRESETS = {
    "porosity": EXP.porosity_config,
    "centroid": EXP.centroid_config,
    "unconstrained centroid": lambda: EXP.centroid_config(constrained=False),
    "design_loop": EXP.design_loop_config,
    "fidelity": EXP.fidelity_config,
    "halfspace_contraction": EXP.halfspace_contraction_config,
    "noisy halfspace": lambda: EXP.halfspace_contraction_config(
        noise_scale=1.0),
}
RESOLVED = {str(p.relative_to(ROOT)): lambda p=p: load_config(p).data
            for p in CONFIG_FILES}
RESOLVED.update({name: lambda preset=preset: resolve_config(preset())
                 for name, preset in PRESETS.items()})


def resolved_leaves(cfg, schema, path=""):
    """``(key, value, kind)`` of each leaf of a resolved config."""
    for key, default in schema.items():
        where = f"{path}.{key}" if path else key
        if isinstance(default, dict):
            if cfg[key] is not None:
                yield from resolved_leaves(cfg[key], default, where)
        else:
            yield where, cfg[key], KEY_KINDS.get(where, type(default))


def list_entries(value):
    if isinstance(value, list):
        for entry in value:
            yield from list_entries(entry)
    else:
        yield value


@pytest.mark.parametrize("name", sorted(RESOLVED))
def test_resolved_values_have_their_kinds(name):
    cfg = RESOLVED[name]()
    for where, value, kind in resolved_leaves(cfg, SCHEMA):
        if value is None:
            continue
        if isinstance(kind, list):
            assert isinstance(value, list), where
            nested = isinstance(kind[0], list)
            entries = list_entries(value) if nested else value
            element = kind[0][0] if nested else kind[0]
            assert all(type(v) is element for v in entries), where
        elif kind in (bool, int, float, str):
            assert type(value) is kind, where
    # an already-resolved config resolves to itself (CLI overrides and
    # replay resolve one again)
    assert resolve_config(cfg) == cfg


@pytest.mark.parametrize("loader", [YAML_LOADER, yaml.SafeLoader],
                         ids=["default", "without libyaml"])
def test_committed_configs_load_as_under_safe_load(monkeypatch, loader):
    # the default loader is libyaml's when PyYAML has it; either loader
    # resolves every committed config to what yaml.safe_load gives
    monkeypatch.setattr(runner, "YAML_LOADER", loader)
    for path in CONFIG_FILES:
        reference = yaml.safe_load(path.read_text())
        assert load_config(path).data == \
            RunConfig.from_dict(reference).data, path


@pytest.mark.parametrize("loader", [YAML_LOADER, yaml.SafeLoader],
                         ids=["default", "without libyaml"])
def test_load_config_reads_an_exponent_without_a_point(tmp_path, monkeypatch,
                                                       loader):
    # YAML 1.1 reads 5e-1 as a string; the float key still gets 0.5
    monkeypatch.setattr(runner, "YAML_LOADER", loader)
    cfg = minimal_config(tmp_path / "run")
    text = yaml.safe_dump(cfg).replace("lr: 0.5", "lr: 5e-1")
    assert "lr: 5e-1" in text
    assert yaml.load(text, Loader=loader)["sampler"]["lr"] == "5e-1"
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    assert load_config(path)["sampler"]["lr"] == 0.5


@pytest.mark.parametrize("loader", [YAML_LOADER, yaml.SafeLoader],
                         ids=["default", "without libyaml"])
def test_malformed_yaml_names_its_line_and_column(tmp_path, monkeypatch,
                                                  loader):
    monkeypatch.setattr(runner, "YAML_LOADER", loader)
    path = tmp_path / "bad.yaml"
    path.write_text("a: b: c\n")
    with pytest.raises(ConfigError, match=f"cannot parse {re.escape(str(path))}"
                       " at line 1, column 5: "):
        load_config(path)


def test_cli_sample_of_malformed_yaml_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("a: b: c\n")
    assert cli_main(["sample", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot parse {path} at "
                          "line 1, column 5: ")
    assert err.count("\n") == 1


def test_load_config_yaml_and_parse_errors(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(minimal_config(tmp_path / "run")))
    cfg = load_config(path)
    assert cfg["seed"] == 7
    bad = tmp_path / "bad.yaml"
    bad.write_text("seed: 1\n  oops: [unclosed\n")
    with pytest.raises(ConfigError, match="line"):
        load_config(bad)


def test_run_experiment_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    manifest = run_experiment(RunConfig.from_dict(minimal_config(out)))
    assert (out / "manifest.json").exists()
    assert (out / "metrics.csv").exists()
    assert (out / "score.json").exists()
    assert (out / "decoder.json").exists()
    samples = sorted((out / "samples").iterdir())
    assert len(samples) == 2
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "chain,t,i,phase,gamma,score_norm,violation,dist"
    assert manifest["measured"]["lipschitz"] is not None
    # no files outside the declared output directory
    assert set(p.name for p in tmp_path.iterdir()) == {"run"}


def test_manifest_echoes_resolved_defaults(tmp_path):
    out = tmp_path / "run"
    manifest = run_experiment(RunConfig.from_dict(minimal_config(out)))
    stored = json.loads((out / "manifest.json").read_text())
    assert stored["resolved_config"]["sampler"]["inner_cap"] == 500
    assert stored["chain_seeds"] == [[7, 0], [7, 1]]


def test_replay_reproduces_metrics_bit_exactly(tmp_path):
    out = tmp_path / "run"
    run_experiment(RunConfig.from_dict(minimal_config(out)))
    replay_out = tmp_path / "replay"
    rerun_from_manifest(out / "manifest.json", replay_out)
    assert (out / "metrics.csv").read_bytes() == \
        (replay_out / "metrics.csv").read_bytes()
    for name in sorted(p.name for p in (out / "samples").iterdir()):
        assert (out / "samples" / name).read_bytes() == \
            (replay_out / "samples" / name).read_bytes()


def test_porosity_run_counts_and_manifest(tmp_path):
    cfg = EXP.porosity_config(fraction=0.3, seed=0, chains=3,
                              out=str(tmp_path / "poro"), grid=(8, 8),
                              latent_dim=16)
    manifest = run_experiment(RunConfig.from_dict(cfg))
    assert manifest["checks"]["porosity_exact"] is True
    assert manifest["ok"] is True
    pgms = [p for p in (tmp_path / "poro" / "samples").iterdir()
            if p.suffix == ".pgm"]
    assert len(pgms) == 3


def test_final_projection_report_matches_the_unprojected_decodes(
        tmp_path, capsys):
    out = tmp_path / "poro"
    cfg = RunConfig.from_dict(EXP.porosity_config(seed=0, chains=3,
                                                  out=str(out)))
    manifest = run_experiment(cfg)
    # the same chains without the final projection end at the decodes it
    # took
    sampler_cfg = build_sampler_config(cfg)
    sampler_cfg.final_projection = False
    decodes = [x for x, _ in sample_chains(
        sampler_cfg, [chain_rng(0, i) for i in range(3)])]
    finals = [load_vector(out / "samples" / f"chain_{i:04d}.txt")
              for i in range(3)]
    moved = [float(np.linalg.norm(x - final))
             for x, final in zip(decodes, finals)
             if not np.array_equal(x, final)]
    K = sampler_cfg.constraint.target_count
    report = manifest["reports"]["final_projection"]
    assert report == {
        "finals": 3, "changed": len(moved),
        "median_distance": float(np.median(moved)),
        "count_gaps": [abs(int(np.count_nonzero(x < 0.0)) - K)
                       for x in decodes]}
    assert report["changed"] == 3 and min(report["count_gaps"]) > 0
    line = runner.final_projection_line(report)
    assert line.startswith("final projection: changed 3 of 3 finals")
    assert manifest["summary"].count(line) == 1
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed.count(line) == 1
    # a manifest without the report prints nothing new
    doc = json.loads((out / "manifest.json").read_text())
    del doc["reports"]["final_projection"]
    (out / "manifest.json").write_text(json.dumps(doc))
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        row for row in printed if row != line]


def test_design_counters_match_a_counting_simulator(tmp_path, monkeypatch):
    import latentprox.runner as R
    from latentprox.dpo import Simulator

    cfg = EXP.design_loop_config(seed=4, out=str(tmp_path / "plain"))
    cfg["chains"] = 3
    plain = run_design(RunConfig.from_dict(cfg))
    real_make = R.make_simulator
    counters = {}
    for batched in (True, False):
        calls, rows = [], []

        def counting_simulator(name, **params):
            sim = real_make(name, **params)

            def fn(x):
                calls.append(1)
                rows.append(1 if x.ndim == 1 else len(x))
                return sim.fn(x)
            return Simulator(fn=fn, response_dim=sim.response_dim,
                             name=sim.name, batched=batched)

        monkeypatch.setattr(R, "make_simulator", counting_simulator)
        out = tmp_path / f"batched_{batched}"
        cfg["out"] = str(out)
        counters[batched] = run_design(RunConfig.from_dict(cfg))["counters"]
        assert counters[batched] == {
            "design_steps": 3 * 5, "simulator_evaluations": sum(rows),
            "simulator_calls": len(calls)}
        assert sum(rows) == 3 * (6 * 64 + 5)
        # a batched simulator gets one call per estimate and one per
        # baseline for the whole block of 3 chains
        assert len(calls) == (6 + 5 if batched else 3 * (6 * 64 + 5))
        assert (out / "metrics.csv").read_bytes() == \
            (tmp_path / "plain" / "metrics.csv").read_bytes()
    assert plain["counters"] == counters[True]


def test_cli_design_prints_manifest_summary(tmp_path, capsys):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "d"))
    cfg["chains"] = 2
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["design", "--config", str(path)]) == 0
    printed = capsys.readouterr().out.splitlines()
    summary = json.loads((tmp_path / "d" / "manifest.json").read_text())[
        "summary"]
    assert summary == [
        "experiment design_loop: 2/2 chains completed",
        "counters: design_steps 10, simulator_calls 11, "
        "simulator_evaluations 778",
        "check design_mse_ratio: pass"]
    assert printed[-len(summary):] == summary


def test_design_run_and_replay(tmp_path):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "design"))
    manifest = run_design(RunConfig.from_dict(cfg))
    assert manifest["checks"]["design_mse_ratio"] is True
    replay = rerun_from_manifest(tmp_path / "design" / "manifest.json",
                                 tmp_path / "design2")
    assert (tmp_path / "design" / "metrics.csv").read_bytes() == \
        (tmp_path / "design2" / "metrics.csv").read_bytes()


def with_retired_keys(manifest_path):
    """The manifest as it was written while the retired keys existed, a key
    that no run read at an arbitrary value; returns the manifest's resolved
    config before the change and the sections that took a key."""
    doc = json.loads(Path(manifest_path).read_text())
    resolved = doc["resolved_config"]
    before = json.loads(json.dumps(resolved))
    sections = set()
    for (path, key), value in RETIRED_KEYS.items():
        section = resolved
        for name in path.split("."):
            section = section[name] if section is not None else None
        if section is not None:
            section[key] = 7 if value is runner.ANY else value
            sections.add(path)
    Path(manifest_path).write_text(json.dumps(doc))
    return before, sections


@pytest.mark.parametrize("preset", ["design", "porosity", "centroid"])
def test_replay_of_a_manifest_with_retired_keys(tmp_path, preset):
    out = tmp_path / "run"
    files = ["metrics.csv"]
    if preset == "design":
        run_design(RunConfig.from_dict(
            EXP.design_loop_config(seed=0, out=str(out))))
    elif preset == "porosity":
        run_experiment(RunConfig.from_dict(EXP.porosity_config(
            fraction=0.3, seed=0, chains=2, out=str(out), grid=(8, 8),
            latent_dim=16)))
    else:
        # the ALM projections run at the one value of each retired alm key
        run_experiment(RunConfig.from_dict(EXP.centroid_config(
            seed=0, chains=3, out=str(out))))
        files.append("alm.csv")
    before, sections = with_retired_keys(out / "manifest.json")
    assert sections == REPLAY_SECTIONS[preset]
    replay = rerun_from_manifest(out / "manifest.json", tmp_path / "replay")
    for name in files:
        assert (out / name).read_bytes() == \
            (tmp_path / "replay" / name).read_bytes(), name
    # the retired keys leave the replay's resolved config
    assert replay["resolved_config"] == dict(before,
                                             out=str(tmp_path / "replay"))


def test_replay_with_smoothness_keeps_the_contraction_report(tmp_path):
    # constraint.smoothness L divided the contraction constant,
    # 1 / (ell * L); at its only value, 1.0, that is 1 / ell bit for bit,
    # so an old run replays to the same report and files
    out = tmp_path / "run"
    cfg = dict(minimal_config(out), reports={"contraction": True})
    first = run_experiment(RunConfig.from_dict(cfg))
    assert first["reports"]["contraction"]["transitions"] > 0
    doc = json.loads((out / "manifest.json").read_text())
    doc["resolved_config"]["constraint"]["smoothness"] = 1.0
    (out / "manifest.json").write_text(json.dumps(doc))
    replay = rerun_from_manifest(out / "manifest.json", tmp_path / "replay")
    assert replay["reports"]["contraction"] == first["reports"]["contraction"]
    assert (out / "metrics.csv").read_bytes() == \
        (tmp_path / "replay" / "metrics.csv").read_bytes()


def test_replay_rejects_a_retired_key_at_another_value(tmp_path):
    out = tmp_path / "run"
    run_experiment(RunConfig.from_dict(minimal_config(out)))
    doc = json.loads((out / "manifest.json").read_text())
    doc["resolved_config"]["schedule"]["abar_start"] = 0.9
    (out / "manifest.json").write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="schedule.abar_start"):
        rerun_from_manifest(out / "manifest.json", tmp_path / "replay")
    assert not (tmp_path / "replay").exists()


def test_render_grid_bytes(tmp_path):
    path = tmp_path / "g.pgm"
    render_grid(-np.ones((2, 3)), path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n3 2\n255\n")
    assert data[-6:] == bytes([0] * 6)
    render_grid(np.ones((2, 3)), path)
    assert path.read_bytes()[-6:] == bytes([255] * 6)
    render_grid(np.zeros((1, 1)), path)
    assert path.read_bytes()[-1] == 128  # round half up


# ---------------------------------------------------------------------------
# CLI


def write_yaml(path, data):
    Path(path).write_text(yaml.safe_dump(data))
    return path


def test_cli_sample_and_diagnose(tmp_path, capsys):
    cfg = minimal_config(tmp_path / "run")
    cfg["reports"] = {"contraction": True}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc = cli_main(["sample", "--config", str(path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "manifest" in out
    rc = cli_main(["diagnose", "--run", str(tmp_path / "run")])
    assert rc == 0


def test_cli_diagnose_refuses_a_zero_bound(tmp_path, capsys):
    cfg = minimal_config(tmp_path / "run")
    cfg["reports"] = {"contraction": True}
    assert cli_main(["sample", "--config",
                     str(write_yaml(tmp_path / "cfg.yaml", cfg))]) == 0
    path = tmp_path / "run" / "manifest.json"
    stored = json.loads(path.read_text())
    stored["measured"]["lipschitz"] = 0.0
    path.write_text(json.dumps(stored))
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(tmp_path / "run")]) == 3
    assert "decoder bound must be positive" in capsys.readouterr().err


# decoder values the random builders refuse, before the run directory
DECODER_VALUES = {
    "latent_dim -1": {"latent_dim": -1},
    "ambient_dim -3": {"ambient_dim": -3},
    "hidden -1": {"kind": "smooth_mlp", "init": {"seed": 1, "hidden": -1}},
    "hidden 0": {"kind": "smooth_mlp", "init": {"seed": 1, "hidden": 0}},
    "init seed -1": {"init": {"seed": -1}}}


@pytest.mark.parametrize("change", DECODER_VALUES.values(),
                         ids=DECODER_VALUES.keys())
def test_cli_sample_refuses_decoder_values(tmp_path, capsys, change):
    cfg = minimal_config(tmp_path / "run")
    cfg["decoder"].update(change)
    cfg["reports"] = {"contraction": True}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 3
    assert capsys.readouterr().err.startswith(
        "configuration error: decoder sizes must be >= 1")
    assert not (tmp_path / "run").exists()


def test_cli_sample_refuses_a_latent_wider_than_the_ambient(tmp_path,
                                                          capsys):
    cfg = minimal_config(tmp_path / "run")
    cfg["decoder"].update(latent_dim=5, ambient_dim=3)
    cfg["score"] = {"kind": "linear_gaussian", "mean": [0.0] * 5,
                    "cov": np.eye(5).tolist()}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == ("configuration error: decoder latent_dim 5 exceeds its "
                   "ambient_dim 3\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("section, text, names", [
    ("decoder", "{not json", " is not valid JSON: "),
    ("decoder", json.dumps({"type": "decoder", "kind": "linear",
                            "latent_dim": 2, "ambient_dim": 3}),
     " has no key 'weight'"),
    ("score", "{not json", " is not valid JSON: "),
    ("score", json.dumps({"type": "score_field", "kind": "linear_gaussian",
                          "dim": 2}), " has no key 'schedule'")],
    ids=["decoder not json", "decoder without weight", "score not json",
         "score without schedule"])
def test_cli_sample_refuses_an_unreadable_file(tmp_path, capsys, section,
                                               text, names):
    doc = tmp_path / f"{section}.json"
    doc.write_text(text)
    cfg = minimal_config(tmp_path / "run")
    cfg[section] = {"kind": cfg[section]["kind"], "file": str(doc)}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {doc}{names}")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_cli_overrides(tmp_path):
    cfg = minimal_config(tmp_path / "runA")
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    rc = cli_main(["sample", "--config", str(path), "--seed", "9",
                   "--out", str(tmp_path / "runB"), "--chains", "1"])
    assert rc == 0
    stored = json.loads((tmp_path / "runB" / "manifest.json").read_text())
    assert stored["resolved_config"]["seed"] == 9
    assert stored["resolved_config"]["chains"] == 1


def test_cli_config_error_exit_code(tmp_path):
    cfg = minimal_config(tmp_path / "run")
    cfg["smapler"] = cfg.pop("sampler")
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 3


def test_cli_overrides_a_config_with_retired_keys(tmp_path):
    # each retired key the minimal config can hold, at the one value it
    # runs (any value for a key no run read), leaves the manifest
    raw = minimal_config(tmp_path / "runA")
    for (path, key), value in RETIRED_KEYS.items():
        if path.split(".")[0] in raw:
            with_key(raw, path, key, 0 if value is runner.ANY else value)
    path = write_yaml(tmp_path / "cfg.yaml", raw)
    assert cli_main(["sample", "--config", str(path), "--seed", "9",
                     "--out", str(tmp_path / "runB"), "--chains", "1"]) == 0
    stored = json.loads((tmp_path / "runB" / "manifest.json").read_text())
    assert stored["resolved_config"] == resolve_config(dict(
        minimal_config(tmp_path / "runB"), seed=9, chains=1))


@pytest.mark.parametrize("preset", ["centroid", "porosity"])
def test_a_run_crossing_a_block_boundary_writes_the_bytes_of_single_blocks(
        tmp_path, monkeypatch, preset):
    # 33 chains run as a block of 32 and a block of 1, then as 33 blocks of
    # one chain each; every run file and the manifest but its timing match.
    # A block of 32 evaluates its decodes as rows, a lone chain as a point
    chains = runner.BLOCK_ROWS + 1
    raw = getattr(EXP, f"{preset}_config")(seed=3, chains=chains,
                                           out=str(tmp_path / "blocked"))
    blocked = run_experiment(RunConfig.from_dict(raw))
    monkeypatch.setattr(runner, "BLOCK_ROWS", 1)
    single = run_experiment(RunConfig.from_dict(
        dict(raw, out=str(tmp_path / "single"))))
    names = ["metrics.csv", "decoder.json", "score.json"] + [
        f"samples/{name}" for name in blocked["artifacts"]["samples"]]
    if preset == "centroid":
        names.append("alm.csv")
    assert len(names) == (37 if preset == "centroid" else 69)
    for name in names:
        assert (tmp_path / "blocked" / name).read_bytes() == \
            (tmp_path / "single" / name).read_bytes(), name
    docs = [dict(m.data, timing=None, resolved_config=dict(
        m["resolved_config"], out=None)) for m in (blocked, single)]
    assert docs[0] == docs[1]
    assert blocked["chain_errors"] == [] and blocked["ok"]


def test_a_reused_run_directory_keeps_only_the_last_runs_files(tmp_path):
    # a 5-chain centroid run, then a 2-chain unconstrained run, a design
    # run and a porosity run into the same directory: each leaves only its
    # own run files, and its manifest lists only the samples it wrote
    out = tmp_path / "run"
    run_experiment(RunConfig.from_dict(EXP.centroid_config(
        seed=0, chains=5, out=str(out))))
    assert (out / "alm.csv").exists()
    raw = minimal_config(out)
    raw.pop("decoder"), raw.pop("constraint")
    raw["sampler"] = {"mode": "unconstrained"}
    manifest = run_experiment(RunConfig.from_dict(raw))
    listed = ["chain_0000.txt", "chain_0001.txt"]
    assert manifest["artifacts"]["samples"] == listed
    assert sorted(p.name for p in (out / "samples").iterdir()) == listed
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "metrics.csv", "samples", "score.json"]
    run_design(RunConfig.from_dict(dict(
        EXP.design_loop_config(seed=0, out=str(out)), chains=2)))
    assert not list((out / "samples").iterdir())
    assert sorted(p.name for p in out.iterdir()) == [
        "decoder.json", "design_0000.txt", "design_0001.txt",
        "manifest.json", "metrics.csv", "samples", "score.json"]
    manifest = run_experiment(RunConfig.from_dict(EXP.porosity_config(
        seed=0, chains=1, grid=(8, 8), out=str(out))))
    listed = ["chain_0000.pgm", "chain_0000.txt"]
    assert manifest["artifacts"]["samples"] == listed
    assert sorted(p.name for p in (out / "samples").iterdir()) == listed
    assert not list(out.glob("design_*"))


@pytest.mark.parametrize("fidelity", [False, True])
def test_a_run_copies_chain_states_only_for_the_fidelity_report(
        tmp_path, monkeypatch, fidelity):
    # the fidelity report is the one reader of a row's state; a config's
    # sampler.record_vectors, read by nothing, does not change that
    states = []

    def recording(cfg, rngs):
        results = sample_chains(cfg, rngs)
        for _, trace in results:
            states.extend(row.z is not None for row in trace.rows)
        return results

    monkeypatch.setattr(runner, "sample_chains", recording)
    raw = minimal_config(tmp_path / "run")
    raw["sampler"]["record_vectors"] = not fidelity
    raw["reports"] = {"fidelity": fidelity}
    manifest = run_experiment(RunConfig.from_dict(raw))
    assert states and set(states) == {fidelity}
    assert ("fidelity" in manifest["reports"]) is fidelity


def set_alm(**keys):
    return lambda cfg: cfg.update(alm=keys,
                                  sampler=dict(cfg["sampler"], solver="alm"))


def set_constraint(doc):
    return lambda cfg: cfg.update(constraint=doc)


def set_centroid_model(**change):
    """A surrogate_centroid constraint on the minimal config's 3-d ambient
    space; ``change`` sets model keys, and a None drops one."""
    model = {"axes": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
             "feature_mean": [0.0, 0.0, 0.0], "target_centroid": [1.0, 0.0],
             "forbidden_centroid": [-1.0, 0.0], "p_trig": 0.5, **change}

    def mutate(cfg):
        cfg["sampler"]["solver"] = "alm"
        cfg["constraint"] = {
            "kind": "surrogate_centroid", "accept_radius": 1.0,
            "model": {k: v for k, v in model.items() if v is not None}}
    return mutate


# values the loader or a builder rejects, and keys a section's kind needs
def set_dpo_target(target):
    # a dpo sampling solver whose simulator answers 2 values per point
    def mutate(cfg):
        cfg["sampler"]["solver"] = "dpo"
        cfg["dpo"] = {"nu": 0.05, "M": 8, "target": target,
                      "simulator": {"name": "linear",
                                    "matrix": [[1.0, 0.0, 0.0],
                                               [0.0, 1.0, 0.0]]}}
    return mutate


CONFIG_ERRORS = {
    "alm.growth": (set_alm(growth=0.5), "alm.growth = 0.5 is retired: this "
                   "version runs only 2.0"),
    "alm.inner_step": (set_alm(inner_step=0.0),
                       "inner_step must be positive"),
    "schedule.T": (lambda cfg: cfg["schedule"].update(T=0),
                   "T must be >= 1"),
    "constraint.delta": (lambda cfg: cfg["constraint"].update(delta=-1),
                         "delta must be positive"),
    "l2_ball.radius": (set_constraint({"kind": "l2_ball", "radius": -1}),
                       "radius must be positive"),
    "score.cov": (lambda cfg: cfg["score"].update(
        cov=[[1.0, 2.0], [2.0, 1.0]]), "must be positive definite"),
    "box without lower": (
        set_constraint({"kind": "box", "upper": [1.0, 1.0, 1.0]}),
        "box constraint needs 'lower'"),
    "halfspace without normal": (
        set_constraint({"kind": "halfspace", "offset": 0.5}),
        "halfspace constraint needs 'normal'"),
    "halfspace without offset": (
        set_constraint({"kind": "halfspace", "normal": [1.0, 0.0, 0.0]}),
        "halfspace constraint needs 'offset'"),
    "l2_ball without radius": (set_constraint({"kind": "l2_ball"}),
                               "l2_ball constraint needs 'radius'"),
    "porosity without grid": (
        set_constraint({"kind": "porosity", "fraction": 0.3}),
        "porosity constraint needs 'grid'"),
    "porosity without fraction": (
        set_constraint({"kind": "porosity", "grid": [2, 2]}),
        "porosity constraint needs 'fraction'"),
    "dpo sampler without target": (set_dpo_target(None),
                                   "dpo config has no target response"),
    "dpo target of wrong length": (set_dpo_target([0.0, 0.0, 0.0]),
                                   "does not match response_dim 2"),
    "negative seed": (lambda cfg: cfg.update(seed=-1),
                      "seed must be an integer >= 0, got -1"),
    "fractional seed": (lambda cfg: cfg.update(seed=1.5),
                        "seed must be an integer >= 0, got 1.5"),
    "no chains": (lambda cfg: cfg.update(chains=0),
                  "chains must be an integer >= 1, got 0"),
    "unreadable number": (lambda cfg: cfg["constraint"].update(delta="abc"),
                          "constraint.delta must be a number, got 'abc'"),
    "unreadable halfspace normal": (
        lambda cfg: cfg["constraint"].update(normal=["abc", 0.0, 0.0]),
        "constraint.normal must be a list of numbers, got "
        "['abc', 0.0, 0.0]"),
    "unreadable score mean": (lambda cfg: cfg["score"].update(
        mean=[0.0, "x"]), "score.mean must be a list of numbers, got "
        "[0.0, 'x']"),
    "nested halfspace normal": (
        lambda cfg: cfg["constraint"].update(normal=[[1.0], [0.0], [0.0]]),
        "constraint.normal must be a list of numbers, got "
        "[[1.0], [0.0], [0.0]]"),
    "nested level window": (
        lambda cfg: cfg["sampler"].update(correct_levels=[[1, 2]]),
        "sampler.correct_levels must be a list of whole numbers, got "
        "[[1, 2]]"),
    "gaussian decoder init": (lambda cfg: cfg["decoder"]["init"].update(
        method="gaussian"), "decoder.init.method = 'gaussian' is retired: "
        "this version runs only 'orthonormal'"),
    "decoder latent_dim": (lambda cfg: cfg["decoder"].update(latent_dim=3),
                           "decoder latent_dim 3 does not match the "
                           "score's dim 2"),
    "string for a boolean": (
        lambda cfg: cfg["sampler"].update(final_projection="no"),
        "sampler.final_projection must be true or false, got 'no'"),
    "string for a report switch": (
        lambda cfg: cfg.update(reports={"fidelity": "off"}),
        "reports.fidelity must be true or false, got 'off'"),
    "integer for a boolean": (
        lambda cfg: cfg["sampler"].update(final_projection=0),
        "sampler.final_projection must be true or false, got 0"),
    "fraction for an integer": (
        lambda cfg: cfg["schedule"].update(T=2.5),
        "schedule.T must be a whole number, got 2.5"),
    "fraction for inner_cap": (
        lambda cfg: cfg["sampler"].update(inner_cap=3.7),
        "sampler.inner_cap must be a whole number, got 3.7"),
    "fraction for a dimension": (
        lambda cfg: cfg["decoder"].update(ambient_dim=3.5),
        "decoder.ambient_dim must be a whole number, got 3.5"),
    "fractions for a level window": (
        lambda cfg: cfg["sampler"].update(correct_levels=[2.5, 3.9]),
        "sampler.correct_levels must be a list of whole numbers, got "
        "[2.5, 3.9]"),
    "fraction for a grid side": (
        set_constraint({"kind": "porosity", "grid": [1.5, 3],
                        "fraction": 0.5}),
        "constraint.grid must be a list of whole numbers, got [1.5, 3]"),
    "one-level window": (
        lambda cfg: cfg["sampler"].update(correct_levels=[3]),
        "correct_levels must be [t_low, t_high], got [3]"),
    "contraction report without a decoder": (
        lambda cfg: cfg.update(
            decoder=None, sampler={"mode": "projected_ambient"},
            constraint={"kind": "halfspace", "normal": [1.0, 0.0],
                        "offset": 0.5},
            reports={"contraction": True}),
        "reports.contraction needs a decoder"),
    "reversed level window": (
        lambda cfg: cfg["sampler"].update(correct_levels=[5, 1]),
        "correct_levels [t_low, t_high] must have t_low <= t_high, got "
        "[5, 1]"),
    "one-sided grid": (
        set_constraint({"kind": "porosity", "grid": [3], "fraction": 0.5}),
        "porosity grid must be [rows, cols], got [3]"),
    "number for a halfspace normal": (
        set_constraint({"kind": "halfspace", "normal": 1.0, "offset": 0.5}),
        "constraint.normal must be a list of numbers, got 1.0"),
    "number for a level window": (
        lambda cfg: cfg["sampler"].update(correct_levels=2),
        "sampler.correct_levels must be a list of whole numbers, got 2"),
    "boolean for a number": (lambda cfg: cfg["sampler"].update(lr=True),
                             "sampler.lr must be a number, got True"),
    "number for the output directory": (lambda cfg: cfg.update(out=5),
                                        "out must be a string, got 5"),
    "number for a score file": (
        lambda cfg: cfg["score"].update(file=7),
        "score.file must be a string, got 7"),
    "list for a constraint kind": (
        lambda cfg: cfg["constraint"].update(kind=["halfspace"]),
        "constraint.kind must be a string, got ['halfspace']"),
    "number for a decoder file": (
        lambda cfg: cfg["decoder"].update(file=1),
        "decoder.file must be a string, got 1"),
    "number for a simulator name": (
        lambda cfg: cfg.update(dpo={"nu": 0.05, "M": 8,
                                    "simulator": {"name": 3}}),
        "dpo.simulator.name must be a string, got 3"),
    "number for the experiment name": (
        lambda cfg: cfg.update(experiment=3),
        "experiment must be a string, got 3"),
    "centroid model without axes": (
        set_centroid_model(axes=None),
        "missing required key 'constraint.model.axes'"),
    "misspelled centroid model key": (
        set_centroid_model(p_trigger=0.3),
        "unknown key 'p_trigger' at constraint.model; did you mean "
        "'p_trig'?"),
    "unreadable centroid p_trig": (
        set_centroid_model(p_trig="abc"),
        "constraint.model.p_trig must be a number, got 'abc'"),
    "decoder without latent_dim": (
        lambda cfg: cfg["decoder"].pop("latent_dim"),
        "linear decoder needs 'latent_dim'"),
    "mixture without components": (
        lambda cfg: cfg.update(score={"kind": "gaussian_mixture"}),
        "gaussian_mixture score needs 'weights'"),
    "linear_gaussian without cov": (
        lambda cfg: cfg["score"].pop("cov"),
        "linear_gaussian score needs 'cov'"),
}


def test_whole_numbers_resolve_to_integers(tmp_path):
    # 2.0, and 1e1 (a string to PyYAML), are whole numbers
    raw = minimal_config(tmp_path / "run")
    raw["schedule"]["T"] = 2.0
    raw["sampler"]["inner_cap"] = "1e1"
    raw["constraint"]["grid"] = [2.0, 3]
    cfg = RunConfig.from_dict(raw)
    assert cfg["schedule"]["T"] == 2 and type(cfg["schedule"]["T"]) is int
    grid = cfg["constraint"]["grid"]
    assert grid == [2, 3] and all(type(side) is int for side in grid)
    assert cfg["sampler"]["inner_cap"] == 10
    assert build_sampler_config(cfg).inner_cap == 10


@pytest.mark.parametrize("name", sorted(CONFIG_ERRORS))
def test_cli_config_value_error_exit_code(tmp_path, capsys, name):
    # caught when the run's components are built, before any chain runs
    mutate, message = CONFIG_ERRORS[name]
    cfg = minimal_config(tmp_path / "run")
    mutate(cfg)
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert not (tmp_path / "run" / "metrics.csv").exists()


def test_nested_list_keys_keep_their_nesting(tmp_path):
    # the keys of kind [[float]] take a list nested to any depth, as a flat
    # list key did before it refused nesting
    cfg = minimal_config(tmp_path / "run")
    cfg["score"] = {"kind": "gaussian_mixture", "weights": [0.5, 0.5],
                    "means": [[0.0, 0.0], [1.0, 1]],
                    "covs": [[[1.0, 0.0], [0.0, 1.0]]] * 2,
                    "cov": [1, 2]}
    score = RunConfig.from_dict(cfg)["score"]
    assert score["means"] == [[0.0, 0.0], [1.0, 1.0]]
    assert score["covs"] == [[[1.0, 0.0], [0.0, 1.0]]] * 2
    assert score["cov"] == [1.0, 2.0]
    assert [KEY_KINDS[f"score.{k}"] for k in ("means", "covs", "cov")] == [
        [[float]]] * 3


def test_cli_sample_refuses_a_score_file_with_a_shorter_schedule(tmp_path,
                                                                 capsys):
    score_file = tmp_path / "score.json"
    save_score_field(ScoreField(
        kind="mlp", dim=2, schedule=make_schedule(
            T=4, abar_end=0.02, gamma_max=0.05, gamma_min=0.01),
        mlp=init_mlp_params(2, MlpScoreConfig(hidden=(3, 4)),
                            np.random.default_rng(0))), score_file)
    cfg = minimal_config(tmp_path / "run")
    cfg["schedule"]["T"] = 5
    cfg["score"] = {"kind": "mlp", "file": str(score_file)}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        f"configuration error: score.file {score_file} holds a schedule of "
        "4 levels, fewer than schedule.T 5\n")
    assert not (tmp_path / "run").exists()
    # a file schedule as long as the config's runs
    cfg["schedule"]["T"] = 4
    write_yaml(path, cfg)
    assert cli_main(["sample", "--config", str(path)]) == 0


def centroid_yaml_with_exponent_radius(out):
    cfg = EXP.centroid_config(seed=0, chains=1, out=str(out))
    text = yaml.safe_dump(cfg)
    assert "accept_radius: 1.0\n" in text
    return text.replace("accept_radius: 1.0\n", "accept_radius: 1e0\n")


def minimal_yaml_with_constraint(constraint):
    def text(out):
        cfg = minimal_config(out)
        del cfg["constraint"]
        return yaml.safe_dump(cfg) + constraint
    return text


# PyYAML reads an exponent without a dot, such as 5e-1, as a string
EXPONENT_LITERALS = {
    "l2_ball radius": minimal_yaml_with_constraint(
        "constraint:\n  kind: l2_ball\n  radius: 5e-1\n"),
    "porosity margin": minimal_yaml_with_constraint(
        "constraint:\n  kind: porosity\n  grid: [1, 3]\n"
        "  fraction: 0.5\n  margin: 1e-3\n"),
    "centroid accept_radius": centroid_yaml_with_exponent_radius,
}


@pytest.mark.parametrize("name", sorted(EXPONENT_LITERALS))
def test_cli_reads_exponent_literals(tmp_path, name):
    path = tmp_path / "cfg.yaml"
    path.write_text(EXPONENT_LITERALS[name](tmp_path / "run"))
    assert cli_main(["sample", "--config", str(path)]) == 0
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert stored["ok"] is True


@pytest.mark.parametrize("key, value, message", [
    ("bias", [0.0, 0.0, 0.0, 0.0], "unexpected keyword argument 'bias'"),
    ("matrix", None, "missing a required argument: 'matrix'")],
    ids=["bias", "matrix"])
def test_cli_design_simulator_parameters_exit_code(tmp_path, capsys, key,
                                                   value, message):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "d"))
    cfg["dpo"]["simulator"][key] = value
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["design", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: simulator 'saturating'")
    assert message in err


def test_cli_sample_noisy_halfspace_preset(tmp_path):
    # Langevin noise breaks the drift-only contraction inequality on some
    # transitions, so the noisy preset reports the contraction unchecked
    cfg = EXP.halfspace_contraction_config(seed=3, chains=10, noise_scale=1.0,
                                           out=str(tmp_path / "run"))
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 0
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert stored["ok"] is True
    assert stored["reports"]["contraction"]["transitions"] > 0
    # the fidelity report holds what check_fidelity_drift measures, and no
    # contraction constants it never set
    fidelity = stored["reports"]["fidelity"]
    assert set(fidelity) == {"G", "fraction_holding", "transitions",
                             "cumulative_holds", "cumulative_lhs",
                             "cumulative_rhs", "space", "kl_series"}
    assert np.isfinite(fidelity["kl_series"]).all()


def test_cli_projected_run_reports_a_finite_fidelity(tmp_path):
    # a projected chain's state is where its score is read, so the
    # fidelity report fits every level from it
    cfg = EXP.halfspace_contraction_config(seed=3, chains=6, noise_scale=1.0,
                                           out=str(tmp_path / "run"))
    del cfg["decoder"]
    cfg["constraint"] = {"kind": "halfspace", "normal": [1.0, 0.0],
                         "offset": 1.0}
    cfg["sampler"] = {"mode": "projected_ambient", "noise_scale": 1.0}
    cfg["reports"] = {"fidelity": True}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 0
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    fidelity = stored["reports"]["fidelity"]
    assert fidelity["space"] == "ambient"
    assert np.isfinite(fidelity["kl_series"]).all()


def test_cli_check_failure_exit_code(tmp_path):
    # without the final projection a 4x4 porosity run can miss its count,
    # and both chains of seed 18 do, so the measured porosity_exact check
    # fails (at seed 1 both chains meet it)
    cfg = EXP.porosity_config(seed=18, chains=2, out=str(tmp_path / "run"),
                              grid=(4, 4), latent_dim=4)
    cfg["sampler"]["final_projection"] = False
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 2
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert stored["checks"] == {"porosity_exact": False}
    assert not stored["chain_errors"]


# top-level sections each case sets; None drops the section
UNMEASURABLE = {
    "contraction check without its report": (
        {"checks": {"contraction_fraction": 0.99}},
        "checks.contraction_fraction reads the contraction report"),
    "porosity check without a constraint": (
        {"constraint": None, "checks": {"porosity_exact": True}},
        "checks.porosity_exact needs a constraint section"),
    "contraction report without a constraint": (
        {"constraint": None, "reports": {"contraction": True}},
        "reports.contraction needs a constraint section"),
    "contraction report on one level": (
        {"schedule": {"T": 1}, "reports": {"contraction": True}},
        "reports.contraction compares consecutive levels"),
    "contraction report on a zero decoder": (
        {"decoder": {"kind": "linear", "latent_dim": 2, "ambient_dim": 3,
                     "init": {"seed": 1, "scale": 0.0}},
         "reports": {"contraction": True}},
        "reports.contraction needs a decoder with a positive Lipschitz"),
    "fidelity report on a mixture": (
        {"score": {"kind": "gaussian_mixture", "weights": [1.0],
                   "means": [[0.0, 0.0]], "covs": [[[1.0, 0.0], [0.0, 1.0]]]},
         "reports": {"fidelity": True}},
        "reports.fidelity needs a linear_gaussian score")}


@pytest.mark.parametrize("sections, message", UNMEASURABLE.values(),
                         ids=UNMEASURABLE.keys())
def test_cli_sample_refuses_a_report_or_check_it_cannot_compute(
        tmp_path, capsys, sections, message):
    # refused before the first chain, with no run directory left behind,
    # instead of a FAIL after every chain ran or a silently dropped entry
    raw = {key: value for key, value in
           {**minimal_config(tmp_path / "run"), **sections}.items()
           if value is not None}
    path = write_yaml(tmp_path / "cfg.yaml", raw)
    assert cli_main(["sample", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_divergent_chain_exit_code(tmp_path, capsys):
    cfg = minimal_config(tmp_path / "run")
    cfg["schedule"]["gamma_max"] = 1e300
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 4
    assert "chain 0 failed: DivergenceError" in capsys.readouterr().out
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert stored["ok"] is False
    assert [e["divergence"] for e in stored["chain_errors"]] == [True, True]
    assert cli_main(["diagnose", "--run", str(tmp_path / "run")]) == 0
    assert "no completed chain" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_divergent_projected_chain_exit_code(tmp_path):
    cfg = minimal_config(tmp_path / "run")
    cfg["schedule"]["gamma_max"] = 1e300
    del cfg["decoder"]
    cfg["constraint"] = {"kind": "halfspace", "normal": [1.0, 0.0],
                         "offset": 0.5}
    cfg["sampler"] = {"mode": "projected_ambient"}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 4
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert [e["divergence"] for e in stored["chain_errors"]] == [True, True]


def test_caller_errstate_reaches_the_chains(tmp_path):
    raw = minimal_config(tmp_path / "run")
    raw["schedule"]["gamma_max"] = 1e300
    with warnings.catch_warnings(), \
            np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        manifest = run_experiment(RunConfig.from_dict(raw))
    errors = manifest["chain_errors"]
    assert len(errors) == 2
    assert all(e["error"].startswith("DivergenceError") for e in errors)


class FlungDraw:
    """A chain's generator whose second draw (the noise of its first step)
    reads 1e200."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self, *args, **kwargs):
        self.draws += 1
        out = self.rng.standard_normal(*args, **kwargs)
        if self.draws == 2:
            out[...] = 1e200
        return out


def test_a_chain_whose_evaluation_raises_is_a_chain_error(tmp_path,
                                                          monkeypatch):
    # under an error state that raises on overflow, chain 1 is flung to
    # about 1e200 and the norm in its l2-ball evaluation overflows: the run
    # records that chain's error, finishes the other two and writes its
    # manifest
    raw = minimal_config(tmp_path / "run")
    raw["chains"] = 3
    raw["constraint"] = {"kind": "l2_ball", "radius": 1.0}

    def flung_chain_1(root_seed, i):
        rng = chain_rng(root_seed, i)
        return FlungDraw(rng) if i == 1 else rng

    monkeypatch.setattr(runner, "chain_rng", flung_chain_1)
    with np.errstate(over="raise"):
        manifest = run_experiment(RunConfig.from_dict(raw))
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert stored["chain_errors"] == manifest["chain_errors"] == [
        {"chain": 1,
         "error": "FloatingPointError: overflow encountered in multiply",
         "divergence": False}]
    samples = sorted(p.name for p in (tmp_path / "run" / "samples").iterdir())
    assert samples == ["chain_0000.txt", "chain_0002.txt"]


def test_cli_failed_chain_exit_code(tmp_path, monkeypatch):
    import latentprox.runner as R
    real_sample_chains = R.sample_chains

    def sample_failing_chain_1(cfg, rngs):
        return [ValueError("chain 1 broke")
                if rng.bit_generator.seed_seq.spawn_key == (1,) else result
                for rng, result in zip(rngs, real_sample_chains(cfg, rngs))]

    monkeypatch.setattr(R, "sample_chains", sample_failing_chain_1)
    path = write_yaml(tmp_path / "cfg.yaml", minimal_config(tmp_path / "run"))
    assert cli_main(["sample", "--config", str(path)]) == 2
    stored = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert stored["ok"] is False and stored["checks"] == {}
    assert stored["chain_errors"] == [
        {"chain": 1, "error": "ValueError: chain 1 broke",
         "divergence": False}]


@pytest.mark.parametrize("name, preset, chains", [
    ("porosity", EXP.porosity_config, None),
    ("centroid", EXP.centroid_config, None),
    ("design_loop", EXP.design_loop_config, None),
    # the CLI presets run fewer (fidelity) or more (halfspace) chains than
    # the experiments; everything else matches
    ("fidelity", EXP.fidelity_config, (500, 10_000)),
    ("halfspace_contraction", EXP.halfspace_contraction_config, (20, 1)),
])
def test_config_files_match_presets(name, preset, chains):
    root = Path(__file__).resolve().parent.parent
    stored = dict(load_config(root / "configs" / f"{name}.yaml").data)
    expected = dict(RunConfig.from_dict(preset()).data)
    if chains is not None:
        assert (stored.pop("chains"), expected.pop("chains")) == chains
    assert stored == expected


@pytest.mark.parametrize("preset", [
    lambda out: dict(EXP.porosity_config(seed=1, chains=3, grid=(8, 8),
                                         out=out),
                     reports={"contraction": True}),
    lambda out: EXP.halfspace_contraction_config(seed=3, chains=10,
                                                 noise_scale=1.0, out=out),
], ids=["porosity", "halfspace"])
def test_cli_diagnose_matches_manifest(tmp_path, capsys, preset):
    out = tmp_path / "run"
    manifest = run_experiment(RunConfig.from_dict(preset(str(out))))
    rep = manifest["reports"]["contraction"]
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"transitions: {rep['transitions']} " in printed
    assert f"fraction_holding: {rep['fraction_holding']:.4f} " in printed
    assert f"precondition_ok: {rep['precondition_ok']}" in printed


@pytest.mark.parametrize("drop", ["measured", "measured.lipschitz"])
def test_cli_diagnose_without_the_measured_bound_exits_3(tmp_path, capsys,
                                                        drop):
    out = tmp_path / "run"
    run_experiment(RunConfig.from_dict(EXP.halfspace_contraction_config(
        seed=3, chains=3, out=str(out))))
    doc = json.loads((out / "manifest.json").read_text())
    if drop == "measured":
        del doc["measured"]
    else:
        del doc["measured"]["lipschitz"]
    (out / "manifest.json").write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {out / 'manifest.json'} "
                          f"has no '{drop}'") and err.count("\n") == 1


@pytest.mark.parametrize("row, message", [
    ("0,1,0,langevin,abc,1.0,0.0,0.0",
     "could not convert string to float: 'abc'"),
    ("0,1,0,langevin,0.1", "not enough values to unpack")],
    ids=["field", "short row"])
def test_cli_diagnose_of_a_malformed_metrics_row_exits_3(tmp_path, capsys,
                                                         row, message):
    out = tmp_path / "run"
    run_experiment(RunConfig.from_dict(EXP.halfspace_contraction_config(
        seed=3, chains=2, out=str(out))))
    metrics = out / "metrics.csv"
    lines = metrics.read_text().splitlines()
    lines[2] = row
    metrics.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {metrics} line 3: ")
    assert message in err and err.count("\n") == 1


def test_cli_diagnose_reads_a_manifest_with_a_retired_key(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = dict(minimal_config(out), reports={"contraction": True})
    run_experiment(RunConfig.from_dict(cfg))
    with_retired_keys(out / "manifest.json")
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    assert "transitions: " in capsys.readouterr().out


def test_cli_diagnose_prints_counters_before_contraction(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = dict(EXP.porosity_config(seed=1, chains=2, grid=(8, 8),
                                   latent_dim=16, out=str(out)),
               reports={"contraction": True})
    cfg["sampler"]["inner_cap"] = 10
    counters = run_experiment(RunConfig.from_dict(cfg))["counters"]
    stops = counters["correction_stops"]
    assert stops["stagnated"] > 0 and stops["capped"] > 0
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("counters: ")
    assert (f"correction_stops {stops['converged']} converged / "
            f"{stops['stagnated']} stagnated / {stops['capped']} capped"
            in lines[0])
    for name in ("langevin_steps", "correction_iterations", "shortfalls",
                 "alm_projections", "simulator_evaluations"):
        assert f"{name} {counters[name]}" in lines[0]
    assert lines[1].startswith("transitions: ")


def correction_loop_medians(metrics):
    """The median violation at the entry and at the exit of the correction
    loops in a metrics.csv: the row before a loop's first correction row,
    and its last correction row."""
    rows = [line.split(",") for line in metrics.read_text().splitlines()[1:]]
    entries, exits = [], []
    for k, (chain, t, i, phase, *_, violation, dist) in enumerate(rows):
        if phase != "correction":
            continue
        if i == "1":
            entries.append(float(rows[k - 1][6]))
        if k + 1 == len(rows) or rows[k + 1][3] != "correction" \
                or rows[k + 1][2] == "1":
            exits.append(float(violation))
    assert len(entries) == len(exits)
    return len(entries), np.median(entries), np.median(exits)


def test_cli_diagnose_prints_the_correction_loop_medians(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = EXP.porosity_config(seed=1, chains=2, grid=(8, 8), out=str(out))
    counters = run_experiment(RunConfig.from_dict(cfg))["counters"]
    loops, entry, exit_ = correction_loop_medians(out / "metrics.csv")
    assert loops == sum(counters["correction_stops"].values()) > 0
    assert exit_ < entry
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == (f"correction loops: {loops}, median violation at "
                         f"entry {entry:.6g}, at exit {exit_:.6g}")


def test_cli_diagnose_of_a_run_without_correction_loops(tmp_path, capsys):
    out = tmp_path / "run"
    cfg = minimal_config(out)
    cfg["constraint"]["offset"] = 1e3  # every decoded point is feasible
    counters = run_experiment(RunConfig.from_dict(cfg))["counters"]
    assert sum(counters["correction_stops"].values()) == 0
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "correction loops: 0"


@pytest.mark.parametrize("command", ["sample", "design"])
def test_cli_diagnose_prints_the_summary_counters_line(tmp_path, capsys,
                                                      command):
    # a run prints its counters in the key order of its saved manifest, so
    # diagnose prints the same line; a design run's metrics.csv holds no
    # sampling trace, so diagnose has nothing more to report
    out = tmp_path / "run"
    if command == "design":
        cfg = dict(EXP.design_loop_config(seed=0, out=str(out)), chains=2)
    else:
        cfg = dict(minimal_config(out), reports={"contraction": True})
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main([command, "--config", str(path)]) == 0
    summary = json.loads((out / "manifest.json").read_text())["summary"]
    assert summary[1].startswith("counters: ")
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == summary[1]
    if command == "design":
        assert lines[1:] == ["design run: its metrics.csv holds MSE rows "
                             "and no sampling trace; nothing to diagnose"]
    else:
        assert lines[1].startswith("transitions: ")


def test_cli_project_roundtrip(tmp_path):
    from latentprox.serialize import load_vector, save_vector
    cfg = {"seed": 0, "out": str(tmp_path / "o"),
           "constraint": {"kind": "l2_ball", "radius": 1.0}}
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    vec = tmp_path / "x.txt"
    save_vector(np.array([3.0, 4.0]), vec)
    rc = cli_main(["project", "--config", str(path), "--input", str(vec),
                   "--out", str(tmp_path / "y.txt")])
    assert rc == 0
    assert np.allclose(load_vector(tmp_path / "y.txt"), [0.6, 0.8])


@pytest.mark.parametrize("weight", ["0.5", "50"],
                         ids=["smooth", "disc edge"])
def test_cli_project_prox_matches_the_centroid_closed_form(tmp_path, weight):
    # at weight 0.5 the prox moves the point by 0.5 toward the disc; at 50
    # it lands on the disc's edge, a kink of the violation
    config = ROOT / "configs" / "centroid.yaml"
    x = np.array([-5.0, 3.0, -2.0, 4.0])
    save_vector(x, tmp_path / "x.txt")
    assert cli_main(["project", "--config", str(config), "--input",
                     str(tmp_path / "x.txt"), "--prox", "--weight", weight,
                     "--out", str(tmp_path / "y.txt")]) == 0
    spec = build_constraint(load_config(config)["constraint"])
    np.testing.assert_allclose(
        load_vector(tmp_path / "y.txt"),
        centroid_prox_closed_form(spec, x, float(weight)), rtol=0, atol=1e-9)


def test_cli_project_refuses_a_weight_without_prox(tmp_path, capsys):
    # the weight is the prox's; a projection would silently ignore it
    config = ROOT / "configs" / "fidelity.yaml"
    save_vector(np.array([3.0, 0.0]), tmp_path / "x.txt")
    assert cli_main(["project", "--config", str(config), "--input",
                     str(tmp_path / "x.txt"), "--weight", "0.5",
                     "--out", str(tmp_path / "y.txt")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --weight ")
    assert err.count("\n") == 1
    assert not (tmp_path / "y.txt").exists()


def test_cli_sample_rejects_a_grid_that_does_not_fit_the_decoder(tmp_path,
                                                                 capsys):
    raw = yaml.load((ROOT / "configs" / "porosity.yaml").read_text(),
                    Loader=YAML_LOADER)
    raw["constraint"]["grid"] = [8, 8]
    path = write_yaml(tmp_path / "cfg.yaml", dict(raw, out=str(tmp_path / "p")))
    assert cli_main(["sample", "--config", str(path)]) == 3
    assert ("porosity constraint takes 64-d points, but the decoder's "
            "ambient_dim is 256") in capsys.readouterr().err
    assert not (tmp_path / "p" / "metrics.csv").exists()


def test_cli_sample_refuses_an_unconstrained_porosity_run(tmp_path, capsys):
    # the finals of an unconstrained run are 16-d latents, not 8x8 grids;
    # the run is refused before its first chain, not failed after it
    raw = EXP.porosity_config(fraction=0.3, seed=3, chains=2,
                              out=str(tmp_path / "p"), grid=(8, 8),
                              latent_dim=16)
    raw["sampler"]["mode"] = "unconstrained"
    path = write_yaml(tmp_path / "cfg.yaml", raw)
    assert cli_main(["sample", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: a porosity constraint ")
    assert err.count("\n") == 1
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("section, key", [("checks", "porosity_exact"),
                                          ("reports", "contraction")])
def test_cli_sample_refuses_an_unconstrained_run_with_a_constraint(
        tmp_path, capsys, section, key):
    # the sampler never reads the constraint of an unconstrained run, and
    # its finals are latents, which a check on decoded points cannot take:
    # the run is refused before its first chain
    raw = minimal_config(tmp_path / "run")
    raw["sampler"]["mode"] = "unconstrained"
    raw[section] = {key: True}
    path = write_yaml(tmp_path / "cfg.yaml", raw)
    assert cli_main(["sample", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: a halfspace constraint ")
    assert err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("alm, tol", [(None, 0.05), ({"growth": 2.0}, 0.05),
                                      ({"tol": 0.02}, 0.02)],
                         ids=["no section", "growth only", "tol set"])
def test_alm_tol_defaults_to_the_constraint_delta(tmp_path, alm, tol):
    # with or without an alm section, an unset tol is the constraint's
    # delta (0.05 in the preset), and the manifest records the number
    raw = EXP.centroid_config(seed=0, chains=1, out=str(tmp_path / "c"))
    raw["alm"] = alm
    cfg = RunConfig.from_dict(raw)
    assert build_sampler_config(cfg).alm.tol == tol
    manifest = run_experiment(cfg)
    assert manifest["resolved_config"]["alm"]["tol"] == tol
    stored = json.loads((tmp_path / "c" / "manifest.json").read_text())
    assert stored["resolved_config"]["alm"]["tol"] == tol


@pytest.mark.parametrize("name, kind, dim", [
    ("porosity", "porosity", 256), ("halfspace_contraction", "halfspace", 3)])
def test_cli_project_rejects_a_vector_of_the_wrong_length(tmp_path, capsys,
                                                         name, kind, dim):
    from latentprox.serialize import save_vector
    vec = tmp_path / "x.txt"
    save_vector(np.zeros(10), vec)
    rc = cli_main(["project", "--config", str(ROOT / "configs" / f"{name}.yaml"),
                   "--input", str(vec), "--out", str(tmp_path / "y.txt")])
    assert rc == 3
    assert (f"input has 10 values; the {kind} constraint takes {dim}"
            in capsys.readouterr().err)
    assert not (tmp_path / "y.txt").exists()


def test_porosity_one_pass_evaluate_matches_the_composed_reference(
        tmp_path, monkeypatch):
    # the chain loop's one-pass evaluate and the reference built from the
    # separate violation, projection and norm give the same run files
    raw = yaml.load((ROOT / "configs" / "porosity.yaml").read_text(),
                    Loader=YAML_LOADER)
    fast, composed = tmp_path / "fast", tmp_path / "composed"
    run_experiment(RunConfig.from_dict(dict(raw, chains=2, out=str(fast))))
    calls = []

    def composed_evaluate(spec, x):
        calls.append(1)
        residual = x - C.project_exact(spec, x)
        return C.violation(spec, x), float(np.linalg.norm(residual)), residual

    monkeypatch.setattr(C, "evaluate", composed_evaluate)
    run_experiment(RunConfig.from_dict(dict(raw, chains=2,
                                            out=str(composed))))
    assert calls
    names = sorted(p.name for p in (fast / "samples").iterdir())
    assert names == sorted(p.name for p in (composed / "samples").iterdir())
    for rel in ["metrics.csv"] + [f"samples/{name}" for name in names]:
        assert (fast / rel).read_bytes() == (composed / rel).read_bytes(), rel


def test_cli_design(tmp_path):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "d"))
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["design", "--config", str(path)]) == 0


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_cli_divergent_design_chain_exit_code(tmp_path, capsys):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "d"))
    # a far target makes the first step overflow the latent
    cfg["chains"] = 2
    cfg["dpo"]["target"] = [1e5] * 4
    cfg["design"]["step_size"] = 1e308
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["design", "--config", str(path)]) == 4
    assert "chain 0 failed: DivergenceError" in capsys.readouterr().out
    stored = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert stored["ok"] is False
    assert [e["divergence"] for e in stored["chain_errors"]] == [True, True]


def test_cli_non_finite_simulator_exit_code(tmp_path, capsys):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "d"))
    cfg["dpo"]["simulator"]["matrix"][0][0] = float("nan")
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["design", "--config", str(path)]) == 2
    assert "chain 0 failed: SimulatorError" in capsys.readouterr().out
    stored = json.loads((tmp_path / "d" / "manifest.json").read_text())
    assert stored["ok"] is False
    assert stored["chain_errors"] == [
        {"chain": 0, "error": "SimulatorError: simulator 'saturating' "
         "returned non-finite values", "divergence": False}]


def test_cli_design_target_of_wrong_length_exit_code(tmp_path, capsys):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "d"))
    cfg["dpo"]["target"] = [0.0] * 3
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["design", "--config", str(path)]) == 3
    assert "does not match response_dim 4" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("section, change, message", [
    ("design", {"steps": 0}, "design.steps must be >= 1"),
    ("dpo", {"target": None}, "requires a dpo section with a target"),
    ("decoder", None, "requires a decoder")])
def test_cli_design_refuses_before_the_run_directory(tmp_path, capsys,
                                                     section, change,
                                                     message):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "d"))
    if change is None:
        del cfg[section]
    else:
        cfg[section].update(change)
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["design", "--config", str(path)]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_design_run_without_a_design_section_takes_its_defaults(tmp_path):
    cfg = EXP.design_loop_config(seed=0, out=str(tmp_path / "d"))
    del cfg["design"]
    manifest = run_design(RunConfig.from_dict(cfg))
    assert manifest["ok"]
    assert manifest["counters"]["design_steps"] == \
        cfg["chains"] * SCHEMA["design"]["steps"]


PROJECT_HALFSPACE = ["project", "--config",
                     str(ROOT / "configs" / "halfspace_contraction.yaml")]


# a path the command cannot read, or a file it reads that does not parse
@pytest.mark.parametrize("argv, files, message", [
    (["sample", "--config", "{tmp}/missing.yaml"], {}, "No such file"),
    (["sample", "--config", "{tmp}"], {}, "Is a directory"),
    (PROJECT_HALFSPACE + ["--input", "{tmp}/missing.txt"], {},
     "No such file"),
    (["diagnose", "--run", "{tmp}/missing_run"], {}, "No such file"),
    (PROJECT_HALFSPACE + ["--input", "{tmp}/x.txt"], {"x.txt": "1.0 abc\n"},
     "x.txt: 'abc' is not a number"),
    (["diagnose", "--run", "{tmp}"], {"manifest.json": "{not json\n"},
     "manifest.json is not valid JSON"),
    (["diagnose", "--run", "{tmp}"], {"manifest.json": "[]"},
     "manifest.json is not a run manifest"),
    (["diagnose", "--run", "{tmp}"], {"manifest.json": "{}"},
     "manifest.json is not a run manifest"),
    (["diagnose", "--run", "{tmp}"],
     {"manifest.json": '{"resolved_config": 5}'},
     "manifest.json is not a run manifest")],
    ids=["config", "config directory", "input", "run", "input token",
         "manifest", "manifest list", "manifest without config",
         "manifest config not an object"])
def test_cli_unreadable_path_exit_code(tmp_path, capsys, argv, files,
                                       message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert cli_main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert message in err and str(tmp_path) in err


@pytest.mark.parametrize("argv", [
    ["sample"],
    ["diagnose", "--run", "{tmp}", "--beta", "1"],
    ["smaple", "--config", "{tmp}/cfg.yaml"]],
    ids=["missing flag", "unknown flag", "unknown command"])
def test_cli_usage_error_exit_code(tmp_path, capsys, argv):
    # argparse exits 2 on its own, the code of a failed check
    with pytest.raises(SystemExit) as exc:
        cli_main([arg.format(tmp=tmp_path) for arg in argv])
    assert exc.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: latentprox") and "error: " in err


FLAG = re.compile(r"--[a-z][a-z-]*")


def cli_help(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + ["--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_readme_cli_block_matches_the_parser(capsys):
    # one README entry per subcommand, naming each flag its --help prints;
    # an entry runs on over indented lines
    block = (ROOT / "README.md").read_text().split("## CLI", 1)[1] \
        .split("```")[1]
    lines = {entry.split()[1]: entry
             for entry in re.split(r"\n(?=latentprox )", block.strip())}
    commands = re.search(r"\{([a-z,-]+)\}", cli_help(capsys, [])).group(1)
    assert sorted(lines) == sorted(commands.split(","))
    for command, line in lines.items():
        flags = set(FLAG.findall(cli_help(capsys, [command]))) - {"--help"}
        assert set(FLAG.findall(line)) == flags, command


def test_cli_diagnose_after_the_decoder_file_is_gone(tmp_path, capsys):
    # the bound diagnose needs is the manifest's measured.lipschitz
    decoder_file = tmp_path / "decoder.json"
    save_decoder(random_mlp_decoder(2, 3, hidden=8, seed=1), decoder_file)
    out = tmp_path / "run"
    cfg = dict(minimal_config(out), decoder={"kind": "smooth_mlp",
                                             "file": str(decoder_file)},
               reports={"contraction": True})
    rep = run_experiment(RunConfig.from_dict(cfg))["reports"]["contraction"]
    decoder_file.unlink()
    capsys.readouterr()
    assert cli_main(["diagnose", "--run", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[1] == (
        f"transitions: {rep['transitions']}  fraction_holding: "
        f"{rep['fraction_holding']:.4f}  G: {rep['G']:.4f}  "
        f"precondition_ok: {rep['precondition_ok']}")


def test_replay_and_diagnose_of_a_run_with_old_lipschitz_keys(tmp_path,
                                                              capsys):
    # a run once wrote reports.beta: 1.0 into its manifest, and the bound
    # and probe count into decoder.json
    dec = random_mlp_decoder(2, 3, hidden=8, seed=1)
    decoder_file = tmp_path / "old_decoder.json"
    decoder_file.write_text(json.dumps(dict(
        decoder_doc(dec), lipschitz_bound=1.5, lipschitz_probes=64)))
    out = tmp_path / "run"
    cfg = dict(minimal_config(out), decoder={"kind": "smooth_mlp",
                                             "file": str(decoder_file)},
               reports={"contraction": True})
    first = run_experiment(RunConfig.from_dict(cfg))
    doc = json.loads((out / "manifest.json").read_text())
    doc["resolved_config"]["reports"]["beta"] = 1.0
    doc["reports"]["contraction"]["beta"] = 1.0
    (out / "manifest.json").write_text(json.dumps(doc))
    replay = rerun_from_manifest(out / "manifest.json", tmp_path / "replay")
    assert replay["reports"] == first["reports"]
    names = ["metrics.csv", "decoder.json", "score.json"] + [
        f"samples/{p.name}" for p in (out / "samples").iterdir()]
    for name in names:
        assert (out / name).read_bytes() == \
            (tmp_path / "replay" / name).read_bytes(), name
    printed = []
    for run in (out, tmp_path / "replay"):
        capsys.readouterr()
        assert cli_main(["diagnose", "--run", str(run)]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] and "transitions: " in printed[0]


def test_cli_degenerate_centroid_exit_code(tmp_path, capsys):
    cfg = EXP.centroid_config(seed=0, chains=1, out=str(tmp_path / "run"))
    model = cfg["constraint"]["model"]
    model["forbidden_centroid"] = model["target_centroid"]
    path = write_yaml(tmp_path / "cfg.yaml", cfg)
    assert cli_main(["sample", "--config", str(path)]) == 3
    assert capsys.readouterr().err == (
        "configuration error: centroids must be distinct\n")


def train_score_config(tmp_path):
    cfg = {"seed": 0, "out": str(tmp_path / "o"),
           "schedule": {"T": 4, "abar_end": 0.02, "gamma_max": 0.05,
                        "gamma_min": 0.01},
           "score": {"kind": "linear_gaussian", "mean": [0.0, 0.0],
                     "cov": [[1.0, 0.0], [0.0, 1.0]]}}
    return write_yaml(tmp_path / "cfg.yaml", cfg)


def test_cli_train_score(tmp_path):
    path = train_score_config(tmp_path)
    out = tmp_path / "mlp.json"
    rc = cli_main(["train-score", "--config", str(path), "--out", str(out),
                   "--samples", "128", "--epochs", "3", "--hidden", "8",
                   "--batch", "32"])
    assert rc == 0
    from latentprox.serialize import load_score_field
    f = load_score_field(out)
    assert f.kind == "mlp" and f.dim == 2


@pytest.mark.parametrize("samples", ["-1", "0"])
def test_cli_train_score_refuses_a_sample_count_below_1(tmp_path, capsys,
                                                        samples):
    out = tmp_path / "mlp.json"
    assert cli_main(["train-score", "--config", str(train_score_config(
        tmp_path)), "--out", str(out), "--samples", samples]) == 3
    assert capsys.readouterr().err == (
        f"configuration error: --samples must be >= 1, got {samples}\n")
    assert not out.exists()


def test_extra_chains_do_not_change_earlier_metrics(tmp_path):
    # each chain draws from its own stream, so adding chains only appends rows
    run_experiment(RunConfig.from_dict(minimal_config(tmp_path / "c2")))
    raw3 = dict(minimal_config(tmp_path / "c3"), chains=3)
    run_experiment(RunConfig.from_dict(raw3))
    rows2 = (tmp_path / "c2" / "metrics.csv").read_text().splitlines()
    rows3 = (tmp_path / "c3" / "metrics.csv").read_text().splitlines()
    assert len(rows3) > len(rows2)
    assert rows3[:len(rows2)] == rows2


def test_porosity_error_report_and_count_in_manifest(tmp_path):
    cfg = EXP.porosity_config(fraction=0.3, seed=1, chains=2,
                              out=str(tmp_path / "p"), grid=(8, 8),
                              latent_dim=16)
    manifest = run_experiment(RunConfig.from_dict(cfg))
    assert manifest["measured"]["porosity_count"] == 19  # 0.3*64 half-up
    rep = manifest["reports"]["porosity_error"]
    assert rep["max_fraction"] == 0.0
    assert rep["samples_above_0.10"] == 0
    assert any("porosity error" in line for line in manifest["summary"])


def test_alm_stream_written(tmp_path):
    cfg = EXP.centroid_config(seed=0, chains=2, out=str(tmp_path / "c"))
    manifest = run_experiment(RunConfig.from_dict(cfg))
    alm_csv = tmp_path / "c" / "alm.csv"
    if alm_csv.exists():  # written whenever any correction invoked the solver
        lines = alm_csv.read_text().splitlines()
        assert lines[0].startswith("chain,t,i,outer_iterations")
        assert len(lines) > 1


def correction_runs(metrics_rows):
    """Maximal runs of consecutive correction rows of one chain: one per
    correction loop that ran an update."""
    runs, prev = 0, None
    for row in metrics_rows:
        chain, _, _, phase = row.split(",")[:4]
        if phase == "correction" and prev != (chain, "correction"):
            runs += 1
        prev = (chain, phase)
    return runs


def test_manifest_counters_match_metrics_and_traces(tmp_path):
    # an 8x8 porosity run with a cap of 10: its correction loops stop
    # stagnated or capped, above delta, so the run has shortfalls to count
    cfg = EXP.porosity_config(fraction=0.3, seed=1, chains=2,
                              out=str(tmp_path / "p"), grid=(8, 8),
                              latent_dim=16)
    cfg["sampler"]["inner_cap"] = 10
    manifest = run_experiment(RunConfig.from_dict(cfg))
    stored = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert stored["counters"] == manifest["counters"]
    rows = (tmp_path / "p" / "metrics.csv").read_text().splitlines()[1:]
    phases = [line.split(",")[3] for line in rows]
    sampler_cfg = build_sampler_config(RunConfig.from_dict(cfg))
    traces = [trace for _, trace in sample_chains(
        sampler_cfg, [chain_rng(1, i) for i in range(2)])]
    shortfalls = sum(len(trace.shortfalls) for trace in traces)
    reasons = [reason for trace in traces for _, _, reason in trace.stops]
    stops = {reason: reasons.count(reason)
             for reason in ("converged", "stagnated", "capped")}
    assert shortfalls > 0 and stops["stagnated"] > 0 and stops["capped"] > 0
    # one stop per corrected level, each level a run of correction rows
    assert sum(stops.values()) == correction_runs(rows)
    assert manifest["counters"] == {
        "langevin_steps": phases.count("langevin"),
        "correction_iterations": phases.count("correction"),
        "correction_stops": stops,
        "shortfalls": shortfalls, "alm_projections": 0,
        "alm_unconverged": 0, "alm_inner_iterations": 0,
        "simulator_evaluations": 0, "simulator_calls": 0}
    assert (f"counters: alm_inner_iterations 0, alm_projections 0, "
            f"alm_unconverged 0, "
            f"correction_iterations {phases.count('correction')}, "
            f"correction_stops {stops['converged']} converged / "
            f"{stops['stagnated']} stagnated / {stops['capped']} capped, "
            f"langevin_steps {phases.count('langevin')}, "
            f"shortfalls {shortfalls}, simulator_calls 0, "
            f"simulator_evaluations 0") in manifest["summary"]


def test_manifest_counts_dpo_solver_simulator_work(tmp_path):
    # each correction iteration is one estimate: M perturbations in one
    # batched call, plus a baseline point call
    cfg = EXP.halfspace_contraction_config(seed=3, chains=2,
                                           out=str(tmp_path / "h"))
    cfg["sampler"].update(solver="dpo", inner_cap=30)
    cfg["dpo"] = {"nu": 0.05, "M": 16, "target": [0.0, 0.0, 0.0],
                  "simulator": {"name": "linear",
                                "matrix": np.eye(3).tolist()}}
    manifest = run_experiment(RunConfig.from_dict(cfg))
    counters = manifest["counters"]
    iterations = counters["correction_iterations"]
    assert iterations > 0
    assert counters["simulator_evaluations"] == (16 + 1) * iterations
    assert counters["simulator_calls"] == 2 * iterations
    assert any(f"simulator_calls {2 * iterations}, "
               f"simulator_evaluations {(16 + 1) * iterations}" in line
               for line in manifest["summary"])


def test_manifest_counts_alm_projections(tmp_path):
    # two outer iterations are too few for some of the projections, so the
    # run has unconverged ones to count; 12 chains give it converged ones
    # too
    cfg = EXP.centroid_config(seed=0, chains=12, out=str(tmp_path / "c"))
    cfg["alm"]["max_outer"] = 2
    manifest = run_experiment(RunConfig.from_dict(cfg))
    rows = (tmp_path / "c" / "alm.csv").read_text().splitlines()[1:]
    sampler_cfg = build_sampler_config(RunConfig.from_dict(cfg))
    reports = [rep for _, trace in sample_chains(
        sampler_cfg, [chain_rng(0, i) for i in range(12)])
        for _, _, rep in trace.alm_reports]
    unconverged = sum(not rep.converged for rep in reports)
    assert 0 < unconverged < len(reports) == len(rows)
    # converged and final_distance close each row, as the reports hold them
    assert [row.split(",")[-2:] for row in rows] == [
        [str(int(rep.converged)), repr(float(rep.final_distance))]
        for rep in reports]
    assert [row.split(",")[-2] for row in rows].count("0") == unconverged
    counters = manifest["counters"]
    assert counters["alm_projections"] == len(rows)
    assert counters["alm_unconverged"] == unconverged
    inner = sum(rep.inner_iterations for rep in reports)
    assert inner > 0 and counters["alm_inner_iterations"] == inner
    assert any(line.startswith(
        f"counters: alm_inner_iterations {inner}, alm_projections "
        f"{len(rows)}, alm_unconverged {unconverged}, ")
        for line in manifest["summary"])
