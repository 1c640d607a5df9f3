import json

import numpy as np
import pytest
import yaml

from latentprox.cli import main as cli_main
from latentprox.decoders import random_linear_decoder, random_mlp_decoder
from latentprox.errors import ConfigError
from latentprox.schedules import make_schedule
from latentprox.scores import (MlpScoreConfig, ScoreField,
                               gaussian_mixture_field, init_mlp_params,
                               linear_gaussian_field, train_score)
from latentprox.serialize import (decoder_doc, load_decoder, load_score_field,
                                  load_vector, save_decoder, save_score_field,
                                  save_vector, score_field_doc)


def schedule():
    return make_schedule(T=4, abar_end=0.02, gamma_max=0.07,
                         gamma_min=0.013, M=2)


def test_mixture_field_roundtrip_value_exact(tmp_path):
    f = gaussian_mixture_field(
        [0.25, 0.75], [[0.1, -0.2], [1.0 / 3.0, 2.0]],
        [np.array([[1.1, 0.05], [0.05, 0.7]]), np.eye(2) * np.pi],
        schedule())
    path = tmp_path / "field.json"
    save_score_field(f, path)
    g = load_score_field(path)
    assert g.kind == f.kind and g.dim == f.dim
    assert np.array_equal(g.weights, f.weights)
    assert np.array_equal(g.means, f.means)
    assert np.array_equal(g.covs, f.covs)
    assert np.array_equal(g.schedule.abar, f.schedule.abar)
    assert np.array_equal(g.schedule.gamma, f.schedule.gamma)


def test_linear_gaussian_roundtrip(tmp_path):
    f = linear_gaussian_field([0.123456789012345, -2.0],
                              [[1.5, 0.25], [0.25, 0.8]], schedule())
    path = tmp_path / "lg.json"
    save_score_field(f, path)
    g = load_score_field(path)
    assert np.array_equal(g.means, f.means)
    assert np.array_equal(g.covs, f.covs)


def test_mlp_field_roundtrip_within_budget(tmp_path):
    data = np.random.default_rng(0).standard_normal((32, 2))
    cfg = MlpScoreConfig(hidden=(6, 5), epochs=2, batch_size=8, seed=3)
    f = train_score(data, cfg, schedule())
    path = tmp_path / "mlp.json"
    save_score_field(f, path)
    g = load_score_field(path)
    for layer_f, layer_g in zip(f.mlp, g.mlp, strict=True):
        for a, b in zip(layer_f, layer_g):
            assert np.max(np.abs(a - b)) <= 1e-12  # repr round-trip is exact
    assert g.mlp_config == cfg


def test_decoder_roundtrip_ignores_old_lipschitz_keys(tmp_path):
    # decoder.json once carried the run's bound and its probe count; the
    # bound is the manifest's measured.lipschitz
    dec = random_linear_decoder(2, 5, seed=1, scale=1.7)
    path = tmp_path / "dec.json"
    save_decoder(dec, path)
    assert sorted(json.loads(path.read_text())) == [
        "ambient_dim", "bias", "kind", "latent_dim", "type", "weight"]
    loaded = load_decoder(path)
    assert np.array_equal(loaded.layers[0][0], dec.layers[0][0])
    old = tmp_path / "old_dec.json"
    old.write_text(json.dumps(dict(decoder_doc(dec), lipschitz_bound=1.7,
                                   lipschitz_probes=64)))
    assert decoder_doc(load_decoder(old)) == decoder_doc(dec)


def test_mlp_decoder_roundtrip(tmp_path):
    dec = random_mlp_decoder(2, 4, hidden=6, seed=2)
    path = tmp_path / "mdec.json"
    save_decoder(dec, path)
    loaded = load_decoder(path)
    for (W1, b1), (W2, b2) in zip(dec.layers, loaded.layers):
        assert np.array_equal(W1, W2)
        assert np.array_equal(b1, b2)


def test_indented_files_of_old_runs_load_equal(tmp_path):
    # decoder.json and score.json were once written with indent=1
    field = gaussian_mixture_field([0.25, 0.75], [[0.1, -0.2], [1.0, 2.0]],
                                   [np.eye(2), np.eye(2) * np.pi], schedule())
    decoders = [random_linear_decoder(2, 5, seed=1, scale=1.7),
                random_mlp_decoder(2, 4, hidden=6, seed=2)]
    for k, dec in enumerate(decoders):
        old, new = tmp_path / f"old_dec{k}.json", tmp_path / f"dec{k}.json"
        old.write_text(json.dumps(decoder_doc(dec), indent=1))
        save_decoder(dec, new)
        assert decoder_doc(load_decoder(old)) == \
            decoder_doc(load_decoder(new)) == decoder_doc(dec)
    old, new = tmp_path / "old_score.json", tmp_path / "score.json"
    old.write_text(json.dumps(score_field_doc(field), indent=1))
    save_score_field(field, new)
    assert score_field_doc(load_score_field(old)) == \
        score_field_doc(load_score_field(new)) == score_field_doc(field)


def without(doc, key):
    return json.dumps({k: v for k, v in doc.items() if k != key})


def changed(doc, **values):
    return json.dumps(dict(doc, **values))


LINEAR_DOC = decoder_doc(random_linear_decoder(2, 3, seed=1))
MIXTURE_DOC = score_field_doc(gaussian_mixture_field(
    [1.0], [[0.0, 0.0]], [np.eye(2)], schedule()))
MLP_DOC = score_field_doc(ScoreField(
    kind="mlp", dim=2, schedule=schedule(),
    mlp=init_mlp_params(2, MlpScoreConfig(hidden=(3, 4)),
                        np.random.default_rng(0))))
MLP_W1 = MLP_DOC["mlp"]["W1"]
# (loader, file text, what the error names after the file)
UNREADABLE = {
    "decoder not json": (load_decoder, "{not json", " is not valid JSON"),
    "decoder without weight": (load_decoder, without(LINEAR_DOC, "weight"),
                               " has no key 'weight'"),
    "decoder without latent_dim": (load_decoder,
                                   without(LINEAR_DOC, "latent_dim"),
                                   " has no key 'latent_dim'"),
    "decoder list": (load_decoder, "[1, 2]", ": document is not a decoder"),
    "score not json": (load_score_field, "{not json", " is not valid JSON"),
    "score without covs": (load_score_field, without(MIXTURE_DOC, "covs"),
                           " has no key 'covs'"),
    "score without schedule": (load_score_field,
                               without(MIXTURE_DOC, "schedule"),
                               " has no key 'schedule'"),
    "decoder latent_dim not a number": (
        load_decoder, changed(LINEAR_DOC, latent_dim="x"),
        ": latent_dim must be a whole number, got 'x'"),
    "decoder bias of the wrong shape": (
        load_decoder, changed(LINEAR_DOC, bias=[0.0, 0.0]),
        ": linear decoder layer 0 has weight (3, 2) and bias (2,)"),
    "score schedule list": (load_score_field,
                            changed(MIXTURE_DOC, schedule=[4, 0.5]),
                            ": schedule must be a mapping, got [4, 0.5]"),
    "mlp score W1 of the wrong width": (
        load_score_field,
        changed(MLP_DOC, mlp=dict(MLP_DOC["mlp"],
                                  W1=[row[:2] for row in MLP_W1])),
        ": score network layer 0 has weight (3, 2) and bias (3,)"),
    "mlp score NaN bias": (
        load_score_field,
        changed(MLP_DOC, mlp=dict(MLP_DOC["mlp"], b2=[0.0, np.nan, 0.0, 0.0])),
        ": score network parameters must be finite"),
    "mlp score nested hidden": (
        load_score_field,
        changed(MLP_DOC, mlp_config={"hidden": [[3], [4]],
                                     "learning_rate": 0.01, "epochs": 1,
                                     "batch_size": 8, "seed": 0}),
        ": mlp_config.hidden must be a list of whole numbers, got "
        "[[3], [4]]"),
    "mixture score nested weights": (
        load_score_field, changed(MIXTURE_DOC, weights=[[1.0]]),
        ": weights must be a list of numbers, got [[1.0]]"),
    "decoder nested bias": (
        load_decoder, changed(LINEAR_DOC, bias=[[0.0], [0.0], [0.0]]),
        ": bias must be a list of numbers, got [[0.0], [0.0], [0.0]]"),
    "mlp score without W2": (
        load_score_field,
        changed(MLP_DOC, mlp={k: v for k, v in MLP_DOC["mlp"].items()
                              if k != "W2"}),
        " has no key 'W2'")}


@pytest.mark.parametrize("load, text, names", UNREADABLE.values(),
                         ids=UNREADABLE.keys())
def test_unreadable_documents_are_configuration_errors(tmp_path, load, text,
                                                       names):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load(path)
    assert str(info.value).startswith(f"{path}{names}")


def test_nested_document_keys_keep_loading(tmp_path):
    # means, covs and the weights take nested lists; each kind of document
    # reads back to itself
    mixture = score_field_doc(gaussian_mixture_field(
        [0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [np.eye(2), 2.0 * np.eye(2)],
        schedule()))
    mlp = changed(MLP_DOC, mlp_config={"hidden": [3, 4],
                                       "learning_rate": 0.01, "epochs": 1,
                                       "batch_size": 8, "seed": 0})
    smooth = decoder_doc(random_mlp_decoder(2, 4, hidden=3, seed=0))
    for load, doc, to_doc in (
            (load_score_field, mixture, score_field_doc),
            (load_score_field, json.loads(mlp), score_field_doc),
            (load_decoder, LINEAR_DOC, decoder_doc),
            (load_decoder, smooth, decoder_doc)):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert to_doc(load(path)) == doc


def test_sample_on_a_score_file_with_a_nan_bias_is_a_configuration_error(
        tmp_path):
    score_file = tmp_path / "score.json"
    score_file.write_text(UNREADABLE["mlp score NaN bias"][1])
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "seed": 0, "out": str(tmp_path / "run"),
        "schedule": {"T": 4, "abar_end": 0.02, "gamma_max": 0.07,
                     "gamma_min": 0.013, "M": 2},
        "score": {"kind": "mlp", "file": str(score_file)},
        "sampler": {"mode": "unconstrained"}}))
    assert cli_main(["sample", "--config", str(cfg)]) == 3
    assert not (tmp_path / "run").exists()


def test_vector_roundtrip(tmp_path):
    x = np.array([1.0 / 3.0, -2.7182818284590455, 1e-300, 0.0])
    path = tmp_path / "v.txt"
    save_vector(x, path)
    assert np.array_equal(load_vector(path), x)
