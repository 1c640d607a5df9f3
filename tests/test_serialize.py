import json

import numpy as np

from latentprox.decoders import random_linear_decoder, random_mlp_decoder, \
    estimate_lipschitz
from latentprox.schedules import make_schedule
from latentprox.scores import (MlpScoreConfig, gaussian_mixture_field,
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
    for name in ("W1", "b1", "W2", "b2", "W3", "b3"):
        a, b = getattr(f.mlp, name), getattr(g.mlp, name)
        assert np.max(np.abs(a - b)) <= 1e-12  # repr round-trip is exact
    assert g.mlp_config == cfg


def test_decoder_roundtrip_embeds_lipschitz(tmp_path):
    dec = random_linear_decoder(2, 5, seed=1, scale=1.7)
    estimate_lipschitz(dec, 3, np.random.default_rng(0))
    path = tmp_path / "dec.json"
    save_decoder(dec, path)
    loaded = load_decoder(path)
    assert np.array_equal(loaded.weight, dec.weight)
    assert loaded.lipschitz_bound == dec.lipschitz_bound
    assert loaded.lipschitz_probes == 3


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
    estimate_lipschitz(decoders[0], 3, np.random.default_rng(0))
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


def test_vector_roundtrip(tmp_path):
    x = np.array([1.0 / 3.0, -2.7182818284590455, 1e-300, 0.0])
    path = tmp_path / "v.txt"
    save_vector(x, path)
    assert np.array_equal(load_vector(path), x)
