"""Text serialization of score fields, decoders, and sample vectors.

Documents are self-describing JSON with parameter arrays as decimal text;
Python's float repr round-trips exactly, so analytic fields reload
value-exact and MLP weights far inside the 1e-12 budget.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .decoders import DecoderMap
from .errors import ConfigError
from .schedules import NoiseSchedule
from .scores import MlpParams, MlpScoreConfig, ScoreField


def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _schedule_doc(s: NoiseSchedule) -> dict:
    return {"T": s.T, "abar": _arr(s.abar), "gamma": _arr(s.gamma),
            "inner_steps": s.inner_steps}


def _schedule_from(doc: dict) -> NoiseSchedule:
    return NoiseSchedule(T=int(doc["T"]), abar=np.array(doc["abar"]),
                         gamma=np.array(doc["gamma"]),
                         inner_steps=int(doc["inner_steps"]))


def score_field_doc(f: ScoreField) -> dict:
    doc = {"type": "score_field", "kind": f.kind, "dim": f.dim,
           "schedule": _schedule_doc(f.schedule)}
    if f.kind == "mlp":
        p = f.mlp
        doc["mlp"] = {k: _arr(getattr(p, k))
                      for k in ("W1", "b1", "W2", "b2", "W3", "b3")}
        if f.mlp_config is not None:
            c = f.mlp_config
            doc["mlp_config"] = {"hidden": list(c.hidden),
                                 "learning_rate": c.learning_rate,
                                 "epochs": c.epochs,
                                 "batch_size": c.batch_size, "seed": c.seed}
    else:
        doc["weights"] = _arr(f.weights)
        doc["means"] = _arr(f.means)
        doc["covs"] = _arr(f.covs)
    return doc


def score_field_from_doc(doc: dict) -> ScoreField:
    if doc.get("type") != "score_field":
        raise ConfigError("document is not a score_field")
    schedule = _schedule_from(doc["schedule"])
    kind = doc["kind"]
    if kind == "mlp":
        p = MlpParams(**{k: np.array(v) for k, v in doc["mlp"].items()})
        cfg = None
        if "mlp_config" in doc:
            c = doc["mlp_config"]
            cfg = MlpScoreConfig(hidden=tuple(c["hidden"]),
                                 learning_rate=c["learning_rate"],
                                 epochs=c["epochs"],
                                 batch_size=c["batch_size"], seed=c["seed"])
        return ScoreField(kind="mlp", dim=int(doc["dim"]), schedule=schedule,
                          mlp=p, mlp_config=cfg)
    means = np.array(doc["means"])
    covs = np.array(doc["covs"])
    if kind == "linear_gaussian":
        means = means.reshape(int(doc["dim"]))
        covs = covs.reshape(int(doc["dim"]), int(doc["dim"]))
    return ScoreField(kind=kind, dim=int(doc["dim"]), schedule=schedule,
                      weights=np.array(doc["weights"]), means=means, covs=covs)


def save_score_field(f: ScoreField, path) -> None:
    Path(path).write_text(json.dumps(score_field_doc(f)))


def load_score_field(path) -> ScoreField:
    return score_field_from_doc(json.loads(Path(path).read_text()))


def decoder_doc(m: DecoderMap) -> dict:
    doc = {"type": "decoder", "kind": m.kind, "latent_dim": m.latent_dim,
           "ambient_dim": m.ambient_dim,
           "lipschitz_bound": m.lipschitz_bound,
           "lipschitz_probes": m.lipschitz_probes}
    if m.kind == "linear":
        doc["weight"] = _arr(m.weight)
        doc["bias"] = _arr(m.bias)
    else:
        doc["layers"] = [[_arr(W), _arr(b)] for W, b in m.layers]
    return doc


def decoder_from_doc(doc: dict) -> DecoderMap:
    if doc.get("type") != "decoder":
        raise ConfigError("document is not a decoder")
    kw = dict(kind=doc["kind"], latent_dim=int(doc["latent_dim"]),
              ambient_dim=int(doc["ambient_dim"]),
              lipschitz_bound=doc.get("lipschitz_bound"),
              lipschitz_probes=doc.get("lipschitz_probes"))
    if doc["kind"] == "linear":
        kw["weight"] = np.array(doc["weight"])
        kw["bias"] = np.array(doc["bias"])
    else:
        kw["layers"] = [(np.array(W), np.array(b)) for W, b in doc["layers"]]
    return DecoderMap(**kw)


def save_decoder(m: DecoderMap, path) -> None:
    Path(path).write_text(json.dumps(decoder_doc(m)))


def load_decoder(path) -> DecoderMap:
    return decoder_from_doc(json.loads(Path(path).read_text()))


def save_vector(x, path) -> None:
    """Raw decimal-text vector, one value per line."""
    vals = np.asarray(x, dtype=float).ravel()
    Path(path).write_text("\n".join(repr(float(v)) for v in vals) + "\n")


def load_vector(path) -> np.ndarray:
    text = Path(path).read_text().split()
    return np.array([float(tok) for tok in text])
