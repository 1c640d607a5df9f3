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


def _load_doc(path, from_doc):
    """``from_doc`` of the JSON document at ``path``; a file that is not
    JSON, not the document ``from_doc`` reads, or without a key its kind
    reads raises ConfigError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    try:
        return from_doc(doc)
    except KeyError as exc:
        raise ConfigError(f"{path} has no key {exc.args[0]!r}") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


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
    if not isinstance(doc, dict) or doc.get("type") != "score_field":
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
    return ScoreField(kind=kind, dim=int(doc["dim"]), schedule=schedule,
                      weights=np.array(doc["weights"]),
                      means=np.array(doc["means"]), covs=np.array(doc["covs"]))


def save_score_field(f: ScoreField, path) -> None:
    Path(path).write_text(json.dumps(score_field_doc(f)))


def load_score_field(path) -> ScoreField:
    return _load_doc(path, score_field_from_doc)


def decoder_doc(m: DecoderMap) -> dict:
    doc = {"type": "decoder", "kind": m.kind, "latent_dim": m.latent_dim,
           "ambient_dim": m.ambient_dim}
    if m.kind == "linear":  # its one layer, as weight and bias
        (W, b), = m.layers
        doc["weight"], doc["bias"] = _arr(W), _arr(b)
    else:
        doc["layers"] = [[_arr(W), _arr(b)] for W, b in m.layers]
    return doc


def decoder_from_doc(doc: dict) -> DecoderMap:
    """The decoder of a ``decoder_doc``; the ``lipschitz_bound`` and
    ``lipschitz_probes`` keys of an older document are ignored."""
    if not isinstance(doc, dict) or doc.get("type") != "decoder":
        raise ConfigError("document is not a decoder")
    layers = ([(doc["weight"], doc["bias"])] if doc["kind"] == "linear"
              else doc["layers"])
    return DecoderMap(kind=doc["kind"], latent_dim=int(doc["latent_dim"]),
                      ambient_dim=int(doc["ambient_dim"]), layers=layers)


def save_decoder(m: DecoderMap, path) -> None:
    Path(path).write_text(json.dumps(decoder_doc(m)))


def load_decoder(path) -> DecoderMap:
    return _load_doc(path, decoder_from_doc)


def save_vector(x, path) -> None:
    """Raw decimal-text vector, one value per line."""
    vals = np.asarray(x, dtype=float).ravel()
    Path(path).write_text("\n".join(repr(float(v)) for v in vals) + "\n")


def load_vector(path) -> np.ndarray:
    """The vector ``save_vector`` wrote; a token that is not a number
    raises ConfigError."""
    values = []
    for tok in Path(path).read_text().split():
        try:
            values.append(float(tok))
        except ValueError:
            raise ConfigError(f"{path}: {tok!r} is not a number") from None
    return np.array(values)
