"""Text serialization of score fields, decoders, and sample vectors.

Documents are self-describing JSON with parameter arrays as decimal text;
Python's float repr round-trips exactly, so analytic fields reload
value-exact and MLP weights far inside the 1e-12 budget.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from pathlib import Path

import numpy as np

from .decoders import DecoderMap
from .errors import ConfigError, ParameterError, ShapeError
from .schedules import NoiseSchedule
from .scores import MlpScoreConfig, ScoreField

# the score network's layers in score.json: W1, b1 (the first), ..., b3
MLP_KEYS = [(f"W{k}", f"b{k}") for k in (1, 2, 3)]


def _number(value, kind):
    """``value`` as a ``kind`` (int or float); a bool is not a number, and
    an int must be whole.  Raises TypeError or ValueError."""
    if isinstance(value, bool):
        raise TypeError("a bool is not a number")
    number = float(value)
    if kind is float:
        return number
    if not number.is_integer():
        raise ValueError("not a whole number")
    return int(value) if isinstance(value, numbers.Integral) else int(number)


def _nested_numbers(value, kind):
    """``value``, a number or a nested list, with each entry as a ``kind``."""
    if isinstance(value, (list, tuple)):
        return [_nested_numbers(v, kind) for v in value]
    return _number(value, kind)


KIND_NAMES = {bool: "true or false", str: "a string", dict: "a mapping",
              list: "a list"}


def typed(where: str, value, kind):
    """The value of a config's or a document's key ``where`` as its
    ``kind`` (a ``KIND_NAMES`` type, int, float, [int] or [float]: a flat
    list of numbers, or [[float]]: a list of numbers nested to any depth),
    else ConfigError; other kinds keep their value."""
    if kind in list(KIND_NAMES):
        if not isinstance(value, kind):
            raise ConfigError(f"{where} must be {KIND_NAMES[kind]}, "
                              f"got {value!r}")
        return value
    is_list = isinstance(kind, list)
    nested = is_list and isinstance(kind[0], list)
    element = kind[0][0] if nested else kind[0] if is_list else kind
    if element not in (int, float):
        return value
    try:
        if not is_list:
            return _number(value, kind)
        if not isinstance(value, (list, tuple)):
            raise TypeError("a bare number is not a list")
        if not nested:  # _number refuses an entry that is a list
            return [_number(v, element) for v in value]
        out = _nested_numbers(value, element)
        np.asarray(out, dtype=float)  # rows of unequal length raise
        return out
    except (TypeError, ValueError):
        whole = "whole " if element is int else ""
        what = f"a list of {whole}numbers" if is_list else f"a {whole}number"
        raise ConfigError(f"{where} must be {what}, got {value!r}") from None


def _read(doc: dict, section: str | None, **kinds) -> dict:
    """The keys of ``kinds`` in the mapping ``doc[section]`` (in ``doc``
    when ``section`` is None), each as its kind (see ``typed``)."""
    if section is not None:
        doc = typed(section, doc[section], dict)
    at = f"{section}." if section else ""
    return {k: typed(at + k, doc[k], kind) for k, kind in kinds.items()}


def _arr(a) -> list:
    return np.asarray(a, dtype=float).tolist()


def _schedule_doc(s: NoiseSchedule) -> dict:
    return {"T": s.T, "abar": _arr(s.abar), "gamma": _arr(s.gamma),
            "inner_steps": s.inner_steps}


def _load_doc(path, from_doc):
    """``from_doc`` of the JSON document at ``path``; a file that is not
    JSON or that ``from_doc`` refuses (a missing key, a value of the wrong
    kind, bad parameters) raises ConfigError naming the file."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from None
    try:
        return from_doc(doc)
    except KeyError as exc:
        raise ConfigError(f"{path} has no key {exc.args[0]!r}") from None
    except (ConfigError, ParameterError, ShapeError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def score_field_doc(f: ScoreField) -> dict:
    doc = {"type": "score_field", "kind": f.kind, "dim": f.dim,
           "schedule": _schedule_doc(f.schedule)}
    if f.kind == "mlp":
        doc["mlp"] = {k: _arr(a) for keys, layer in zip(MLP_KEYS, f.mlp)
                      for k, a in zip(keys, layer)}
        if f.mlp_config is not None:
            doc["mlp_config"] = dict(dataclasses.asdict(f.mlp_config),
                                     hidden=list(f.mlp_config.hidden))
    else:
        doc.update({k: _arr(getattr(f, k))
                    for k in ("weights", "means", "covs")})
    return doc


def score_field_from_doc(doc: dict) -> ScoreField:
    if not isinstance(doc, dict) or doc.get("type") != "score_field":
        raise ConfigError("document is not a score_field")
    schedule = NoiseSchedule(**_read(doc, "schedule", T=int, abar=[float],
                                     gamma=[float], inner_steps=int))
    head = dict(_read(doc, None, kind=str, dim=int), schedule=schedule)
    if head["kind"] != "mlp":
        return ScoreField(**head, **_read(doc, None, weights=[float],
                                          means=[[float]], covs=[[float]]))
    mlp = _read(doc, "mlp", **{k: kind for w, b in MLP_KEYS
                               for k, kind in ((w, [[float]]), (b, [float]))})
    cfg = None
    if "mlp_config" in doc:
        c = _read(doc, "mlp_config", hidden=[int], learning_rate=float,
                  epochs=int, batch_size=int, seed=int)
        cfg = MlpScoreConfig(**dict(c, hidden=tuple(c["hidden"])))
    return ScoreField(**head, mlp=[(mlp[w], mlp[b]) for w, b in MLP_KEYS],
                      mlp_config=cfg)


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
    head = _read(doc, None, kind=str, latent_dim=int, ambient_dim=int)
    if head["kind"] == "linear":
        return DecoderMap(**head, layers=[tuple(_read(
            doc, None, weight=[[float]], bias=[float]).values())])
    layers = []
    for k, pair in enumerate(_read(doc, None, layers=list)["layers"]):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise ConfigError(f"layers[{k}] must be a [weight, bias] pair")
        layers.append([typed(f"layers[{k}]", a, kind)
                       for a, kind in zip(pair, ([[float]], [float]))])
    return DecoderMap(**head, layers=layers)


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
