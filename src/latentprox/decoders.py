"""Latent-to-ambient decoder maps and their Lipschitz bounds.

A decoder, like the MLP score network, is a stack of affine layers with tanh
between them; the two share one check (``check_layers``) and one forward
kernel (``decode_unchecked``).  Two decoder families are provided: exact
linear maps, the one-layer stack (the Lipschitz bound is the largest singular
value), and smooth tanh MLPs as a stress case.  Vector-Jacobian products are
exact for both.  Lipschitz bounds come from the weights alone: the product of
the layers' spectral norms, exact for one narrow hidden layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

# the widest single hidden layer whose bound is the exact vertex maximum:
# its 2**12 = 4,096 Gram matrices took at most 0.26 s on one core
# (32->12->256), while 2**16 took 0.05-3.4 s
VERTEX_HIDDEN_CAP = 12


def check_layers(layers, n_in: int, n_out: int, what: str) -> list:
    """``layers`` as float ``(W, b)`` pairs: a non-empty, finite stack of
    2-D weights, each taking the previous layer's outputs (the first
    ``n_in``) with one bias per output, the last emitting ``n_out``."""
    if not layers:
        raise ParameterError(f"{what} requires layers")
    layers = [(np.asarray(W, float), np.asarray(b, float)) for W, b in layers]
    for k, (W, b) in enumerate(layers):
        if W.ndim != 2 or W.shape[1] != n_in or b.shape != (W.shape[0],):
            raise ShapeError(
                f"{what} layer {k} has weight {W.shape} and bias {b.shape}; "
                f"it must take {n_in} inputs with one bias per output")
        n_in = W.shape[0]
    if n_in != n_out:
        raise ShapeError(f"{what}: last layer emits {n_in} outputs, "
                         f"not {n_out}")
    if not all(np.isfinite(a).all() for layer in layers for a in layer):
        raise ParameterError(f"{what} parameters must be finite")
    return layers


@dataclass
class DecoderMap:
    """Differentiable map D from latent to ambient coordinates."""

    kind: str  # "linear" (exactly one layer) | "smooth_mlp"
    latent_dim: int
    ambient_dim: int
    layers: list  # [(W, b), ...], tanh between layers

    def __post_init__(self):
        if self.kind not in ("linear", "smooth_mlp"):
            raise ParameterError(f"unknown decoder kind {self.kind!r}")
        self.layers = check_layers(self.layers, self.latent_dim,
                                   self.ambient_dim, f"{self.kind} decoder")
        if self.ambient_dim < self.latent_dim:
            raise ParameterError("ambient_dim must be >= latent_dim")
        if self.kind == "linear" and len(self.layers) != 1:
            raise ParameterError(f"a linear decoder has exactly one layer, "
                                 f"not {len(self.layers)}")


def _from_layers(kind: str, layers) -> DecoderMap:
    """The ``kind`` decoder of ``layers``, its dims read from the first and
    last weights, which must be 2-D."""
    if not layers:
        raise ParameterError(f"{kind} decoder requires layers")
    first, last = np.shape(layers[0][0]), np.shape(layers[-1][0])
    if len(first) != 2 or len(last) != 2:
        raise ShapeError("the first and last layer weights must be 2-D")
    return DecoderMap(kind=kind, latent_dim=first[1], ambient_dim=last[0],
                      layers=layers)


def linear_decoder(weight, bias=None) -> DecoderMap:
    """The linear decoder z -> weight z + bias; a missing bias is zeros."""
    if bias is None:
        bias = np.zeros(np.shape(weight)[:1])
    return _from_layers("linear", [(weight, bias)])


def _check_init(seed: int, **sizes) -> None:
    """Refuse a random decoder's size below 1, seed below 0, or latent_dim
    above ambient_dim (a reduced QR would quietly shrink the latent)."""
    if min(sizes.values()) < 1 or seed < 0:
        got = ", ".join(f"{k} {v}" for k, v in dict(sizes, seed=seed).items())
        raise ParameterError(f"decoder sizes must be >= 1 and its seed >= 0, "
                             f"got {got}")
    if sizes["latent_dim"] > sizes["ambient_dim"]:
        raise ParameterError(f"decoder latent_dim {sizes['latent_dim']} "
                             f"exceeds its ambient_dim {sizes['ambient_dim']}")


def random_linear_decoder(latent_dim: int, ambient_dim: int, seed: int,
                          scale: float = 1.0) -> DecoderMap:
    """Random near-isometric linear decoder (orthonormal columns times scale)."""
    _check_init(seed, latent_dim=latent_dim, ambient_dim=ambient_dim)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((ambient_dim, latent_dim))
    Q, _ = np.linalg.qr(A)
    return linear_decoder(scale * Q[:, :latent_dim])


def mlp_decoder(layers) -> DecoderMap:
    """The smooth_mlp decoder of ``layers``, as ``_from_layers`` reads them."""
    return _from_layers("smooth_mlp", layers)


def random_mlp_decoder(latent_dim: int, ambient_dim: int, hidden: int,
                       seed: int, scale: float = 1.0) -> DecoderMap:
    _check_init(seed, latent_dim=latent_dim, ambient_dim=ambient_dim,
                hidden=hidden)
    rng = np.random.default_rng(seed)
    def layer(n_out, n_in):
        return (scale * rng.standard_normal((n_out, n_in)) / np.sqrt(n_in),
                0.1 * rng.standard_normal(n_out))
    return mlp_decoder([layer(hidden, latent_dim), layer(ambient_dim, hidden)])


def _check_latent(m: DecoderMap, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if z.shape != (m.latent_dim,):
        raise ShapeError(f"latent of shape {z.shape}, expected ({m.latent_dim},)")
    if not np.isfinite(z).all():
        raise NumericError("latent input contains non-finite values")
    return z


def _matmul(W: np.ndarray, a: np.ndarray) -> np.ndarray:
    """W applied to a point or to each row of a batch: ``a @ W.T``."""
    return a @ W.T


def decode_unchecked(layers: list, z: np.ndarray, product=_matmul,
                     hidden: list | None = None) -> np.ndarray:
    """The stack ``layers`` on a finite float point or batch of rows.

    The checked ``decode`` is this plus ``_check_latent``, for a point;
    loops that validate their latent once per update call this one.
    ``product(W, a)`` applies each weight to a's last axis.  A ``hidden``
    list gets each hidden layer's tanh output (the score's training).
    """
    a = z
    for W, b in layers[:-1]:
        a = np.tanh(product(W, a) + b)
        if hidden is not None:
            hidden.append(a)
    W, b = layers[-1]
    return product(W, a) + b


def decode(m: DecoderMap, z) -> np.ndarray:
    """Apply D(z)."""
    return decode_unchecked(m.layers, _check_latent(m, z))


def vjp_unchecked(layers: list, z: np.ndarray, v: np.ndarray,
                  product=_matmul) -> np.ndarray:
    """J(z)^T v of ``layers`` for a checked z and a float v: points or
    batches of rows.

    The checked ``vjp`` is this plus the input checks, for a point;
    ``product`` is as in ``decode_unchecked``.
    """
    hidden = []  # (W, tanh output) of each hidden layer
    a = z
    for W, b in layers[:-1]:
        a = np.tanh(product(W, a) + b)
        hidden.append((W, a))
    g = product(layers[-1][0].T, v)
    while hidden:  # cheaper than reversed() when there is no hidden layer
        W, a = hidden.pop()
        g = product(W.T, g * (1.0 - a ** 2))
    return g


def vjp(m: DecoderMap, z, v) -> np.ndarray:
    """Pull an ambient covector back through the Jacobian: J(z)^T v."""
    z = _check_latent(m, z)
    v = np.asarray(v, dtype=float)
    if v.shape != (m.ambient_dim,):
        raise ShapeError(f"covector of shape {v.shape}, expected ({m.ambient_dim},)")
    return vjp_unchecked(m.layers, z, v)


def decode_rows(m: DecoderMap, Z: np.ndarray) -> np.ndarray:
    """D(z) of each row of a finite float ``(n, latent_dim)`` array.

    np.matvec runs the point's matrix-vector product once per row, so row i
    is ``decode_unchecked`` of Z[i] bit for bit; ``Z @ W.T`` is not.
    """
    return decode_unchecked(m.layers, Z, np.matvec)


def vjp_rows(m: DecoderMap, Z: np.ndarray, V: np.ndarray) -> np.ndarray:
    """J(z_i)^T v_i for each row; row i is ``vjp_unchecked`` of Z[i] and
    V[i] bit for bit, as in ``decode_rows``."""
    return vjp_unchecked(m.layers, Z, V, np.matvec)


def estimate_lipschitz(m: DecoderMap) -> float:
    """A certified upper bound on the Jacobian operator norm of ``m``.

    tanh is 1-Lipschitz, so the product of the layers' spectral norms is a
    bound; for a linear map it is the exact largest singular value.  With
    one hidden layer, J(z) = W2 diag(d) W1 with d in (0, 1]^h, and the norm
    is convex in d, so its maximum over [0, 1]^h is reached at a vertex
    D: the exact constant (Virmaux & Scaman, NeurIPS 2018), taken up to
    ``VERTEX_HIDDEN_CAP`` units from the Gram forms W1^T D W2^T W2 D W1.
    """
    weights = [W for W, _ in m.layers]
    if len(weights) == 2 and len(weights[0]) <= VERTEX_HIDDEN_CAP:
        W1, W2 = weights
        h = len(W1)
        vertices = (np.arange(2 ** h)[:, None] >> np.arange(h)) & 1
        A = vertices[:, :, None] * W1  # D W1, one per vertex
        grams = A.transpose(0, 2, 1) @ (W2.T @ W2) @ A
        return math.sqrt(max(np.linalg.eigvalsh(grams)[:, -1].max(), 0.0))
    return math.prod(float(np.linalg.norm(W, 2)) for W in weights)
