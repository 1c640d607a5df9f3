"""Latent-to-ambient decoder maps and their Lipschitz bounds.

Two decoder families are provided: exact linear maps (where the theory is
checkable in closed form, with the Lipschitz bound equal to the largest
singular value) and smooth tanh MLPs as a stress case.  Vector-Jacobian
products are computed exactly for both.  Lipschitz bounds come from the
weights alone: the product of the layers' spectral norms, tightened to the
exact constant for one narrow hidden layer.
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


@dataclass
class DecoderMap:
    """Differentiable map D from latent to ambient coordinates."""

    kind: str  # "linear" | "smooth_mlp"
    latent_dim: int
    ambient_dim: int
    weight: np.ndarray | None = None        # linear: (ambient, latent)
    bias: np.ndarray | None = None          # linear: (ambient,)
    layers: list | None = None              # smooth_mlp: [(W, b), ...], tanh hidden

    def __post_init__(self):
        if self.kind not in ("linear", "smooth_mlp"):
            raise ParameterError(f"unknown decoder kind {self.kind!r}")
        if self.ambient_dim < self.latent_dim:
            raise ParameterError("ambient_dim must be >= latent_dim")
        if self.kind == "linear":
            self.weight = np.asarray(self.weight, dtype=float)
            if self.weight.shape != (self.ambient_dim, self.latent_dim):
                raise ShapeError("weight shape does not match declared dims")
            if self.bias is None:
                self.bias = np.zeros(self.ambient_dim)
            self.bias = np.asarray(self.bias, dtype=float)
            params = [self.weight, self.bias]
        else:
            if not self.layers:
                raise ParameterError("smooth_mlp decoder requires layers")
            self.layers = [(np.asarray(W, float), np.asarray(b, float))
                           for W, b in self.layers]
            # each layer takes the previous one's outputs, the first the
            # latent, and its bias has one entry per output
            n_in = self.latent_dim
            for k, (W, b) in enumerate(self.layers):
                if W.ndim != 2 or W.shape[1] != n_in \
                        or b.shape != (W.shape[0],):
                    raise ShapeError(
                        f"layer {k} has weight {W.shape} and bias {b.shape}; "
                        f"it must take {n_in} inputs with one bias per output")
                n_in = W.shape[0]
            if n_in != self.ambient_dim:
                raise ShapeError("last layer does not emit ambient_dim outputs")
            params = [a for layer in self.layers for a in layer]
        if not all(np.isfinite(a).all() for a in params):
            raise ParameterError("decoder parameters must be finite")


def linear_decoder(weight, bias=None) -> DecoderMap:
    weight = np.asarray(weight, dtype=float)
    return DecoderMap(kind="linear", latent_dim=weight.shape[1],
                      ambient_dim=weight.shape[0], weight=weight, bias=bias)


def random_linear_decoder(latent_dim: int, ambient_dim: int, seed: int,
                          scale: float = 1.0) -> DecoderMap:
    """Random near-isometric linear decoder (orthonormal columns times scale)."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((ambient_dim, latent_dim))
    Q, _ = np.linalg.qr(A)
    return linear_decoder(scale * Q[:, :latent_dim])


def mlp_decoder(layers) -> DecoderMap:
    """The smooth_mlp decoder of ``layers``, its dims read from the first
    and last weights, which must be 2-D."""
    layers = [(np.asarray(W, float), np.asarray(b, float)) for W, b in layers]
    if not layers:
        raise ParameterError("smooth_mlp decoder requires layers")
    if layers[0][0].ndim != 2 or layers[-1][0].ndim != 2:
        raise ShapeError("the first and last layer weights must be 2-D")
    return DecoderMap(kind="smooth_mlp", latent_dim=layers[0][0].shape[1],
                      ambient_dim=layers[-1][0].shape[0], layers=layers)


def random_mlp_decoder(latent_dim: int, ambient_dim: int, hidden: int,
                       seed: int, scale: float = 1.0) -> DecoderMap:
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


def decode_unchecked(m: DecoderMap, z: np.ndarray,
                     product=_matmul) -> np.ndarray:
    """D(z) for a finite float latent: a point or a batch of rows.

    The checked ``decode`` is this plus ``_check_latent``, for a point;
    loops that validate their latent once per update call this one.
    ``product(W, a)`` applies each weight to a's last axis.
    """
    if m.kind == "linear":
        return product(m.weight, z) + m.bias
    a = z
    for W, b in m.layers[:-1]:
        a = np.tanh(product(W, a) + b)
    W, b = m.layers[-1]
    return product(W, a) + b


def decode(m: DecoderMap, z) -> np.ndarray:
    """Apply D(z)."""
    return decode_unchecked(m, _check_latent(m, z))


def vjp_unchecked(m: DecoderMap, z: np.ndarray, v: np.ndarray,
                  product=_matmul) -> np.ndarray:
    """J(z)^T v for a checked z and a float v: points or batches of rows.

    The checked ``vjp`` is this plus the input checks, for a point;
    ``product`` is as in ``decode_unchecked``.
    """
    if m.kind == "linear":
        return product(m.weight.T, v)
    activations = []
    a = z
    for W, b in m.layers[:-1]:
        a = np.tanh(product(W, a) + b)
        activations.append(a)
    g = product(m.layers[-1][0].T, v)
    for (W, b), a in zip(reversed(m.layers[:-1]), reversed(activations)):
        g = product(W.T, g * (1.0 - a ** 2))
    return g


def vjp(m: DecoderMap, z, v) -> np.ndarray:
    """Pull an ambient covector back through the Jacobian: J(z)^T v."""
    z = _check_latent(m, z)
    v = np.asarray(v, dtype=float)
    if v.shape != (m.ambient_dim,):
        raise ShapeError(f"covector of shape {v.shape}, expected ({m.ambient_dim},)")
    return vjp_unchecked(m, z, v)


def decode_rows(m: DecoderMap, Z: np.ndarray) -> np.ndarray:
    """D(z) of each row of a finite float ``(n, latent_dim)`` array.

    np.matvec runs the point's matrix-vector product once per row, so row i
    is ``decode_unchecked(m, Z[i])`` bit for bit; ``Z @ W.T`` is not.
    """
    return decode_unchecked(m, Z, np.matvec)


def vjp_rows(m: DecoderMap, Z: np.ndarray, V: np.ndarray) -> np.ndarray:
    """J(z_i)^T v_i for each row; row i is ``vjp_unchecked(m, Z[i], V[i])``
    bit for bit, as in ``decode_rows``."""
    return vjp_unchecked(m, Z, V, np.matvec)


def estimate_lipschitz(m: DecoderMap) -> float:
    """A certified upper bound on the Jacobian operator norm of ``m``.

    tanh is 1-Lipschitz, so the product of the layers' spectral norms is a
    bound; for a linear map it is the exact largest singular value.  With
    one hidden layer, J(z) = W2 diag(d) W1 with d in (0, 1]^h, and the norm
    is convex in d, so its maximum over [0, 1]^h is reached at a vertex
    D: the exact constant (Virmaux & Scaman, NeurIPS 2018), taken up to
    ``VERTEX_HIDDEN_CAP`` units from the Gram forms W1^T D W2^T W2 D W1.
    """
    weights = [m.weight] if m.kind == "linear" else [W for W, _ in m.layers]
    if len(weights) == 2 and len(weights[0]) <= VERTEX_HIDDEN_CAP:
        W1, W2 = weights
        h = len(W1)
        vertices = (np.arange(2 ** h)[:, None] >> np.arange(h)) & 1
        A = vertices[:, :, None] * W1  # D W1, one per vertex
        grams = A.transpose(0, 2, 1) @ (W2.T @ W2) @ A
        return math.sqrt(max(np.linalg.eigvalsh(grams)[:, -1].max(), 0.0))
    return math.prod(float(np.linalg.norm(W, 2)) for W in weights)
