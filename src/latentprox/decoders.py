"""Latent-to-ambient decoder maps and their Lipschitz bounds.

Two decoder families are provided: exact linear maps (where the theory is
checkable in closed form, with the Lipschitz bound equal to the largest
singular value) and smooth tanh MLPs as a stress case.  Vector-Jacobian
products are computed exactly for both; Lipschitz bounds for the MLP case are
the largest exact Jacobian norm over probe points, inflated by a 1.05 safety
factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ShapeError

LIPSCHITZ_SAFETY = 1.05


@dataclass
class DecoderMap:
    """Differentiable map D from latent to ambient coordinates."""

    kind: str  # "linear" | "smooth_mlp"
    latent_dim: int
    ambient_dim: int
    weight: np.ndarray | None = None        # linear: (ambient, latent)
    bias: np.ndarray | None = None          # linear: (ambient,)
    layers: list | None = None              # smooth_mlp: [(W, b), ...], tanh hidden
    lipschitz_bound: float | None = None
    lipschitz_probes: int | None = None

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
            if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
                raise NumericError("decoder parameters must be finite")
        else:
            if not self.layers:
                raise ParameterError("smooth_mlp decoder requires layers")
            self.layers = [(np.asarray(W, float), np.asarray(b, float))
                           for W, b in self.layers]
            if self.layers[0][0].shape[1] != self.latent_dim:
                raise ShapeError("first layer does not accept latent_dim inputs")
            if self.layers[-1][0].shape[0] != self.ambient_dim:
                raise ShapeError("last layer does not emit ambient_dim outputs")


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
    layers = [(np.asarray(W, float), np.asarray(b, float)) for W, b in layers]
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


def decode_unchecked(m: DecoderMap, z: np.ndarray) -> np.ndarray:
    """D(z) for a finite float latent: a point or a batch of rows.

    The checked ``decode`` is this plus ``_check_latent``, for a point;
    loops that validate their latent once per update call this one.
    """
    if m.kind == "linear":
        return z @ m.weight.T + m.bias
    a = z
    for W, b in m.layers[:-1]:
        a = np.tanh(a @ W.T + b)
    W, b = m.layers[-1]
    return a @ W.T + b


def decode(m: DecoderMap, z) -> np.ndarray:
    """Apply D(z)."""
    return decode_unchecked(m, _check_latent(m, z))


def vjp_unchecked(m: DecoderMap, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """J(z)^T v for a checked z and a float v: points or batches of rows.

    The checked ``vjp`` is this plus the input checks, for a point.
    """
    if m.kind == "linear":
        return v @ m.weight
    activations = []
    a = z
    for W, b in m.layers[:-1]:
        a = np.tanh(a @ W.T + b)
        activations.append(a)
    g = v @ m.layers[-1][0]
    for (W, b), a in zip(reversed(m.layers[:-1]), reversed(activations)):
        g = (g * (1.0 - a ** 2)) @ W
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
    if m.kind == "linear":
        return np.matvec(m.weight, Z) + m.bias
    a = Z
    for W, b in m.layers[:-1]:
        a = np.tanh(np.matvec(W, a) + b)
    W, b = m.layers[-1]
    return np.matvec(W, a) + b


def vjp_rows(m: DecoderMap, Z: np.ndarray, V: np.ndarray) -> np.ndarray:
    """J(z_i)^T v_i for each row; row i is ``vjp_unchecked(m, Z[i], V[i])``
    bit for bit, as in ``decode_rows``."""
    if m.kind == "linear":
        return np.matvec(m.weight.T, V)
    activations = []
    a = Z
    for W, b in m.layers[:-1]:
        a = np.tanh(np.matvec(W, a) + b)
        activations.append(a)
    g = np.matvec(m.layers[-1][0].T, V)
    for (W, b), a in zip(reversed(m.layers[:-1]), reversed(activations)):
        g = np.matvec(W.T, g * (1.0 - a ** 2))
    return g


def estimate_lipschitz(m: DecoderMap, probes: int,
                       rng: np.random.Generator) -> float:
    """Estimate (and cache) an upper bound on the Jacobian operator norm.

    Linear maps return the exact largest singular value of the weight.
    Smooth MLPs return the largest spectral norm of the exact Jacobian (built
    row by row with the VJP kernel) over probe points, inflated by the 1.05
    safety factor.
    """
    if probes < 1:
        raise ParameterError("probes must be >= 1")
    if m.kind == "linear":
        bound = np.linalg.norm(m.weight, 2)
    else:
        # candidate points where tanh slopes peak, then random probes; the
        # first-layer pre-activation zero is where the norm typically maxes
        W1, b1 = m.layers[0]
        candidates = [np.zeros(m.latent_dim), -np.linalg.pinv(W1) @ b1]
        points = candidates + [rng.standard_normal(m.latent_dim)
                               for _ in range(probes)]
        basis = np.eye(m.ambient_dim)
        bound = LIPSCHITZ_SAFETY * max(
            np.linalg.norm(vjp_unchecked(m, z, basis), 2) for z in points)
    m.lipschitz_bound = float(bound)
    m.lipschitz_probes = int(probes)
    return m.lipschitz_bound
