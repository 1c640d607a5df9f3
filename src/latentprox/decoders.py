"""Latent-to-ambient decoder maps, companion encoders, and Lipschitz bounds.

Two decoder families are provided: exact linear maps (where the theory is
checkable in closed form, with the Lipschitz bound equal to the largest
singular value) and smooth tanh MLPs as a stress case.  Vector-Jacobian
products are computed exactly for both; Lipschitz bounds for the MLP case are
probed with power iteration on J^T J and inflated by a 1.05 safety factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericError, ParameterError, ShapeError

LIPSCHITZ_SAFETY = 1.05
POWER_TOL = 1e-10
POWER_CAP = 10_000


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


def _jvp_fd(m: DecoderMap, z: np.ndarray, u: np.ndarray,
            h: float = 1e-6) -> np.ndarray:
    """Forward-difference Jacobian-vector product at z in direction u."""
    return (decode(m, z + h * u) - decode(m, z)) / h


def _power_iteration_sigma(apply_gram, dim: int, rng: np.random.Generator,
                           tol: float = POWER_TOL) -> float:
    """Largest singular value from power iteration on the Gram operator."""
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    lam_prev = None
    for _ in range(POWER_CAP):
        w = apply_gram(v)
        lam = float(v @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if lam_prev is not None and abs(lam - lam_prev) <= tol * max(abs(lam), 1.0):
            return float(np.sqrt(max(lam, 0.0)))
        lam_prev = lam
    raise ConvergenceError(
        f"power iteration did not converge in {POWER_CAP} iterations",
        residual=abs(lam - lam_prev), iterations=POWER_CAP)


def estimate_lipschitz(m: DecoderMap, probes: int,
                       rng: np.random.Generator) -> float:
    """Estimate (and cache) an upper bound on the Jacobian operator norm.

    Linear maps return the exact largest singular value.  Smooth MLPs return
    the max over probe points of the local Jacobian norm, estimated by power
    iteration on J^T J, inflated by the 1.05 safety factor.
    """
    if probes < 1:
        raise ParameterError("probes must be >= 1")
    if m.kind == "linear":
        W = m.weight
        sigma = _power_iteration_sigma(lambda v: W.T @ (W @ v),
                                       m.latent_dim, rng)
        bound = sigma
    else:
        # candidate points where tanh slopes peak, then random probes; the
        # first-layer pre-activation zero is where the norm typically maxes
        W1, b1 = m.layers[0]
        candidates = [np.zeros(m.latent_dim), -np.linalg.pinv(W1) @ b1]
        points = candidates + [rng.standard_normal(m.latent_dim)
                               for _ in range(probes)]
        best = 0.0
        for z in points:
            sigma = _power_iteration_sigma(
                lambda v: vjp(m, z, _jvp_fd(m, z, v)), m.latent_dim, rng)
            best = max(best, sigma)
        bound = LIPSCHITZ_SAFETY * best
    m.lipschitz_bound = float(bound)
    m.lipschitz_probes = int(probes)
    return m.lipschitz_bound


def local_jacobian_norms(m: DecoderMap, probes: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Per-probe local Jacobian operator norms (smoothness diagnostics)."""
    if probes < 1:
        raise ParameterError("probes must be >= 1")
    out = np.empty(probes)
    for k in range(probes):
        z = rng.standard_normal(m.latent_dim)
        if m.kind == "linear":
            out[k] = np.linalg.svd(m.weight, compute_uv=False).max()
            continue
        J = np.stack([vjp(m, z, e) for e in np.eye(m.ambient_dim)])
        out[k] = np.linalg.svd(J, compute_uv=False).max()
    return out


@dataclass(frozen=True)
class EncoderMap:
    """Affine companion encoder: encode(x) = matrix @ x + offset."""

    kind: str
    matrix: np.ndarray
    offset: np.ndarray

    @property
    def latent_dim(self):
        return self.matrix.shape[0]

    @property
    def ambient_dim(self):
        return self.matrix.shape[1]


def encoder_for(m: DecoderMap, samples: int = 512,
                rng: np.random.Generator | None = None,
                ridge: float = 1e-8) -> EncoderMap:
    """Build the companion encoder.

    Linear decoders get the pseudo-inverse map, so decode(encode(x)) is the
    orthogonal projection of x onto the decoder's affine range.  Smooth MLPs
    get a ridge-regularized least-squares affine fit on paired samples.
    """
    if m.kind == "linear":
        P = np.linalg.pinv(m.weight)
        return EncoderMap(kind="linear", matrix=P, offset=-P @ m.bias)
    if rng is None:
        rng = np.random.default_rng(0)
    Z = rng.standard_normal((samples, m.latent_dim))
    X = decode_unchecked(m, Z)
    Xt = np.concatenate([X, np.ones((samples, 1))], axis=1)
    A = Xt.T @ Xt + ridge * np.eye(Xt.shape[1])
    B = np.linalg.solve(A, Xt.T @ Z)
    return EncoderMap(kind="smooth_mlp", matrix=B[:-1].T, offset=B[-1])


def encode(e: EncoderMap, x) -> np.ndarray:
    """Least-squares preimage of x under the paired decoder."""
    x = np.asarray(x, dtype=float)
    if x.shape != (e.ambient_dim,):
        raise ShapeError(f"ambient point of shape {x.shape}, "
                         f"expected ({e.ambient_dim},)")
    return e.matrix @ x + e.offset
