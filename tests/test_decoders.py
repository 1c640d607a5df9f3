import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentprox.decoders import (decode, decode_rows, decode_unchecked,
                                 estimate_lipschitz, linear_decoder,
                                 mlp_decoder,
                                 random_linear_decoder, random_mlp_decoder,
                                 vjp, vjp_rows, vjp_unchecked)
from latentprox.errors import NumericError, ParameterError, ShapeError

W_EX = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])


def test_identity_decode():
    dec = linear_decoder(np.eye(2))
    assert np.array_equal(decode(dec, np.array([1.0, 2.0])), [1.0, 2.0])


def test_linear_decode_by_hand():
    dec = linear_decoder(W_EX)
    assert np.allclose(decode(dec, np.array([1.0, 1.0])), [2.0, 3.0, 2.0])


def test_vjp_by_hand():
    dec = linear_decoder(W_EX)
    assert np.allclose(vjp(dec, np.zeros(2), np.array([1.0, 1.0, 1.0])),
                       [3.0, 4.0])


def test_vjp_zero_covector():
    for dec in (linear_decoder(W_EX),
                random_mlp_decoder(2, 4, hidden=8, seed=0)):
        out = vjp(dec, np.array([0.3, -0.2]), np.zeros(dec.ambient_dim))
        assert np.array_equal(out, np.zeros(2))


def test_decode_errors():
    dec = linear_decoder(W_EX)
    with pytest.raises(ShapeError):
        decode(dec, np.zeros(3))
    with pytest.raises(NumericError):
        decode(dec, np.array([np.nan, 0.0]))
    with pytest.raises(ParameterError):
        linear_decoder(np.zeros((2, 3)))  # ambient < latent


def test_mlp_vjp_matches_finite_differences():
    dec = random_mlp_decoder(3, 5, hidden=16, seed=2)
    rng = np.random.default_rng(5)
    z = rng.standard_normal(3)
    h = 1e-6
    for _ in range(20):
        u = rng.standard_normal(3)
        u /= np.linalg.norm(u)
        v = rng.standard_normal(5)
        jvp = (decode(dec, z + h * u) - decode(dec, z - h * u)) / (2 * h)
        # adjoint identity: v . (J u) == (J^T v) . u
        lhs = float(v @ jvp)
        rhs = float(vjp(dec, z, v) @ u)
        assert abs(lhs - rhs) <= 1e-4 * max(abs(lhs), 1.0)


def test_mlp_lipschitz_probe():
    dec = random_mlp_decoder(2, 3, hidden=8, seed=1)
    ell = estimate_lipschitz(dec, probes=64, rng=np.random.default_rng(0))
    rng = np.random.default_rng(10)
    z = rng.standard_normal(2)
    h = 1e-3
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        diff = np.linalg.norm(decode(dec, z + e) - decode(dec, z))
        assert diff <= ell * h + 1e-6


def test_lipschitz_diagonal_by_hand():
    dec = linear_decoder(np.diag([2.0, 3.0]))
    ell = estimate_lipschitz(dec, 1, np.random.default_rng(0))
    assert abs(ell - 3.0) < 1e-9


def test_lipschitz_identity():
    dec = linear_decoder(np.eye(3))
    assert abs(estimate_lipschitz(dec, 1, np.random.default_rng(0)) - 1.0) < 1e-9


def test_lipschitz_matches_eigen_oracle():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((3, 2))
    dec = linear_decoder(W)
    ell = estimate_lipschitz(dec, 1, np.random.default_rng(1))
    oracle = np.sqrt(np.linalg.eigvalsh(W.T @ W).max())
    assert abs(ell - oracle) < 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_linear_lipschitz_is_spectral_norm(seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((6, 3))
    # a near-tie between the top two singular values slows power iteration
    U, _, Vt = np.linalg.svd(W, full_matrices=False)
    W = U @ np.diag([2.0, 2.0 - 1e-7, 0.5]) @ Vt
    assert estimate_lipschitz(linear_decoder(W), 1,
                              np.random.default_rng(0)) == np.linalg.norm(W, 2)


@pytest.mark.parametrize("seed", range(3))
def test_mlp_lipschitz_is_max_exact_jacobian_norm(seed):
    dec = random_mlp_decoder(3, 5, hidden=16, seed=seed)
    probes = 64
    ell = estimate_lipschitz(dec, probes, np.random.default_rng(seed))
    # oracle: the same probe points (two candidates, then the draws), each
    # with its Jacobian W2 diag(1 - tanh^2(W1 z + b1)) W1 written out
    (W1, b1), (W2, _) = dec.layers
    rng = np.random.default_rng(seed)
    points = [np.zeros(3), -np.linalg.pinv(W1) @ b1] + \
        [rng.standard_normal(3) for _ in range(probes)]
    norms = [np.linalg.svd(W2 @ ((1.0 - np.tanh(W1 @ z + b1) ** 2)[:, None]
                                 * W1), compute_uv=False)[0]
             for z in points]
    assert abs(ell - 1.05 * max(norms)) <= 1e-12 * ell


def test_lipschitz_bound_cached_and_audited():
    dec = random_mlp_decoder(2, 4, hidden=12, seed=4)
    ell = estimate_lipschitz(dec, probes=128, rng=np.random.default_rng(2))
    assert dec.lipschitz_bound == ell
    assert dec.lipschitz_probes == 128
    # audit: local Jacobian norms at random points never exceed the bound
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        z = rng.standard_normal(2)
        J = np.stack([vjp(dec, z, e) for e in np.eye(4)])  # rows J^T e = J rows
        sigma = np.linalg.svd(J, compute_uv=False).max()
        assert sigma <= ell + 1e-9


def test_mlp_decoder_layers_validated():
    with pytest.raises(ParameterError):
        mlp_decoder([(np.zeros((4, 3)), np.zeros(4)),
                     (np.zeros((2, 4)), np.zeros(2))])  # ambient 2 < latent 3
    from latentprox.decoders import DecoderMap
    with pytest.raises(ShapeError):
        DecoderMap(kind="smooth_mlp", latent_dim=3, ambient_dim=5,
                   layers=[(np.zeros((4, 2)), np.zeros(4)),
                           (np.zeros((5, 4)), np.zeros(5))])


# The point forms the decoder kernels used before they took a batch: matrix
# times vector.  A point call must still equal them bit for bit.


def reference_decode(m, z):
    if m.kind == "linear":
        return m.weight @ z + m.bias
    a = z
    for W, b in m.layers[:-1]:
        a = np.tanh(W @ a + b)
    W, b = m.layers[-1]
    return W @ a + b


def reference_vjp(m, z, v):
    if m.kind == "linear":
        return m.weight.T @ v
    activations = []
    a = z
    for W, b in m.layers[:-1]:
        a = np.tanh(W @ a + b)
        activations.append(a)
    g = m.layers[-1][0].T @ v
    for (W, b), a in zip(reversed(m.layers[:-1]), reversed(activations)):
        g = W.T @ (g * (1.0 - a ** 2))
    return g


@st.composite
def decoder_batches(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    latent = draw(st.integers(1, 6))
    ambient = draw(st.integers(latent, 40))
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        dec = random_linear_decoder(latent, ambient, seed=seed,
                                    scale=draw(st.floats(0.1, 10.0)))
        dec.bias = np.random.default_rng(seed).standard_normal(ambient)
    else:
        dec = random_mlp_decoder(latent, ambient,
                                 hidden=draw(st.integers(1, 24)), seed=seed,
                                 scale=draw(st.floats(0.1, 3.0)))
    rng = np.random.default_rng(seed + 1)
    scale = draw(st.floats(0.01, 100.0))
    return (dec, scale * rng.standard_normal((n, latent)),
            rng.standard_normal((n, ambient)))


def assert_rows_near(batch, points):
    for row, point in zip(batch, points):
        scale = max(np.abs(point).max(), 1.0)
        assert np.abs(row - point).max() <= 1e-12 * scale


@settings(max_examples=200, deadline=None)
@given(decoder_batches())
def test_kernels_take_a_point_or_a_batch(case):
    dec, Z, V = case
    X = decode_unchecked(dec, Z)
    G = vjp_unchecked(dec, Z, V)
    assert X.shape == (len(Z), dec.ambient_dim)
    assert G.shape == Z.shape
    points_x = [decode_unchecked(dec, z) for z in Z]
    points_g = [vjp_unchecked(dec, z, v) for z, v in zip(Z, V)]
    for z, v, x, g in zip(Z, V, points_x, points_g):
        assert np.array_equal(x, reference_decode(dec, z))
        assert np.array_equal(g, reference_vjp(dec, z, v))
        assert np.array_equal(decode(dec, z), x)
        assert np.array_equal(vjp(dec, z, v), g)
    assert_rows_near(X, points_x)
    assert_rows_near(G, points_g)
    # the rows kernels give every row the point call's bits
    for row, point in zip(decode_rows(dec, Z), points_x):
        assert np.array_equal(row, point)
    for row, point in zip(vjp_rows(dec, Z, V), points_g):
        assert np.array_equal(row, point)
