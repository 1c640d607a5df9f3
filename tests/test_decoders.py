import dataclasses
import itertools
import json

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from latentprox.cli import main as cli_main
from latentprox.decoders import (VERTEX_HIDDEN_CAP, DecoderMap, decode,
                                 decode_rows, decode_unchecked,
                                 estimate_lipschitz, linear_decoder,
                                 mlp_decoder,
                                 random_linear_decoder, random_mlp_decoder,
                                 vjp, vjp_rows, vjp_unchecked)
from latentprox.errors import NumericError, ParameterError, ShapeError
from latentprox.serialize import decoder_doc

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


def test_linear_decoder_is_its_one_layer():
    dec = linear_decoder(W_EX)
    assert [f.name for f in dataclasses.fields(dec)] == [
        "kind", "latent_dim", "ambient_dim", "layers"]
    (W, b), = dec.layers
    assert np.array_equal(W, W_EX) and np.array_equal(b, np.zeros(3))
    # the builder reads the dims from a 2-D weight, as mlp_decoder does
    with pytest.raises(ShapeError):
        linear_decoder(np.ones(3))
    with pytest.raises(ShapeError):
        linear_decoder(W_EX, np.zeros(2))
    with pytest.raises(ParameterError):
        DecoderMap(kind="linear", latent_dim=2, ambient_dim=3,
                   layers=[(np.ones((4, 2)), np.zeros(4)),
                           (np.ones((3, 4)), np.zeros(3))])


BAD_INITS = {
    "latent_dim 0": lambda: random_linear_decoder(0, 3, seed=0),
    "ambient_dim -3": lambda: random_linear_decoder(2, -3, seed=0),
    "linear seed -1": lambda: random_linear_decoder(2, 3, seed=-1),
    "hidden 0": lambda: random_mlp_decoder(2, 3, hidden=0, seed=0),
    "hidden -1": lambda: random_mlp_decoder(2, 3, hidden=-1, seed=0),
    "mlp seed -1": lambda: random_mlp_decoder(2, 3, hidden=4, seed=-1)}


@pytest.mark.parametrize("build", BAD_INITS.values(), ids=BAD_INITS.keys())
def test_random_decoders_refuse_sizes_below_1_and_negative_seeds(build):
    with pytest.raises(ParameterError):
        build()


@pytest.mark.parametrize("build", [
    lambda: random_linear_decoder(5, 3, seed=0),
    lambda: random_mlp_decoder(5, 3, hidden=4, seed=0)],
    ids=["linear", "smooth_mlp"])
def test_random_decoders_refuse_a_latent_wider_than_the_ambient(build):
    # a reduced QR of the (3, 5) draw has 3 columns: the linear decoder was
    # silently 3 -> 3
    with pytest.raises(ParameterError,
                       match="latent_dim 5 exceeds its ambient_dim 3"):
        build()


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
    ell = estimate_lipschitz(dec)
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
    ell = estimate_lipschitz(dec)
    assert abs(ell - 3.0) < 1e-9


def test_lipschitz_identity():
    dec = linear_decoder(np.eye(3))
    assert abs(estimate_lipschitz(dec) - 1.0) < 1e-9


def test_lipschitz_matches_eigen_oracle():
    rng = np.random.default_rng(3)
    W = rng.standard_normal((3, 2))
    dec = linear_decoder(W)
    ell = estimate_lipschitz(dec)
    oracle = np.sqrt(np.linalg.eigvalsh(W.T @ W).max())
    assert abs(ell - oracle) < 1e-8


@pytest.mark.parametrize("seed", range(5))
def test_linear_lipschitz_is_spectral_norm(seed):
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((6, 3))
    # a near-tie between the top two singular values slows power iteration
    U, _, Vt = np.linalg.svd(W, full_matrices=False)
    W = U @ np.diag([2.0, 2.0 - 1e-7, 0.5]) @ Vt
    assert estimate_lipschitz(linear_decoder(W)) \
        == np.linalg.norm(W, 2)


def jacobians(m, Z):
    """J(z) of each row of Z, chained forward layer by layer: an oracle
    independent of the VJP kernel."""
    J = np.broadcast_to(np.eye(m.latent_dim), (len(Z), m.latent_dim,
                                               m.latent_dim))
    a = Z
    for W, b in m.layers[:-1]:
        a = np.tanh(a @ W.T + b)
        J = (1.0 - a ** 2)[:, :, None] * (W @ J)
    return m.layers[-1][0] @ J


def spectral_norms(J):
    return np.linalg.svd(J, compute_uv=False)[..., 0]


def test_mlp_lipschitz_covers_the_probe_miss():
    # 64 probes and a 1.05 factor gave 0.9436 here, below this Jacobian norm
    dec = random_mlp_decoder(2, 3, hidden=8, seed=1)
    sigma = spectral_norms(jacobians(dec, np.array([[5.80, 1.34]])))[0]
    assert sigma >= 1.0158
    assert estimate_lipschitz(dec) >= sigma


THREE_LAYERS = mlp_decoder([
    (np.random.default_rng(5).standard_normal((6, 2)), np.full(6, 0.3)),
    (np.random.default_rng(6).standard_normal((5, 6)) / 2, np.zeros(5)),
    (np.random.default_rng(7).standard_normal((4, 5)), np.zeros(4))])
MLP_CASES = {
    "2-8-3 seed 1": random_mlp_decoder(2, 3, hidden=8, seed=1),
    "2-8-4 seed 3": random_mlp_decoder(2, 4, hidden=8, seed=3, scale=1.5),
    "2-12-4 seed 4": random_mlp_decoder(2, 4, hidden=12, seed=4),
    "3-16-5 seed 0": random_mlp_decoder(3, 5, hidden=16, seed=0),
    "2-16-7 seed 2": random_mlp_decoder(2, 7, hidden=16, seed=2),
    "2-6-5-4": THREE_LAYERS}


@pytest.mark.parametrize("dec", MLP_CASES.values(), ids=MLP_CASES.keys())
def test_mlp_lipschitz_bounds_every_jacobian_on_a_wide_grid(dec):
    axis = np.linspace(-8.0, 8.0, 81 if dec.latent_dim == 2 else 21)
    Z = np.stack(np.meshgrid(*[axis] * dec.latent_dim), -1).reshape(
        -1, dec.latent_dim)
    ell = estimate_lipschitz(dec)
    # the Gram eigenvalue rounds: a relative 1e-12
    assert spectral_norms(jacobians(dec, Z)).max() <= ell * (1 + 1e-12)


@pytest.mark.parametrize("latent,ambient,hidden,seed",
                         [(2, 3, 1, 0), (2, 3, 8, 1), (3, 5, 5, 2),
                          (4, 6, VERTEX_HIDDEN_CAP, 3)])
def test_mlp_lipschitz_is_the_brute_force_vertex_maximum(latent, ambient,
                                                         hidden, seed):
    dec = random_mlp_decoder(latent, ambient, hidden=hidden, seed=seed)
    (W1, _), (W2, _) = dec.layers
    brute = max(spectral_norms(W2 @ (np.array(d)[:, None] * W1))
                for d in itertools.product((0.0, 1.0), repeat=hidden))
    assert abs(estimate_lipschitz(dec) - brute) <= 1e-12 * brute


def test_mlp_lipschitz_past_the_vertex_rule_is_the_layer_product():
    wide = random_mlp_decoder(3, 5, hidden=16, seed=0)
    for dec in (wide, THREE_LAYERS):
        product = 1.0
        for W, _ in dec.layers:
            product *= spectral_norms(W)
        assert estimate_lipschitz(dec) == pytest.approx(product, rel=1e-15)
    assert round(estimate_lipschitz(wide), 4) == 3.7392


@pytest.mark.parametrize("dec", [
    random_linear_decoder(2, 5, seed=1, scale=1.7),
    random_mlp_decoder(2, 4, hidden=6, seed=2)], ids=["linear", "smooth_mlp"])
def test_estimate_lipschitz_leaves_its_decoder_unchanged(dec):
    # the bound is returned, not stored: the run records it as
    # measured.lipschitz
    doc, names = decoder_doc(dec), set(vars(dec))
    estimate_lipschitz(dec)
    assert decoder_doc(dec) == doc and set(vars(dec)) == names


def test_lipschitz_bound_audited():
    dec = random_mlp_decoder(2, 4, hidden=12, seed=4)
    ell = estimate_lipschitz(dec)
    # audit: local Jacobian norms at random points never exceed the bound
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        z = rng.standard_normal(2)
        J = np.stack([vjp(dec, z, e) for e in np.eye(4)])  # rows J^T e = J rows
        sigma = np.linalg.svd(J, compute_uv=False).max()
        assert sigma <= ell + 1e-9


BAD_LAYERS = {
    "length-1 bias": [(np.ones((4, 2)), np.zeros(1)),
                      (np.ones((3, 4)), np.zeros(3))],
    "NaN weight": [(np.full((4, 2), np.nan), np.zeros(4)),
                   (np.ones((3, 4)), np.zeros(3))],
    "infinite bias": [(np.ones((4, 2)), np.zeros(4)),
                      (np.ones((3, 4)), np.full(3, np.inf))],
    "middle layer does not chain": [(np.ones((4, 2)), np.zeros(4)),
                                    (np.ones((5, 3)), np.zeros(5)),
                                    (np.ones((3, 5)), np.zeros(3))],
    "1-D weight": [(np.ones((4, 2)), np.zeros(4)),
                   (np.ones(4), np.zeros(3))]}


def test_mlp_decoder_layers_validated(tmp_path):
    with pytest.raises(ParameterError):
        mlp_decoder([(np.zeros((4, 3)), np.zeros(4)),
                     (np.zeros((2, 4)), np.zeros(2))])  # ambient 2 < latent 3
    with pytest.raises(ParameterError):
        mlp_decoder([])
    with pytest.raises(ShapeError):  # a 1-D first weight
        mlp_decoder([(np.ones(2), np.zeros(1)), (np.ones((3, 1)), np.zeros(3))])
    with pytest.raises(ShapeError):
        DecoderMap(kind="smooth_mlp", latent_dim=3, ambient_dim=5,
                   layers=[(np.zeros((4, 2)), np.zeros(4)),
                           (np.zeros((5, 4)), np.zeros(5))])
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({
        "seed": 0, "out": str(tmp_path / "run"),
        "score": {"kind": "linear_gaussian", "mean": [0.0, 0.0],
                  "cov": [[1.0, 0.0], [0.0, 1.0]]},
        "decoder": {"file": str(tmp_path / "decoder.json")},
        "sampler": {"mode": "unconstrained"}}))
    for name, layers in BAD_LAYERS.items():
        with pytest.raises((ShapeError, ParameterError)):
            DecoderMap(kind="smooth_mlp", latent_dim=2, ambient_dim=3,
                       layers=layers)
        # a decoder file with these layers is a configuration error
        (tmp_path / "decoder.json").write_text(json.dumps(
            {"type": "decoder", "kind": "smooth_mlp", "latent_dim": 2,
             "ambient_dim": 3,
             "layers": [[W.tolist(), b.tolist()] for W, b in layers]}))
        assert cli_main(["sample", "--config", str(cfg)]) == 3, name
        assert not (tmp_path / "run").exists()


# The point forms the decoder kernels used before they took a batch: matrix
# times vector.  A point call must still equal them bit for bit.


def reference_decode(m, z):
    if m.kind == "linear":
        W, b = m.layers[0]
        return W @ z + b
    a = z
    for W, b in m.layers[:-1]:
        a = np.tanh(W @ a + b)
    W, b = m.layers[-1]
    return W @ a + b


def reference_vjp(m, z, v):
    if m.kind == "linear":
        return m.layers[0][0].T @ v
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
        dec.layers[0] = (dec.layers[0][0],
                         np.random.default_rng(seed).standard_normal(ambient))
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
    X = decode_unchecked(dec.layers, Z)
    G = vjp_unchecked(dec.layers, Z, V)
    assert X.shape == (len(Z), dec.ambient_dim)
    assert G.shape == Z.shape
    points_x = [decode_unchecked(dec.layers, z) for z in Z]
    points_g = [vjp_unchecked(dec.layers, z, v) for z, v in zip(Z, V)]
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
