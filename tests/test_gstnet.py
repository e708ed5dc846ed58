"""Deviation network structure and behaviour."""

import numpy as np
import pytest

from casskit.gstnet import gst_forward, gst_init
from casskit.ndgrad import ShapeError, Tensor, backward, grad_check, mul, tsum

RNG = np.random.default_rng(99)


def small_params(seed=0):
    return gst_init(channels=4, proj_channels=2, rng=np.random.default_rng(seed))


def binary_mask(h, w, seed=0):
    return (np.random.default_rng(seed).random((h, w)) < 0.5).astype(float)


def test_output_shape_and_positivity():
    params = small_params()
    m = binary_mask(6, 5)
    g = gst_forward(m, params)
    assert g.shape == (6, 5)
    assert np.all(g.data > 0.0)


def test_zero_params_output_is_log2():
    params = small_params()
    for _, t in params.parameters():
        t.data[...] = 0.0
    g = gst_forward(binary_mask(5, 5), params)
    np.testing.assert_allclose(g.data, np.log(2.0), atol=1e-15)


def test_param_count_formula():
    c, cp, k = 4, 2, 3
    params = gst_init(c, cp, np.random.default_rng(0))
    want = (
        c * 1 * k * k + c          # embed1
        + c * c * k * k + c        # embed2
        + cp * c + cp              # proj1 (1x1)
        + cp * c + cp              # proj2 (1x1)
        + c                        # graph mixing row
        + 1 * c + 1                # output head (1x1)
    )
    assert sum(t.data.size for _, t in params.parameters()) == want
    assert params.channels == c
    assert params.proj_channels == cp


def test_init_xavier_bounds_and_zero_biases():
    c, cp = 8, 4
    params = gst_init(c, cp, np.random.default_rng(1))
    for name, t in params.parameters():
        if name.endswith("_b"):
            assert np.all(t.data == 0.0)
    lim_e1 = np.sqrt(6.0 / (1 * 9 + c * 9))
    assert np.max(np.abs(params.embed1_w.data)) <= lim_e1
    lim_p1 = np.sqrt(6.0 / (c + cp))
    assert np.max(np.abs(params.proj1_w.data)) <= lim_p1
    lim_g = np.sqrt(6.0 / (1 + c))
    assert np.max(np.abs(params.gcn_w.data)) <= lim_g


def test_init_deterministic_in_rng():
    a = gst_init(4, 2, np.random.default_rng(7))
    b = gst_init(4, 2, np.random.default_rng(7))
    for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def test_forward_deterministic():
    params = small_params()
    m = binary_mask(5, 6, seed=3)
    g1 = gst_forward(m, params)
    g2 = gst_forward(m, params)
    assert np.array_equal(g1.data, g2.data)


def test_forward_depends_on_mask_structure():
    params = small_params()
    g1 = gst_forward(binary_mask(6, 6, seed=1), params)
    g2 = gst_forward(binary_mask(6, 6, seed=2), params)
    assert not np.array_equal(g1.data, g2.data)


def test_gradients_reach_every_parameter():
    params = small_params(seed=5)
    m = binary_mask(5, 5, seed=5)

    def builder(ps):
        return tsum(gst_forward(m, params))

    ps = [t for _, t in params.parameters()]
    assert grad_check(builder, ps) < 1e-6
    # no tensor is dead: each one receives gradient somewhere (individual
    # elements may sit behind inactive relu channels, that is fine)
    for t in ps:
        t.grad[...] = 0.0
    backward(tsum(gst_forward(m, params)))
    for name, t in params.parameters():
        assert np.any(t.grad != 0.0), f"no gradient reaches {name}"


def _conv(x, w, b):
    # same-padded cross-correlation by direct loops over the taps
    k = w.shape[2]
    p = k // 2
    _, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out = np.broadcast_to(b[:, None, None], (w.shape[0], h, wd)).copy()
    for i in range(k):
        for j in range(k):
            out += np.tensordot(w[:, :, i, j], xp[:, i : i + h, j : j + wd], axes=1)
    return out


def dense_reference(mv, params):
    """The network with its N x N affinity formed explicitly."""
    p = {name: t.data for name, t in params.parameters()}
    h, w = mv.shape
    n = h * w
    h0 = np.maximum(_conv(mv[None], p["embed1_w"], p["embed1_b"]), 0.0)
    h0 = np.maximum(_conv(h0, p["embed2_w"], p["embed2_b"]), 0.0)
    h1 = _conv(h0, p["proj1_w"], p["proj1_b"]).reshape(-1, n)
    h2 = _conv(h0, p["proj2_w"], p["proj2_b"]).reshape(-1, n)
    affinity = h1.T @ h2 / h1.shape[0]
    gate = 1.0 / (1.0 + np.exp(-((affinity @ mv.reshape(n, 1)) @ p["gcn_w"])))
    gated = h0 * (gate + 1.0).T.reshape(h0.shape)
    z = _conv(gated, p["out_w"], p["out_b"]).reshape(h, w)
    return np.logaddexp(0.0, z)


def test_graph_pass_matches_dense_affinity():
    params = small_params(seed=3)
    rng = np.random.default_rng(3)
    for name, t in params.parameters():
        if name.endswith("_b"):
            t.data[...] = rng.normal(scale=0.3, size=t.data.shape)
    m = rng.random((5, 7))
    np.testing.assert_allclose(
        gst_forward(m, params).data, dense_reference(m, params), rtol=1e-12, atol=1e-12
    )
    weights = Tensor(rng.normal(size=m.shape))

    def builder(ps):
        return tsum(mul(gst_forward(m, params), weights))

    assert grad_check(builder, [t for _, t in params.parameters()]) < 1e-7


def test_mask_beyond_4096_pixels_runs_forward_and_backward():
    params = small_params(seed=4)
    m = binary_mask(65, 65, seed=4)
    g = gst_forward(m, params)
    assert g.shape == (65, 65) and m.size > 4096
    assert np.all(g.data > 0.0)
    backward(tsum(g))
    for name, t in params.parameters():
        assert np.all(np.isfinite(t.grad)), name
        assert np.any(t.grad != 0.0), f"no gradient reaches {name}"


def test_mask_must_be_2d():
    with pytest.raises(ShapeError):
        gst_forward(np.zeros((2, 2, 2)), small_params())


def test_accepts_mask_objects():
    from casskit.optics import Mask

    params = small_params()
    mv = binary_mask(4, 4)
    assert np.array_equal(
        gst_forward(Mask(mv), params).data, gst_forward(mv, params).data
    )


def test_init_argument_errors():
    with pytest.raises(TypeError):
        gst_init(4, 2)  # rng required
    with pytest.raises(ValueError):
        gst_init(0, 2, np.random.default_rng(0))
