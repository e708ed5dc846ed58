"""Reconstruction backbone structure and gradients."""

import numpy as np
import pytest

from casskit.backbone import reconstruct, srn_init
from casskit.ndgrad import ShapeError, Tensor, grad_check, tmean, mul

RNG = np.random.default_rng(42)


def test_shapes_in_equals_out():
    params = srn_init(3, channels=6, blocks=2, rng=np.random.default_rng(0))
    x = Tensor(RNG.random((3, 7, 5)))
    out = reconstruct(x, params)
    assert out.shape == (3, 7, 5)
    assert np.all(out.data >= 0.0)  # relu head


def test_param_count_formula():
    bands, c, blocks, k = 3, 6, 2, 3
    params = srn_init(bands, c, blocks, np.random.default_rng(0))
    per_block = 2 * (c * c * k * k + c)
    want = (c * bands * k * k + c) + blocks * per_block + (bands * c * k * k + bands)
    assert sum(t.data.size for _, t in params.parameters()) == want
    assert params.bands == bands
    assert params.channels == c


def test_zero_params_zero_output():
    params = srn_init(2, 4, 1, np.random.default_rng(0))
    for _, t in params.parameters():
        t.data[...] = 0.0
    out = reconstruct(Tensor(RNG.random((2, 5, 5))), params)
    assert np.all(out.data == 0.0)


def test_zero_blocks_is_head_tail_only():
    params = srn_init(2, 4, 0, np.random.default_rng(3))
    assert params.blocks == []
    out = reconstruct(Tensor(RNG.random((2, 4, 4))), params)
    assert out.shape == (2, 4, 4)


def test_residual_identity_blocks_change_nothing():
    # zeroing a block's convs leaves body = head, so the output must match
    # the zero-block network with identical head/tail weights
    r1 = srn_init(2, 4, 1, np.random.default_rng(5))
    r0 = srn_init(2, 4, 0, np.random.default_rng(5))
    r0.head_w.data[...] = r1.head_w.data
    r0.head_b.data[...] = r1.head_b.data
    r0.tail_w.data[...] = r1.tail_w.data
    r0.tail_b.data[...] = r1.tail_b.data
    for blk in r1.blocks:
        blk.c1_w.data[...] = 0.0
        blk.c1_b.data[...] = 0.0
        blk.c2_w.data[...] = 0.0
        blk.c2_b.data[...] = 0.0
    x = RNG.random((2, 5, 5))
    out1 = reconstruct(Tensor(x), r1)
    out0 = reconstruct(Tensor(x), r0)
    np.testing.assert_allclose(out1.data, out0.data, atol=1e-15)


def test_init_xavier_bounds_zero_biases():
    params = srn_init(3, 8, 2, np.random.default_rng(1))
    for name, t in params.parameters():
        if name.endswith("_b"):
            assert np.all(t.data == 0.0)
    lim_head = np.sqrt(6.0 / (3 * 9 + 8 * 9))
    assert np.max(np.abs(params.head_w.data)) <= lim_head


def test_gradients_reach_every_parameter():
    params = srn_init(2, 3, 1, np.random.default_rng(9))
    x = RNG.random((2, 4, 4)) + 0.1  # keep relu inputs mostly active

    def builder(ps):
        out = reconstruct(Tensor(x), params)
        return tmean(mul(out, out))

    ps = [t for _, t in params.parameters()]
    assert grad_check(builder, ps) < 1e-5


def test_input_validation():
    params = srn_init(2, 4, 1, np.random.default_rng(0))
    with pytest.raises(TypeError):
        reconstruct(np.zeros((2, 4, 4)), params)
    with pytest.raises(ShapeError):
        reconstruct(Tensor(np.zeros((4, 4))), params)
    with pytest.raises(ShapeError):
        reconstruct(Tensor(np.zeros((3, 4, 4))), params)  # wrong channel count


def test_init_argument_errors():
    with pytest.raises(TypeError):
        srn_init(2, 4, 1)  # rng required
    with pytest.raises(ValueError):
        srn_init(0, 4, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        srn_init(2, 4, -1, np.random.default_rng(0))
