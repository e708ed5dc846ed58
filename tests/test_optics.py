"""Forward-model checks against a nested-loop oracle.

The oracle below places every scene voxel on the detector one at a time;
the vectorized encoder must agree to float precision.  ``encode`` and
``init_input`` run through the tape maps, which are checked against the
same loop oracles and by finite differences.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casskit.ndgrad import ShapeError, Tensor, backward, grad_check, mul, tsum
from casskit.optics import (
    HsiCube,
    Mask,
    Measurement,
    chw_to_cube,
    cube_to_chw,
    encode,
    encode_tape,
    init_input,
    init_input_tape,
)

RNG = np.random.default_rng(77)


def encode_oracle(x, m, d):
    """One voxel at a time: y[i, j + d*l] += x[i, j, l] * m[i, j]."""
    h, w, bands = x.shape
    y = np.zeros((h, w + d * (bands - 1)))
    for l in range(bands):
        for i in range(h):
            for j in range(w):
                y[i, j + d * l] += x[i, j, l] * m[i, j]
    return y


def random_instance(rng, hmax=8, wmax=8, lmax=5):
    h = int(rng.integers(1, hmax + 1))
    w = int(rng.integers(1, wmax + 1))
    bands = int(rng.integers(1, lmax + 1))
    d = int(rng.integers(0, 3))
    x = rng.random((h, w, bands))
    m = (rng.random((h, w)) < 0.5).astype(float)
    return x, m, d


def test_encode_matches_oracle_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        x, m, d = random_instance(rng)
        y = encode(x, m, d)
        np.testing.assert_allclose(y.values, encode_oracle(x, m, d), atol=1e-12)


def test_encode_geometry():
    x = RNG.random((5, 6, 3))
    m = RNG.random((5, 6))
    y = encode(x, m, d=2)
    assert y.values.shape == (5, 6 + 2 * 2)
    assert (y.step, y.width, y.bands, y.h) == (2, 6, 3, 5)


def test_encode_d_zero_is_masked_band_sum():
    x = RNG.random((4, 4, 3))
    m = RNG.random((4, 4))
    y = encode(x, m, d=0)
    np.testing.assert_allclose(y.values, (x * m[:, :, None]).sum(axis=2), atol=1e-12)


def test_encode_linear_in_scene():
    # raw arrays so scaled values may leave [0, 1]
    x = RNG.random((4, 5, 3))
    m = RNG.random((4, 5))
    a = 3.7
    ya = encode(a * x, m, d=1)
    y1 = encode(x, m, d=1)
    np.testing.assert_allclose(ya.values, a * y1.values, atol=1e-10)
    x2 = RNG.random((4, 5, 3))
    ysum = encode(x + x2, m, d=1)
    np.testing.assert_allclose(
        ysum.values, y1.values + encode(x2, m, d=1).values, atol=1e-10
    )


def test_encode_noise_reproducible_and_unbiased_shape():
    x = RNG.random((4, 4, 2))
    m = RNG.random((4, 4))
    y1 = encode(x, m, d=1, noise_std=0.1, rng=np.random.default_rng(3))
    y2 = encode(x, m, d=1, noise_std=0.1, rng=np.random.default_rng(3))
    assert np.array_equal(y1.values, y2.values)
    clean = encode(x, m, d=1)
    assert not np.array_equal(y1.values, clean.values)
    with pytest.raises(ValueError):
        encode(x, m, d=1, noise_std=0.1)  # rng required
    with pytest.raises(ValueError):
        encode(x, m, d=1, noise_std=-0.1, rng=np.random.default_rng(0))


def test_encode_shape_and_step_errors():
    x = RNG.random((4, 4, 2))
    with pytest.raises(ShapeError):
        encode(x, RNG.random((3, 4)))
    with pytest.raises(ValueError):
        encode(x, RNG.random((4, 4)), d=-1)


def test_init_input_windows_match_loop():
    x = RNG.random((5, 6, 3))
    m = RNG.random((5, 6))
    d = 2
    y = encode(x, m, d)
    x_in = init_input(y, m)
    assert x_in.shape == (5, 6, 3)
    for i in range(3):
        np.testing.assert_allclose(
            x_in[:, :, i], y.values[:, d * i : d * i + 6] * m, atol=1e-12
        )


def test_init_input_raw_array_needs_geometry():
    y = RNG.random((4, 8))
    m = RNG.random((4, 4))
    with pytest.raises(ValueError):
        init_input(y, m)
    x_in = init_input(y, m, d=2, bands=3)
    assert x_in.shape == (4, 4, 3)
    with pytest.raises(ShapeError):
        init_input(y, m, d=1, bands=3)  # width 8 != 4 + 1*2


def test_single_band_roundtrip():
    # bands=1, binary mask: x_in = y * m = x * m^2 = x on the open pixels
    x = RNG.random((4, 4, 1))
    m = (RNG.random((4, 4)) < 0.5).astype(float)
    x_in = init_input(encode(x, m, d=2), m)
    np.testing.assert_allclose(x_in[:, :, 0], x[:, :, 0] * m, atol=1e-12)


def test_encode_is_sum_of_shifted_masked_channels():
    x = RNG.random((3, 4, 3))
    m = RNG.random((3, 4))
    y = encode(x, m, d=2)
    # channel i, masked, lands shifted right by d*i columns
    ref = np.zeros((3, 4 + 2 * 2))
    for i in range(3):
        ref[:, 2 * i : 2 * i + 4] += x[:, :, i] * m
    np.testing.assert_allclose(y.values, ref, atol=1e-12)


# -- dataclass validation ---------------------------------------------------

def test_cube_and_mask_validation():
    with pytest.raises(ValueError):
        HsiCube(np.full((2, 2, 2), 1.5))
    with pytest.raises(ShapeError):
        HsiCube(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Mask(np.full((2, 2), -0.1))
    with pytest.raises(ShapeError):
        Mask(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        HsiCube(np.full((2, 2, 2), np.nan))


def test_measurement_width_consistency():
    with pytest.raises(ShapeError):
        Measurement(np.zeros((4, 7)), step=2, width=4, bands=3)
    ok = Measurement(np.zeros((4, 8)), step=2, width=4, bands=3)
    assert ok.h == 4


def test_typed_and_raw_inputs_agree():
    xv = RNG.random((4, 4, 2))
    mv = (RNG.random((4, 4)) < 0.5).astype(float)
    y_typed = encode(HsiCube(xv), Mask(mv), d=1)
    y_raw = encode(xv, mv, d=1)
    assert np.array_equal(y_typed.values, y_raw.values)


# -- tape variants ----------------------------------------------------------

def test_encode_tape_matches_encode():
    # encode runs through encode_tape, so both answer to the voxel oracle
    x = RNG.random((4, 5, 3))
    m = RNG.random((4, 5))
    yt = encode_tape(x, Tensor(m), d=2)
    np.testing.assert_allclose(yt.data, encode_oracle(x, m, 2), atol=1e-12)
    np.testing.assert_array_equal(encode(x, m, d=2).values, yt.data)


def test_encode_tape_draws_the_measurement_noise():
    # encode's noise is encode_tape's: one N(0, noise_std^2) field added to
    # the clean value, and the tape's mask gradient ignores it
    x = RNG.random((4, 5, 3))
    m = Tensor(RNG.random((4, 5)))
    clean = encode_tape(x, m, d=2)
    noisy = encode_tape(x, m, 2, 0.1, np.random.default_rng(3))
    field = np.random.default_rng(3).normal(0.0, 0.1, size=clean.data.shape)
    np.testing.assert_array_equal(noisy.data, clean.data + field)
    np.testing.assert_array_equal(
        encode(x, m.data, 2, noise_std=0.1, rng=np.random.default_rng(3)).values, noisy.data)
    backward(tsum(noisy))
    g_noisy = m.grad.copy()
    m.grad[...] = 0.0
    backward(tsum(clean))
    np.testing.assert_array_equal(m.grad, g_noisy)
    with pytest.raises(ValueError, match="requires an rng"):
        encode_tape(x, m, 2, 0.1)


def test_encode_tape_mask_gradient():
    x = RNG.random((3, 4, 2))
    m = Tensor(RNG.random((3, 4)))

    def builder(ps):
        y = encode_tape(x, ps[0], d=1)
        return tsum(mul(y, y))

    assert grad_check(builder, [m]) < 1e-7


def test_init_input_tape_values_and_grads():
    x = RNG.random((3, 4, 2))
    mv = RNG.random((3, 4))
    y = encode(x, mv, d=1)
    out = init_input_tape(Tensor(y.values), Tensor(mv), 1, 2)
    assert out.shape == (2, 3, 4)
    for i in range(2):  # channel i reads detector columns [i, i + 4)
        np.testing.assert_allclose(out.data[i], y.values[:, i : i + 4] * mv, atol=1e-12)
    np.testing.assert_array_equal(init_input(y, mv), chw_to_cube(out.data))

    yt = Tensor(y.values)
    mt = Tensor(mv)

    def builder(ps):
        v = init_input_tape(ps[0], ps[1], 1, 2)
        return tsum(mul(v, v))

    assert grad_check(builder, [yt, mt]) < 1e-7


def test_full_tape_chain_gradient():
    # encode and init-input composed, gradient into the mask only
    x = RNG.random((3, 3, 2))
    m = Tensor(RNG.random((3, 3)))

    def builder(ps):
        y = encode_tape(x, ps[0], d=1)
        v = init_input_tape(y, ps[0], 1, 2)
        return tsum(mul(v, v))

    assert grad_check(builder, [m]) < 1e-7


def test_cube_chw_roundtrip():
    x = RNG.random((3, 4, 5))
    assert np.array_equal(chw_to_cube(cube_to_chw(x)), x)
    assert cube_to_chw(x).shape == (5, 3, 4)


# -- properties -------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4), st.integers(0, 2),
       st.integers(0, 2**31 - 1))
def test_encode_oracle_property(h, w, bands, d, seed):
    rng = np.random.default_rng(seed)
    x = rng.random((h, w, bands))
    m = rng.random((h, w))
    y = encode(x, m, d)
    assert y.values.shape == (h, w + d * (bands - 1))
    np.testing.assert_allclose(y.values, encode_oracle(x, m, d), atol=1e-12)
