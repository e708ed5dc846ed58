"""Metric oracles.

PSNR and the constant-image SSIM have closed forms.  The windowed SSIM is
cross-checked against a direct loop over every 11x11 window with sigma-1.5
Gaussian weights and population covariances; the correlation metrics are
checked against naive summation loops.
"""

import math

import numpy as np
import pytest

from casskit.metrics import (
    SSIM_C1,
    SSIM_SIGMA,
    SSIM_WINDOW,
    DegenerateChannelWarning,
    TrialReport,
    epistemic_map,
    psnr,
    spectral_correlation,
    ssim,
)
from casskit.ndgrad import ShapeError
from casskit.optics import encode, init_input

RNG = np.random.default_rng(31)


# -- psnr -------------------------------------------------------------------

def test_psnr_closed_form_20db():
    x = np.full((8, 8), 0.4)
    xhat = x + 0.1  # mse exactly 0.01
    assert psnr(xhat, x) == pytest.approx(20.0, abs=1e-9)


def test_psnr_perfect_is_inf():
    x = RNG.random((5, 5))
    assert psnr(x, x) == math.inf


def test_psnr_clips_estimate_only():
    x = np.full((4, 4), 1.0)
    xhat = np.full((4, 4), 1.7)  # clipped to 1.0 -> perfect
    assert psnr(xhat, x) == math.inf
    x2 = np.full((4, 4), 0.9)
    # clipped estimate differs by 0.1 -> 20 dB, unclipped would be ~1.9 dB
    assert psnr(np.full((4, 4), 1.8), x2) == pytest.approx(20.0, abs=1e-9)


def test_psnr_known_value():
    x = np.zeros((4, 4))
    xhat = np.full((4, 4), 0.5)
    assert psnr(xhat, x) == pytest.approx(10 * math.log10(1 / 0.25), abs=1e-12)


def test_psnr_shape_mismatch():
    with pytest.raises(ShapeError):
        psnr(np.zeros((4, 4)), np.zeros((4, 5)))


# -- ssim -------------------------------------------------------------------

def test_ssim_self_is_one():
    x = RNG.random((16, 16))
    assert ssim(x, x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_constant_images_closed_form():
    # zero-variance windows: score reduces to (2ab + C1) / (a^2 + b^2 + C1)
    a, b = 0.0, 1.0
    want = (2 * a * b + SSIM_C1) / (a * a + b * b + SSIM_C1)
    got = ssim(np.full((16, 16), a), np.full((16, 16), b))
    assert got == pytest.approx(want, abs=1e-12)
    assert got == pytest.approx(SSIM_C1 / (1 + SSIM_C1), abs=1e-12)
    assert ssim(np.full((16, 16), 0.5), np.full((16, 16), 0.5)) == pytest.approx(1.0)


def naive_ssim(a, b):
    """Mean SSIM over every valid 11x11 window, one window at a time.

    Sigma-1.5 Gaussian weights, population (weight-normalized, not n-1)
    covariances, data range 1, so C1 = 0.01**2 and C2 = 0.03**2.
    """
    size, sigma = 11, 1.5
    c1, c2 = 0.01**2, 0.03**2
    t = np.arange(size) - (size - 1) / 2
    g = np.exp(-t**2 / (2 * sigma**2))
    w = np.outer(g, g) / np.outer(g, g).sum()
    scores = []
    for i in range(a.shape[0] - size + 1):
        for j in range(a.shape[1] - size + 1):
            pa, pb = a[i : i + size, j : j + size], b[i : i + size, j : j + size]
            ma, mb = (w * pa).sum(), (w * pb).sum()
            vaa = (w * (pa - ma) ** 2).sum()
            vbb = (w * (pb - mb) ** 2).sum()
            vab = (w * (pa - ma) * (pb - mb)).sum()
            scores.append((2 * ma * mb + c1) * (2 * vab + c2)
                          / ((ma**2 + mb**2 + c1) * (vaa + vbb + c2)))
    return float(np.mean(scores))


def test_ssim_matches_direct_window_loop():
    assert (SSIM_WINDOW, SSIM_SIGMA) == (11, 1.5)
    for seed in (0, 1, 2):
        rng = np.random.default_rng(seed)
        x = rng.random((24, 20))
        xhat = np.clip(x + rng.normal(0, 0.08, x.shape), 0, 1)
        assert ssim(xhat, x) == pytest.approx(naive_ssim(xhat, x), abs=1e-7)


def test_ssim_cube_averages_bands():
    x = RNG.random((16, 16, 3))
    xhat = np.clip(x + RNG.normal(0, 0.05, x.shape), 0, 1)
    per_band = [ssim(xhat[:, :, i], x[:, :, i]) for i in range(3)]
    assert ssim(xhat, x) == pytest.approx(np.mean(per_band), abs=1e-12)


def test_ssim_clips_estimate():
    x = np.full((16, 16), 1.0)
    assert ssim(np.full((16, 16), 1.9), x) == pytest.approx(1.0, abs=1e-12)


def test_ssim_window_size_guard():
    with pytest.raises(ShapeError):
        ssim(np.zeros((8, 8)), np.zeros((8, 8)))
    with pytest.raises(ShapeError):
        ssim(np.zeros((4,)), np.zeros((4,)))


# -- spectral correlation ---------------------------------------------------

def naive_pearson(u, v):
    n = len(u)
    mu, mv = sum(u) / n, sum(v) / n
    suv = sum((a - mu) * (b - mv) for a, b in zip(u, v))
    su = math.sqrt(sum((a - mu) ** 2 for a in u))
    sv = math.sqrt(sum((b - mv) ** 2 for b in v))
    return suv / (su * sv)


def test_spectral_correlation_matches_naive():
    cube = RNG.random((6, 5, 4))
    corr = spectral_correlation(cube)
    flat = cube.reshape(-1, 4)
    for i in range(4):
        for j in range(4):
            want = 1.0 if i == j else naive_pearson(flat[:, i], flat[:, j])
            assert corr[i, j] == pytest.approx(want, abs=1e-12)
    assert np.allclose(corr, corr.T)


def test_spectral_correlation_perfect_for_proportional_bands():
    base = RNG.random((8, 8))
    cube = np.stack([0.2 * base, 0.8 * base], axis=2)
    corr = spectral_correlation(cube)
    assert corr[0, 1] == pytest.approx(1.0, abs=1e-12)


def test_spectral_correlation_degenerate_band():
    cube = RNG.random((6, 6, 3))
    cube[:, :, 1] = 0.5
    with pytest.warns(DegenerateChannelWarning):
        corr = spectral_correlation(cube)
    assert corr[1, 0] == 0.0 and corr[0, 1] == 0.0 and corr[1, 2] == 0.0
    assert corr[1, 1] == 1.0  # diagonal stays 1 by convention


def test_spectral_correlation_all_constant():
    with pytest.warns(DegenerateChannelWarning):
        corr = spectral_correlation(np.full((4, 4, 3), 0.2))
    assert np.array_equal(corr, np.eye(3))


# -- epistemic maps ---------------------------------------------------------

def identity_model(y, m):
    return init_input(y, m)


def test_epistemic_identical_masks_exact_zero():
    x = RNG.random((6, 6, 3))
    m = RNG.random((6, 6))
    var1, mean1 = epistemic_map(identity_model, x, [m], d=1)
    assert np.all(var1 == 0.0)
    var3, mean3 = epistemic_map(identity_model, x, [m, m.copy(), m.copy()], d=1)
    assert np.all(var3 == 0.0)
    assert np.array_equal(mean3, mean1)


def test_epistemic_permutation_bit_identical():
    x = RNG.random((6, 6, 2))
    masks = [RNG.random((6, 6)) for _ in range(5)]
    var_a, mean_a = epistemic_map(identity_model, x, masks, d=1)
    var_b, mean_b = epistemic_map(identity_model, x, masks[::-1], d=1)
    perm = [masks[i] for i in (3, 0, 4, 1, 2)]
    var_c, mean_c = epistemic_map(identity_model, x, perm, d=1)
    assert np.array_equal(var_a, var_b) and np.array_equal(var_a, var_c)
    assert np.array_equal(mean_a, mean_b) and np.array_equal(mean_a, mean_c)


def test_epistemic_matches_plain_variance():
    x = RNG.random((5, 5, 2))
    masks = [RNG.random((5, 5)) for _ in range(4)]
    var, mean = epistemic_map(identity_model, x, masks, d=1)
    recons = np.stack([identity_model(encode(x, m, 1), m) for m in masks])
    np.testing.assert_allclose(mean, recons.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(var, recons.var(axis=0), atol=1e-12)


def test_epistemic_needs_masks():
    with pytest.raises(ValueError):
        epistemic_map(identity_model, RNG.random((4, 4, 2)), [], d=1)


# -- report aggregation -----------------------------------------------------

def test_trial_report_aggregates_population_stats():
    r = TrialReport("demo")
    r.add(0, 0, 30.0, 0.9)
    r.add(0, 1, 32.0, 0.92)
    r.add(1, 0, 28.0, 0.88)
    agg = r.aggregate()
    vals = np.array([30.0, 32.0, 28.0])
    assert agg["overall"]["psnr_mean"] == pytest.approx(vals.mean())
    assert agg["overall"]["psnr_std"] == pytest.approx(vals.std())  # population
    assert agg["overall"]["n"] == 3
    assert agg["per_scene"][0]["n"] == 2
    assert agg["per_scene"][0]["psnr_mean"] == pytest.approx(31.0)
    assert agg["per_scene"][1]["psnr_std"] == 0.0


def test_trial_report_empty_raises():
    with pytest.raises(ValueError):
        TrialReport("empty").aggregate()
