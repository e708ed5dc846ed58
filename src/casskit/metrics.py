"""Reconstruction quality metrics and the mask-variation uncertainty map.

PSNR and SSIM follow the standard single-image conventions for data in
[0, 1] (estimates are clipped before scoring).  SSIM uses the 11x11
Gaussian window (sigma 1.5), stabilizers C1 = 0.01^2 and C2 = 0.03^2,
and averages the map over valid window positions; multi-band cubes score
each band and average.  Spectral fidelity is summarized by the
band-by-band Pearson correlation matrix of a cube.  ``epistemic_map``
measures how much a model's output moves when the coding mask changes:
the per-pixel population variance of reconstructions across a set of
masks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .ndgrad import ShapeError
from .optics import HsiCube, encode

__all__ = [
    "DegenerateChannelWarning",
    "psnr",
    "ssim",
    "spectral_correlation",
    "epistemic_map",
    "TrialReport",
]

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_C1 = 0.01**2
SSIM_C2 = 0.03**2


class DegenerateChannelWarning(UserWarning):
    """A correlation involved a constant vector and was reported as 0."""


def _pair(xhat, x):
    a = np.asarray(xhat, dtype=np.float64)
    b = np.asarray(x, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch {a.shape} vs {b.shape}")
    if a.size == 0:
        raise ShapeError("empty input")
    return a, b


def psnr(xhat, x):
    """Peak signal-to-noise ratio in dB against peak 1.0.

    The estimate is clipped to [0, 1] first; the reference must already
    be in range.  A perfect match returns +inf.
    """
    a, b = _pair(xhat, x)
    mse = float(np.mean((np.clip(a, 0.0, 1.0) - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse)


def _gaussian_window(size, sigma):
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    w = np.exp(-(x**2) / (2.0 * sigma**2))
    w /= w.sum()
    return w


def _window_means(img, win):
    # separable valid-mode correlation with the normalized window
    h, w = img.shape
    k = win.size
    rows = np.empty((h, w - k + 1))
    for i in range(h):
        rows[i] = np.convolve(img[i], win[::-1], mode="valid")
    out = np.empty((h - k + 1, w - k + 1))
    for j in range(rows.shape[1]):
        out[:, j] = np.convolve(rows[:, j], win[::-1], mode="valid")
    return out


def _ssim_single(a, b):
    win = _gaussian_window(SSIM_WINDOW, SSIM_SIGMA)
    mu1 = _window_means(a, win)
    mu2 = _window_means(b, win)
    s11 = _window_means(a * a, win) - mu1 * mu1
    s22 = _window_means(b * b, win) - mu2 * mu2
    s12 = _window_means(a * b, win) - mu1 * mu2
    num = (2.0 * mu1 * mu2 + SSIM_C1) * (2.0 * s12 + SSIM_C2)
    den = (mu1 * mu1 + mu2 * mu2 + SSIM_C1) * (s11 + s22 + SSIM_C2)
    return float(np.mean(num / den))


def ssim(xhat, x):
    """Mean structural similarity; cubes average the per-band scores."""
    a, b = _pair(xhat, x)
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    elif a.ndim != 3:
        raise ShapeError(f"ssim wants 2-D images or 3-D cubes, got {a.shape}")
    if a.shape[0] < SSIM_WINDOW or a.shape[1] < SSIM_WINDOW:
        raise ShapeError(
            f"image {a.shape[:2]} smaller than the {SSIM_WINDOW}x{SSIM_WINDOW} "
            "ssim window"
        )
    a = np.clip(a, 0.0, 1.0)
    scores = [_ssim_single(a[:, :, c], b[:, :, c]) for c in range(a.shape[2])]
    return float(np.mean(scores))


def spectral_correlation(cube):
    """Band-by-band Pearson correlation matrix of one cube.

    Returns a bands x bands matrix with unit diagonal.  Entries involving
    a constant (zero-variance) band are set to 0 and a
    :class:`DegenerateChannelWarning` is emitted.
    """
    v = np.asarray(cube.values if isinstance(cube, HsiCube) else cube, dtype=np.float64)
    if v.ndim != 3:
        raise ShapeError(f"cube must be 3-D, got shape {v.shape}")
    bands = v.shape[2]
    flat = v.reshape(-1, bands)
    # max == min is exact; std of a constant band can round off to != 0
    degenerate = flat.max(axis=0) == flat.min(axis=0)
    if np.all(degenerate):
        warnings.warn("all bands are constant", DegenerateChannelWarning)
        return np.eye(bands)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(flat, rowvar=False)
    if np.any(degenerate):
        warnings.warn(
            f"{int(degenerate.sum())} constant band(s); their correlations "
            "are reported as 0",
            DegenerateChannelWarning,
        )
        corr[degenerate, :] = 0.0
        corr[:, degenerate] = 0.0
    np.fill_diagonal(corr, 1.0)
    return corr


def epistemic_map(model, x, masks, d=2):
    """Per-pixel variance of reconstructions of one scene across masks.

    ``model(measurement, mask)`` must return an H x W x bands array.  The
    scene is encoded noiselessly with each mask, reconstructed, and the
    population variance across the mask axis is returned together with
    the mean reconstruction.

    The reduction is order-canonicalized (values sorted per pixel before
    summing), so permuting ``masks`` gives bit-identical output, and
    pixels where all reconstructions agree exactly report exactly 0.
    """
    ms = list(masks)
    if not ms:
        raise ValueError("epistemic_map needs at least one mask")
    recons = []
    for m in ms:
        y = encode(x, m, d)
        recons.append(np.asarray(model(y, m), dtype=np.float64))
    stack = np.stack(recons) + 0.0  # fold -0.0 into +0.0 before sorting
    stack = np.sort(stack, axis=0)
    k = stack.shape[0]
    mean = np.add.reduce(stack, axis=0) / k
    var = np.add.reduce((stack - mean) ** 2, axis=0) / k
    same = stack[0] == stack[-1]  # exact agreement: report exactly 0, mean = value
    var[same] = 0.0
    mean[same] = stack[0][same]
    return var, mean


@dataclass
class TrialReport:
    """Per-scene, per-trial metric rows plus recomputable aggregates."""

    scenario: str
    rows: list = field(default_factory=list)  # (scene, trial, psnr_db, ssim)

    def add(self, scene, trial, psnr_db, ssim_value):
        self.rows.append((int(scene), int(trial), float(psnr_db), float(ssim_value)))

    def _agg(self, values):
        arr = np.asarray(values, dtype=np.float64)
        return float(arr.mean()), float(arr.std())

    def aggregate(self):
        """{"overall": ..., "per_scene": {id: ...}} with mean/std (population)."""
        if not self.rows:
            raise ValueError("no rows to aggregate")
        per_scene = {}
        for scene in sorted({r[0] for r in self.rows}):
            ps = [r[2] for r in self.rows if r[0] == scene]
            ss = [r[3] for r in self.rows if r[0] == scene]
            pm, psd = self._agg(ps)
            sm, ssd = self._agg(ss)
            per_scene[scene] = {
                "psnr_mean": pm, "psnr_std": psd,
                "ssim_mean": sm, "ssim_std": ssd,
                "n": len(ps),
            }
        pm, psd = self._agg([r[2] for r in self.rows])
        sm, ssd = self._agg([r[3] for r in self.rows])
        overall = {
            "psnr_mean": pm, "psnr_std": psd,
            "ssim_mean": sm, "ssim_std": ssd,
            "n": len(self.rows),
        }
        return {"overall": overall, "per_scene": per_scene}
