"""Coding-mask synthesis and the stochastic mask model.

A fabricated mask never matches its design: we model a realized mask as
the clean binary pattern plus Gaussian error N(mu, sigma^2), clamped back
to physical transmittances; ``realize_mask`` takes (mu, sigma) from the
config's ``prior_mu`` and ``prior_sigma``.  During training the same
decomposition is used in reverse: given a per-pixel standard-deviation
map ``g`` (from the variance network) we draw perturbed masks
m' = clamp01(m + g * eps) with eps ~ N(0, 1), which is the
reparameterized form of sampling from N(m, g^2).  ``entropy_term`` is the
matching average Gaussian entropy, mean(ln(g * sqrt(2*pi*e))), used to
pressure ``g`` toward confident (small) values.  Both run on the tape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ndgrad import ShapeError, Tensor, add, clamp01, log, mul, tmean
from .optics import Mask, _mask_values

__all__ = [
    "MaskSet",
    "LOG_SQRT_2PIE",
    "synthesize_clean_mask",
    "realize_mask",
    "sample_perturbed",
    "entropy_term",
    "mask_histogram",
    "build_mask_sets",
]

# ln(sqrt(2*pi*e)); entropy of N(mu, s^2) is ln(s) + this constant
LOG_SQRT_2PIE = 0.5 * math.log(2.0 * math.pi * math.e)


@dataclass(frozen=True)
class MaskSet:
    """A named collection of same-shape masks ("train" or "test")."""

    masks: tuple
    role: str

    def __post_init__(self):
        if self.role not in ("train", "test"):
            raise ValueError(f"mask set role must be train or test, got {self.role!r}")
        ms = tuple(self.masks)
        if self.role == "train" and not ms:
            raise ValueError("train mask set may not be empty")
        shapes = {m.values.shape for m in ms}
        if len(shapes) > 1:
            raise ShapeError(f"mask set mixes shapes: {sorted(shapes)}")
        object.__setattr__(self, "masks", ms)

    def __len__(self):
        return len(self.masks)

    def __getitem__(self, i):
        return self.masks[i]


def synthesize_clean_mask(h, w, density=0.5, rng=None):
    """Random binary on/off pattern with open fraction ~ density."""
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    if rng is None:
        raise ValueError("synthesize_clean_mask requires an rng")
    values = (rng.random((h, w)) < density).astype(np.float64)
    return Mask(values)


def realize_mask(clean, mu, sigma, rng):
    """Fabricate: clean pattern plus N(mu, sigma^2) error, clamped to [0, 1]."""
    cv = _mask_values(clean)
    return Mask(np.clip(cv + rng.normal(mu, sigma, size=cv.shape), 0.0, 1.0))


def sample_perturbed(m, g, eps=None, rng=None):
    """Reparameterized draw m' = clamp01(m + g * eps) on the tape.

    ``m`` is a Mask or 2-D array (treated as constant data); ``g`` is a
    Tensor of the mask's shape or a scalar Tensor, and gradients flow
    into it.  ``eps`` defaults to an N(0, 1) draw from ``rng``.
    """
    mv = _mask_values(m)
    if not isinstance(g, Tensor):
        raise TypeError("sample_perturbed deviation map must be a Tensor")
    if g.data.shape not in (mv.shape, ()):
        raise ShapeError(f"deviation map shape {g.data.shape} does not match mask {mv.shape}")
    if eps is None:
        if rng is None:
            raise ValueError("sample_perturbed requires eps or an rng")
        eps = rng.standard_normal(mv.shape)
    else:
        eps = np.asarray(eps, dtype=np.float64)
        if eps.shape != mv.shape:
            raise ShapeError(f"eps shape {eps.shape} does not match mask {mv.shape}")
    return clamp01(add(Tensor(mv), mul(g, Tensor(eps))))


def entropy_term(g):
    """Mean over pixels of ln(g * sqrt(2*pi*e)), the per-pixel Gaussian entropy.

    Tensor in, scalar Tensor out (differentiable).  Zero exactly when
    g == (2*pi*e)**-0.5; negative for smaller g.
    """
    if not isinstance(g, Tensor):
        raise TypeError("entropy_term deviation map must be a Tensor")
    if np.any(g.data <= 0.0):
        raise ValueError("entropy_term: deviation map must be strictly positive")
    return add(tmean(log(g)), LOG_SQRT_2PIE)


def mask_histogram(m, bins):
    """Histogram of mask values over [0, 1].

    Bins are equal width, half-open except the last, which closes at 1 so
    every value is counted.  Returns (counts, edges).
    """
    if bins < 1:
        raise ValueError(f"need at least one bin, got {bins}")
    mv = _mask_values(m)
    counts, edges = np.histogram(mv, bins=bins, range=(0.0, 1.0))
    return counts, edges


def build_mask_sets(base, crop_hw, k_train, k_test, rng, max_redraw=1000):
    """Crop train and test mask sets out of one realized base mask.

    Crops are uniform random offsets.  Any test crop that exactly equals a
    train crop is redrawn, so the sets are disjoint by construction; if
    the geometry makes that impossible (e.g. crop size equals base size)
    the redraw budget runs out and a ValueError explains why.  k_test may
    be 0 when no held-out masks are wanted.
    """
    bv = _mask_values(base)
    ch, cw = crop_hw
    bh, bw = bv.shape
    if ch > bh or cw > bw:
        raise ShapeError(f"crop {crop_hw} exceeds base mask {bv.shape}")
    if k_train < 1:
        raise ValueError(f"k_train must be >= 1, got {k_train}")
    if k_test < 0:
        raise ValueError(f"k_test must be >= 0, got {k_test}")

    def crop():
        r = int(rng.integers(0, bh - ch + 1))
        c = int(rng.integers(0, bw - cw + 1))
        return Mask(bv[r : r + ch, c : c + cw].copy())

    train = [crop() for _ in range(k_train)]
    test = []
    for _ in range(k_test):
        for _attempt in range(max_redraw):
            cand = crop()
            if not any(np.array_equal(cand.values, t.values) for t in train):
                test.append(cand)
                break
        else:
            raise ValueError(
                "could not draw a test crop distinct from the train crops; "
                "crop geometry leaves too few distinct positions"
            )
    return MaskSet(tuple(train), "train"), MaskSet(tuple(test), "test")
