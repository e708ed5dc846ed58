"""Dispersive coded-aperture camera model.

The camera multiplies each spectral channel of a scene by a coding mask,
shears the channels horizontally by ``d`` pixels per channel index, and
sums them onto a single 2-D detector.  ``encode_tape`` produces that
measurement, with any measurement noise, and ``init_input_tape`` undoes
the shear per channel (window extraction times mask) to seed a
reconstruction network, both on the gradient tape so the mask can be
optimized through them.  ``encode`` and
``init_input`` are their plain-array entry points: typed inputs in,
values out, with the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndgrad import ShapeError, Tensor

__all__ = [
    "HsiCube",
    "Mask",
    "Measurement",
    "encode",
    "init_input",
    "encode_tape",
    "init_input_tape",
    "cube_to_chw",
    "chw_to_cube",
]


def _clean(values, ndim, what):
    v = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if v.ndim != ndim:
        raise ShapeError(f"{what} must be {ndim}-D, got shape {v.shape}")
    if v.size == 0:
        raise ShapeError(f"{what} has a zero-length dimension: {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} contains non-finite values")
    return v


@dataclass(frozen=True)
class HsiCube:
    """A hyperspectral scene, H x W x bands, values in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = _clean(self.values, 3, "cube")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError(
                f"cube values must lie in [0, 1], got range "
                f"[{v.min():.6g}, {v.max():.6g}]"
            )
        object.__setattr__(self, "values", v)

    @property
    def h(self):
        return self.values.shape[0]

    @property
    def w(self):
        return self.values.shape[1]

    @property
    def bands(self):
        return self.values.shape[2]


@dataclass(frozen=True)
class Mask:
    """A coding mask, H x W, transmittances in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        v = _clean(self.values, 2, "mask")
        if v.min() < 0.0 or v.max() > 1.0:
            raise ValueError(
                f"mask values must lie in [0, 1], got range "
                f"[{v.min():.6g}, {v.max():.6g}]"
            )
        object.__setattr__(self, "values", v)

    @property
    def h(self):
        return self.values.shape[0]

    @property
    def w(self):
        return self.values.shape[1]


@dataclass(frozen=True)
class Measurement:
    """A detector image of width W + d*(bands-1) plus its capture geometry."""

    values: np.ndarray
    step: int
    width: int
    bands: int

    def __post_init__(self):
        v = _clean(self.values, 2, "measurement")
        if self.step < 0:
            raise ValueError(f"dispersion step must be >= 0, got {self.step}")
        want = self.width + self.step * (self.bands - 1)
        if v.shape[1] != want:
            raise ShapeError(
                f"measurement width {v.shape[1]} inconsistent with "
                f"W={self.width}, d={self.step}, bands={self.bands} (want {want})"
            )
        object.__setattr__(self, "values", v)

    @property
    def h(self):
        return self.values.shape[0]


def _cube_values(x):
    if isinstance(x, HsiCube):
        return x.values
    return _clean(x, 3, "cube")


def _mask_values(m):
    if isinstance(m, Mask):
        return m.values
    return _clean(m, 2, "mask")


def encode(x, m, d=2, noise_std=0.0, rng=None):
    """Form the detector image: sum over channels of shifted (scene * mask).

    Returns a :class:`Measurement`.  The map and its noise are
    :func:`encode_tape`'s.
    """
    _, w, bands = _cube_values(x).shape
    y = encode_tape(x, Tensor(_mask_values(m)), d, noise_std, rng).data
    return Measurement(y, step=d, width=w, bands=bands)


def init_input(y, m, d=None, bands=None):
    """Per-channel window of the measurement times the mask.

    Channel i reads columns [d*i, d*i + W) of the detector image and
    multiplies by the mask; the result is an H x W x bands array shaped
    like the scene.  ``d`` and ``bands`` default to the measurement's own
    geometry.  The map itself is :func:`init_input_tape`.
    """
    mv = _mask_values(m)
    if isinstance(y, Measurement):
        yv = y.values
        d = y.step if d is None else d
        bands = y.bands if bands is None else bands
    else:
        yv = _clean(y, 2, "measurement")
        if d is None or bands is None:
            raise ValueError("raw measurement arrays need explicit d and bands")
    return chw_to_cube(init_input_tape(Tensor(yv), Tensor(mv), d, bands).data)


def encode_tape(x, m, d=2, noise_std=0.0, rng=None):
    """Tape version of :func:`encode` with the mask on the tape.

    The scene is constant data; gradients flow only into ``m``.  With
    ``noise_std > 0`` adds pixelwise N(0, noise_std^2) from ``rng``.
    Returns the measurement as a 2-D Tensor.
    """
    xv = _cube_values(x)
    if not isinstance(m, Tensor):
        raise TypeError("encode_tape mask must be a Tensor")
    h, w, bands = xv.shape
    if m.data.shape != (h, w):
        raise ShapeError(f"mask shape {m.data.shape} does not match scene {(h, w)}")
    if d < 0:
        raise ValueError(f"dispersion step must be >= 0, got {d}")
    if noise_std < 0:
        raise ValueError(f"noise std must be >= 0, got {noise_std}")
    y = np.zeros((h, w + d * (bands - 1)))
    for i in range(bands):
        y[:, d * i : d * i + w] += xv[:, :, i] * m.data
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("noise_std > 0 requires an rng")
        y += rng.normal(0.0, noise_std, size=y.shape)

    def _bw(g):
        if not m._need:
            return
        gm = np.zeros_like(m.data)
        for i in range(bands):
            gm += xv[:, :, i] * g[:, d * i : d * i + w]
        m.grad += gm

    return Tensor(y, (m,), _bw)


def init_input_tape(y, m, d, bands):
    """Tape version of :func:`init_input`; both operands may carry grad.

    Returns channels-first [bands, H, W], ready for conv stacks.
    """
    if not isinstance(y, Tensor) or not isinstance(m, Tensor):
        raise TypeError("init_input_tape operands must be Tensors")
    h, w = m.data.shape
    if y.data.shape[0] != h:
        raise ShapeError(f"measurement height {y.data.shape[0]} vs mask height {h}")
    if y.data.shape[1] != w + d * (bands - 1):
        raise ShapeError(
            f"measurement width {y.data.shape[1]} inconsistent with "
            f"W={w}, d={d}, bands={bands}"
        )
    val = np.empty((bands, h, w))
    for i in range(bands):
        val[i] = y.data[:, d * i : d * i + w] * m.data

    def _bw(g):
        if y._need:
            for i in range(bands):
                y.grad[:, d * i : d * i + w] += g[i] * m.data
        if m._need:
            gm = np.zeros_like(m.data)
            for i in range(bands):
                gm += g[i] * y.data[:, d * i : d * i + w]
            m.grad += gm

    return Tensor(val, (y, m), _bw)


def cube_to_chw(values):
    """H x W x bands -> bands x H x W (contiguous copy)."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(values, dtype=np.float64), 2, 0))


def chw_to_cube(values):
    """bands x H x W -> H x W x bands (contiguous copy)."""
    return np.ascontiguousarray(np.moveaxis(np.asarray(values, dtype=np.float64), 0, 2))
