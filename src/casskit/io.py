"""On-disk formats: cubes, masks, checkpoints, configs, CSV and PGM output.

Binary layouts (all little-endian):

* cube  ``HSC1``: magic, u32 H, W, bands, then ``bands`` channel planes,
  each H*W float32 row-major.
* mask  ``MSK1``: magic, u32 H, W, then H*W float32 row-major.
* checkpoint ``CKP1``: magic, u32 version, then named blobs:
  u32 name length, name utf-8, u8 kind (0 = float64 array, 1 = utf-8
  text), u64 payload length, payload.  Array payloads start with u8 ndim
  and u32 dims.  Arrays stay float64 so a save/load cycle is bit-exact.

Cube and mask payloads are float32: plenty for [0, 1] image data, half
the disk.  Loaders check magic, dimension sanity, and exact payload
length and raise :class:`FormatError` naming the byte offset otherwise.

Config files are flat ``key=value`` lines; ``#`` starts a comment.
"""

from __future__ import annotations

import math
import struct
from dataclasses import fields

import numpy as np

__all__ = [
    "FormatError",
    "ConfigError",
    "save_cube",
    "load_cube",
    "save_mask",
    "load_mask",
    "save_checkpoint",
    "load_checkpoint",
    "parse_config",
    "format_config",
    "coerce_dataclass",
    "check_finite_fields",
    "write_metrics_csv",
    "write_loss_log_csv",
    "write_histogram_csv",
    "write_pgm",
]

MAGIC_CUBE = b"HSC1"
MAGIC_MASK = b"MSK1"
MAGIC_CKPT = b"CKP1"
CKPT_VERSION = 1

# refuse absurd headers before allocating: per-dim and total-element caps
_DIM_LIMIT = 1 << 20
_ELEM_LIMIT = 1 << 28


class FormatError(ValueError):
    """A binary file does not parse; message includes the byte offset."""


class ConfigError(ValueError):
    """A config file has a bad key, value, or syntax."""


class _Reader:
    def __init__(self, blob, what):
        self.blob = blob
        self.pos = 0
        self.what = what

    def take(self, n, why):
        if self.pos + n > len(self.blob):
            raise FormatError(
                f"{self.what}: truncated at offset {self.pos} "
                f"(wanted {n} bytes for {why}, file has {len(self.blob)})"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self, why):
        return self.take(1, why)[0]

    def u32(self, why):
        return struct.unpack("<I", self.take(4, why))[0]

    def u64(self, why):
        return struct.unpack("<Q", self.take(8, why))[0]

    def done(self):
        if self.pos != len(self.blob):
            raise FormatError(
                f"{self.what}: {len(self.blob) - self.pos} trailing bytes "
                f"at offset {self.pos}"
            )


def _check_magic(r, magic):
    got = r.take(len(magic), "magic")
    if got != magic:
        raise FormatError(
            f"{r.what}: bad magic {got!r} at offset 0, expected {magic!r}"
        )


def _check_dims(r, dims):
    total = 1
    for d in dims:
        if d < 1 or d > _DIM_LIMIT:
            raise FormatError(
                f"{r.what}: dimension {d} out of range [1, {_DIM_LIMIT}] "
                f"in header"
            )
        total *= d
    if total > _ELEM_LIMIT:
        raise FormatError(
            f"{r.what}: header declares {total} elements, cap is {_ELEM_LIMIT}"
        )
    return total


def save_cube(path, values):
    """Write an H x W x bands array as a cube file (float32 planes)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 3:
        raise ValueError(f"cube must be 3-D, got shape {v.shape}")
    h, w, bands = v.shape
    with open(path, "wb") as f:
        f.write(MAGIC_CUBE)
        f.write(struct.pack("<III", h, w, bands))
        for c in range(bands):
            f.write(np.ascontiguousarray(v[:, :, c], dtype="<f4").tobytes())


def load_cube(path):
    """Read a cube file back as an H x W x bands float64 array."""
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob, f"cube file {path!s}")
    _check_magic(r, MAGIC_CUBE)
    h = r.u32("height")
    w = r.u32("width")
    bands = r.u32("band count")
    total = _check_dims(r, (h, w, bands))
    raw = r.take(total * 4, "pixel data")
    r.done()
    planes = np.frombuffer(raw, dtype="<f4").astype(np.float64)
    out = np.empty((h, w, bands))
    for c in range(bands):
        out[:, :, c] = planes[c * h * w : (c + 1) * h * w].reshape(h, w)
    return out


def save_mask(path, values):
    """Write an H x W array as a mask file (float32)."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {v.shape}")
    h, w = v.shape
    with open(path, "wb") as f:
        f.write(MAGIC_MASK)
        f.write(struct.pack("<II", h, w))
        f.write(np.ascontiguousarray(v, dtype="<f4").tobytes())


def load_mask(path):
    """Read a mask file back as an H x W float64 array."""
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob, f"mask file {path!s}")
    _check_magic(r, MAGIC_MASK)
    h = r.u32("height")
    w = r.u32("width")
    total = _check_dims(r, (h, w))
    raw = r.take(total * 4, "pixel data")
    r.done()
    return np.frombuffer(raw, dtype="<f4").astype(np.float64).reshape(h, w)


def save_checkpoint(path, blobs):
    """Write named float64 arrays / text strings; keys sorted for stable bytes."""
    with open(path, "wb") as f:
        f.write(MAGIC_CKPT)
        f.write(struct.pack("<I", CKPT_VERSION))
        for name in sorted(blobs):
            value = blobs[name]
            nb = name.encode("utf-8")
            if isinstance(value, np.ndarray):
                # not ascontiguousarray: that would promote 0-d to (1,)
                arr = np.asarray(value, dtype="<f8", order="C")
                payload = struct.pack("<B", arr.ndim)
                payload += struct.pack(f"<{arr.ndim}I", *arr.shape)
                payload += arr.tobytes()
                kind = 0
            elif isinstance(value, str):
                payload = value.encode("utf-8")
                kind = 1
            else:
                raise TypeError(
                    f"checkpoint blob {name!r} must be ndarray or str, "
                    f"got {type(value).__name__}"
                )
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<B", kind))
            f.write(struct.pack("<Q", len(payload)))
            f.write(payload)


def load_checkpoint(path):
    """Read a checkpoint into {name: float64 array | str}."""
    with open(path, "rb") as f:
        blob = f.read()
    r = _Reader(blob, f"checkpoint file {path!s}")
    _check_magic(r, MAGIC_CKPT)
    version = r.u32("version")
    if version != CKPT_VERSION:
        raise FormatError(
            f"{r.what}: unsupported version {version}, expected {CKPT_VERSION}"
        )
    out = {}
    while r.pos < len(blob):
        start = r.pos
        nlen = r.u32("name length")
        name = r.take(nlen, "name").decode("utf-8")
        if name in out:
            raise FormatError(f"{r.what}: repeated blob {name!r} at offset {start}")
        kind = r.u8("kind")
        plen = r.u64("payload length")
        payload = _Reader(r.take(plen, f"payload of {name!r}"), r.what)
        if kind == 0:
            ndim = payload.u8("ndim")
            dims = tuple(payload.u32(f"dim {i}") for i in range(ndim))
            total = _check_dims(payload, dims) if dims else 1
            raw = payload.take(total * 8, "array data")
            payload.done()
            out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(dims)
        elif kind == 1:
            out[name] = payload.blob.decode("utf-8")
        else:
            raise FormatError(
                f"{r.what}: unknown blob kind {kind} for {name!r} "
                f"at offset {r.pos - plen - 9}"
            )
    r.done()
    return out


def parse_config(text):
    """Flat key=value lines -> dict of raw strings; '#' starts a comment."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key in {raw!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def format_config(d):
    """Dict -> sorted key=value lines (bools lowercase, floats via repr)."""
    lines = []
    for key in sorted(d):
        value = d[key]
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key}={value}")
    return "\n".join(lines) + "\n"


_TRUE = {"true", "1", "yes", "on"}
_FALSE = {"false", "0", "no", "off"}


def coerce_dataclass(items, cls, *, used=None):
    """Build ``cls`` from string values, casting by each field's default type.

    ``items`` maps key -> raw string (or already-typed value).  Unknown
    keys raise :class:`ConfigError`; if ``used`` (a set) is given they are
    silently skipped instead and every consumed key is added to ``used``,
    which lets one file feed several dataclasses with leftover detection
    at the call site.
    """
    known = {f.name: f for f in fields(cls)}
    kwargs = {}
    for key, raw in items.items():
        if key not in known:
            if used is not None:
                continue
            raise ConfigError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(known))}"
            )
        if used is not None:
            used.add(key)
        ftype = type(getattr(cls(), key))
        if isinstance(raw, str):
            try:
                if ftype is bool:
                    low = raw.lower()
                    if low in _TRUE:
                        value = True
                    elif low in _FALSE:
                        value = False
                    else:
                        raise ValueError(f"not a boolean: {raw!r}")
                elif ftype is int:
                    value = int(raw)
                elif ftype is float:
                    value = float(raw)
                else:
                    value = raw
            except ValueError as e:
                raise ConfigError(f"config key {key!r}: {e}") from None
        else:
            value = raw
        kwargs[key] = value
    return cls(**kwargs)


def check_finite_fields(obj):
    """Reject a dataclass whose float fields hold nan or inf, naming the key."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def _fmt(x):
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return f"{x:.9f}"
    return str(x)


def write_metrics_csv(path, rows):
    """rows: (scene, trial, psnr_db, ssim) tuples."""
    with open(path, "w", newline="") as f:
        f.write("scene,trial,psnr_db,ssim\n")
        for scene, trial, psnr_db, ssim in rows:
            f.write(f"{scene},{trial},{_fmt(float(psnr_db))},{_fmt(float(ssim))}\n")


def write_loss_log_csv(path, log):
    """log: dicts with phase, round, epoch, loss, entropy (entropy may be None)."""
    with open(path, "w", newline="") as f:
        f.write("phase,round,epoch,loss,entropy\n")
        for row in log:
            ent = row.get("entropy")
            ent_s = "" if ent is None else _fmt(float(ent))
            f.write(
                f"{row['phase']},{row['round']},{row['epoch']},"
                f"{_fmt(float(row['loss']))},{ent_s}\n"
            )


def write_histogram_csv(path, counts, edges):
    with open(path, "w", newline="") as f:
        f.write("bin_lo,bin_hi,count\n")
        for i, c in enumerate(counts):
            f.write(f"{_fmt(float(edges[i]))},{_fmt(float(edges[i + 1]))},{int(c)}\n")


def write_pgm(path, values):
    """Write a 2-D map as binary 8-bit PGM, scaled so the map max maps to 255.

    A constant map comes out uniform: 255 everywhere for a positive
    constant, 0 for an all-zero (or nonpositive) map.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise ValueError(f"PGM map must be 2-D, got shape {v.shape}")
    top = float(v.max())
    if top > 0.0:
        scaled = np.clip(np.rint(v / top * 255.0), 0, 255).astype(np.uint8)
    else:
        scaled = np.zeros(v.shape, dtype=np.uint8)
    h, w = v.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(scaled.tobytes())
