"""The benchmark's oracles accept a reordered computation and reject a wrong one.

    python3 -m pytest -q perfbench/test_oracles.py

A network with its hidden channels permuted computes the same function
with its sums taken in another order, so its output must pass the
check against the reference of the unpermuted network.  An output with
one element off by one part in a million must fail.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracles  # noqa: E402
from casskit.backbone import srn_init  # noqa: E402
from casskit.gstnet import gst_forward, gst_init  # noqa: E402
from casskit.optics import Mask, Measurement  # noqa: E402
from casskit.trainer import reconstruct_scene  # noqa: E402


def _perturbed(out):
    bad = out.copy()
    idx = np.unravel_index(np.argmax(np.abs(bad)), bad.shape)
    bad[idx] *= 1.0 + 1e-6
    return bad


def _permute(params, rules, perm):
    """Reorder hidden channels in place; rules map name -> permuted axes."""
    for name, t in params.parameters():
        for axis in rules.get(name, ()):
            t.data[...] = np.take(t.data, perm, axis=axis)


def _gst_case():
    rng = np.random.default_rng(5)
    m = rng.uniform(0.05, 0.95, (8, 8))
    phi = gst_init(6, 3, np.random.default_rng(6))
    # biases are zero after init; make them count
    for _, t in phi.parameters():
        if t.data.ndim == 1:
            t.data[...] = rng.uniform(-0.3, 0.3, t.data.shape)
    return m, phi


def _backbone_case():
    rng = np.random.default_rng(7)
    bands, d, h, w = 3, 2, 10, 9
    theta = srn_init(bands, 5, 2, np.random.default_rng(8))
    for _, t in theta.parameters():
        if t.data.ndim == 1:
            t.data[...] = rng.uniform(0.0, 0.2, t.data.shape)
    m = rng.uniform(0.05, 0.95, (h, w))
    y = rng.uniform(0.0, 2.0, (h, w + d * (bands - 1)))
    return theta, m, y, d, bands


def _run_backbone(theta, m, y, d, bands):
    return reconstruct_scene(theta, Measurement(y, d, m.shape[1], bands), Mask(m))


def test_gst_oracle_accepts_channel_permuted_network():
    m, phi = _gst_case()
    ref = oracles.gst_reference(oracles.param_arrays(phi), m)
    rules = {"embed1_w": (0,), "embed1_b": (0,), "embed2_w": (0, 1), "embed2_b": (0,),
             "proj1_w": (1,), "proj2_w": (1,), "gcn_w": (1,), "out_w": (1,)}
    _permute(phi, rules, np.random.default_rng(9).permutation(6))
    got = gst_forward(m, phi).data
    ok, err = oracles.check_close(got, ref)
    assert ok, err


def test_gst_oracle_rejects_perturbed_output():
    m, phi = _gst_case()
    got = gst_forward(m, phi).data
    ref = oracles.gst_reference(oracles.param_arrays(phi), m)
    assert oracles.check_close(got, ref)[0]
    assert not oracles.check_close(_perturbed(got), ref)[0]


def test_backbone_oracle_accepts_channel_permuted_network():
    theta, m, y, d, bands = _backbone_case()
    ref = oracles.backbone_reference(oracles.param_arrays(theta), y, m, d, bands)
    rules = {"head_w": (0,), "head_b": (0,), "tail_w": (1,)}
    for i in range(len(theta.blocks)):
        rules.update({f"block{i}.c1_w": (0, 1), f"block{i}.c1_b": (0,),
                      f"block{i}.c2_w": (0, 1), f"block{i}.c2_b": (0,)})
    _permute(theta, rules, np.random.default_rng(10).permutation(5))
    ok, err = oracles.check_close(_run_backbone(theta, m, y, d, bands), ref)
    assert ok, err


def test_backbone_oracle_rejects_perturbed_output():
    theta, m, y, d, bands = _backbone_case()
    got = _run_backbone(theta, m, y, d, bands)
    ref = oracles.backbone_reference(oracles.param_arrays(theta), y, m, d, bands)
    assert oracles.check_close(got, ref)[0]
    assert not oracles.check_close(_perturbed(got), ref)[0]


def test_check_close_rejects_nan_and_shape_mismatch():
    ref = np.ones((2, 3))
    bad = ref.copy()
    bad[0, 0] = np.nan
    assert not oracles.check_close(bad, ref)[0]
    assert not oracles.check_close(ref[:, :2], ref)[0]
