"""Plain-numpy references that the benchmark checks the program against.

Neither reference calls casskit.  Convolutions are direct loops over the
kernel taps rather than the column unrolling that ``ndgrad.conv2d`` uses,
and the graph-attention step forms its dense N x N affinity explicitly.
Both take parameters as ``{name: array}``, the names being those of the
networks' ``parameters()`` lists.
"""

from __future__ import annotations

import numpy as np

# Max-norm relative tolerance.  Reordered float64 sums of these sizes differ
# by about 1e-14; a wrong tap, channel or sign is off by far more than 1e-9.
RTOL = 1e-9


def check_close(got, ref, rtol=RTOL):
    """(ok, err): err = max|got - ref| / max|ref|; NaN or a shape mismatch fails."""
    got = np.asarray(got, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if got.shape != ref.shape:
        return False, float("inf")
    scale = max(float(np.max(np.abs(ref))), np.finfo(np.float64).tiny)
    err = float(np.max(np.abs(got - ref))) / scale
    return bool(err <= rtol), err


def conv_direct(x, w, b):
    """Same-padded stride-1 cross-correlation: x [Cin,H,W], w [Cout,Cin,k,k]."""
    cout, _, k, _ = w.shape
    _, h, wd = x.shape
    p = k // 2
    xp = np.pad(x, ((0, 0), (p, p), (p, p)))
    out = np.empty((cout, h, wd))
    out[...] = b[:, None, None]
    for i in range(k):
        for j in range(k):
            out += np.tensordot(w[:, :, i, j], xp[:, i : i + h, j : j + wd], axes=1)
    return out


def _relu(a):
    return np.maximum(a, 0.0)


def backbone_reference(p, y, m, d, bands):
    """Measurement y [H, W + d(bands-1)] and mask m [H, W] -> H x W x bands.

    Windows the measurement per band, multiplies by the mask, and runs the
    residual stack: relu head, blocks x + conv(relu(conv(x))), global skip,
    relu tail.
    """
    h, w = m.shape
    x = np.stack([y[:, d * i : d * i + w] * m for i in range(bands)])
    head = _relu(conv_direct(x, p["head_w"], p["head_b"]))
    body = head
    i = 0
    while f"block{i}.c1_w" in p:
        inner = _relu(conv_direct(body, p[f"block{i}.c1_w"], p[f"block{i}.c1_b"]))
        body = body + conv_direct(inner, p[f"block{i}.c2_w"], p[f"block{i}.c2_b"])
        i += 1
    out = _relu(conv_direct(body + head, p["tail_w"], p["tail_b"]))
    return np.moveaxis(out, 0, 2)


def gst_reference(p, m):
    """Mask m [H, W] -> deviation map g [H, W] by the GST forward equations.

    h0 = relu(conv(relu(conv(m)))); E = H1^T H2 / C' over all pixel pairs;
    gate = sigmoid(E m W) + 1; g = softplus(conv1x1(h0 * gate)).
    """
    h, w = m.shape
    n = h * w
    c = p["embed1_w"].shape[0]
    cp = p["proj1_w"].shape[0]
    h0 = _relu(conv_direct(m[None], p["embed1_w"], p["embed1_b"]))
    h0 = _relu(conv_direct(h0, p["embed2_w"], p["embed2_b"]))
    h1 = conv_direct(h0, p["proj1_w"], p["proj1_b"]).reshape(cp, n)
    h2 = conv_direct(h0, p["proj2_w"], p["proj2_b"]).reshape(cp, n)
    affinity = (h1.T @ h2) / cp
    gate = 1.0 / (1.0 + np.exp(-(affinity @ m.reshape(n, 1) @ p["gcn_w"])))
    gated = h0 * (gate + 1.0).T.reshape(c, h, w)
    z = conv_direct(gated, p["out_w"], p["out_b"])[0]
    return np.logaddexp(0.0, z)


def param_arrays(params):
    """{name: array} from a casskit parameter object."""
    return {name: t.data for name, t in params.parameters()}
