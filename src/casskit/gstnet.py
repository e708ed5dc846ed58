"""Per-pixel mask-deviation network with a graph self-attention stage.

Maps a coding mask to a strictly positive map ``g`` of the same shape,
read as the standard deviation of each mask pixel's fabrication error.
Pipeline: two 3x3 conv+relu stages embed the mask; two 1x1 projections
H1, H2 (C' x N for N mask pixels) define an all-pairs pixel affinity
E = H1^T H2 / C'; a one-hop graph pass over E with the raw mask m as
node features gates the embedding (attention = sigmoid(E m W) + 1, kept
>= 1 so gating never suppresses a pixel below its embedding); a final
1x1 conv plus softplus yields g > 0.

E only ever multiplies m, so the pass is computed as H1^T (H2 m) / C'
and the N x N matrix is never formed: time and memory grow linearly in
N, and masks of any size are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndgrad import (
    Tensor,
    add,
    conv2d,
    matmul,
    mul,
    relu,
    reshape,
    sigmoid,
    softplus,
    transpose,
    xavier_uniform,
)
from .optics import _mask_values

__all__ = ["GstParams", "gst_init", "gst_forward"]


@dataclass
class GstParams:
    """Learnable tensors of the deviation network, in forward order."""

    embed1_w: Tensor
    embed1_b: Tensor
    embed2_w: Tensor
    embed2_b: Tensor
    proj1_w: Tensor
    proj1_b: Tensor
    proj2_w: Tensor
    proj2_b: Tensor
    gcn_w: Tensor
    out_w: Tensor
    out_b: Tensor

    def parameters(self):
        """(name, tensor) pairs in a fixed order."""
        return [
            ("embed1_w", self.embed1_w),
            ("embed1_b", self.embed1_b),
            ("embed2_w", self.embed2_w),
            ("embed2_b", self.embed2_b),
            ("proj1_w", self.proj1_w),
            ("proj1_b", self.proj1_b),
            ("proj2_w", self.proj2_w),
            ("proj2_b", self.proj2_b),
            ("gcn_w", self.gcn_w),
            ("out_w", self.out_w),
            ("out_b", self.out_b),
        ]

    @property
    def channels(self):
        return self.embed1_w.data.shape[0]

    @property
    def proj_channels(self):
        return self.proj1_w.data.shape[0]


def gst_init(channels=8, proj_channels=4, rng=None):
    """Xavier-uniform weights (gain 1), zero biases; 3x3 embedding kernels."""
    if rng is None:
        raise ValueError("gst_init requires an rng")
    if channels < 1 or proj_channels < 1:
        raise ValueError("channel counts must be >= 1")
    c, cp, k = channels, proj_channels, 3

    def conv_w(cout, cin, kk):
        return Tensor(
            xavier_uniform(rng, (cout, cin, kk, kk), cin * kk * kk, cout * kk * kk)
        )

    return GstParams(
        embed1_w=conv_w(c, 1, k),
        embed1_b=Tensor(np.zeros(c)),
        embed2_w=conv_w(c, c, k),
        embed2_b=Tensor(np.zeros(c)),
        proj1_w=conv_w(cp, c, 1),
        proj1_b=Tensor(np.zeros(cp)),
        proj2_w=conv_w(cp, c, 1),
        proj2_b=Tensor(np.zeros(cp)),
        gcn_w=Tensor(xavier_uniform(rng, (1, c), 1, c)),
        out_w=conv_w(1, c, 1),
        out_b=Tensor(np.zeros(1)),
    )


def gst_forward(m, params):
    """Mask (Mask or H x W array) -> per-pixel deviation map g (H x W Tensor, g > 0).

    With all parameters zero the output is softplus(0) = ln 2 everywhere.
    """
    mv = _mask_values(m)
    h, w = mv.shape
    n = h * w
    c = params.channels
    cp = params.proj_channels

    x = Tensor(mv[None, :, :])
    h0 = relu(conv2d(x, params.embed1_w, params.embed1_b))
    h0 = relu(conv2d(h0, params.embed2_w, params.embed2_b))

    h1 = conv2d(h0, params.proj1_w, params.proj1_b)
    h2 = conv2d(h0, params.proj2_w, params.proj2_b)
    h1f = reshape(h1, (cp, n))
    h2f = reshape(h2, (cp, n))
    nodes = Tensor(mv.reshape(n, 1))
    # E m = H1^T (H2 m) / C', without forming the N x N affinity E
    msg = matmul(transpose(h1f), mul(matmul(h2f, nodes), 1.0 / cp))
    gate = sigmoid(matmul(msg, params.gcn_w))
    att = add(gate, 1.0)
    att_chw = reshape(transpose(att), (c, h, w))

    gated = mul(h0, att_chw)
    z = conv2d(gated, params.out_w, params.out_b)
    return softplus(reshape(z, (h, w)))
