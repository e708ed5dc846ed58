"""Residual convolutional reconstruction network.

A plain image-restoration stack: a 3x3 conv+relu head lifts the sheared
measurement windows to feature space, J residual blocks
x + conv(relu(conv(x))) refine them, a global skip adds the head output
back in, and a 3x3 conv+relu tail maps to the nonnegative scene estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ndgrad import ShapeError, Tensor, add, conv2d, relu, xavier_uniform

__all__ = ["ResBlock", "SrnParams", "srn_init", "reconstruct"]


@dataclass
class ResBlock:
    c1_w: Tensor
    c1_b: Tensor
    c2_w: Tensor
    c2_b: Tensor


@dataclass
class SrnParams:
    """Learnable tensors of the reconstruction network."""

    head_w: Tensor
    head_b: Tensor
    blocks: list
    tail_w: Tensor
    tail_b: Tensor

    def parameters(self):
        out = [("head_w", self.head_w), ("head_b", self.head_b)]
        for i, blk in enumerate(self.blocks):
            out += [
                (f"block{i}.c1_w", blk.c1_w),
                (f"block{i}.c1_b", blk.c1_b),
                (f"block{i}.c2_w", blk.c2_w),
                (f"block{i}.c2_b", blk.c2_b),
            ]
        out += [("tail_w", self.tail_w), ("tail_b", self.tail_b)]
        return out

    @property
    def bands(self):
        return self.head_w.data.shape[1]

    @property
    def channels(self):
        return self.head_w.data.shape[0]


def srn_init(bands, channels, blocks, rng):
    """Xavier-uniform weights (gain 1), zero biases; 3x3 kernels."""
    if bands < 1 or channels < 1:
        raise ValueError("bands and channels must be >= 1")
    if blocks < 0:
        raise ValueError(f"block count must be >= 0, got {blocks}")
    k = 3

    def conv_w(cout, cin):
        return Tensor(xavier_uniform(rng, (cout, cin, k, k), cin * k * k, cout * k * k))

    blks = [
        ResBlock(
            c1_w=conv_w(channels, channels),
            c1_b=Tensor(np.zeros(channels)),
            c2_w=conv_w(channels, channels),
            c2_b=Tensor(np.zeros(channels)),
        )
        for _ in range(blocks)
    ]
    return SrnParams(
        head_w=conv_w(channels, bands),
        head_b=Tensor(np.zeros(channels)),
        blocks=blks,
        tail_w=conv_w(bands, channels),
        tail_b=Tensor(np.zeros(bands)),
    )


def reconstruct(x_in, params):
    """[bands, H, W] Tensor -> nonnegative scene estimate of the same shape."""
    if not isinstance(x_in, Tensor):
        raise TypeError("reconstruct input must be a Tensor")
    if x_in.data.ndim != 3:
        raise ShapeError(f"input must be [bands, H, W], got {x_in.data.shape}")
    if x_in.data.shape[0] != params.bands:
        raise ShapeError(
            f"input has {x_in.data.shape[0]} channels, network expects {params.bands}"
        )
    head = relu(conv2d(x_in, params.head_w, params.head_b))
    body = head
    for blk in params.blocks:
        inner = conv2d(relu(conv2d(body, blk.c1_w, blk.c1_b)), blk.c2_w, blk.c2_b)
        body = add(body, inner)
    merged = add(body, head)
    return relu(conv2d(merged, params.tail_w, params.tail_b))
