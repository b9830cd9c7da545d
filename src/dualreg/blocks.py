"""Composite building blocks: residual blocks, factorized convolution
sites, and the two-stream multi-scale residual block.

A "site" is one conv-kernel position in the network. A regular site holds
a dense (Cout, Cin, 3, 3, 3) kernel; a factorized site replaces it with a
(Cout, Cin, 1, 3, 3) kernel (dense in the H, W plane) chained into a
(Cout, Cout, 3, 1, 1) kernel (across D), no activation in between. The
intermediate channel count equals the site's output channels so the pair
stays a drop-in replacement. Per kernel element this trades 27 weights
for 12. Every block, a lone site included, lists its sites in order with
``sites()``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor4,
    add,
    concat_channels,
    conv3d,
    max_pool2,
    upsample_trilinear2,
)
from .autodiff.ops import SLOPE


class ConvKind(enum.Enum):
    REGULAR = "regular"
    FACTORIZED = "factorized"


def f3d_conv(x: Tensor4, w_hw: Parameter, b_hw: Parameter,
             w_d: Parameter, b_d: Parameter, slope=None) -> Tensor4:
    """Factorized replacement for one 3x3x3 conv: H,W plane then D axis, then ``slope``."""
    return conv3d(conv3d(x, w_hw, b_hw), w_d, b_d, slope)


@dataclass
class ConvSite:
    """One conv position, regular or factorized, owning its Parameters."""

    name: str
    kind: ConvKind
    params: tuple

    @property
    def extents(self) -> tuple:
        # nominal footprint of the site, not of an individual factor stage:
        # the (1,3,3) and (3,1,1) factors jointly stand in for one 3x3x3 kernel
        if self.kind is ConvKind.FACTORIZED:
            return (3, 3, 3)
        return tuple(self.params[0].value.shape[2:])

    @property
    def n_params(self) -> int:
        return sum(p.size for p in self.params)

    def sites(self) -> list:
        return [self]

    def apply(self, x: Tensor4, slope=None) -> Tensor4:
        if self.kind is ConvKind.FACTORIZED:
            return f3d_conv(x, *self.params, slope)
        return conv3d(x, self.params[0], self.params[1], slope)


def make_site(name: str, cin: int, cout: int, kind: ConvKind = ConvKind.REGULAR,
              extents: tuple = (3, 3, 3)) -> ConvSite:
    """Allocate a conv site with zero-filled parameters (init fills them).
    A factorized site stands in for a 3x3x3 kernel, whatever ``extents`` says."""
    if kind is ConvKind.FACTORIZED:
        params = (
            Parameter(f"{name}.hw.w", np.zeros((cout, cin, 1, 3, 3))),
            Parameter(f"{name}.hw.b", np.zeros(cout)),
            Parameter(f"{name}.d.w", np.zeros((cout, cout, 3, 1, 1))),
            Parameter(f"{name}.d.b", np.zeros(cout)),
        )
    else:
        params = (
            Parameter(f"{name}.w", np.zeros((cout, cin) + tuple(extents))),
            Parameter(f"{name}.b", np.zeros(cout)),
        )
    return ConvSite(name=name, kind=kind, params=params)


@dataclass
class ResidualBlockParams:
    """Two conv sites of an identity-plus-branch block at fixed width."""

    conv1: ConvSite
    conv2: ConvSite

    def sites(self) -> list:
        return [self.conv1, self.conv2]


def make_residual_block(name: str, channels: int,
                        kind: ConvKind = ConvKind.REGULAR) -> ResidualBlockParams:
    return ResidualBlockParams(
        conv1=make_site(f"{name}.conv1", channels, channels, kind),
        conv2=make_site(f"{name}.conv2", channels, channels, kind),
    )


def residual_block(z: Tensor4, p: ResidualBlockParams) -> Tensor4:
    """z plus the learned branch: conv, LeakyReLU, conv, LeakyReLU, each LeakyReLU in its conv."""
    y = p.conv1.apply(z, SLOPE)
    return add(z, p.conv2.apply(y, SLOPE))


@dataclass
class MrbParams:
    """Parameters of one multi-scale residual block at pyramid scale s.

    The lower stream runs at 1/2^s resolution with c_s channels; the
    full-resolution stream keeps c_l channels throughout. The bottleneck
    is a 1x1x1 projection and is never factorized.
    """

    scale: int
    fuse: ConvSite
    rb: ResidualBlockParams
    bottleneck: ConvSite

    def sites(self) -> list:
        return [self.fuse] + self.rb.sites() + [self.bottleneck]


def make_mrb(name: str, scale: int, c_l: int, c_h: int, c_s: int,
             kind: ConvKind = ConvKind.REGULAR) -> MrbParams:
    return MrbParams(
        scale=scale,
        fuse=make_site(f"{name}.fuse", c_l + c_h, c_s, kind),
        rb=make_residual_block(f"{name}.rb", c_s, kind),
        bottleneck=make_site(f"{name}.bottleneck", c_s, c_l, ConvKind.REGULAR, (1, 1, 1)),
    )


def mrb(l_prev: Tensor4, h_prev: Tensor4, p: MrbParams):
    """One two-stream block: returns (l_next, h_next).

    l_next is l_prev plus the fused streams' bottlenecked, upsampled
    projection, added by the last upsample in place. Mismatched streams are
    rejected by the primitives: max_pool2 (odd dims), concat_channels
    (stream shapes not 2^scale apart), conv3d (channel counts) and the
    skip-add (channel sums that match by accident).
    """
    y = l_prev
    for _ in range(p.scale):
        y = max_pool2(y)
    fused = p.fuse.apply(concat_channels(y, h_prev), SLOPE)
    h_next = residual_block(fused, p.rb)
    r = p.bottleneck.apply(fused)
    for _ in range(p.scale - 1):
        r = upsample_trilinear2(r)
    return upsample_trilinear2(r, l_prev, skip_first=True), h_next
