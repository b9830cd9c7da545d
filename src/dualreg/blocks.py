"""Composite building blocks: residual blocks, factorized convolution
sites, and the two-stream multi-scale residual block.

A "site" is one conv-kernel position in the network. A regular site holds
a dense (Cout, Cin, 3, 3, 3) kernel; a factorized site replaces it with a
(Cout, Cin, 1, 3, 3) kernel (dense in the H, W plane) chained into a
(Cout, Cout, 3, 1, 1) kernel (across D), no activation in between. The
intermediate channel count equals the site's output channels so the pair
stays a drop-in replacement. Per kernel element this trades 27 weights
for 12.
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
    leaky_relu,
    max_pool2,
    upsample_trilinear2,
)

SLOPE = 0.2


class ConvKind(enum.Enum):
    REGULAR = "regular"
    FACTORIZED = "factorized"


def f3d_conv(x: Tensor4, w_hw: Parameter, b_hw: Parameter,
             w_d: Parameter, b_d: Parameter) -> Tensor4:
    """Factorized replacement for one 3x3x3 conv: H,W plane then D axis."""
    if tuple(w_hw.value.shape[2:]) != (1, 3, 3):
        raise ValueError(f"plane kernel must have extents (1,3,3), got {w_hw.value.shape}")
    if tuple(w_d.value.shape[2:]) != (3, 1, 1):
        raise ValueError(f"depth kernel must have extents (3,1,1), got {w_d.value.shape}")
    if w_d.value.shape[1] != w_hw.value.shape[0]:
        raise ValueError("factorized stages disagree on intermediate channels")
    return conv3d(conv3d(x, w_hw, b_hw), w_d, b_d)


@dataclass
class ConvSite:
    """One conv position, regular or factorized, owning its Parameters."""

    name: str
    kind: ConvKind
    params: tuple

    @property
    def cin(self) -> int:
        return self.params[0].value.shape[1]

    @property
    def cout(self) -> int:
        if self.kind is ConvKind.FACTORIZED:
            return self.params[2].value.shape[0]
        return self.params[0].value.shape[0]

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

    def parameters(self) -> list:
        return list(self.params)

    def apply(self, x: Tensor4) -> Tensor4:
        if self.kind is ConvKind.FACTORIZED:
            return f3d_conv(x, *self.params)
        return conv3d(x, self.params[0], self.params[1])


def make_site(name: str, cin: int, cout: int, kind: ConvKind = ConvKind.REGULAR,
              extents: tuple = (3, 3, 3)) -> ConvSite:
    """Allocate a conv site with zero-filled parameters (init fills them)."""
    if cin < 1 or cout < 1:
        raise ValueError("channel counts must be >= 1")
    if kind is ConvKind.FACTORIZED:
        if tuple(extents) != (3, 3, 3):
            raise ValueError("only 3x3x3 sites can be factorized")
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

    def __post_init__(self):
        if self.conv1.cin != self.conv1.cout or self.conv2.cin != self.conv2.cout \
                or self.conv1.cout != self.conv2.cin:
            raise ValueError("residual block convs must preserve the channel count")

    @property
    def channels(self) -> int:
        return self.conv1.cin

    def parameters(self) -> list:
        return self.conv1.parameters() + self.conv2.parameters()

    def sites(self) -> list:
        return [self.conv1, self.conv2]


def make_residual_block(name: str, channels: int,
                        kind: ConvKind = ConvKind.REGULAR) -> ResidualBlockParams:
    return ResidualBlockParams(
        conv1=make_site(f"{name}.conv1", channels, channels, kind),
        conv2=make_site(f"{name}.conv2", channels, channels, kind),
    )


def residual_branch(z: Tensor4, p: ResidualBlockParams) -> Tensor4:
    """The learned branch alone: conv, LeakyReLU, conv, LeakyReLU."""
    y = leaky_relu(p.conv1.apply(z), SLOPE)
    return leaky_relu(p.conv2.apply(y), SLOPE)


def residual_block(z: Tensor4, p: ResidualBlockParams) -> Tensor4:
    if z.data.shape[0] != p.channels:
        raise ValueError(f"residual block expects {p.channels} channels, got {z.data.shape[0]}")
    return add(z, residual_branch(z, p))


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

    def __post_init__(self):
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        if self.bottleneck.extents != (1, 1, 1):
            raise ValueError("bottleneck must be a 1x1x1 conv")
        if self.fuse.cout != self.rb.channels:
            raise ValueError("fuse output channels must match the residual block")
        if self.bottleneck.cin != self.fuse.cout:
            raise ValueError("bottleneck input channels must match the fuse output")

    @property
    def c_l(self) -> int:
        return self.bottleneck.cout

    @property
    def c_h(self) -> int:
        return self.fuse.cin - self.c_l

    @property
    def c_s(self) -> int:
        return self.fuse.cout

    def parameters(self) -> list:
        return self.fuse.parameters() + self.rb.parameters() + self.bottleneck.parameters()

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


def mrb_branch(l_prev: Tensor4, h_prev: Tensor4, p: MrbParams):
    """Both stream updates before the full-resolution residual addition.

    Returns (residual, h_next) where residual is the bottlenecked, upsampled
    contribution to the full-resolution stream.
    """
    y = l_prev
    for _ in range(p.scale):
        y = max_pool2(y)
    fused = leaky_relu(p.fuse.apply(concat_channels(y, h_prev)), SLOPE)
    h_next = residual_block(fused, p.rb)
    r = p.bottleneck.apply(fused)
    for _ in range(p.scale):
        r = upsample_trilinear2(r)
    return r, h_next


def mrb(l_prev: Tensor4, h_prev: Tensor4, p: MrbParams):
    """One two-stream block: returns (l_next, h_next)."""
    if l_prev.data.shape[0] != p.c_l:
        raise ValueError(f"full-resolution stream has {l_prev.data.shape[0]} channels, "
                         f"block expects {p.c_l}")
    if h_prev.data.shape[0] != p.c_h:
        raise ValueError(f"low-resolution stream has {h_prev.data.shape[0]} channels, "
                         f"block expects {p.c_h}")
    factor = 2 ** p.scale
    lsp = l_prev.data.shape[1:]
    hsp = h_prev.data.shape[1:]
    if any(n % factor for n in lsp) or tuple(n // factor for n in lsp) != tuple(hsp):
        raise ValueError(f"stream shapes {lsp} and {hsp} do not differ by 2^{p.scale}")
    r, h_next = mrb_branch(l_prev, h_prev, p)
    return add(l_prev, r), h_next
