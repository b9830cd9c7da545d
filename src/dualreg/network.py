"""Two-stream registration network.

A full-resolution stream carries fine features end to end while a pooled
multi-scale stream descends an N-level pyramid and comes back up; every
level exchanges information with the full-resolution stream through a
multi-scale residual block. The head projects the full-resolution stream
to a 3-channel displacement field.

``Network.__post_init__`` declares the site order once, region by region;
the audit rows, the parameter list, the init draws, Adam's state and the
checkpoint payload all follow it.

Factorization is applied per region (full-resolution stream, encoder,
decoder) so ablation variants can be built from one config switch. The
final 3-channel conv is always left dense: its kernel is tiny and its
output scale sets the initial deformation, so there is nothing to save
and a lot to destabilize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor4, max_pool2, upsample_trilinear2
from .autodiff.ops import SLOPE
from .blocks import (ConvKind, ConvSite, ResidualBlockParams, make_mrb, make_residual_block,
                     make_site, mrb, residual_block)
from .jsonio import done, take
from .volgrid import DisplacementField, Volume, check_pair


@dataclass(frozen=True)
class VariantSpec:
    """Which regions use factorized conv sites, plus extra deepest-scale blocks."""

    factorize_fr: bool = False
    factorize_encoder: bool = False
    factorize_decoder: bool = False
    extra_mrbs: int = 0


VARIANTS = {
    "wo_f3d": VariantSpec(False, False, False, 0),
    "w_f3d": VariantSpec(True, True, True, 0),
    "enc": VariantSpec(False, True, False, 0),
    "dec": VariantSpec(False, False, True, 0),
    "fr": VariantSpec(True, False, False, 0),
    "ms": VariantSpec(False, True, True, 0),
    "mrb": VariantSpec(True, True, True, 2),
}


def default_scale_channels(n: int) -> list:
    """16 channels per scale, widened to 32 on the deepest two levels."""
    if n <= 2:
        return [16] * n
    return [16] * (n - 2) + [32, 32]


@dataclass(frozen=True)
class NetworkConfig:
    n_scales: int
    fr_channels: int = 16
    scale_channels: tuple = None
    variant: str = "wo_f3d"
    seed: int = 0

    def __post_init__(self):
        if self.n_scales < 1:
            raise ValueError("n_scales must be >= 1")
        if self.fr_channels < 2:
            raise ValueError("fr_channels must be >= 2")
        sc = self.scale_channels
        if sc is None:
            sc = default_scale_channels(self.n_scales)
        sc = tuple(int(c) for c in sc)
        if len(sc) != self.n_scales:
            raise ValueError(f"scale_channels must list {self.n_scales} entries, got {len(sc)}")
        if any(c < 1 for c in sc):
            raise ValueError("scale_channels entries must be >= 1")
        if self.n_scales >= 2 and sc[-1] != sc[-2]:
            raise ValueError(
                "the deepest two scales must share a channel count so the first "
                f"decoder skip-addition is well typed, got {sc}")
        if self.seed < 0:
            raise ValueError(f"field 'seed' must be >= 0, got {self.seed}")
        if not isinstance(self.variant, str) or self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"choose from {sorted(VARIANTS)}")
        object.__setattr__(self, "scale_channels", sc)

    def to_dict(self):
        return {
            "n_scales": self.n_scales,
            "fr_channels": self.fr_channels,
            "scale_channels": list(self.scale_channels),
            "variant": self.variant,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        """Inverse of to_dict, consuming ``d``."""
        cfg = cls(
            n_scales=take(d, "n_scales", int),
            fr_channels=take(d, "fr_channels", int, cls.fr_channels),
            scale_channels=take(d, "scale_channels", [int], None) or None,
            variant=take(d, "variant", str, cls.variant),
            seed=take(d, "seed", int, cls.seed),
        )
        done(d)
        return cfg


@dataclass(frozen=True)
class SiteRecord:
    """Audit row for one conv site: where it lives, what kind it got, and the
    parameters it owns."""

    name: str
    region: str
    kind: ConvKind
    extents: tuple
    exempt: bool
    params: tuple

    @property
    def eligible(self) -> bool:
        return self.extents == (3, 3, 3) and not self.exempt


@dataclass(eq=False)
class Network:
    """Built parameter set plus the topology needed to run and audit it."""

    config: NetworkConfig
    stem_conv: ConvSite
    stem_rb: ResidualBlockParams
    enc_mrbs: list
    extra_mrbs: list
    dec_mrbs: list
    head_rb1: ResidualBlockParams
    head_mid: ConvSite
    head_rb2: ResidualBlockParams
    head_out: ConvSite

    def __post_init__(self):
        # the one declaration of the site order, as (region, blocks)
        order = (("fr", [self.stem_conv, self.stem_rb]),
                 ("encoder", self.enc_mrbs + self.extra_mrbs),
                 ("decoder", self.dec_mrbs),
                 ("fr", [self.head_rb1, self.head_mid, self.head_rb2, self.head_out]))
        self.sites = [SiteRecord(s.name, region, s.kind, s.extents, s is self.head_out, s.params)
                      for region, blocks in order for block in blocks for s in block.sites()]
        self.parameters = [p for site in self.sites for p in site.params]


def build(config: NetworkConfig, dtype=np.float32) -> Network:
    """Construct and initialize the network described by ``config``, with
    parameters of ``dtype`` (float64 for gradient checks)."""
    v = VARIANTS[config.variant]
    fr = config.fr_channels
    sc = config.scale_channels
    n = config.n_scales
    kind_fr = ConvKind.FACTORIZED if v.factorize_fr else ConvKind.REGULAR
    kind_enc = ConvKind.FACTORIZED if v.factorize_encoder else ConvKind.REGULAR
    kind_dec = ConvKind.FACTORIZED if v.factorize_decoder else ConvKind.REGULAR

    stem_conv = make_site("stem.conv", 2, fr, kind_fr)
    stem_rb = make_residual_block("stem.rb", fr, kind_fr)

    enc_mrbs = []
    for s in range(1, n + 1):
        c_h = fr if s == 1 else sc[s - 2]
        enc_mrbs.append(make_mrb(f"enc{s}", s, fr, c_h, sc[s - 1], kind_enc))
    extra_mrbs = [make_mrb(f"deep{k + 1}", n, fr, sc[n - 1], sc[n - 1], kind_enc)
                  for k in range(v.extra_mrbs)]
    dec_mrbs = []
    for s in range(n - 1, 0, -1):
        c_s = sc[s - 2] if s >= 2 else sc[0]
        dec_mrbs.append(make_mrb(f"dec{s}", s, fr, sc[s - 1], c_s, kind_dec))

    head_rb1 = make_residual_block("head.rb1", fr, kind_fr)
    head_mid = make_site("head.mid", fr, fr // 2, kind_fr)
    head_rb2 = make_residual_block("head.rb2", fr // 2, kind_fr)
    head_out = make_site("head.out", fr // 2, 3, ConvKind.REGULAR)

    net = Network(config, stem_conv, stem_rb, enc_mrbs, extra_mrbs, dec_mrbs,
                  head_rb1, head_mid, head_rb2, head_out)
    init_weights(net, config.seed)  # draws in float64, so the cast below rounds once
    for p in net.parameters:
        p.value, p.grad = p.value.astype(dtype), p.grad.astype(dtype)
    return net


FINAL_CONV_STD = 1e-5


def init_weights(net: Network, seed: int) -> None:
    """He-style fan-in init for kernels, zero biases, near-zero output head.

    The output kernel is drawn at std 1e-5 so the untrained field is an
    approximate identity; otherwise the first warp is a large random
    deformation and early similarity gradients are meaningless.

    A factorized site is a pair of kernels with no activation between, so
    the pair must jointly realize the He gain: each stage gets gain
    sqrt(2), making the composed map's variance gain 2. Giving each stage
    the full gain would double the feature variance at every factorized
    site and the stack amplifies that exponentially with depth.
    """
    rng = np.random.default_rng(seed)
    for site in net.sites:
        gain = np.sqrt(2.0) if site.kind is ConvKind.FACTORIZED else 2.0
        for p in site.params:
            if p.value.ndim != 5:
                p.value[...] = 0.0
                continue
            if site.exempt:  # the field head, the one exempt site
                std = FINAL_CONV_STD
            else:
                fan_in = int(np.prod(p.value.shape[1:]))
                std = float(np.sqrt(gain / fan_in))
            p.value[...] = rng.normal(0.0, std, size=p.value.shape)


def validate_input_shape(config: NetworkConfig, shape) -> None:
    factor = 2 ** config.n_scales
    if any(d % factor for d in shape):
        raise ValueError(f"spatial dims {tuple(shape)} must be divisible by 2^{config.n_scales}"
                         f" = {factor}")


def forward_graph(net: Network, pair: Tensor4) -> Tensor4:
    """Displacement prediction as a graph node; ``pair`` is (2, D, H, W)."""
    validate_input_shape(net.config, pair.data.shape[1:])
    n = net.config.n_scales

    l = residual_block(net.stem_conv.apply(pair, SLOPE), net.stem_rb)

    enc_h = {}
    h = l
    for s in range(1, n + 1):
        h_in = max_pool2(h)
        l, h = mrb(l, h_in, net.enc_mrbs[s - 1])
        enc_h[s] = h
    for block in net.extra_mrbs:
        l, h = mrb(l, h, block)

    for i, s in enumerate(range(n - 1, 0, -1)):
        h_in = upsample_trilinear2(h, enc_h[s])  # up(h) + enc_h[s]
        l, h = mrb(l, h_in, net.dec_mrbs[i])

    y = residual_block(l, net.head_rb1)
    y = net.head_mid.apply(y, SLOPE)
    y = residual_block(y, net.head_rb2)
    return net.head_out.apply(y)


def forward(net: Network, moving: Volume, fixed: Volume) -> DisplacementField:
    """Predict the displacement mapping fixed-grid coordinates into moving space."""
    check_pair(moving, fixed)
    phi = forward_graph(net, Tensor4(np.stack([moving.data, fixed.data])))
    return DisplacementField(phi.data, spacing_mm=moving.spacing_mm)


def count_parameters(net: Network) -> int:
    return sum(p.size for p in net.parameters)
