"""Two-stream registration network.

A full-resolution stream carries fine features end to end while a pooled
multi-scale stream descends an N-level pyramid and comes back up; every
level exchanges information with the full-resolution stream through a
multi-scale residual block. The head projects the full-resolution stream
to a 3-channel displacement field.

Factorization is applied per region (full-resolution stream, encoder,
decoder) so ablation variants can be built from one config switch. The
final 3-channel conv is always left dense: its kernel is tiny and its
output scale sets the initial deformation, so there is nothing to save
and a lot to destabilize.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .autodiff import Tensor4, add, leaky_relu, max_pool2, upsample_trilinear2
from .blocks import SLOPE, ConvKind, make_mrb, make_residual_block, make_site, mrb, residual_block
from .volgrid import DisplacementField, Volume


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
    n_scales: int = 4
    fr_channels: int = 16
    scale_channels: tuple = None
    variant: VariantSpec = dc_field(default_factory=VariantSpec)
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
        if isinstance(self.variant, str) and self.variant in VARIANTS:
            object.__setattr__(self, "variant", VARIANTS[self.variant])
        elif self.variant not in VARIANTS.values():
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"choose from {sorted(VARIANTS)}")
        object.__setattr__(self, "scale_channels", sc)

    def to_dict(self):
        return {
            "n_scales": self.n_scales,
            "fr_channels": self.fr_channels,
            "scale_channels": list(self.scale_channels),
            "variant": {
                "factorize_fr": self.variant.factorize_fr,
                "factorize_encoder": self.variant.factorize_encoder,
                "factorize_decoder": self.variant.factorize_decoder,
                "extra_mrbs": self.variant.extra_mrbs,
            },
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            n_scales=int(d["n_scales"]),
            fr_channels=int(d.get("fr_channels", 16)),
            scale_channels=tuple(d["scale_channels"]) if d.get("scale_channels") else None,
            variant=VariantSpec(**d.get("variant", {})),
            seed=int(d.get("seed", 0)),
        )


@dataclass(frozen=True)
class SiteRecord:
    """Audit row for one conv site: where it lives and what kind it got."""

    name: str
    region: str
    kind: ConvKind
    extents: tuple
    exempt: bool = False

    @property
    def eligible(self) -> bool:
        return self.extents == (3, 3, 3) and not self.exempt


class Network:
    """Built parameter set plus the topology needed to run and audit it."""

    def __init__(self, config, stem_conv, stem_rb, enc_mrbs, extra_mrbs, dec_mrbs,
                 head_rb1, head_mid, head_rb2, head_out):
        self.config = config
        self.stem_conv = stem_conv
        self.stem_rb = stem_rb
        self.enc_mrbs = enc_mrbs
        self.extra_mrbs = extra_mrbs
        self.dec_mrbs = dec_mrbs
        self.head_rb1 = head_rb1
        self.head_mid = head_mid
        self.head_rb2 = head_rb2
        self.head_out = head_out
        self.parameters = [p for site, _, _ in self.conv_sites() for p in site.params]
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(f"duplicate parameter names: {dupes}")
        self.sites = self._audit_sites()

    def conv_sites(self):
        """Yield (site, region, exempt) for every convolution site in audit order."""
        yield self.stem_conv, "fr", False
        for s in self.stem_rb.sites():
            yield s, "fr", False
        for block in self.enc_mrbs + self.extra_mrbs:
            for s in block.sites():
                yield s, "encoder", False
        for block in self.dec_mrbs:
            for s in block.sites():
                yield s, "decoder", False
        for s in self.head_rb1.sites():
            yield s, "fr", False
        yield self.head_mid, "fr", False
        for s in self.head_rb2.sites():
            yield s, "fr", False
        yield self.head_out, "fr", True

    def _audit_sites(self):
        return [SiteRecord(site.name, region, site.kind, site.extents, exempt)
                for site, region, exempt in self.conv_sites()]

    def named_parameters(self) -> dict:
        return {p.name: p for p in self.parameters}

    def zero_grad(self):
        for p in self.parameters:
            p.zero_grad()


def build(config: NetworkConfig) -> Network:
    """Construct and initialize the network described by ``config``."""
    v = config.variant
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
    init_weights(net, config.seed)
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
    out_name = net.head_out.params[0].name
    factor_stage = {p.name for site, _, _ in net.conv_sites()
                    if site.kind is ConvKind.FACTORIZED
                    for p in site.params if p.value.ndim == 5}
    for p in net.parameters:
        if p.value.ndim != 5:
            p.value[...] = 0.0
            continue
        if p.name == out_name:
            std = FINAL_CONV_STD
        else:
            gain = np.sqrt(2.0) if p.name in factor_stage else 2.0
            fan_in = int(np.prod(p.value.shape[1:]))
            std = float(np.sqrt(gain / fan_in))
        p.value[...] = rng.normal(0.0, std, size=p.value.shape)


def validate_input_shape(config: NetworkConfig, shape) -> None:
    factor = 2 ** config.n_scales
    if len(shape) != 3 or any(int(d) <= 0 for d in shape):
        raise ValueError(f"expected a positive (D, H, W) shape, got {tuple(shape)}")
    if any(int(d) % factor for d in shape):
        raise ValueError(f"spatial dims {tuple(shape)} must be divisible by 2^{config.n_scales}"
                         f" = {factor}")


def forward_graph(net: Network, pair: Tensor4) -> Tensor4:
    """Displacement prediction as a graph node; ``pair`` is (2, D, H, W)."""
    if pair.data.shape[0] != 2:
        raise ValueError("network input must stack exactly two volumes")
    validate_input_shape(net.config, pair.data.shape[1:])
    n = net.config.n_scales

    l = residual_block(leaky_relu(net.stem_conv.apply(pair), SLOPE), net.stem_rb)

    enc_h = {}
    h = l
    for s in range(1, n + 1):
        h_in = max_pool2(h)
        l, h = mrb(l, h_in, net.enc_mrbs[s - 1])
        enc_h[s] = h
    for block in net.extra_mrbs:
        l, h = mrb(l, h, block)

    for i, s in enumerate(range(n - 1, 0, -1)):
        h_in = add(upsample_trilinear2(h), enc_h[s])
        l, h = mrb(l, h_in, net.dec_mrbs[i])

    y = residual_block(l, net.head_rb1)
    y = leaky_relu(net.head_mid.apply(y), SLOPE)
    y = residual_block(y, net.head_rb2)
    return net.head_out.apply(y)


def forward(net: Network, moving: Volume, fixed: Volume) -> DisplacementField:
    """Predict the displacement mapping fixed-grid coordinates into moving space."""
    if moving.data.shape != fixed.data.shape:
        raise ValueError(f"volume shapes differ: {moving.data.shape} vs {fixed.data.shape}")
    pair = Tensor4(np.stack([moving.data, fixed.data]).astype(np.float32))
    phi = forward_graph(net, pair)
    return DisplacementField(np.asarray(phi.data, dtype=np.float32),
                             spacing_mm=moving.spacing_mm)


def count_parameters(net: Network) -> int:
    return sum(p.size for p in net.parameters)
