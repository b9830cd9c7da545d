"""Topology assembly, variant audit, initialization, and forward contracts.

Whole-network gradients are covered by the named check table; these tests
pin the structural claims: which sites exist, which get factorized, and
what the freshly initialized model predicts.
"""

import re
from dataclasses import asdict, astuple

import numpy as np
import pytest

from dualreg.autodiff import Tensor4
from dualreg.blocks import ConvKind
from dualreg.network import (
    VARIANTS,
    NetworkConfig,
    VariantSpec,
    build,
    count_parameters,
    default_scale_channels,
    forward,
    forward_graph,
    validate_input_shape,
)
from dualreg.volgrid import Volume


def small_cfg(variant="wo_f3d", seed=0):
    return NetworkConfig(n_scales=2, fr_channels=8, scale_channels=(8, 8),
                         variant=variant, seed=seed)


def test_default_scale_channels_plan():
    assert default_scale_channels(1) == [16]
    assert default_scale_channels(2) == [16, 16]
    assert default_scale_channels(4) == [16, 16, 32, 32]
    # the deepest two levels always share a width, as the decoder requires
    for n in range(2, 6):
        ch = default_scale_channels(n)
        assert ch[-1] == ch[-2]


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(n_scales=0)
    with pytest.raises(ValueError):
        NetworkConfig(n_scales=2, scale_channels=(16,))
    with pytest.raises(ValueError):
        NetworkConfig(n_scales=3, scale_channels=(16, 16, 32))  # last two differ
    with pytest.raises(ValueError):
        NetworkConfig(n_scales=4, variant="nonesuch")
    cfg = NetworkConfig(n_scales=2, variant="w_f3d")
    assert cfg.variant == "w_f3d"


def test_config_rejects_a_spec_outside_the_seven_variants():
    with pytest.raises(ValueError, match="wo_f3d"):
        NetworkConfig(n_scales=4, variant=VariantSpec(True, False, False, 1))


def test_config_dict_roundtrip():
    cfg = NetworkConfig(n_scales=3, fr_channels=8, scale_channels=(8, 16, 16),
                        variant="ms", seed=3)
    back = NetworkConfig.from_dict(cfg.to_dict())
    assert back == cfg


def test_variant_table_is_the_published_matrix():
    assert set(VARIANTS) == {"wo_f3d", "w_f3d", "enc", "dec", "fr", "ms", "mrb"}
    assert VARIANTS["wo_f3d"] == VariantSpec(False, False, False, 0)
    assert VARIANTS["w_f3d"] == VariantSpec(True, True, True, 0)
    assert VARIANTS["mrb"].extra_mrbs == 2


# the published variant matrix, in VariantSpec's field order
PUBLISHED_FLAGS = {
    "wo_f3d": (False, False, False, 0),
    "w_f3d": (True, True, True, 0),
    "enc": (False, True, False, 0),
    "dec": (False, False, True, 0),
    "fr": (True, False, False, 0),
    "ms": (False, True, True, 0),
    "mrb": (True, True, True, 2),
}


@pytest.mark.parametrize("name", sorted(PUBLISHED_FLAGS))
def test_manifest_stores_the_variant_by_name_and_reads_it_back(name):
    assert astuple(VARIANTS[name]) == PUBLISHED_FLAGS[name]
    d = NetworkConfig(n_scales=4, variant=name).to_dict()
    assert d["variant"] == name
    assert NetworkConfig.from_dict(d).variant == name


def test_from_dict_rejects_a_variant_that_is_not_one_of_the_seven_names():
    d = NetworkConfig(n_scales=4).to_dict()
    with pytest.raises(ValueError, match="choose from"):
        NetworkConfig.from_dict(dict(d, variant="mrb3"))
    # the version-1 manifest's flag dict is no longer a variant
    with pytest.raises(ValueError, match="'variant' must be a string"):
        NetworkConfig.from_dict(dict(d, variant=asdict(VARIANTS["mrb"])))


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_site_audit_matches_variant_flags(name):
    spec = VARIANTS[name]
    net = build(small_cfg(variant=name))
    by_region = {"fr": spec.factorize_fr,
                 "encoder": spec.factorize_encoder,
                 "decoder": spec.factorize_decoder}
    for site in net.sites:
        if site.exempt:
            assert site.kind == ConvKind.REGULAR  # the field head stays dense
            continue
        if site.extents != (3, 3, 3):
            assert site.kind == ConvKind.REGULAR  # bottlenecks are never factorized
            continue
        want = ConvKind.FACTORIZED if by_region[site.region] else ConvKind.REGULAR
        assert site.kind == want, f"{site.name} in {site.region}"


def test_extra_mrbs_add_encoder_sites():
    base = build(small_cfg(variant="w_f3d"))
    extra = build(small_cfg(variant="mrb"))
    n_base = sum(1 for s in base.sites if s.region == "encoder")
    n_extra = sum(1 for s in extra.sites if s.region == "encoder")
    assert n_extra > n_base
    assert count_parameters(extra) > count_parameters(base)


def test_parameter_names_unique_and_counted():
    # checkpoints and Adam state are keyed by name, so no built network repeats one
    for variant in VARIANTS:
        for n in (1, 2, 3, 4):
            net = build(NetworkConfig(n_scales=n, fr_channels=4, scale_channels=(4,) * n,
                                      variant=variant))
            names = [p.name for p in net.parameters]
            assert len(names) == len(set(names)), (variant, n)
            assert count_parameters(net) == sum(p.value.size for p in net.parameters)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_audit_order_is_the_parameter_order(name):
    # the audit rows, Adam, the init draws and the checkpoint payload share one order
    for n in (1, 2, 3, 4):
        net = build(NetworkConfig(n_scales=n, fr_channels=4, scale_channels=(4,) * n,
                                  variant=name))
        owners = [re.sub(r"(\.hw|\.d)?\.[wb]$", "", p.name) for p in net.parameters]
        # one run per site, so each site's parameters are contiguous, in audit order
        runs = [o for i, o in enumerate(owners) if i == 0 or o != owners[i - 1]]
        assert runs == [r.name for r in net.sites], (name, n)


def test_init_is_deterministic_and_seed_sensitive():
    a = build(small_cfg(seed=5))
    b = build(small_cfg(seed=5))
    c = build(small_cfg(seed=6))
    for pa, pb in zip(a.parameters, b.parameters):
        np.testing.assert_array_equal(pa.value, pb.value)
    assert any((pa.value != pc.value).any()
               for pa, pc in zip(a.parameters, c.parameters) if pa.value.ndim == 5)


def test_biases_zero_and_head_tiny_at_init():
    net = build(small_cfg())
    by_name = {p.name: p for p in net.parameters}
    for p in net.parameters:
        if p.value.ndim == 1:
            assert not p.value.any(), p.name
    head_w = by_name["head.out.w"].value
    assert float(np.abs(head_w).max()) < 1e-3  # near-identity start


def test_validate_input_shape_divisibility():
    cfg = small_cfg()  # two scales: needs multiples of 4
    validate_input_shape(cfg, (16, 16, 16))
    with pytest.raises(ValueError):
        validate_input_shape(cfg, (16, 18, 16))
    with pytest.raises(ValueError):
        validate_input_shape(cfg, (2, 16, 16))


def test_forward_graph_shape_and_forward_wrapper():
    net = build(small_cfg())
    rng = np.random.default_rng(0)
    pair = Tensor4(rng.random((2, 16, 16, 16), dtype=np.float32))
    out = forward_graph(net, pair)
    assert out.data.shape == (3, 16, 16, 16)

    moving = Volume(rng.random((16, 16, 16), dtype=np.float32), spacing_mm=(2.0, 1.0, 1.0))
    fixed = Volume(rng.random((16, 16, 16), dtype=np.float32), spacing_mm=(2.0, 1.0, 1.0))
    field = forward(net, moving, fixed)
    assert field.data.shape == (3, 16, 16, 16)
    assert field.spacing_mm == (2.0, 1.0, 1.0)
    assert float(np.abs(field.data).max()) < 1e-2  # fresh net predicts ~zero


def test_forward_depends_on_argument_order():
    net = build(small_cfg(seed=1))
    rng = np.random.default_rng(2)
    a = Volume(rng.random((16, 16, 16), dtype=np.float32))
    b = Volume(rng.random((16, 16, 16), dtype=np.float32))
    fab = forward(net, a, b)
    fba = forward(net, b, a)
    assert (fab.data != fba.data).any()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_every_variant_forwards(name):
    net = build(NetworkConfig(n_scales=2, fr_channels=4, scale_channels=(4, 4),
                              variant=name))
    pair = Tensor4(np.random.default_rng(3).random((2, 8, 8, 8), dtype=np.float32))
    out = forward_graph(net, pair)
    assert out.data.shape == (3, 8, 8, 8)
    assert np.isfinite(out.data).all()
