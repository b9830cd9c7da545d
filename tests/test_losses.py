"""Descriptor and regularizer behavior pinned against hand-derivable cases."""

import numpy as np
import pytest

from dualreg.losses import (
    LossWeights,
    MindConfig,
    descriptor_loss_node,
    mind_descriptor,
    mind_loss,
    objective,
    smoothness_loss,
    total_loss,
)
from dualreg.autodiff import Tensor4
from dualreg.volgrid import DisplacementField, Volume


def uvol(seed, shape=(8, 8, 8)):
    return Volume(np.random.default_rng(seed).random(shape, dtype=np.float32))


# ------------------------------------------------------------- MindConfig


def test_mind_config_defaults_and_validation():
    cfg = MindConfig()
    assert len(cfg.offsets) == 6 and cfg.patch_radius == 1 and cfg.eps == 1e-6
    assert all(sum(abs(c) for c in off) == 1 for off in cfg.offsets)
    with pytest.raises(ValueError):
        MindConfig(offsets=((1, 0, 0),))  # needs at least two offsets
    with pytest.raises(ValueError):
        MindConfig(offsets=((1, 0, 0), (0, 0, 0)))
    with pytest.raises(ValueError):
        MindConfig(eps=0.0)
    with pytest.raises(ValueError):
        MindConfig(patch_radius=-1)


def test_mind_config_serialization_key():
    cfg = MindConfig(patch_radius=2)
    d = cfg.to_dict()
    assert "mind_offsets" in d
    back = MindConfig.from_dict(d)
    assert back == cfg
    legacy = {"offsets": d["mind_offsets"], "patch_radius": 2, "eps": 1e-6}
    assert MindConfig.from_dict(legacy) == cfg


def test_loss_weights_validation():
    assert LossWeights().lam == 1.5
    with pytest.raises(ValueError):
        LossWeights(lam=-0.1)


# ------------------------------------------------------------- descriptor


def test_constant_volume_gives_uniform_descriptor():
    v = Volume(np.full((8, 8, 8), 0.3, np.float32))
    desc = mind_descriptor(v)
    assert desc.shape == (6, 8, 8, 8)
    np.testing.assert_allclose(desc, 1.0, rtol=1e-6)


def test_descriptor_channels_in_unit_interval():
    desc = mind_descriptor(uvol(0))
    assert desc.min() > 0.0
    assert desc.max() <= 1.0 + 1e-7
    # per-voxel max channel is exactly 1 by construction
    np.testing.assert_allclose(desc.max(axis=0), 1.0, rtol=1e-7)


def test_descriptor_rejects_unnormalized_input():
    bad = Volume(np.full((8, 8, 8), 1.5, np.float32))
    with pytest.raises(ValueError):
        mind_descriptor(bad)
    neg = Volume((np.zeros((8, 8, 8)) - 0.1).astype(np.float32))
    with pytest.raises(ValueError):
        mind_descriptor(neg)


def test_descriptor_affine_intensity_invariance():
    rng = np.random.default_rng(1)
    base = rng.random((10, 10, 10))
    v1 = Volume(base.astype(np.float32))
    v2 = Volume((0.5 * base + 0.25).astype(np.float32))
    cfg = MindConfig()
    d1 = mind_descriptor(v1, cfg)
    d2 = mind_descriptor(v2, cfg)
    assert float(np.abs(d1 - d2).max()) < 1e-3  # eps clamp inactive: V >> eps


def test_descriptor_accepts_tensor_node():
    x = Tensor4(np.random.default_rng(2).random((1, 8, 8, 8)))
    node = mind_descriptor(x)
    assert isinstance(node, Tensor4)
    assert node.data.shape == (6, 8, 8, 8)


# ------------------------------------------------------------- mind_loss


def test_mind_loss_zero_on_identical_inputs():
    v = uvol(3)
    assert mind_loss(v, v) == 0.0


def test_mind_loss_bounded_symmetric_nonnegative():
    a, b = uvol(4), uvol(5)
    lab = mind_loss(a, b)
    assert 0.0 <= lab <= 1.0
    assert lab == pytest.approx(mind_loss(b, a), rel=1e-12)
    assert lab > 0.0


def test_mind_loss_shape_mismatch():
    with pytest.raises(ValueError):
        mind_loss(uvol(6, (8, 8, 8)), uvol(7, (8, 8, 10)))


def test_descriptor_loss_node_matches_float_path():
    a, b = uvol(8), uvol(9)
    cfg = MindConfig()
    ref = mind_loss(a, b, cfg)
    fixed_desc = mind_descriptor(b, cfg)
    node = descriptor_loss_node(Tensor4(a.data[None].astype(np.float64)), fixed_desc, cfg)
    assert node.data.item() == pytest.approx(ref, rel=1e-5)


# ------------------------------------------------------------- smoothness


def test_smoothness_zero_for_constant_field():
    f = DisplacementField(np.full((3, 6, 6, 6), 2.5, np.float32))
    assert smoothness_loss(f) == 0.0


def test_smoothness_ramp_is_alpha_squared():
    alpha = 0.37
    shape = (6, 7, 8)
    u = np.zeros((3,) + shape, np.float64)
    u[0] = alpha * np.arange(shape[0])[:, None, None]  # u_D = alpha * d
    got = smoothness_loss(DisplacementField(u.astype(np.float32)))
    assert got == pytest.approx(alpha ** 2, rel=1e-5)


def test_smoothness_translation_invariant():
    rng = np.random.default_rng(10)
    base = rng.standard_normal((3, 6, 6, 6)).astype(np.float32)
    f1 = smoothness_loss(DisplacementField(base))
    f2 = smoothness_loss(DisplacementField(base + np.array([1.0, -2.0, 0.5], np.float32)[:, None, None, None]))
    assert f1 == pytest.approx(f2, rel=1e-5)
    assert f1 > 0.0


# ------------------------------------------------------------- total loss


def test_total_loss_composition():
    m, f = uvol(11), uvol(12)
    field = DisplacementField(
        np.random.default_rng(13).uniform(-0.5, 0.5, (3, 8, 8, 8)).astype(np.float32))
    w0 = total_loss(m, f, field, LossWeights(lam=0.0))
    sim_only = w0
    w1 = total_loss(m, f, field, LossWeights(lam=1.0))
    w2 = total_loss(m, f, field, LossWeights(lam=2.0))
    assert sim_only <= w1 <= w2  # lambda multiplies a non-negative term
    reg = smoothness_loss(field)
    assert w1 == pytest.approx(sim_only + reg, rel=1e-5)


def test_total_loss_vanishes_at_the_fixed_point():
    v = uvol(14)
    field = DisplacementField(np.zeros((3, 8, 8, 8), np.float32))
    assert total_loss(v, v, field, LossWeights(lam=3.0)) == 0.0


def test_objective_vanishes_at_the_fixed_point():
    # the warp runs in the image's float32, so warping by zero is exact
    v = uvol(15)
    zero = Tensor4(np.zeros((3, 8, 8, 8), np.float32))
    loss = objective(v.data[None], zero, mind_descriptor(v), 1.5)
    assert float(loss.data) == 0.0
