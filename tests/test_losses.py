"""Descriptor and regularizer behavior pinned against hand-derivable cases."""

import numpy as np
import pytest

from dualreg import losses, stn
from dualreg.losses import (
    LossWeights,
    MindConfig,
    descriptor_loss_node,
    mind_descriptor,
    objective,
    smoothness_loss,
    total_loss,
)
from dualreg.autodiff import (
    Tape,
    Tensor4,
    abs_val,
    accumulate,
    add,
    box_sum3,
    concat_channels,
    mean_all,
    op,
    replicate_pad,
    scale,
    slice_spatial,
    square,
    sub,
)
from dualreg.optim import TrainConfig
from dualreg.volgrid import DisplacementField, Volume


def uvol(seed, shape=(8, 8, 8)):
    return Volume(np.random.default_rng(seed).random(shape, dtype=np.float32))


def similarity(warped, fixed, cfg=None):
    """The similarity term as training forms it: the warped image's node
    against the fixed image's descriptor."""
    return float(descriptor_loss_node(Tensor4(warped.data[None]),
                                      mind_descriptor(fixed, cfg), cfg).data)


def smoothness(field):
    return float(smoothness_loss(Tensor4(field.data)).data)


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
    # the training config's reader reads the ``mind`` object by its field names
    cfg = MindConfig(patch_radius=2)
    offsets = [list(o) for o in cfg.offsets]
    mind = {"offsets": offsets, "patch_radius": 2, "eps": 1e-6}
    read = TrainConfig.from_dict({"N": 1, "iterations": 1, "lambda": 1.0, "mind": mind})
    assert read.mind == cfg
    with pytest.raises(ValueError, match="mind_offsets"):
        TrainConfig.from_dict({"N": 1, "iterations": 1, "lambda": 1.0,
                               "mind": {"mind_offsets": offsets}})


def test_loss_weights_validation():
    assert LossWeights(lam=0.0).lam == 0.0
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


# ------------------------------------------------------------- similarity


def test_mind_loss_zero_on_identical_inputs():
    v = uvol(3)
    assert similarity(v, v) == 0.0


def test_mind_loss_bounded_symmetric_nonnegative():
    a, b = uvol(4), uvol(5)
    lab = similarity(a, b)
    assert 0.0 <= lab <= 1.0
    assert lab == pytest.approx(similarity(b, a), rel=1e-12)
    assert lab > 0.0


def test_mind_loss_shape_mismatch():
    with pytest.raises(ValueError):
        similarity(uvol(6, (8, 8, 8)), uvol(7, (8, 8, 10)))


def test_descriptor_loss_node_matches_float_path():
    # the float32 graph that training runs, against the same graph in float64
    a, b = uvol(8), uvol(9)
    cfg = MindConfig()
    ref = similarity(a, b, cfg)
    fixed_desc = mind_descriptor(b, cfg)
    node = descriptor_loss_node(Tensor4(a.data[None].astype(np.float64)), fixed_desc, cfg)
    assert node.data.item() == pytest.approx(ref, rel=1e-5)


# ------------------------------------------------------------- smoothness


def test_smoothness_zero_for_constant_field():
    f = DisplacementField(np.full((3, 6, 6, 6), 2.5, np.float32))
    assert smoothness(f) == 0.0


def test_smoothness_ramp_is_alpha_squared():
    alpha = 0.37
    shape = (6, 7, 8)
    u = np.zeros((3,) + shape, np.float64)
    u[0] = alpha * np.arange(shape[0])[:, None, None]  # u_D = alpha * d
    got = smoothness(DisplacementField(u.astype(np.float32)))
    assert got == pytest.approx(alpha ** 2, rel=1e-5)


def test_smoothness_translation_invariant():
    rng = np.random.default_rng(10)
    base = rng.standard_normal((3, 6, 6, 6)).astype(np.float32)
    f1 = smoothness(DisplacementField(base))
    f2 = smoothness(DisplacementField(base + np.array([1.0, -2.0, 0.5], np.float32)[:, None, None, None]))
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
    reg = smoothness(field)
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


# ------------------------------------------- the fused objective, bit for bit
#
# The reference is the objective as a graph of generic ops: every pad,
# slice, difference, square, concat and sum is a node, and the warp keeps
# its float64 coordinates for the backward. The fused ops must give the
# same loss and field gradient bits, signed zeros included.


@op
def _warp_reference(image, field):
    spatial = image.shape[1:]
    grid = np.meshgrid(*(np.arange(n) for n in spatial), indexing="ij")
    raw = [field.data[a] + grid[a] for a in range(3)]
    limits = tuple(n - 1.0 for n in spatial)
    corners, frac = stn._gather_corners(image, [np.clip(r, 0.0, m) for r, m in zip(raw, limits)])
    out = stn._interp(corners, frac).astype(np.result_type(image.dtype, np.float32), copy=False)

    def bwd(g):
        g2 = g.reshape(g.shape[0], -1)
        gf = np.empty_like(field.data)
        for a, dv in enumerate(stn._coord_grads(corners, frac)):
            inside = ((raw[a] >= 0.0) & (raw[a] <= limits[a])).reshape(-1)
            gf[a] = ((g2 * dv).sum(axis=0) * inside).reshape(spatial)
        accumulate(field, gf, owned=True)
    return out.reshape(image.shape[:1] + spatial), bwd


@op
def _normalize_reference(dp, eps):
    out, s, midx = losses._normalize(dp.data, eps)

    def bwd(g):
        accumulate(dp, losses._normalize_grad(g, dp.data, out, s, midx), owned=True)
    return out, bwd


def _descriptor_reference(x, cfg):
    rho = cfg.patch_radius
    rmax = max(max(abs(c) for c in o) for o in cfg.offsets)
    ext = tuple(n + 2 * rho for n in x.data.shape[1:])
    xp = replicate_pad(x, rho + rmax)
    center = slice_spatial(xp, (rmax, rmax, rmax), ext)
    sq = [square(sub(center, slice_spatial(xp, tuple(rmax + c for c in o), ext)))
          for o in cfg.offsets]
    return _normalize_reference(box_sum3(concat_channels(*sq), rho), cfg.eps)


def _smoothness_reference(field):
    _, d, h, w = field.data.shape
    interior = (d - 1, h - 1, w - 1)
    total = None
    for axis in range(3):
        start = [0, 0, 0]
        start[axis] = 1
        sq = square(sub(slice_spatial(field, tuple(start), interior),
                        slice_spatial(field, (0, 0, 0), interior)))
        total = sq if total is None else add(total, sq)
    return scale(mean_all(total), float(field.data.shape[0]))


def _objective_reference(moving, phi, fixed_desc, lam, cfg):
    desc = _descriptor_reference(_warp_reference(moving, phi), cfg)
    loss = mean_all(abs_val(sub(desc, Tensor4(fixed_desc))))
    if lam > 0:
        loss = add(loss, scale(_smoothness_reference(phi), lam))
    return loss


def _case(name, dtype):
    """(moving, fixed, field) on an 8^3 grid."""
    rng = np.random.default_rng(31)
    moving = rng.random((8, 8, 8))
    fixed = rng.random((8, 8, 8))
    field = rng.uniform(-0.8, 0.8, (3, 8, 8, 8))
    if name == "zeros":
        # exact zeros and equal neighbours: zero differences in the field and,
        # where nothing moves, in the warped image's descriptor
        moving[:4] = 0.5
        field[:, :5] = 0.0
        field[0, 5:, :4] = 0.25
    elif name == "flat_block":
        # a constant block gives equal descriptor channels: argmax ties
        moving[2:7, 1:6, 2:8] = 0.375
        field[:, 2:7, 1:6] = 0.0
    elif name == "constant":
        # every descriptor difference is +0, so every gradient it passes is a
        # signed zero: the sums' zeros must carry the generic graph's signs
        moving[...] = 0.625
    elif name == "clamped":
        # samples beyond every face, so the clamp masks are exercised
        field = rng.uniform(-12.0, 12.0, (3, 8, 8, 8))
    return moving.astype(dtype), fixed.astype(dtype), field.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", ["random", "zeros", "flat_block", "clamped"])
@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_objective_is_bitwise_the_generic_graph(case, dtype, lam):
    moving, fixed, field = _case(case, dtype)
    cfg = MindConfig()
    fixed_desc = mind_descriptor(Volume(fixed), cfg)
    runs = []
    for f in (objective, _objective_reference):
        phi = Tensor4(field.copy())
        with Tape() as tape:
            loss = f(moving[None], phi, fixed_desc, lam, cfg)
            tape.backward(loss)
        runs.append((loss.data.tobytes(), phi.grad.dtype, phi.grad.tobytes()))
    assert runs[0] == runs[1]
    if case == "zeros" and lam > 0:
        assert (np.signbit(np.frombuffer(runs[0][2], dtype)) & (field.ravel() == 0)).any()


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", ["random", "zeros"])
def test_smoothness_is_bitwise_the_generic_graph(case, dtype):
    field = _case(case, dtype)[2]
    runs = []
    for f in (smoothness_loss, _smoothness_reference):
        phi = Tensor4(field.copy())
        with Tape() as tape:
            loss = f(phi)
            tape.backward(loss)
        runs.append((loss.data.tobytes(), phi.grad.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("case", ["random", "zeros", "flat_block", "constant"])
@pytest.mark.parametrize("cfg", [MindConfig(),
                                 MindConfig(offsets=((1, 0, 0), (0, -2, 0), (1, 1, 0)),
                                            patch_radius=2),
                                 MindConfig(offsets=((1, 0, 0), (0, -1, 0), (0, 0, 2)),
                                            patch_radius=0)],
                         ids=["faces", "wide", "voxel"])
@pytest.mark.parametrize("upstream", ["random", "zero"])
def test_descriptor_is_bitwise_the_generic_graph(case, dtype, cfg, upstream):
    moving, _, _ = _case(case, dtype)
    v = Volume(moving)
    want = _descriptor_reference(Tensor4(v.data[None]), cfg).data
    assert mind_descriptor(v, cfg).tobytes() == want.tobytes()
    g = np.random.default_rng(5).standard_normal(want.shape).astype(dtype)
    g[:, 2:6] = 0.0
    if upstream == "zero":
        g[...] = 0.0  # every difference's gradient is a signed zero
    grads = []
    for f in (mind_descriptor, _descriptor_reference):
        x = Tensor4(moving[None].copy())
        with Tape() as tape:
            y = f(x, cfg)
        y.grad = g.copy()
        for out, bwd in reversed(tape._ops):
            grad, out.grad = out.grad, None
            if grad is not None:
                bwd(grad)
        grads.append(x.grad)
    assert grads[0].tobytes() == grads[1].tobytes()
