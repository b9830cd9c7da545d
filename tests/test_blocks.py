"""Composite block contracts: residual identities, factorization, MRB wiring."""

import numpy as np
import pytest

from dualreg.autodiff import (
    Parameter,
    Tensor4,
    concat_channels,
    leaky_relu,
    max_pool2,
    upsample_trilinear2,
)
from dualreg.blocks import (
    ConvKind,
    f3d_conv,
    make_mrb,
    make_residual_block,
    make_site,
    mrb,
    residual_block,
)


def randomize(block, seed, w_std=0.3, b_std=0.1):
    rng = np.random.default_rng(seed)
    for p in [q for site in block.sites() for q in site.params]:
        std = w_std if p.value.ndim == 5 else b_std
        p.value[...] = rng.normal(0.0, std, p.value.shape).astype(p.value.dtype)


# ------------------------------------------------------------- conv sites


def test_site_parameter_counts():
    regular = make_site("r", 16, 16, ConvKind.REGULAR)
    factorized = make_site("f", 16, 16, ConvKind.FACTORIZED)
    assert regular.n_params == 16 * 16 * 27 + 16 == 6928
    assert factorized.n_params == (16 * 16 * 9 + 16) + (16 * 16 * 3 + 16) == 3104
    assert factorized.n_params / regular.n_params == pytest.approx(0.448, abs=5e-4)


def test_site_parameter_count_formula_other_widths():
    for cin, cout in [(2, 3), (8, 4), (16, 32)]:
        reg = make_site("r", cin, cout, ConvKind.REGULAR)
        fac = make_site("f", cin, cout, ConvKind.FACTORIZED)
        assert reg.n_params == cout * cin * 27 + cout
        assert fac.n_params == (cout * cin * 9 + cout) + (cout * cout * 3 + cout)


def test_f3d_identity_kernels():
    x = Tensor4(np.random.default_rng(0).standard_normal((3, 4, 5, 6)).astype(np.float32))
    w_hw = np.zeros((3, 3, 1, 3, 3), np.float32)
    w_d = np.zeros((3, 3, 3, 1, 1), np.float32)
    for c in range(3):
        w_hw[c, c, 0, 1, 1] = 1.0
        w_d[c, c, 1, 0, 0] = 1.0
    y = f3d_conv(x, Parameter("a", w_hw), Parameter("ab", np.zeros(3)),
                 Parameter("c", w_d), Parameter("cb", np.zeros(3)))
    np.testing.assert_allclose(y.data, x.data, atol=1e-6)


def test_f3d_is_not_a_regular_conv():
    # same random draw used both as a full kernel and as factor pair input:
    # the two operators genuinely differ
    rng = np.random.default_rng(1)
    x = Tensor4(rng.standard_normal((2, 6, 6, 6)))
    site_f = make_site("f", 2, 2, ConvKind.FACTORIZED)
    site_r = make_site("r", 2, 2, ConvKind.REGULAR)
    randomize(site_f, 2)
    randomize(site_r, 2)
    diff = np.abs(site_f.apply(x).data - site_r.apply(x).data).max()
    assert diff > 1e-3


def test_f3d_extent_validation():
    # make_site lays a factorized site out as a plane kernel, then a depth kernel
    site = make_site("f", 2, 3, ConvKind.FACTORIZED)
    assert [p.value.shape for p in site.params] == [(3, 2, 1, 3, 3), (3,), (3, 3, 3, 1, 1), (3,)]
    assert site.extents == (3, 3, 3)


# -------------------------------------------------------- residual blocks


def test_zero_weight_residual_block_is_identity():
    p = make_residual_block("rb", 3)
    z = Tensor4(np.random.default_rng(3).standard_normal((3, 4, 4, 4)).astype(np.float32))
    out = residual_block(z, p)
    np.testing.assert_array_equal(out.data, z.data)


def test_residual_block_equals_input_plus_branch():
    for kind in (ConvKind.REGULAR, ConvKind.FACTORIZED):
        p = make_residual_block("rb", 4, kind)
        randomize(p, 4)
        z = Tensor4(np.random.default_rng(5).standard_normal((4, 5, 5, 5)).astype(np.float32))
        whole = residual_block(z, p).data
        branch = leaky_relu(p.conv2.apply(leaky_relu(p.conv1.apply(z)))).data
        np.testing.assert_allclose(whole, z.data + branch, rtol=1e-6)


def test_residual_block_rejects_channel_mismatch():
    p = make_residual_block("rb", 4)
    with pytest.raises(ValueError):
        residual_block(Tensor4(np.zeros((3, 4, 4, 4), np.float32)), p)


# ------------------------------------------------------------------- MRB


def test_mrb_shape_contract():
    p = make_mrb("m", 1, c_l=16, c_h=16, c_s=16)
    randomize(p, 6)
    l = Tensor4(np.random.default_rng(7).standard_normal((16, 32, 32, 32)).astype(np.float32))
    h = Tensor4(np.random.default_rng(8).standard_normal((16, 16, 16, 16)).astype(np.float32))
    l_next, h_next = mrb(l, h, p)
    assert l_next.data.shape == (16, 32, 32, 32)
    assert h_next.data.shape == (16, 16, 16, 16)


def test_mrb_zero_bottleneck_passes_l_through():
    p = make_mrb("m", 1, c_l=3, c_h=4, c_s=5)
    randomize(p, 9)
    p.bottleneck.params[0].value[...] = 0.0
    p.bottleneck.params[1].value[...] = 0.0
    l = Tensor4(np.random.default_rng(10).standard_normal((3, 8, 8, 8)).astype(np.float32))
    h = Tensor4(np.random.default_rng(11).standard_normal((4, 4, 4, 4)).astype(np.float32))
    l_next, h_next = mrb(l, h, p)
    np.testing.assert_array_equal(l_next.data, l.data)
    assert h_next.data.shape == (5, 4, 4, 4)


def test_mrb_residual_identity():
    p = make_mrb("m", 1, c_l=3, c_h=3, c_s=4)
    randomize(p, 12)
    l = Tensor4(np.random.default_rng(13).standard_normal((3, 8, 8, 8)).astype(np.float32))
    h = Tensor4(np.random.default_rng(14).standard_normal((3, 4, 4, 4)).astype(np.float32))
    l_next, h_next = mrb(l, h, p)
    # the block as the paper draws it: fuse the pooled l with h, then a
    # residual block on h and an upsampled 1x1x1 projection back into l
    fused = leaky_relu(p.fuse.apply(concat_channels(max_pool2(l), h)))
    r = upsample_trilinear2(p.bottleneck.apply(fused))
    h_branch = residual_block(fused, p.rb)
    np.testing.assert_allclose(l_next.data, l.data + r.data, rtol=1e-6)
    np.testing.assert_array_equal(h_next.data, h_branch.data)


def test_mrb_scale2_pools_twice():
    p = make_mrb("m", 2, c_l=2, c_h=3, c_s=4)
    randomize(p, 15)
    l = Tensor4(np.random.default_rng(16).standard_normal((2, 8, 8, 8)).astype(np.float32))
    h = Tensor4(np.random.default_rng(17).standard_normal((3, 2, 2, 2)).astype(np.float32))
    l_next, h_next = mrb(l, h, p)
    assert l_next.data.shape == (2, 8, 8, 8)
    assert h_next.data.shape == (4, 2, 2, 2)


def test_mrb_shape_mismatch_rejected():
    p = make_mrb("m", 1, c_l=3, c_h=4, c_s=5)
    l = Tensor4(np.zeros((3, 8, 8, 8), np.float32))
    h_wrong = Tensor4(np.zeros((4, 8, 8, 8), np.float32))  # not pooled once
    with pytest.raises(ValueError):
        mrb(l, h_wrong, p)


@pytest.mark.parametrize("l_shape,h_shape,rejected_by", [
    ((4, 8, 8, 8), (4, 4, 4, 4), "conv3d channel mismatch"),     # l one channel too many
    ((3, 8, 8, 8), (5, 4, 4, 4), "conv3d channel mismatch"),     # h one channel too many
    ((4, 8, 8, 8), (3, 4, 4, 4), "add shape mismatch"),          # channel counts swapped
    ((3, 9, 8, 8), (4, 4, 4, 4), "even spatial dims"),           # odd full-resolution dim
    ((3, 8, 8, 8), (4, 2, 2, 2), "concat_channels spatial"),     # h pooled once too often
])
def test_mrb_stream_mismatches_are_rejected_by_the_primitives(l_shape, h_shape, rejected_by):
    p = make_mrb("m", 1, c_l=3, c_h=4, c_s=5)
    l = Tensor4(np.zeros(l_shape, np.float32))
    h = Tensor4(np.zeros(h_shape, np.float32))
    with pytest.raises(ValueError, match=rejected_by):
        mrb(l, h, p)


def test_mrb_validates_bottleneck_channels():
    # a regular 1x1x1 projection from c_s back to c_l, in a factorized block too
    p = make_mrb("m", 1, c_l=3, c_h=4, c_s=5, kind=ConvKind.FACTORIZED)
    assert p.bottleneck.kind is ConvKind.REGULAR
    assert p.bottleneck.params[0].value.shape == (3, 5, 1, 1, 1)
