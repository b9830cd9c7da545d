"""Engine semantics plus a brute-force oracle for every primitive.

Gradient correctness itself lives in the named check table (gradsuite);
here we pin forward values against independent reimplementations and
exercise the tape/dtype/error contracts.
"""

import numpy as np
import pytest

from dualreg.autodiff import (
    Parameter,
    Tape,
    Tensor4,
    abs_val,
    add,
    box_sum3,
    concat_channels,
    conv3d,
    gradcheck,
    leaky_relu,
    max_pool2,
    mean_all,
    mul,
    replicate_pad,
    scale,
    slice_spatial,
    square,
    sub,
    sum_all,
    upsample_trilinear2,
)
from dualreg.autodiff.ops import SLOPE, _upsample_matrix
from dualreg.network import NetworkConfig, build


def rnd(seed, shape, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------- engine


def test_tensor4_rejects_bad_rank():
    with pytest.raises(ValueError):
        Tensor4(np.zeros((2, 3)))


def test_tensor4_keeps_float_dtype_and_casts_ints():
    # Only float32 and float64 pass through; an int array raises rather than
    # being cast to a guessed precision.
    for dtype in (np.float32, np.float64):
        assert Tensor4(np.zeros((1, 2, 2, 2), dtype)).data.dtype == dtype
    with pytest.raises(TypeError):
        Tensor4(np.zeros((1, 2, 2, 2), np.int64))


def test_precision_context_scopes_default_dtype():
    # The precision is chosen per network by build's dtype argument: a
    # float64 build leaves the float32 default of the next build untouched,
    # and both hold the same draws.
    cfg = NetworkConfig(n_scales=2, fr_channels=8, scale_channels=(8, 8), variant="wo_f3d")
    net64 = build(cfg, np.float64)
    net32 = build(cfg)
    for p64, p32 in zip(net64.parameters, net32.parameters, strict=True):
        assert p64.value.dtype == p64.grad.dtype == np.float64
        assert p32.value.dtype == p32.grad.dtype == np.float32
        np.testing.assert_array_equal(p32.value, p64.value.astype(np.float32))


def test_parameter_adopts_default_dtype():
    # A parameter adopts the dtype of its float array, and its gradient follows.
    for dtype in (np.float32, np.float64):
        p = Parameter("p", np.zeros(4, dtype))
        assert p.value.dtype == p.grad.dtype == dtype
        assert p.grad.shape == p.value.shape
    with pytest.raises(TypeError):
        Parameter("p", np.zeros(4, np.int64))


def test_backward_requires_scalar_from_this_tape():
    x = Tensor4(rnd(0, (1, 2, 2, 2)))
    with Tape() as tape:
        y = add(x, x)
        with pytest.raises(ValueError):
            tape.backward(y)
    with Tape() as tape:
        loss_elsewhere = sum_all(x)
    with Tape() as tape2:
        sum_all(x)
        with pytest.raises(RuntimeError):
            tape2.backward(loss_elsewhere)


def test_backward_sum_gives_unit_grads_and_skips_unused():
    x = Tensor4(rnd(1, (2, 3, 3, 3)))
    unused = Parameter("u", rnd(2, (2, 2, 3, 3, 3)))
    used = Parameter("w", rnd(3, 2))
    with Tape() as tape:
        loss = sum_all(x)
        tape.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones_like(x.data))
    assert not unused.grad.any()
    assert not used.grad.any()


def test_backward_is_linear_in_the_loss():
    xa = rnd(4, (2, 4, 4, 4))
    wa = rnd(5, (2, 4, 4, 4))
    wb = rnd(6, (2, 4, 4, 4))

    def grad_of(ca, cb):
        x = Tensor4(xa.copy())
        with Tape() as tape:
            f = sum_all(mul(x, Tensor4(wa)))
            g = sum_all(square(x))
            loss = add(scale(f, ca), scale(g, cb))
            tape.backward(loss)
        return x.grad

    g_f = grad_of(1.0, 0.0)
    g_g = grad_of(0.0, 1.0)
    mixed = grad_of(2.0, -0.5)
    np.testing.assert_allclose(mixed, 2.0 * g_f - 0.5 * g_g, rtol=1e-12)
    np.testing.assert_allclose(g_g, 2.0 * xa, rtol=1e-12)


def test_no_tape_is_inference_mode():
    x = Tensor4(rnd(7, (1, 2, 2, 2)))
    y = sum_all(square(x))
    assert y.data.ndim == 0
    assert x.grad is None


def test_a_fresh_tape_records_the_next_pass():
    # training and gradcheck make one tape per forward pass
    x = Tensor4(rnd(8, (1, 2, 2, 2)))
    with Tape() as tape:
        tape.backward(sum_all(x))
    g1 = x.grad.copy()
    x.grad = None
    with Tape() as tape:
        tape.backward(sum_all(x))
    np.testing.assert_array_equal(g1, x.grad)


def test_backward_consumes_the_tape():
    x = Tensor4(rnd(9, (1, 2, 2, 2)))
    with Tape() as tape:
        y = leaky_relu(x)
        loss = sum_all(y)
        tape.backward(loss)
        assert len(tape) == 0
        assert y.grad is None and loss.grad is None
        g1 = x.grad.copy()
        with pytest.raises(RuntimeError, match="already consumed"):
            tape.backward(loss)
    x.grad = None
    with Tape() as tape:
        tape.backward(sum_all(leaky_relu(x)))
    np.testing.assert_array_equal(g1, x.grad)


# ------------------------------------------------------------ primitives


def test_conv3d_single_voxel_arithmetic():
    x = Tensor4(np.full((1, 1, 1, 1), 2.0))
    w = Parameter("w", np.full((1, 1, 1, 1, 1), 3.0))
    b = Parameter("b", np.array([0.5]))
    assert conv3d(x, w, b).data.item() == pytest.approx(6.5)


def test_conv3d_identity_kernel():
    x = Tensor4(rnd(9, (2, 4, 5, 6)))
    w = np.zeros((2, 2, 3, 3, 3))
    w[0, 0, 1, 1, 1] = 1.0
    w[1, 1, 1, 1, 1] = 1.0
    y = conv3d(x, Parameter("w", w), Parameter("b", np.zeros(2)))
    np.testing.assert_allclose(y.data, x.data, atol=1e-12)


def test_conv3d_matches_brute_force():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 4, 4, 5))
    w = rng.standard_normal((3, 2, 3, 3, 3))
    b = rng.standard_normal(3)
    y = conv3d(Tensor4(x), Parameter("w", w), Parameter("b", b)).data

    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (1, 1)))
    ref = np.empty((3, 4, 4, 5))
    for co in range(3):
        for z in range(4):
            for yy in range(4):
                for xx in range(5):
                    patch = xp[:, z:z + 3, yy:yy + 3, xx:xx + 3]
                    ref[co, z, yy, xx] = (w[co] * patch).sum() + b[co]
    np.testing.assert_allclose(y, ref, rtol=1e-10, atol=1e-10)


def _conv3d_padded_gather(x, w, b, g):
    """conv3d as one np.pad copy, one gathered window and one GEMM per offset."""
    cout, cin, kd, kh, kw = w.shape
    _, d, h, wd = x.shape
    pd, ph, pw = kd // 2, kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))
    nvox = d * h * wd
    wk = np.ascontiguousarray(w.reshape(cout, cin, -1).transpose(2, 0, 1))
    out = np.empty((cout, nvox), dtype=x.dtype)
    out[:] = b.astype(x.dtype)[:, None]
    tmp = np.empty((cout, nvox), dtype=x.dtype)
    g2 = np.ascontiguousarray(g.reshape(cout, nvox))
    gw = np.empty_like(w)
    gxp = np.zeros_like(xp)
    for pos, (i, j, k) in enumerate(np.ndindex(kd, kh, kw)):
        sl = (slice(None), slice(i, i + d), slice(j, j + h), slice(k, k + wd))
        xs = xp[sl].reshape(cin, nvox)
        np.matmul(wk[pos], xs, out=tmp)
        out += tmp
        gw[:, :, i, j, k] = g2 @ xs.T
        gxp[sl] += (wk[pos].T @ g2).reshape(cin, d, h, wd)
    gx = gxp[:, pd:pd + d, ph:ph + h, pw:pw + wd]
    return out.reshape(cout, d, h, wd), gx, gw, np.zeros_like(b) + g.sum(axis=(1, 2, 3))


# (C_in, D, H, W, C_out) on the network's planes and channel pairs, each D
# several of conv3d's D-slabs deep. At 24x24 a slab is 2-8 planes, so D = 9
# ends on a partial slab. At 48x48 it is one plane (two for 8 -> 3 in f32),
# so D = 3 is three full slabs, or two ending on a partial one. 12x12 with
# D = 5 is the deepest level of mrb N=2 at 48^3, and 6x6x6 with 32 -> 32 that
# of wo_f3d N=4.
MULTI_SLAB = [(cin, d, n, n, cout) for n, d in ((48, 3), (24, 9))
              for cin, cout in ((2, 16), (16, 16), (16, 8), (8, 3))]
MULTI_SLAB += [(16, 5, 12, 12, 16), (32, 5, 12, 12, 16), (32, 6, 6, 6, 32)]

# The cases that OpenBLAS rounds unlike the reference, by a few units in the
# last place. It can round a column by the GEMM it sits in, and conv3d's GEMMs
# cover the whole padded plane, so they are wider than the reference's: the
# 1-channel shape's input gradient (a matrix-vector call) and the 6x6 32 -> 32
# f32 forward moved. The sums and their order are the reference's, so these
# cases are held to about a hundred units in the last place at unit scale.
ROUNDED = {((1, 1, 2, 3), (3, 3, 3), np.float32), ((1, 1, 2, 3), (1, 3, 3), np.float32),
           ((1, 1, 2, 3), (1, 3, 3), np.float64)}
ROUNDED |= {((32, 6, 6, 6, 32), k, np.float32) for k in ((3, 3, 3), (1, 3, 3))}
TOLERANCE = {np.float32: 1e-5, np.float64: 1e-13}

# conv3d sums the weight gradient one D-slab at a time, so it is held to the
# reference computed one precision up (f64 for f32, long double for f64),
# within this share of the reference's largest magnitude. The worst case over
# these shapes measured 4.4e-7 (f32) and 1.2e-15 (f64) for the full-volume
# sums of the earlier loop, and 3.5e-7 and 6.0e-16 for the slab sums.
WGRAD_BOUND = {np.float32: 1e-6, np.float64: 2e-15}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kernel", [(3, 3, 3), (1, 3, 3), (3, 1, 1), (1, 1, 1)])
@pytest.mark.parametrize("shape", [(3, 7, 9, 5), (2, 4, 4, 4), (1, 1, 2, 3)] + MULTI_SLAB)
def test_conv3d_is_bitwise_the_padded_gather_formulation(dtype, kernel, shape):
    rounded = (shape, kernel, dtype) in ROUNDED
    rng = np.random.default_rng([*kernel, *shape])
    *shape, cout = shape if len(shape) == 5 else (*shape, 4)
    x = rng.standard_normal(shape).astype(dtype)
    x.flat[::5] = 0.0
    x.flat[::7] = -0.0
    w = Parameter("w", rng.standard_normal((cout, shape[0]) + kernel).astype(dtype))
    b = Parameter("b", rng.standard_normal(cout).astype(dtype))
    g = rng.standard_normal((cout, *shape[1:])).astype(dtype)
    g.flat[::6] = -0.0
    xt = Tensor4(x)
    with Tape() as tape:
        out = conv3d(xt, w, b)
        tape.backward(sum_all(mul(out, Tensor4(g))))
    out_ref, gx_ref, _, gb_ref = _conv3d_padded_gather(x, w.value, b.value, g)
    for got, want in zip((out.data, xt.grad, b.grad), (out_ref, gx_ref, gb_ref)):
        assert got.dtype == want.dtype and got.shape == want.shape
        if rounded:
            tol = TOLERANCE[dtype]
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
        else:
            assert got.tobytes() == want.tobytes()
    up = np.float64 if dtype == np.float32 else np.longdouble
    gw_ref = _conv3d_padded_gather(*(a.astype(up) for a in (x, w.value, b.value, g)))[2]
    assert w.grad.dtype == dtype and w.grad.shape == gw_ref.shape
    assert np.abs(w.grad - gw_ref).max() <= WGRAD_BOUND[dtype] * np.abs(gw_ref).max()


def test_conv3d_rejects_bad_kernels():
    x = Tensor4(rnd(11, (2, 4, 4, 4)))
    with pytest.raises(ValueError):
        conv3d(x, Parameter("w", np.zeros((1, 3, 3, 3, 3))), Parameter("b", np.zeros(1)))
    with pytest.raises(ValueError):
        conv3d(x, Parameter("w", np.zeros((1, 2, 2, 3, 3))), Parameter("b", np.zeros(1)))


def test_leaky_relu_values_and_grad():
    x = Tensor4(np.array([1.0, -1.0, -2.0, 0.5]).reshape(1, 1, 1, 4))
    y = leaky_relu(x)
    np.testing.assert_allclose(y.data.ravel(), [1.0, -0.2, -0.4, 0.5])
    with Tape() as tape:
        tape.backward(sum_all(leaky_relu(x)))
    np.testing.assert_allclose(x.grad.ravel(), [1.0, 0.2, 0.2, 1.0])


def test_max_pool2_values_and_routing():
    x = np.arange(8.0).reshape(1, 2, 2, 2)
    assert max_pool2(Tensor4(x)).data.item() == 7.0
    ones = Tensor4(np.ones((1, 2, 2, 2)))
    assert max_pool2(ones).data.item() == 1.0
    # tie: gradient goes to the lowest linear index of the window
    with Tape() as tape:
        tape.backward(sum_all(max_pool2(ones)))
    expect = np.zeros((1, 2, 2, 2))
    expect[0, 0, 0, 0] = 1.0
    np.testing.assert_array_equal(ones.grad, expect)


def test_max_pool2_rejects_odd_dims():
    with pytest.raises(ValueError):
        max_pool2(Tensor4(np.zeros((1, 3, 4, 4))))


def test_max_pool2_shape_and_grad_routing():
    x = Tensor4(rnd(12, (2, 4, 6, 8)))
    y = max_pool2(x)
    assert y.data.shape == (2, 2, 3, 4)
    np.testing.assert_array_equal(
        y.data, x.data.reshape(2, 2, 2, 3, 2, 4, 2).max(axis=(2, 4, 6)))
    with Tape() as tape:
        tape.backward(sum_all(max_pool2(x)))
    assert x.grad.sum() == y.data.size  # one unit routed per window
    assert set(np.unique(x.grad)) == {0.0, 1.0}


def test_upsample_constant_and_ramp():
    c = Tensor4(np.full((2, 2, 2, 2), 0.7))
    up = upsample_trilinear2(c)
    assert up.data.shape == (2, 4, 4, 4)
    np.testing.assert_allclose(up.data, 0.7, rtol=1e-12)

    ramp = Tensor4(np.arange(5.0).reshape(1, 1, 1, 5) * np.ones((1, 4, 4, 1)))
    upr = upsample_trilinear2(ramp).data
    # half-voxel alignment: interior output x=i maps to input (i+0.5)/2-0.5
    interior = np.arange(1, 9)
    np.testing.assert_allclose(upr[0, 2, 2, 1:9], (interior + 0.5) / 2 - 0.5, rtol=1e-12)


def test_upsample_backward_is_the_transpose():
    x = Tensor4(rnd(13, (1, 3, 4, 5)))
    g_out = rnd(14, (1, 6, 8, 10))
    with Tape() as tape:
        y = upsample_trilinear2(x)
        tape.backward(sum_all(mul(y, Tensor4(g_out))))
    # <A x, g> == <x, A^T g>
    lhs = float((y.data * g_out).sum())
    rhs = float((x.data * x.grad).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def _grads_through_tape(f, leaves, g):
    """f's output and the grads of its leaves for the upstream gradient g."""
    with Tape() as tape, np.errstate(invalid="ignore"):
        out = f(*leaves)
        tape.backward(sum_all(mul(out, Tensor4(g))))
    return [out.data] + [t.grad for t in leaves]


def _through_tape(op, x, g):
    """op's output and input grad for the upstream gradient g."""
    return _grads_through_tape(op, (Tensor4(x),), g)


def _assert_bitwise(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _special_values(rng, x):
    """Random signed zeros, NaN and +-inf sprinkled over x, in place."""
    u = rng.random(x.shape)
    x[u < 0.2] = 0.0
    x[u < 0.1] = -0.0
    x[(u >= 0.2) & (u < 0.23)] = np.nan
    x[(u >= 0.23) & (u < 0.26)] = np.inf
    x[(u >= 0.26) & (u < 0.29)] = -np.inf
    return x


def _max_pool2_argmax(x, g):
    """max_pool2 as one argmax over a transposed copy of the 8-voxel windows."""
    c, d, h, w = x.shape
    d2, h2, w2 = d // 2, h // 2, w // 2
    win = (x.reshape(c, d2, 2, h2, 2, w2, 2)
            .transpose(0, 1, 3, 5, 2, 4, 6)
            .reshape(c, d2, h2, w2, 8))
    idx = win.argmax(axis=-1).astype(np.uint8)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    gwin = np.zeros((c, d2, h2, w2, 8), dtype=g.dtype)
    np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
    gx = (gwin.reshape(c, d2, h2, w2, 2, 2, 2)
              .transpose(0, 1, 4, 2, 5, 3, 6)
              .reshape(c, d, h, w))
    return y, np.ascontiguousarray(gx)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape", [(1, 2, 2, 2), (3, 6, 4, 8), (16, 24, 24, 24)])
def test_max_pool2_is_bitwise_the_argmax_formulation(dtype, shape):
    rng = np.random.default_rng(shape)
    for _ in range(4 if shape[0] > 1 else 64):
        # small integers tie often; signed zeros, NaN and infs decide ties
        x = _special_values(rng, rng.integers(-2, 3, size=shape).astype(dtype))
        g = rng.standard_normal((shape[0],) + tuple(n // 2 for n in shape[1:])).astype(dtype)
        g.flat[::5] = -0.0
        _assert_bitwise(_through_tape(max_pool2, x, g), _max_pool2_argmax(x, g))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("slope", [SLOPE])
def test_leaky_relu_is_bitwise_the_where_formulation(dtype, slope):
    rng = np.random.default_rng(int(slope * 100))
    x = _special_values(rng, rng.standard_normal((3, 6, 5, 7)).astype(dtype))
    x.flat[::11] = 1e-30 * x.flat[::11]  # products that underflow
    g = _special_values(rng, rng.standard_normal(x.shape).astype(dtype))
    y = np.where(x > 0, x, x * slope)
    want = (y, np.where(y > 0, g, g * slope))
    _assert_bitwise(_through_tape(leaky_relu, x, g), want)


def _upsample_tensordot(x, g):
    """upsample_trilinear2 as a tensordot, moveaxis and contiguous copy per axis."""
    def along(a, m, axis):
        return np.ascontiguousarray(np.moveaxis(np.tensordot(m, a, axes=([1], [axis])), 0, axis))

    mats = [_upsample_matrix(n, x.dtype) for n in x.shape[1:]]
    y = x
    for axis in (1, 2, 3):
        y = along(y, mats[axis - 1], axis)
    for axis in (3, 2, 1):
        g = along(g, mats[axis - 1].T, axis)
    return y, g


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("n", [3, 6, 12, 24])
@pytest.mark.parametrize("c", [1, 5, 16])
def test_upsample_trilinear2_is_bitwise_the_tensordot_formulation(dtype, n, c):
    rng = np.random.default_rng([n, c])
    x = rng.standard_normal((c, n, n, n)).astype(dtype)
    x.flat[::5] = 0.0
    x.flat[::7] = -0.0
    g = rng.standard_normal((c, 2 * n, 2 * n, 2 * n)).astype(dtype)
    g.flat[::6] = -0.0
    _assert_bitwise(_through_tape(upsample_trilinear2, x, g), _upsample_tensordot(x, g))


def _sprinkle(rng, a, k=3):
    """Signed zeros over a, and NaN, +inf and -inf at k random voxels each, in place.

    Sparse voxels keep most of a conv's or upsample's output finite, so the
    comparison covers finite values as well as the special ones."""
    a.flat[::5] = 0.0
    a.flat[::7] = -0.0
    voxels = a.reshape(a.shape[0], -1)
    for v in (np.nan, np.inf, -np.inf):
        voxels[rng.integers(a.shape[0], size=k), rng.integers(voxels.shape[1], size=k)] = v
    return a


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kernel", [(3, 3, 3), (1, 3, 3), (3, 1, 1), (1, 1, 1)])
@pytest.mark.parametrize("shape", [(3, 7, 9, 5), (2, 4, 4, 4), (1, 1, 2, 3)] + MULTI_SLAB)
def test_conv3d_slope_is_bitwise_leaky_relu_after_conv3d(dtype, kernel, shape):
    # the fused activation runs leaky_relu's expressions on the same values,
    # so the output and all three gradients are byte-equal to the pair's
    rng = np.random.default_rng([*kernel, *shape])
    *shape, cout = shape if len(shape) == 5 else (*shape, 4)
    x = _sprinkle(rng, rng.standard_normal(shape).astype(dtype))
    w = rng.standard_normal((cout, shape[0]) + kernel).astype(dtype)
    b = rng.standard_normal(cout).astype(dtype)
    g = _sprinkle(rng, rng.standard_normal((cout, *shape[1:])).astype(dtype))

    def run(f):
        leaves = (Tensor4(x), Parameter("w", w.copy()), Parameter("b", b.copy()))
        out, gx, *_ = _grads_through_tape(f, leaves, g)
        return out, gx, leaves[1].grad, leaves[2].grad

    got = run(lambda xt, wp, bp: conv3d(xt, wp, bp, SLOPE))
    want = run(lambda xt, wp, bp: leaky_relu(conv3d(xt, wp, bp)))
    assert np.isnan(want[0]).any() and (np.isfinite(want[0]).any() or x.size < 10)
    _assert_bitwise(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("skip_first", [True, False], ids=["skip_plus_up", "up_plus_skip"])
@pytest.mark.parametrize("n,c", [(3, 1), (6, 5), (12, 16)])
def test_upsample_skip_is_bitwise_the_add_it_replaces(dtype, skip_first, n, c):
    # mrb adds l_prev + up(r) and forward_graph up(h) + enc_h[s]; when both
    # operands are NaN the order picks the result's bits, so each order is
    # held to its own add
    rng = np.random.default_rng([n, c, skip_first])
    # one inf in x turns most of its channel NaN (the matmuls' zero weights
    # times inf), so x gets one voxel of each special value
    x = _sprinkle(rng, rng.standard_normal((c, n, n, n)).astype(dtype), k=1)
    s = _sprinkle(rng, rng.standard_normal((c, 2 * n, 2 * n, 2 * n)).astype(dtype))
    g = _sprinkle(rng, rng.standard_normal(s.shape).astype(dtype))

    def unfused(xt, st):
        up = upsample_trilinear2(xt)
        return add(st, up) if skip_first else add(up, st)

    got = _grads_through_tape(lambda xt, st: upsample_trilinear2(xt, st, skip_first=skip_first),
                              (Tensor4(x), Tensor4(s)), g)
    want = _grads_through_tape(unfused, (Tensor4(x), Tensor4(s)), g)
    assert np.isnan(want[0]).any() and (np.isfinite(want[0]).any() or c == 1)
    _assert_bitwise(got, want)


def test_upsample_skip_rejects_a_mismatched_shape():
    x = Tensor4(rnd(30, (2, 3, 3, 3)))
    with pytest.raises(ValueError, match="skip-add shape mismatch"):
        upsample_trilinear2(x, Tensor4(rnd(31, (3, 6, 6, 6))))


def test_fused_forms_pass_finite_differences():
    rng = np.random.default_rng(37)
    x = Tensor4(rng.standard_normal((3, 5, 5, 5)))
    w = Parameter("w", rng.normal(0.0, 0.3, (4, 3, 3, 3, 3)))
    b = Parameter("b", rng.normal(0.0, 0.1, 4))
    # every pre-activation sits well beyond the probe's reach of the kink at 0
    assert np.abs(conv3d(x, w, b).data).min() > 0.01
    proj = Tensor4(rng.standard_normal((4, 5, 5, 5)))
    assert gradcheck(lambda: sum_all(mul(conv3d(x, w, b, SLOPE), proj)), [x, w, b],
                     eps=1e-4) < 1e-6
    s = Tensor4(rng.standard_normal((3, 10, 10, 10)))
    proj = Tensor4(rng.standard_normal((3, 10, 10, 10)))
    for skip_first in (True, False):
        assert gradcheck(lambda: sum_all(mul(upsample_trilinear2(x, s, skip_first=skip_first),
                                             proj)), [x, s], eps=1e-3) < 1e-6


def test_concat_then_slice_roundtrip():
    a = Tensor4(rnd(15, (2, 3, 3, 3)))
    b = Tensor4(rnd(16, (1, 3, 3, 3)))
    y = concat_channels(a, b)
    assert y.data.shape == (3, 3, 3, 3)
    np.testing.assert_array_equal(y.data[:2], a.data)
    np.testing.assert_array_equal(y.data[2:], b.data)
    with pytest.raises(ValueError):
        concat_channels(a, Tensor4(rnd(17, (1, 2, 3, 3))))


def test_slice_spatial_window():
    x = Tensor4(rnd(18, (2, 5, 5, 5)))
    y = slice_spatial(x, (1, 2, 0), (3, 2, 4))
    np.testing.assert_array_equal(y.data, x.data[:, 1:4, 2:4, 0:4])


def test_elementwise_ops_values():
    a = Tensor4(np.array([[[[1.0, -2.0]]]]))
    b = Tensor4(np.array([[[[3.0, 5.0]]]]))
    np.testing.assert_allclose(add(a, b).data.ravel(), [4.0, 3.0])
    np.testing.assert_allclose(sub(a, b).data.ravel(), [-2.0, -7.0])
    np.testing.assert_allclose(mul(a, b).data.ravel(), [3.0, -10.0])
    np.testing.assert_allclose(square(a).data.ravel(), [1.0, 4.0])
    np.testing.assert_allclose(scale(a, -2.0).data.ravel(), [-2.0, 4.0])
    np.testing.assert_allclose(abs_val(a).data.ravel(), [1.0, 2.0])
    assert float(mean_all(b).data) == 4.0
    assert float(sum_all(b).data) == 8.0
    with pytest.raises(ValueError):
        add(a, Tensor4(np.zeros((1, 1, 1, 3))))


def test_add_commutes():
    a = Tensor4(rnd(19, (2, 3, 3, 3)))
    b = Tensor4(rnd(20, (2, 3, 3, 3)))
    np.testing.assert_array_equal(add(a, b).data, add(b, a).data)


def test_replicate_pad_edges_and_adjoint():
    x = Tensor4(np.arange(8.0).reshape(1, 2, 2, 2))
    y = replicate_pad(x, 1).data
    assert y.shape == (1, 4, 4, 4)
    assert y[0, 0, 0, 0] == x.data[0, 0, 0, 0]
    assert y[0, 3, 3, 3] == x.data[0, 1, 1, 1]
    np.testing.assert_array_equal(y[0, 1:3, 1:3, 1:3], x.data[0])

    t = Tensor4(rnd(21, (1, 3, 3, 3)))
    g_out = rnd(22, (1, 5, 5, 5))
    with Tape() as tape:
        node = replicate_pad(t, 1)
        tape.backward(sum_all(mul(node, Tensor4(g_out))))
    lhs = float((node.data * g_out).sum())
    rhs = float((t.data * t.grad).sum())
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_box_sum3_matches_brute_force():
    x = rnd(23, (2, 6, 7, 6))
    y = box_sum3(Tensor4(x), 1).data
    assert y.shape == (2, 4, 5, 4)
    ref = np.empty_like(y)
    for c in range(2):
        for z in range(4):
            for h in range(5):
                for w in range(4):
                    ref[c, z, h, w] = x[c, z:z + 3, h:h + 3, w:w + 3].sum()
    np.testing.assert_allclose(y, ref, rtol=1e-12)


# -------------------------------------------------------------- gradcheck


def test_gradcheck_linear_is_machine_exact():
    x = Tensor4(rnd(24, (1, 3, 3, 3)))
    err = gradcheck(lambda: sum_all(scale(x, 3.0)), [x], eps=1e-4)
    assert err < 1e-10


def test_gradcheck_rejects_bad_eps_and_f32():
    x = Tensor4(rnd(25, (1, 2, 2, 2)))
    with pytest.raises(ValueError):
        gradcheck(lambda: sum_all(x), [x], eps=1e-2)
    x32 = Tensor4(rnd(26, (1, 2, 2, 2), np.float32))
    with pytest.raises(ValueError):
        gradcheck(lambda: sum_all(x32), [x32])


def test_gradcheck_raises_on_non_finite():
    x = Tensor4(rnd(27, (1, 2, 2, 2)))
    bad = Tensor4(np.full((1, 2, 2, 2), np.nan))
    with pytest.raises(FloatingPointError):
        gradcheck(lambda: sum_all(mul(x, bad)), [x])


def test_gradcheck_coords_subset_probes_fewer_points():
    x = Tensor4(rnd(28, (1, 3, 3, 3)))
    err = gradcheck(lambda: sum_all(square(x)), [x], eps=1e-4, coords=[[0, 5, 11]])
    assert err < 1e-8


# ---------------------------------------------------------- exact adjoints


def _conv3d_in_x(kernel):
    w = Parameter("w", rnd(40, (3, 2) + kernel))
    x = Tensor4(rnd(41, (2, 4, 5, 6)))
    return [x], lambda: conv3d(x, w, Parameter("b", np.zeros(3)))


def _conv3d_in_w():
    w = Parameter("w", rnd(42, (3, 2, 3, 3, 3)))
    x = Tensor4(rnd(43, (2, 4, 5, 6)))
    return [w], lambda: conv3d(x, w, Parameter("b", np.zeros(3)))


def _unary(f, shape=(2, 4, 6, 8)):
    x = Tensor4(rnd(44, shape))
    return [x], lambda: f(x)


def _upsample_skip():
    x = Tensor4(rnd(44, (2, 4, 6, 8)))
    s = Tensor4(rnd(48, (2, 8, 12, 16)))
    return [x, s], lambda: upsample_trilinear2(x, s)


def _concat():
    a = Tensor4(rnd(45, (2, 3, 4, 5)))
    b = Tensor4(rnd(46, (3, 3, 4, 5)))
    return [a, b], lambda: concat_channels(a, b)


# every op here is linear or positively homogeneous in the listed leaves, so
# <f(x), y> == <x, grad_x <f(x), y>> holds exactly, not just to first order
ADJOINT_CASES = {
    "conv3d_x_333": lambda: _conv3d_in_x((3, 3, 3)),
    "conv3d_x_133": lambda: _conv3d_in_x((1, 3, 3)),
    "conv3d_w": _conv3d_in_w,
    "upsample_trilinear2": lambda: _unary(upsample_trilinear2),
    "upsample_trilinear2_skip": _upsample_skip,
    "replicate_pad": lambda: _unary(lambda x: replicate_pad(x, 2)),
    "slice_spatial": lambda: _unary(lambda x: slice_spatial(x, (1, 0, 2), (2, 5, 4))),
    "box_sum3": lambda: _unary(lambda x: box_sum3(x, 1)),
    "concat_channels": _concat,
    "max_pool2": lambda: _unary(max_pool2),
    "leaky_relu": lambda: _unary(leaky_relu),
}


@pytest.mark.parametrize("case", sorted(ADJOINT_CASES))
def test_backward_is_the_exact_adjoint(case):
    leaves, f = ADJOINT_CASES[case]()
    with Tape() as tape:
        out = f()
        y = rnd(47, out.data.shape)
        tape.backward(sum_all(mul(out, Tensor4(y))))
    lhs = float((out.data * y).sum())
    rhs = sum(float(((t.value if isinstance(t, Parameter) else t.data) * t.grad).sum())
              for t in leaves)
    assert rhs == pytest.approx(lhs, rel=1e-12, abs=0)
