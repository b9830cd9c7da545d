"""Engine semantics plus a brute-force oracle for every primitive.

Gradient correctness itself lives in the named check table (gradsuite);
here we pin forward values against independent reimplementations and
exercise the tape/precision/error contracts.
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
    default_dtype,
    gradcheck,
    leaky_relu,
    max_pool2,
    mean_all,
    mul,
    precision,
    replicate_pad,
    scale,
    slice_spatial,
    square,
    sub,
    sum_all,
    upsample_trilinear2,
)


def rnd(seed, shape, dtype=np.float64):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------- engine


def test_tensor4_rejects_bad_rank():
    with pytest.raises(ValueError):
        Tensor4(np.zeros((2, 3)))


def test_tensor4_keeps_float_dtype_and_casts_ints():
    assert Tensor4(np.zeros((1, 2, 2, 2), np.float64)).data.dtype == np.float64
    assert Tensor4(np.zeros((1, 2, 2, 2), np.int64)).data.dtype == default_dtype()


def test_precision_context_scopes_default_dtype():
    assert default_dtype() == np.float32
    with precision("f64"):
        assert default_dtype() == np.float64
        assert Parameter("p", np.zeros(3)).value.dtype == np.float64
    assert default_dtype() == np.float32
    with pytest.raises(ValueError):
        with precision("f16"):
            pass


def test_parameter_adopts_default_dtype():
    p = Parameter("p", np.zeros(4, np.float64))
    assert p.value.dtype == np.float32
    assert p.grad.shape == p.value.shape


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
    with precision("f64"):
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


def test_tape_reset_allows_reuse():
    x = Tensor4(rnd(8, (1, 2, 2, 2)))
    with Tape() as tape:
        tape.backward(sum_all(x))
        g1 = x.grad.copy()
        tape.reset()
        x.grad = None
        tape.backward(sum_all(x))
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
    with precision("f64"):
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
    with precision("f64"):
        x = Tensor4(rnd(24, (1, 3, 3, 3)))
        err = gradcheck(lambda: sum_all(scale(x, 3.0)), [x], eps=1e-4)
    assert err < 1e-10


def test_gradcheck_rejects_bad_eps_and_f32():
    with precision("f64"):
        x = Tensor4(rnd(25, (1, 2, 2, 2)))
        with pytest.raises(ValueError):
            gradcheck(lambda: sum_all(x), [x], eps=1e-2)
    x32 = Tensor4(rnd(26, (1, 2, 2, 2), np.float32))
    with pytest.raises(ValueError):
        gradcheck(lambda: sum_all(x32), [x32])


def test_gradcheck_raises_on_non_finite():
    with precision("f64"):
        x = Tensor4(rnd(27, (1, 2, 2, 2)))
        bad = Tensor4(np.full((1, 2, 2, 2), np.nan))
        with pytest.raises(FloatingPointError):
            gradcheck(lambda: sum_all(mul(x, bad)), [x])


def test_gradcheck_coords_subset_probes_fewer_points():
    with precision("f64"):
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
    "replicate_pad": lambda: _unary(lambda x: replicate_pad(x, 2)),
    "slice_spatial": lambda: _unary(lambda x: slice_spatial(x, (1, 0, 2), (2, 5, 4))),
    "box_sum3": lambda: _unary(lambda x: box_sum3(x, 1)),
    "concat_channels": _concat,
    "max_pool2": lambda: _unary(max_pool2),
    "leaky_relu": lambda: _unary(leaky_relu),
}


@pytest.mark.parametrize("case", sorted(ADJOINT_CASES))
def test_backward_is_the_exact_adjoint(case):
    with precision("f64"):
        leaves, f = ADJOINT_CASES[case]()
        with Tape() as tape:
            out = f()
            y = rnd(47, out.data.shape)
            tape.backward(sum_all(mul(out, Tensor4(y))))
    lhs = float((out.data * y).sum())
    rhs = sum(float(((t.value if isinstance(t, Parameter) else t.data) * t.grad).sum())
              for t in leaves)
    assert rhs == pytest.approx(lhs, rel=1e-12, abs=0)
