"""Warping semantics: identity, integer shifts, interpolation exactness, borders."""

import numpy as np
import pytest

from dualreg.autodiff import Tape, Tensor4, sum_all
from dualreg.stn import warp, warp_labels, warp_tensor
from dualreg.volgrid import DisplacementField, LabelMask, Volume


def vol(seed, shape=(5, 6, 7)):
    return Volume(np.random.default_rng(seed).random(shape, dtype=np.float32))


def zero_field(shape=(5, 6, 7)):
    return DisplacementField(np.zeros((3,) + shape, np.float32))


def test_zero_field_is_bitwise_identity():
    v = vol(0)
    w = warp(v, zero_field())
    assert (w.data == v.data).all()
    assert w.spacing_mm == v.spacing_mm


def test_zero_field_tensor_identity():
    img = np.random.default_rng(1).standard_normal((2, 4, 4, 4))
    out = warp_tensor(img, Tensor4(np.zeros((3, 4, 4, 4))))
    assert (out.data == img).all()


def test_warp_tensor_keeps_float32_and_matches_volume_warp():
    # coordinates are float64 internally; the sample is cast back to the image dtype
    v = vol(7)
    f = np.random.default_rng(8).uniform(-1.5, 1.5, (3, 5, 6, 7)).astype(np.float32)
    out = warp_tensor(v.data[None], Tensor4(f))
    assert out.data.dtype == np.float32
    assert out.data[0].tobytes() == warp(v, DisplacementField(f)).data.tobytes()


def test_integer_shift_samples_the_shifted_voxel():
    data = np.random.default_rng(2).random((4, 4, 4), dtype=np.float32)
    v = Volume(data)
    f = np.zeros((3, 4, 4, 4), np.float32)
    f[2] = 1.0  # displacement along W: out[., ., x] = in[., ., x+1]
    w = warp(v, DisplacementField(f))
    np.testing.assert_array_equal(w.data[:, :, :3], data[:, :, 1:])
    np.testing.assert_array_equal(w.data[:, :, 3], data[:, :, 3])  # clamped border


def test_half_voxel_shift_on_a_ramp():
    # trilinear interpolation reproduces linear functions exactly
    shape = (4, 4, 6)
    ramp = np.broadcast_to(np.arange(6.0, dtype=np.float64), shape).copy()
    f = np.zeros((3,) + shape)
    f[2] = 0.5
    out = warp_tensor(ramp[None], Tensor4(f.astype(np.float32))).data
    np.testing.assert_allclose(out[0, :, :, :5], ramp[:, :, :5] + 0.5, rtol=1e-6)


def test_warp_is_linear_in_the_image():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((1, 5, 5, 5))
    b = rng.standard_normal((1, 5, 5, 5))
    field = Tensor4(rng.uniform(-1.2, 1.2, (3, 5, 5, 5)).astype(np.float32))
    mixed = warp_tensor(2.0 * a - 3.0 * b, field).data
    np.testing.assert_allclose(mixed, 2.0 * warp_tensor(a, field).data
                               - 3.0 * warp_tensor(b, field).data,
                               rtol=1e-5, atol=1e-6)


def test_large_displacement_clamps_to_border():
    data = np.random.default_rng(4).random((4, 4, 4), dtype=np.float32)
    f = np.full((3, 4, 4, 4), 100.0, np.float32)
    w = warp(Volume(data), DisplacementField(f))
    np.testing.assert_array_equal(w.data, np.full((4, 4, 4), data[3, 3, 3]))


def test_field_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        warp(vol(5), zero_field((4, 4, 4)))


def test_warp_labels_nearest_and_crisp():
    labels = np.zeros((4, 4, 4), np.uint8)
    labels[1:3, 1:3, 1:3] = 2
    m = LabelMask(labels)

    shift = np.zeros((3, 4, 4, 4), np.float32)
    shift[0] = 1.0
    out = warp_labels(m, DisplacementField(shift))
    np.testing.assert_array_equal(out.labels[:3], labels[1:])

    # sub-half displacements round back to the source voxel
    near = warp_labels(m, DisplacementField(np.full((3, 4, 4, 4), 0.4, np.float32)))
    expect = labels[
        np.clip(np.rint(np.arange(4) + 0.4).astype(int), 0, 3)][:,
        np.clip(np.rint(np.arange(4) + 0.4).astype(int), 0, 3)][:, :,
        np.clip(np.rint(np.arange(4) + 0.4).astype(int), 0, 3)]
    np.testing.assert_array_equal(near.labels, expect)
    assert set(np.unique(out.labels)) <= set(np.unique(labels))


def test_warp_tensor_grad_only_reaches_the_field():
    rng = np.random.default_rng(6)
    img = rng.standard_normal((2, 4, 4, 4))
    f = Tensor4(rng.uniform(0.2, 0.4, (3, 4, 4, 4)))
    with Tape() as tape:
        out = warp_tensor(img, f)
        tape.backward(sum_all(out))
    assert f.grad is not None and f.grad.shape == (3, 4, 4, 4)
    assert np.isfinite(f.grad).all()
