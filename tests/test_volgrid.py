"""Grid I/O round trips, normalization rules, and synthetic data contracts."""

import json

import numpy as np
import pytest

from dualreg.volgrid import (
    DisplacementField,
    LabelMask,
    Volume,
    load_field,
    load_mask,
    load_volume,
    normalize_intensity,
    save_field,
    save_mask,
    save_volume,
    synth_deformation,
    synth_phantom,
)


def test_volume_roundtrip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    v = Volume(rng.random((3, 4, 5), dtype=np.float32), spacing_mm=(1.5, 1.0, 0.5))
    save_volume(v, tmp_path / "v")
    w = load_volume(tmp_path / "v")
    assert (w.data == v.data).all() and w.data.dtype == np.float32
    assert w.spacing_mm == (1.5, 1.0, 0.5)


def test_mask_and_field_roundtrip(tmp_path):
    m = LabelMask(np.arange(24, dtype=np.uint8).reshape(2, 3, 4) % 4)
    save_mask(m, tmp_path / "m")
    assert (load_mask(tmp_path / "m").labels == m.labels).all()

    f = DisplacementField(np.random.default_rng(1).standard_normal((3, 2, 3, 4)).astype(np.float32))
    save_field(f, tmp_path / "f")
    assert (load_field(tmp_path / "f").data == f.data).all()


def test_constant_volume_payload_bytes(tmp_path):
    v = Volume(np.full((4, 4, 4), 0.5, np.float32))
    save_volume(v, tmp_path / "c")
    payload = (tmp_path / "c.raw").read_bytes()
    assert payload == np.full(64, 0.5, "<f4").tobytes()


def test_load_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_volume(tmp_path / "nope")

    v = Volume(np.zeros((2, 2, 2), np.float32))
    save_volume(v, tmp_path / "v")

    # truncated payload: 7 of 8 values
    (tmp_path / "v.raw").write_bytes(np.zeros(7, "<f4").tobytes())
    with pytest.raises(ValueError, match="v.json"):
        load_volume(tmp_path / "v")

    save_volume(v, tmp_path / "v")
    hdr = json.loads((tmp_path / "v.json").read_text())
    hdr["dtype"] = "f64be"
    (tmp_path / "v.json").write_text(json.dumps(hdr))
    with pytest.raises(ValueError, match="v.json"):
        load_volume(tmp_path / "v")

    save_volume(v, tmp_path / "v")
    hdr = json.loads((tmp_path / "v.json").read_text())
    hdr["shape"] = [0, 2, 2]
    (tmp_path / "v.json").write_text(json.dumps(hdr))
    with pytest.raises(ValueError, match="v.json"):
        load_volume(tmp_path / "v")


def test_wrong_kind_is_rejected(tmp_path):
    save_mask(LabelMask(np.zeros((2, 2, 2), np.uint8)), tmp_path / "m")
    with pytest.raises(ValueError, match="m.json"):
        load_volume(tmp_path / "m")  # u8 payload where f32le expected
    save_field(DisplacementField(np.zeros((3, 2, 2, 2), np.float32)), tmp_path / "f")
    with pytest.raises(ValueError, match="f.json"):
        load_volume(tmp_path / "f")  # 3 channels where 1 expected


def test_type_invariants():
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2), np.float32))
    with pytest.raises(ValueError):
        Volume(np.zeros((2, 2, 2), np.float32), spacing_mm=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        DisplacementField(np.zeros((2, 2, 2, 2), np.float32))
    bad = np.zeros((3, 2, 2, 2), np.float32)
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(ValueError):
        DisplacementField(bad)


def test_normalize_minmax_and_constant():
    v = Volume(np.array([10.0, 20.0, 30.0], np.float32).reshape(1, 1, 3) * np.ones((2, 2, 1), np.float32))
    n = normalize_intensity(v)
    np.testing.assert_allclose(np.unique(n.data), [0.0, 0.5, 1.0])
    c = normalize_intensity(Volume(np.full((2, 2, 2), 7.0, np.float32)))
    assert not c.data.any()


def test_normalize_idempotent_and_bounded():
    v = Volume(np.random.default_rng(2).standard_normal((4, 4, 4)).astype(np.float32) * 100)
    n = normalize_intensity(v)
    assert n.data.min() >= 0.0 and n.data.max() <= 1.0
    nn = normalize_intensity(n)
    np.testing.assert_array_equal(nn.data, n.data)
    with pytest.raises(ValueError, match="non-finite"):
        Volume(np.full((2, 2, 2), np.nan, np.float32))


def test_phantom_determinism_and_labels():
    v1, m1 = synth_phantom(5, (16, 20, 18))
    v2, m2 = synth_phantom(5, (16, 20, 18))
    assert (v1.data == v2.data).all() and (m1.labels == m2.labels).all()
    assert sorted(np.unique(m1.labels).tolist()) == [0, 1, 2, 3]
    assert v1.data.min() >= 0.0 and v1.data.max() <= 1.0
    v3, _ = synth_phantom(6, (16, 20, 18))
    assert (v1.data != v3.data).any()


def test_phantom_organs_stay_off_the_boundary():
    _, m = synth_phantom(7, (20, 20, 20))
    idx = np.argwhere(m.labels > 0)
    lo = idx.min(axis=0)
    hi = idx.max(axis=0)
    assert (lo >= 2).all()
    assert (hi <= np.array(m.labels.shape) - 3).all()


def test_phantom_rejects_small_shapes():
    with pytest.raises(ValueError):
        synth_phantom(0, (8, 16, 16))


def test_deformation_amplitude_contract():
    f = synth_deformation(3, (16, 16, 16), amplitude=0.0, smoothness_sigma=4.0)
    assert not f.data.any()

    f = synth_deformation(3, (16, 16, 16), amplitude=2.5, smoothness_sigma=4.0)
    mag = np.sqrt((f.data.astype(np.float64) ** 2).sum(axis=0))
    assert mag.max() == pytest.approx(2.5, rel=1e-6)

    g = synth_deformation(3, (16, 16, 16), amplitude=2.5, smoothness_sigma=4.0)
    assert (f.data == g.data).all()


def test_deformation_is_fold_free_when_gentle():
    from dualreg.metrics import jacobian_stats

    f = synth_deformation(11, (48, 48, 48), amplitude=3.0, smoothness_sigma=8.0)
    _, folds, _ = jacobian_stats(f)
    assert folds == 0


def test_deformation_validates_args():
    with pytest.raises(ValueError):
        synth_deformation(0, (16, 16, 16), amplitude=-1.0, smoothness_sigma=4.0)
    with pytest.raises(ValueError):
        synth_deformation(0, (16, 16, 16), amplitude=1.0, smoothness_sigma=0.0)
