"""Evaluation metrics against hand counts and a brute-force distance oracle."""

import json

import numpy as np
import pytest

from dualreg.metrics import EvalReport, asd, dice, evaluate_pair, jacobian_stats
from dualreg.volgrid import DisplacementField, LabelMask


def cube_mask(shape, lo, hi, label=1):
    m = np.zeros(shape, np.uint8)
    m[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = label
    return LabelMask(m)


# ------------------------------------------------------------------ dice


def test_dice_trivial_cases():
    a = cube_mask((8, 8, 8), (0, 0, 0), (2, 2, 2))
    assert dice(a, a, 1) == 1.0
    b = cube_mask((8, 8, 8), (4, 4, 4), (6, 6, 6))
    assert dice(a, b, 1) == 0.0
    empty = cube_mask((8, 8, 8), (0, 0, 0), (0, 0, 0))
    assert dice(empty, empty, 1) == 1.0  # both empty counts as perfect
    assert dice(a, empty, 1) == 0.0


def test_dice_half_overlap():
    # |A| = 8, |B| = 8, |A∩B| = 4 -> 2*4/(8+8) = 0.5
    a = cube_mask((8, 8, 8), (0, 0, 0), (2, 2, 2))
    b = cube_mask((8, 8, 8), (0, 0, 1), (2, 2, 3))
    assert dice(a, b, 1) == 0.5


def test_dice_is_per_label():
    m = np.zeros((6, 6, 6), np.uint8)
    m[0:2] = 1
    m[4:6] = 2
    a = LabelMask(m)
    b = LabelMask(np.where(m == 2, 2, 0).astype(np.uint8))
    assert dice(a, b, 2) == 1.0
    assert dice(a, b, 1) == 0.0


# ------------------------------------------------------------------- asd


def test_asd_single_voxel_offset():
    a = cube_mask((8, 8, 8), (1, 1, 1), (2, 2, 2))
    b = cube_mask((8, 8, 8), (1, 1, 4), (2, 2, 5))
    assert asd(a, b, 1) == pytest.approx(3.0)
    assert asd(a, b, 1, spacing_mm=(1.0, 1.0, 2.0)) == pytest.approx(6.0)


def test_asd_zero_for_identical_masks():
    a = cube_mask((8, 8, 8), (2, 2, 2), (6, 6, 6))
    assert asd(a, a, 1) == 0.0


def test_asd_empty_surface_is_an_error():
    a = cube_mask((8, 8, 8), (1, 1, 1), (3, 3, 3))
    empty = cube_mask((8, 8, 8), (0, 0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        asd(a, empty, 1)


def brute_asd(a, b, spacing):
    """Independent reimplementation: exact symmetric mean surface distance."""
    def surface_points(mask):
        pts = []
        idx = np.argwhere(mask)
        vox = set(map(tuple, idx))
        for z, y, x in idx:
            for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                               (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                n = (z + dz, y + dy, x + dx)
                inside = all(0 <= n[i] < mask.shape[i] for i in range(3))
                if not inside or n not in vox:
                    pts.append((z, y, x))
                    break
        return np.array(pts, float) * np.asarray(spacing)

    sa = surface_points(a)
    sb = surface_points(b)
    d_ab = [min(np.linalg.norm(p - q) for q in sb) for p in sa]
    d_ba = [min(np.linalg.norm(p - q) for q in sa) for p in sb]
    return 0.5 * (np.mean(d_ab) + np.mean(d_ba))


def test_asd_matches_brute_force_on_offset_cubes():
    shape = (10, 10, 10)
    a = cube_mask(shape, (1, 1, 1), (5, 5, 5))
    b = cube_mask(shape, (3, 2, 1), (7, 6, 5))
    spacing = (1.0, 1.5, 0.5)
    expect = brute_asd(a.labels == 1, b.labels == 1, spacing)
    got = asd(a, b, 1, spacing_mm=spacing)
    assert got == pytest.approx(expect, rel=1e-12)


# -------------------------------------------------------------- jacobian


def test_jacobian_identity_field():
    det, folds, std = jacobian_stats(DisplacementField(np.zeros((3, 5, 6, 7), np.float32)))
    assert det.shape == (4, 5, 6)
    np.testing.assert_allclose(det, 1.0)
    assert folds == 0
    assert std == 0.0


def linear_field(M, shape):
    grids = np.meshgrid(*[np.arange(s, dtype=np.float64) for s in shape], indexing="ij")
    u = np.zeros((3,) + shape)
    for c in range(3):
        for a in range(3):
            u[c] += M[c, a] * grids[a]
    return DisplacementField(u.astype(np.float32))


def test_jacobian_uniform_expansion():
    det, folds, std = jacobian_stats(linear_field(0.1 * np.eye(3), (6, 6, 6)))
    np.testing.assert_allclose(det, 1.331, rtol=1e-5)
    assert folds == 0
    assert std == pytest.approx(0.0, abs=1e-6)


def test_jacobian_reflection_folds_everywhere():
    M = np.diag([-2.0, 0.0, 0.0])
    det, folds, std = jacobian_stats(linear_field(M, (5, 5, 5)))
    np.testing.assert_allclose(det, -1.0, rtol=1e-5)
    assert folds == det.size  # det <= 0 at every interior voxel
    assert std == pytest.approx(0.0, abs=1e-6)


def test_jacobian_off_diagonal_shear():
    M = np.zeros((3, 3))
    M[0, 1] = 0.3  # u_D depends on H: det(I+M) still 1 for pure shear
    det, _, _ = jacobian_stats(linear_field(M, (5, 5, 5)))
    np.testing.assert_allclose(det, 1.0, rtol=1e-5)


# ----------------------------------------------------------- evaluate_pair


def test_evaluate_pair_identity_field():
    m = np.zeros((8, 8, 8), np.uint8)
    m[2:5, 2:5, 2:5] = 1
    m[5:7, 5:7, 5:7] = 2
    labels = LabelMask(m)
    field = DisplacementField(np.zeros((3, 8, 8, 8), np.float32))
    rep = evaluate_pair(field, labels, labels)
    assert set(rep.labels) == {1, 2}
    for row in rep.labels.values():
        assert row["dice"] == 1.0
        assert row["asd_mm"] == 0.0
    assert rep.folding_count == 0
    assert rep.jacobian_std == 0.0
    assert rep.runtime_s >= 0.0
    assert rep.mean_dice() == 1.0


def test_evaluate_pair_missing_label_reports_none():
    a = cube_mask((8, 8, 8), (1, 1, 1), (3, 3, 3))
    b = cube_mask((8, 8, 8), (0, 0, 0), (0, 0, 0))  # label absent on one side
    field = DisplacementField(np.zeros((3, 8, 8, 8), np.float32))
    rep = evaluate_pair(field, a, b)
    assert rep.labels[1]["dice"] == 0.0
    assert rep.labels[1]["asd_mm"] is None


def test_evaluate_pair_measures_surfaces_in_the_fixed_spacing():
    spacing = (2.0, 1.0, 0.5)
    moving = cube_mask((8, 8, 8), (1, 1, 1), (4, 4, 4))
    fixed = LabelMask(cube_mask((8, 8, 8), (2, 2, 2), (6, 5, 5)).labels, spacing)
    rep = evaluate_pair(DisplacementField(np.zeros((3, 8, 8, 8), np.float32)), moving, fixed)
    assert rep.labels[1]["asd_mm"] == asd(moving, fixed, 1, spacing_mm=spacing)
    assert rep.labels[1]["asd_mm"] != asd(moving, fixed, 1, spacing_mm=(1.0, 1.0, 1.0))


def test_eval_report_json_roundtrip(tmp_path):
    rep = EvalReport(labels={1: {"dice": 0.9, "asd_mm": 1.5},
                            2: {"dice": 0.8, "asd_mm": None}},
                     folding_count=3, jacobian_std=0.12, runtime_s=0.5)
    path = tmp_path / "report.json"
    rep.to_json(path)
    doc = json.loads(path.read_text())
    assert doc == rep.to_dict()
    assert doc["labels"]["1"]["dice"] == 0.9
    assert doc["labels"]["2"]["asd_mm"] is None
    assert doc["folding_count"] == 3
    assert rep.mean_dice() == pytest.approx(0.85)
