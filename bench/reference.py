"""Independent reference implementations for checking dualreg's outputs.

Everything here uses numpy and scipy only and shares no code with the
package: the self-similarity (MIND) objective is built from scipy.ndimage
box sums on edge-padded shifts, trilinear resampling goes through
scipy.ndimage.map_coordinates, surface distances are brute-force pairwise
minima, and the Jacobian determinant comes from np.linalg.det.

Each ``check_*`` helper raises CheckFailed with a one-line reason when the
program's output disagrees with the reference beyond the stated tolerance.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

# f32 programs compared against f64 references: the tolerances below are a
# few hundred f32 ulps of the compared quantity, far below the effect of a
# one-voxel shift or a single flipped label.
OBJECTIVE_RTOL = 2e-5
RESAMPLE_ATOL = 2e-6
METRIC_RTOL = 1e-9

FACE_OFFSETS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


class CheckFailed(AssertionError):
    """A program output disagrees with its reference."""


def _grid(shape):
    return np.meshgrid(*(np.arange(n, dtype=np.float64) for n in shape), indexing="ij")


# ---------------------------------------------------------------------------
# warping

def resample(image, field):
    """Trilinear sample of ``image`` (D, H, W) at x + field[:, x], border-replicated."""
    image = np.asarray(image, dtype=np.float64)
    coords = np.asarray(field, dtype=np.float64) + np.stack(_grid(image.shape))
    return ndimage.map_coordinates(image, coords, order=1, mode="nearest")


def warp_labels_nearest(labels, field):
    """Nearest-neighbour label warp: round x + field[:, x] (ties to even), clamp."""
    labels = np.asarray(labels)
    idx = []
    for axis, g in enumerate(_grid(labels.shape)):
        c = np.asarray(field[axis], dtype=np.float64) + g
        idx.append(np.clip(np.rint(c), 0, labels.shape[axis] - 1).astype(np.intp))
    return labels[tuple(idx)]


# ---------------------------------------------------------------------------
# objective

def mind_descriptor(volume, offsets=FACE_OFFSETS, patch_radius=1, eps=1e-6):
    """(|R|, D, H, W) self-similarity descriptor of a (D, H, W) volume."""
    v = np.asarray(volume, dtype=np.float64)
    shape = v.shape
    rmax = max(max(abs(c) for c in o) for o in offsets)
    pad = patch_radius + rmax
    vp = np.pad(v, pad, mode="edge")
    k = 2 * patch_radius + 1
    # the region whose box sums cover the volume: patch_radius beyond each face
    ext = tuple(slice(rmax, rmax + n + 2 * patch_radius) for n in shape)
    core = tuple(slice(patch_radius, patch_radius + n) for n in shape)
    center = vp[ext]
    dist = []
    for off in offsets:
        shifted = vp[tuple(slice(s.start + o, s.stop + o) for s, o in zip(ext, off))]
        box = ndimage.uniform_filter((center - shifted) ** 2, size=k, mode="nearest") * k ** 3
        dist.append(box[core])
    dist = np.stack(dist)
    var = dist.mean(axis=0) + eps
    desc = np.exp(-dist / var)
    return desc / desc.max(axis=0)


def _forward_diff(u, axis):
    """u[x + e_axis] - u[x] over the last three axes, cropped to the interior (n - 1 each)."""
    d = np.diff(u, axis=axis)
    return d[(Ellipsis,) + tuple(slice(0, n - 1) for n in u.shape[-3:])]


def smoothness(field):
    """Mean over interior voxels of the summed squared forward differences."""
    u = np.asarray(field, dtype=np.float64)
    total = sum((_forward_diff(u, axis) ** 2).sum(axis=0) for axis in (1, 2, 3))
    return float(total.mean())


def objective(moving, fixed, field, lam, offsets=FACE_OFFSETS, patch_radius=1, eps=1e-6):
    """Descriptor L1 between the warped moving and the fixed volume, plus lam * smoothness."""
    warped = resample(moving, field)
    dw = mind_descriptor(warped, offsets, patch_radius, eps)
    df = mind_descriptor(fixed, offsets, patch_radius, eps)
    return float(np.abs(dw - df).mean()) + lam * smoothness(field)


# ---------------------------------------------------------------------------
# metrics

def dice(a, b, label):
    sa, sb = np.asarray(a) == label, np.asarray(b) == label
    total = np.count_nonzero(sa) + np.count_nonzero(sb)
    if total == 0:
        return 1.0
    return 2.0 * np.count_nonzero(sa & sb) / total


_FACE_STRUCTURE = ndimage.generate_binary_structure(3, 1)


def surface_points(mask, spacing):
    """Voxels of ``mask`` with a face-neighbour outside it (the border counts as outside)."""
    inner = ndimage.binary_erosion(mask, structure=_FACE_STRUCTURE, border_value=0)
    return np.argwhere(mask & ~inner) * np.asarray(spacing, dtype=np.float64)


def asd(a, b, label, spacing=(1.0, 1.0, 1.0)):
    """Symmetric mean surface distance by brute-force pairwise minima; None if a side is empty."""
    pa = surface_points(np.asarray(a) == label, spacing)
    pb = surface_points(np.asarray(b) == label, spacing)
    if len(pa) == 0 or len(pb) == 0:
        return None
    d = cdist(pa, pb)
    return float((d.min(axis=1).mean() + d.min(axis=0).mean()) / 2.0)


def jacobian_det(field):
    """det(I + grad u) per interior voxel, forward differences, last slice dropped."""
    u = np.asarray(field, dtype=np.float64)
    jac = np.empty(tuple(n - 1 for n in u.shape[1:]) + (3, 3))
    for c in range(3):
        for a in range(3):
            jac[..., c, a] = _forward_diff(u[c], a)
    jac += np.eye(3)
    return np.linalg.det(jac)


def evaluate(field, moving_labels, fixed_labels, spacing=(1.0, 1.0, 1.0)):
    """Reference counterpart of an evaluation report as a plain dict."""
    warped = warp_labels_nearest(moving_labels, field)
    present = np.union1d(np.unique(moving_labels), np.unique(fixed_labels))
    labels = {}
    for label in (int(v) for v in present if v != 0):
        labels[label] = {"dice": dice(warped, fixed_labels, label),
                         "asd_mm": asd(warped, fixed_labels, label, spacing)}
    det = jacobian_det(field)
    return {"labels": labels, "folding_count": int(np.count_nonzero(det <= 0)),
            "jacobian_std": float(det.std())}


# ---------------------------------------------------------------------------
# checks

def _fail(name, detail):
    raise CheckFailed(f"{name}: {detail}")


def check_close(name, got, want, rtol=0.0, atol=0.0):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        _fail(name, f"shape {got.shape} != reference {want.shape}")
    err = np.abs(got - want)
    limit = atol + rtol * np.abs(want)
    if not np.all(err <= limit):
        worst = int(np.argmax(err - limit))
        _fail(name, f"max error {err.max():.3g} beyond atol {atol:g} + rtol {rtol:g} "
                    f"(at flat index {worst}: {got.ravel()[worst]!r} vs {want.ravel()[worst]!r})")


def check_equal(name, got, want):
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or got.dtype != want.dtype or not np.array_equal(got, want):
        _fail(name, "arrays differ (expected bitwise equality)")


def check_objective(name, loss, moving, fixed, field, lam, mind_cfg=None):
    kw = {}
    if mind_cfg is not None:
        kw = dict(offsets=mind_cfg.offsets, patch_radius=mind_cfg.patch_radius, eps=mind_cfg.eps)
    want = objective(moving, fixed, field, lam, **kw)
    check_close(name, loss, want, rtol=OBJECTIVE_RTOL)
    return want


def check_resample(name, warped, image, field):
    check_close(name, warped, resample(image, field), atol=RESAMPLE_ATOL)


def check_label_warp(name, warped_labels, labels, field):
    want = warp_labels_nearest(labels, field)
    n = int(np.count_nonzero(np.asarray(warped_labels) != want))
    if n:
        _fail(name, f"{n} label voxels differ from the nearest-neighbour reference")


def check_report(name, report, field, moving_labels, fixed_labels, spacing=(1.0, 1.0, 1.0)):
    """Compare an evaluation report (its to_dict() form) with the reference evaluation."""
    want = evaluate(field, moving_labels, fixed_labels, spacing)
    got_labels = {int(k): v for k, v in report["labels"].items()}
    if sorted(got_labels) != sorted(want["labels"]):
        _fail(name, f"labels {sorted(got_labels)} != reference {sorted(want['labels'])}")
    for label, row in want["labels"].items():
        got = got_labels[label]
        check_close(f"{name} dice[{label}]", got["dice"], row["dice"], rtol=METRIC_RTOL)
        if (got["asd_mm"] is None) != (row["asd_mm"] is None):
            _fail(name, f"asd[{label}] is {got['asd_mm']} but reference is {row['asd_mm']}")
        if row["asd_mm"] is not None:
            check_close(f"{name} asd[{label}]", got["asd_mm"], row["asd_mm"],
                        rtol=METRIC_RTOL, atol=1e-12)
    if report["folding_count"] != want["folding_count"]:
        _fail(name, f"folding count {report['folding_count']} != reference {want['folding_count']}")
    check_close(f"{name} jacobian_std", report["jacobian_std"], want["jacobian_std"],
                rtol=METRIC_RTOL)
    return want


def check_jacobian(name, det, folding, std, field):
    want = jacobian_det(field)
    check_close(f"{name} det", det, want, rtol=METRIC_RTOL, atol=1e-12)
    if folding != int(np.count_nonzero(want <= 0)):
        _fail(name, f"folding count {folding} != reference {int(np.count_nonzero(want <= 0))}")
    check_close(f"{name} std", std, want.std(), rtol=METRIC_RTOL)
