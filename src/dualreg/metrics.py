"""Evaluation: Dice overlap, symmetric average surface distance, and
Jacobian-determinant statistics of a displacement field.

Surfaces use 6-connectivity: a labeled voxel is on the surface when at
least one face-neighbor is outside the label, with the volume boundary
counting as outside. The Jacobian shares the smoothness loss's forward
differences, dropping the last slice along each axis, so a field the
regularizer calls smooth is the same field the metric calls smooth.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .stn import warp_labels
from .volgrid import DisplacementField, LabelMask


def _labels_of(m):
    return m.labels if isinstance(m, LabelMask) else np.asarray(m)


def dice(a, b, label: int) -> float:
    """2|A n B| / (|A| + |B|); 1.0 when the label is empty in both masks."""
    la, lb = _labels_of(a), _labels_of(b)
    if la.shape != lb.shape:
        raise ValueError(f"mask shapes differ: {la.shape} vs {lb.shape}")
    sa = la == label
    sb = lb == label
    na, nb = int(sa.sum()), int(sb.sum())
    if na + nb == 0:
        return 1.0
    return 2.0 * int((sa & sb).sum()) / (na + nb)


def _surface(mask: np.ndarray) -> np.ndarray:
    p = np.pad(mask, 1, constant_values=False)
    core = (p[2:, 1:-1, 1:-1] & p[:-2, 1:-1, 1:-1]
            & p[1:-1, 2:, 1:-1] & p[1:-1, :-2, 1:-1]
            & p[1:-1, 1:-1, 2:] & p[1:-1, 1:-1, :-2])
    return mask & ~core


def asd(a, b, label: int, spacing_mm=None) -> float:
    """Symmetric mean surface-to-surface Euclidean distance in mm."""
    la, lb = _labels_of(a), _labels_of(b)
    if la.shape != lb.shape:
        raise ValueError(f"mask shapes differ: {la.shape} vs {lb.shape}")
    if spacing_mm is None:
        spacing_mm = a.spacing_mm if isinstance(a, LabelMask) else (1.0, 1.0, 1.0)
    sp = np.asarray(spacing_mm, dtype=np.float64)
    pa = np.argwhere(_surface(la == label)) * sp
    pb = np.argwhere(_surface(lb == label)) * sp
    if len(pa) == 0 or len(pb) == 0:
        raise ValueError(f"label {label} has an empty surface in one of the masks")
    d_ab = cKDTree(pb).query(pa)[0].mean()
    d_ba = cKDTree(pa).query(pb)[0].mean()
    return float((d_ab + d_ba) / 2.0)


def jacobian_stats(field: DisplacementField):
    """Determinant of I + grad(u) per interior voxel.

    Returns (det volume of shape (D-1, H-1, W-1), folding_count, population
    std of the determinant). Folding counts voxels with det <= 0.
    """
    u = field.data.astype(np.float64)
    core = (slice(0, -1),) * 3

    def diff(c, axis):
        s = [slice(0, -1)] * 3
        s[axis] = slice(1, None)
        return u[c][tuple(s)] - u[c][core]

    j = [[diff(c, a) for a in range(3)] for c in range(3)]
    for c in range(3):
        j[c][c] = j[c][c] + 1.0
    det = (j[0][0] * (j[1][1] * j[2][2] - j[1][2] * j[2][1])
           - j[0][1] * (j[1][0] * j[2][2] - j[1][2] * j[2][0])
           + j[0][2] * (j[1][0] * j[2][1] - j[1][1] * j[2][0]))
    folding = int((det <= 0).sum())
    std = float(det.std()) if det.size else 0.0
    return det, folding, std


@dataclass
class EvalReport:
    """Per-label overlap/distance plus field-regularity statistics."""

    labels: dict
    folding_count: int
    jacobian_std: float
    runtime_s: float

    def mean_dice(self) -> float:
        return float(np.mean([row["dice"] for row in self.labels.values()]))

    def to_dict(self) -> dict:
        return {
            "labels": {str(k): dict(v) for k, v in sorted(self.labels.items())},
            "folding_count": self.folding_count,
            "jacobian_std": self.jacobian_std,
            "runtime_s": self.runtime_s,
        }

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)
            fh.write("\n")


def evaluate_pair(field: DisplacementField, moving_labels: LabelMask,
                  fixed_labels: LabelMask) -> EvalReport:
    """Warp the moving labels by the field and score them against the fixed
    ones; surface distances use the fixed labels' spacing."""
    t0 = time.perf_counter()
    if moving_labels.labels.shape != fixed_labels.labels.shape:
        raise ValueError(f"label shapes differ: {moving_labels.labels.shape} "
                         f"vs {fixed_labels.labels.shape}")
    warped = warp_labels(moving_labels, field)
    present = np.union1d(np.unique(moving_labels.labels), np.unique(fixed_labels.labels))
    rows = {}
    for label in (int(v) for v in present if v != 0):
        row = {"dice": dice(warped, fixed_labels, label)}
        has_both = bool((warped.labels == label).any()) and \
            bool((fixed_labels.labels == label).any())
        row["asd_mm"] = (asd(warped, fixed_labels, label, fixed_labels.spacing_mm)
                         if has_both else None)
        rows[label] = row
    _, folding, jstd = jacobian_stats(field)
    return EvalReport(labels=rows, folding_count=folding, jacobian_std=jstd,
                      runtime_s=time.perf_counter() - t0)
