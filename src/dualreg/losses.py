"""Similarity and regularity losses.

The similarity term is an L1 distance between modality-independent
self-similarity descriptors: for each offset r in a neighborhood R,

    Dp(x, r) = sum over |p|_inf <= patch_radius of (v(x+p) - v(x+r+p))^2

with out-of-bounds reads clamped to the border, V(x) the mean of Dp over R,
and descriptor channels exp(-Dp / (V + eps)) normalized so the largest
channel at each voxel is 1. The regularity term penalizes squared forward
differences of the displacement field. ``objective`` is the one place the
two are combined; training and ``total_loss`` both evaluate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Tensor4,
    abs_val,
    add,
    accumulate,
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
from .stn import warp_tensor
from .volgrid import Volume, check_normalized

_FACE_NEIGHBORS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


@dataclass(frozen=True)
class MindConfig:
    """Self-similarity descriptor settings."""

    offsets: tuple = _FACE_NEIGHBORS
    patch_radius: int = 1
    eps: float = 1e-6

    def __post_init__(self):
        offs = tuple(tuple(int(c) for c in o) for o in self.offsets)
        if len(offs) < 2:
            raise ValueError("MindConfig needs at least two offsets (the variance "
                             "estimate is a mean over the offset set)")
        for o in offs:
            if len(o) != 3 or o == (0, 0, 0):
                raise ValueError(f"bad descriptor offset {o}")
        if len(set(offs)) != len(offs):
            raise ValueError("descriptor offsets must be unique")
        if self.patch_radius < 0:
            raise ValueError("patch_radius must be >= 0")
        if self.eps <= 0:
            raise ValueError("eps must be > 0")
        object.__setattr__(self, "offsets", offs)


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights of the registration objective."""

    lam: float

    def __post_init__(self):
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")


@op
def _self_similarity_normalize(dp: Tensor4, eps: float):
    """exp(-Dp/(V+eps)) with per-voxel max normalization, as one fused op.

    Fusing keeps the channel mean, the quotient, and the max-normalization
    out of the generic op set (they would need channel broadcasting).
    """
    d = dp.data
    k = d.shape[0]
    s = d.mean(axis=0, keepdims=True) + eps
    g = np.exp(-d / s)
    midx = g.argmax(axis=0)[None]
    m = np.take_along_axis(g, midx, axis=0)
    out_data = g / m

    def bwd(gout):
        p = (gout * out_data).sum(axis=0, keepdims=True)
        q = (gout * out_data * d).sum(axis=0, keepdims=True)
        dm = np.take_along_axis(d, midx, axis=0)
        gd = -(gout * out_data) / s
        np.put_along_axis(gd, midx, np.take_along_axis(gd, midx, axis=0) + p / s, axis=0)
        gd += (q - p * dm) / (k * s * s)
        accumulate(dp, gd, owned=True)
    return out_data, bwd


def _descriptor_graph(x: Tensor4, cfg: MindConfig) -> Tensor4:
    rho = cfg.patch_radius
    rmax = max(max(abs(c) for c in o) for o in cfg.offsets)
    _, d, h, w = x.data.shape
    ext = (d + 2 * rho, h + 2 * rho, w + 2 * rho)
    xp = replicate_pad(x, rho + rmax)
    center = slice_spatial(xp, (rmax, rmax, rmax), ext)
    sq = [square(sub(center, slice_spatial(xp, (rmax + o[0], rmax + o[1], rmax + o[2]), ext)))
          for o in cfg.offsets]
    return _self_similarity_normalize(box_sum3(concat_channels(*sq), rho), cfg.eps)


def mind_descriptor(v, cfg: MindConfig | None = None):
    """Descriptor channels for a normalized volume.

    Takes a Volume (returns an (|R|, D, H, W) array) or a Tensor4 node with
    one channel (returns a node on the active tape).
    """
    cfg = cfg or MindConfig()
    if isinstance(v, Volume):
        check_normalized(v.data, "descriptor input")
        return _descriptor_graph(Tensor4(v.data[None]), cfg).data
    if v.data.shape[0] != 1:
        raise ValueError("mind_descriptor expects a single-channel tensor")
    check_normalized(v.data, "descriptor input")
    return _descriptor_graph(v, cfg)


def descriptor_loss_node(warped: Tensor4, fixed_desc: np.ndarray,
                         cfg: MindConfig | None) -> Tensor4:
    """Similarity loss node against a precomputed fixed-image descriptor."""
    desc_w = mind_descriptor(warped, cfg)
    return mean_all(abs_val(sub(desc_w, Tensor4(fixed_desc))))


def smoothness_loss(field: Tensor4) -> Tensor4:
    """Mean over interior voxels of the summed squared forward differences.

    All nine first partials of the displacement share one discretization
    with the Jacobian metric: forward differences with the last slice per
    axis excluded. The result is a node on the active tape.
    """
    _, d, h, w = field.data.shape
    if min(d, h, w) < 2:
        raise ValueError("smoothness_loss needs spatial dims >= 2")
    interior = (d - 1, h - 1, w - 1)
    total = None
    for axis in range(3):
        start = [0, 0, 0]
        start[axis] = 1
        ahead = slice_spatial(field, tuple(start), interior)
        here = slice_spatial(field, (0, 0, 0), interior)
        sq = square(sub(ahead, here))
        total = sq if total is None else add(total, sq)
    return scale(mean_all(total), float(field.data.shape[0]))


def objective(moving, phi: Tensor4, fixed_desc: np.ndarray, lam: float,
              cfg: MindConfig | None = None) -> Tensor4:
    """Registration objective node: descriptor L1 after warping plus lam * smoothness.

    ``moving`` is the (1, D, H, W) image array and ``phi`` the field node; the
    smoothness term stays off the graph at lam = 0.
    """
    loss = descriptor_loss_node(warp_tensor(moving, phi), fixed_desc, cfg)
    if lam > 0:
        loss = add(loss, scale(smoothness_loss(phi), lam))
    return loss


def total_loss(moving: Volume, fixed: Volume, field, w: LossWeights) -> float:
    """The objective's value for a DisplacementField, with the default descriptor."""
    loss = objective(moving.data[None], Tensor4(field.data), mind_descriptor(fixed), w.lam)
    return float(loss.data)
