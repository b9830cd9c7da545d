"""Similarity and regularity losses.

The similarity term is an L1 distance between modality-independent
self-similarity descriptors: for each offset r in a neighborhood R,

    Dp(x, r) = sum over |p|_inf <= patch_radius of (v(x+p) - v(x+r+p))^2

with out-of-bounds reads clamped to the border, V(x) the mean of Dp over R,
and descriptor channels exp(-Dp / (V + eps)) normalized so the largest
channel at each voxel is 1. The regularity term penalizes squared forward
differences of the displacement field. ``objective`` is the one place the
two are combined; training and ``total_loss`` both evaluate it.

Each term is one op that keeps only what its backward reads. The descriptor
keeps its box sums, its output, the scale V + eps and the argmax index; the
L1 term and the smoothness term keep nothing beyond their inputs. Each
backward rebuilds the differences from its input and replays the generic
graph's reversed records (replicate_pad, slice_spatial, sub, square,
box_sum3, mean_all) one offset or axis at a time, so every bit equals it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor4, accumulate, op
from .autodiff.ops import _box_sum_grad, _box_sum_valid, _fold_replicate_pad, _zero_padded
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


def _normalize(d, eps: float):
    """exp(-Dp/(V+eps)) of box sums d, max-normalized per voxel; also s = V + eps
    and the argmax index in the narrowest integer type, which _normalize_grad reads."""
    s = d.mean(axis=0, keepdims=True) + eps
    g = np.exp(-d / s)
    midx = g.argmax(axis=0)[None].astype(np.min_scalar_type(d.shape[0] - 1))
    return g / np.take_along_axis(g, midx, axis=0), s, midx


def _normalize_grad(gout, d, out, s, midx):
    """d's gradient from the gradient gout of _normalize's channels out."""
    gd = gout * out
    p = gd.sum(axis=0, keepdims=True)
    q = (gd * d).sum(axis=0, keepdims=True)
    dm = np.take_along_axis(d, midx, axis=0)
    gd = np.divide(np.negative(gd, out=gd), s, out=gd)
    np.put_along_axis(gd, midx, np.take_along_axis(gd, midx, axis=0) + p / s, axis=0)
    gd += (q - p * dm) / (d.shape[0] * s * s)
    return gd


@op
def _mind(x: Tensor4, cfg: MindConfig):
    """The descriptor of a one-channel node: replicate_pad, each offset's
    squared difference of two windows of the padded volume, box_sum3 and the
    normalization, as one op."""
    rho = cfg.patch_radius
    rmax = max(max(abs(c) for c in o) for o in cfg.offsets)
    n = rho + rmax
    ext = tuple(e + 2 * rho for e in x.data.shape[1:])
    windows = [(slice(None),) + tuple(slice(rmax + c, rmax + c + e) for c, e in zip(o, ext))
               for o in ((0, 0, 0),) + cfg.offsets]
    xp = np.pad(x.data, ((0, 0),) + ((n, n),) * 3, mode="edge")
    sq = np.empty((len(cfg.offsets),) + ext, dtype=xp.dtype)
    for i, win in enumerate(windows[1:]):
        df = xp[windows[0]] - xp[win]
        np.multiply(df, df, out=sq[i:i + 1])
    box = _box_sum_valid(sq, rho)
    out, s, midx = _normalize(box, cfg.eps)

    def bwd(gout):
        gbox = _normalize_grad(gout, box, out, s, midx)
        xp = np.pad(x.data, ((0, 0),) + ((n, n),) * 3, mode="edge")
        gxp = gcenter = None
        for i in reversed(range(len(cfg.offsets))):
            gdf = 2.0 * (xp[windows[0]] - xp[windows[i + 1]]) * _box_sum_grad(gbox[i:i + 1], rho)
            gcenter = gdf if gcenter is None else np.add(gcenter, gdf, out=gcenter)
            gx = _zero_padded(-gdf, xp, windows[i + 1])
            gxp = gx if gxp is None else np.add(gxp, gx, out=gxp)
        gxp += _zero_padded(gcenter, xp, windows[0])
        accumulate(x, _fold_replicate_pad(gxp, n), owned=True)
    return out, bwd


def mind_descriptor(v, cfg: MindConfig | None = None):
    """Descriptor channels for a normalized volume.

    Takes a Volume (returns an (|R|, D, H, W) array) or a Tensor4 node with
    one channel (returns a node on the active tape).
    """
    cfg = cfg or MindConfig()
    if isinstance(v, Volume):
        check_normalized(v.data, "descriptor input")
        return _mind(Tensor4(v.data[None]), cfg).data
    if v.data.shape[0] != 1:
        raise ValueError("mind_descriptor expects a single-channel tensor")
    check_normalized(v.data, "descriptor input")
    return _mind(v, cfg)


@op
def _l1_mean(desc: Tensor4, fixed: np.ndarray):
    """mean |desc - fixed| against a constant; the backward rebuilds the sign."""
    if desc.data.shape != fixed.shape:
        raise ValueError(f"descriptor shape mismatch: {desc.data.shape} vs {fixed.shape}")

    def bwd(g):
        diff = desc.data - fixed
        gm = np.full((), g / diff.size, dtype=diff.dtype)
        accumulate(desc, np.multiply(gm, np.sign(diff, out=diff), out=diff), owned=True)
    return np.asarray(np.abs(desc.data - fixed).mean()), bwd


def descriptor_loss_node(warped: Tensor4, fixed_desc: np.ndarray,
                         cfg: MindConfig | None) -> Tensor4:
    """Similarity loss node against a precomputed fixed-image descriptor."""
    return _l1_mean(mind_descriptor(warped, cfg), fixed_desc)


@op
def smoothness_loss(field: Tensor4, lam: float = 1.0, base: Tensor4 | None = None):
    """base + lam * the mean over interior voxels of the summed squared
    forward differences, as one op (lam * that mean without a base).

    All nine first partials of the displacement share one discretization
    with the Jacobian metric: forward differences with the last slice per
    axis excluded.
    """
    fd = field.data
    c, d, h, w = fd.shape
    if min(d, h, w) < 2:
        raise ValueError("smoothness_loss needs spatial dims >= 2")
    here = (slice(None), slice(0, d - 1), slice(0, h - 1), slice(0, w - 1))
    aheads = [here[:1 + a] + (slice(1, None),) + here[2 + a:] for a in range(3)]
    total = None
    for ahead in aheads:
        df = fd[ahead] - fd[here]
        total = df * df if total is None else total + df * df
    size = total.size
    term = np.asarray(total.mean()) * float(c) * float(lam)

    def bwd(g):
        if base is not None:
            accumulate(base, g)
        gm = np.full((), g * float(lam) * float(c) / size, dtype=fd.dtype)
        for ahead in reversed(aheads):
            gdf = 2.0 * (fd[ahead] - fd[here]) * gm
            for window, gw in ((here, -gdf), (ahead, gdf)):
                accumulate(field, _zero_padded(gw, fd, window), owned=True)
    return term if base is None else base.data + term, bwd


def objective(moving, phi: Tensor4, fixed_desc: np.ndarray, lam: float,
              cfg: MindConfig | None = None) -> Tensor4:
    """Registration objective node: descriptor L1 after warping plus lam * smoothness.

    ``moving`` is the (1, D, H, W) image array and ``phi`` the field node; the
    smoothness term stays off the graph at lam = 0.
    """
    loss = descriptor_loss_node(warp_tensor(moving, phi), fixed_desc, cfg)
    if lam > 0:
        loss = smoothness_loss(phi, lam, loss)
    return loss


def total_loss(moving: Volume, fixed: Volume, field, w: LossWeights) -> float:
    """The objective's value for a DisplacementField, with the default descriptor."""
    loss = objective(moving.data[None], Tensor4(field.data), mind_descriptor(fixed), w.lam)
    return float(loss.data)
