"""Differentiable warping of volumes by dense displacement fields.

Sampling at output voxel p reads the source at p + field[:, p] with
trilinear interpolation; coordinates are clamped to the valid range, which
replicates the border. The backward pass produces gradients with respect to
the field only. The source image is an input, not a trainable quantity, so
the tape never needs image gradients and warping stays a cheap leaf op.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor4, accumulate, op
from .volgrid import DisplacementField, LabelMask, Volume


def _check_field(fdata, spatial):
    if fdata.shape != (3,) + tuple(spatial):
        raise ValueError(f"field shape {fdata.shape} does not match image spatial {tuple(spatial)}")
    if not np.isfinite(fdata).all():
        raise ValueError("warp: field contains non-finite values")


def _abs_coords(fdata, spatial):
    d, h, w = spatial
    grid = np.meshgrid(np.arange(d), np.arange(h), np.arange(w), indexing="ij")
    raw = [fdata[a] + grid[a] for a in range(3)]
    limits = (d - 1.0, h - 1.0, w - 1.0)
    clamped = [np.clip(raw[a], 0.0, limits[a]) for a in range(3)]
    return raw, clamped, limits


def _gather_corners(img, clamped):
    c = img.shape[0]
    d, h, w = img.shape[1:]
    iz = np.minimum(np.floor(clamped[0]).astype(np.intp), max(d - 2, 0))
    iy = np.minimum(np.floor(clamped[1]).astype(np.intp), max(h - 2, 0))
    ix = np.minimum(np.floor(clamped[2]).astype(np.intp), max(w - 2, 0))
    tz = (clamped[0] - iz).reshape(-1)
    ty = (clamped[1] - iy).reshape(-1)
    tx = (clamped[2] - ix).reshape(-1)
    flat = img.reshape(c, -1)
    base = ((iz * h + iy) * w + ix).reshape(-1)
    sz, sy, sx = h * w, w, 1
    if d == 1:
        sz = 0
    if h == 1:
        sy = 0
    if w == 1:
        sx = 0
    corners = {}
    for bz in (0, 1):
        for by in (0, 1):
            for bx in (0, 1):
                corners[(bz, by, bx)] = flat[:, base + bz * sz + by * sy + bx * sx]
    return corners, (tz, ty, tx)


def _interp(corners, frac):
    tz, ty, tx = frac
    wz = (1.0 - tz, tz)
    wy = (1.0 - ty, ty)
    wx = (1.0 - tx, tx)
    out = None
    for (bz, by, bx), v in corners.items():
        term = v * (wz[bz] * wy[by] * wx[bx])
        out = term if out is None else out + term
    return out


def _coord_grads(corners, frac):
    """d(sample)/d(coordinate) per axis, shape (C, N) each."""
    tz, ty, tx = frac
    dz = ((corners[(1, 0, 0)] - corners[(0, 0, 0)]) * ((1 - ty) * (1 - tx))
          + (corners[(1, 1, 0)] - corners[(0, 1, 0)]) * (ty * (1 - tx))
          + (corners[(1, 0, 1)] - corners[(0, 0, 1)]) * ((1 - ty) * tx)
          + (corners[(1, 1, 1)] - corners[(0, 1, 1)]) * (ty * tx))
    dy = ((corners[(0, 1, 0)] - corners[(0, 0, 0)]) * ((1 - tz) * (1 - tx))
          + (corners[(1, 1, 0)] - corners[(1, 0, 0)]) * (tz * (1 - tx))
          + (corners[(0, 1, 1)] - corners[(0, 0, 1)]) * ((1 - tz) * tx)
          + (corners[(1, 1, 1)] - corners[(1, 0, 1)]) * (tz * tx))
    dx = ((corners[(0, 0, 1)] - corners[(0, 0, 0)]) * ((1 - tz) * (1 - ty))
          + (corners[(1, 0, 1)] - corners[(1, 0, 0)]) * (tz * (1 - ty))
          + (corners[(0, 1, 1)] - corners[(0, 1, 0)]) * ((1 - tz) * ty)
          + (corners[(1, 1, 1)] - corners[(1, 1, 0)]) * (tz * ty))
    return dz, dy, dx


@op
def warp_tensor(image: np.ndarray, field: Tensor4):
    """Warp a constant (C, D, H, W) image by a field node; grads flow to the field.

    Coordinates and interpolation weights are formed in float64; the result
    is cast back to the image's (floating) dtype.
    """
    image = np.asarray(image)
    if image.ndim != 4:
        raise ValueError(f"warp_tensor image must be (C, D, H, W), got {image.shape}")
    spatial = image.shape[1:]
    fdata = field.data
    _check_field(fdata, spatial)
    raw, clamped, limits = _abs_coords(fdata, spatial)
    corners, frac = _gather_corners(image, clamped)
    out = _interp(corners, frac).astype(np.result_type(image.dtype, np.float32), copy=False)

    def bwd(g):
        g2 = g.reshape(g.shape[0], -1)
        dz, dy, dx = _coord_grads(corners, frac)
        gf = np.empty_like(fdata)
        for a, dv in enumerate((dz, dy, dx)):
            inside = ((raw[a] >= 0.0) & (raw[a] <= limits[a])).reshape(-1)
            gf[a] = ((g2 * dv).sum(axis=0) * inside).reshape(spatial)
        accumulate(field, gf, owned=True)
    return out.reshape((image.shape[0],) + spatial), bwd


def warp(v, field: DisplacementField):
    """Warp a Volume (or raw (C, D, H, W) array) by a DisplacementField."""
    if not isinstance(field, DisplacementField):
        raise TypeError("warp expects a DisplacementField; warp_tensor takes a field node")
    img = v.data[None] if isinstance(v, Volume) else np.asarray(v)
    out = warp_tensor(img, Tensor4(field.data)).data
    return Volume(out[0], v.spacing_mm) if isinstance(v, Volume) else out


def warp_labels(m: LabelMask, field: DisplacementField) -> LabelMask:
    """Nearest-neighbor warp for label volumes; never invents new labels."""
    if not isinstance(field, DisplacementField):
        raise TypeError("warp_labels expects a DisplacementField")
    spatial = m.labels.shape
    _check_field(field.data, spatial)
    _, clamped, _ = _abs_coords(field.data.astype(np.float64), spatial)
    d, h, w = spatial
    iz = np.clip(np.rint(clamped[0]).astype(np.intp), 0, d - 1)
    iy = np.clip(np.rint(clamped[1]).astype(np.intp), 0, h - 1)
    ix = np.clip(np.rint(clamped[2]).astype(np.intp), 0, w - 1)
    out = m.labels[iz, iy, ix]
    return LabelMask(out, m.spacing_mm)
