"""Differentiable primitives over (C, D, H, W) tensors.

Every op is declared with ``@op``: it validates shapes eagerly, computes
with plain numpy, and returns its output with a backward closure.
Convolution is implemented as one GEMM per kernel offset against a
zero-padded input; that keeps peak memory at one padded copy per site and
is deterministic (fixed accumulation order).
"""

from __future__ import annotations

import numpy as np

from .engine import Parameter, Tensor4, accumulate, op


def _check4(x, name="x"):
    if not isinstance(x, Tensor4) or x.data.ndim != 4:
        raise ValueError(f"{name} must be a 4-d Tensor4")


# ---------------------------------------------------------------------------
# convolution

@op
def conv3d(x: Tensor4, weight: Parameter, bias: Parameter):
    """Stride-1 3-D convolution with 'same' zero padding.

    weight is (C_out, C_in, kd, kh, kw) with every kernel extent odd, so the
    output spatial shape equals the input's. bias is (C_out,).
    """
    _check4(x)
    w = weight.value
    b = bias.value
    if w.ndim != 5:
        raise ValueError(f"conv3d weight must be 5-d, got shape {w.shape}")
    cin, d, h, wd = x.data.shape
    cout, wcin, kd, kh, kw = w.shape
    if wcin != cin:
        raise ValueError(f"conv3d channel mismatch: input has {cin}, weight expects {wcin}")
    if kd % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv3d kernel extents must be odd, got {(kd, kh, kw)}")
    if b.shape != (cout,):
        raise ValueError(f"conv3d bias must have shape ({cout},), got {b.shape}")

    pd, ph, pw = kd // 2, kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (pd, pd), (ph, ph), (pw, pw)))
    nvox = d * h * wd
    # per-offset (C_out, C_in) weight slabs, contiguous for the GEMM loop
    wk = np.ascontiguousarray(w.reshape(cout, cin, -1).transpose(2, 0, 1))

    out2 = np.empty((cout, nvox), dtype=xp.dtype)
    out2[:] = b.astype(xp.dtype)[:, None]
    tmp = np.empty((cout, nvox), dtype=xp.dtype)
    pos = 0
    for i in range(kd):
        for j in range(kh):
            for k in range(kw):
                xs = xp[:, i:i + d, j:j + h, k:k + wd].reshape(cin, nvox)
                np.matmul(wk[pos], xs, out=tmp)
                out2 += tmp
                pos += 1

    def bwd(g):
        g2 = np.ascontiguousarray(g.reshape(cout, nvox))
        bias.grad += g.sum(axis=(1, 2, 3))
        gw = np.empty_like(w)
        gxp = np.zeros_like(xp)
        pos = 0
        for i in range(kd):
            for j in range(kh):
                for k in range(kw):
                    sl = (slice(None), slice(i, i + d), slice(j, j + h), slice(k, k + wd))
                    xs = xp[sl].reshape(cin, nvox)
                    gw[:, :, i, j, k] = g2 @ xs.T
                    gxp[sl] += (wk[pos].T @ g2).reshape(cin, d, h, wd)
                    pos += 1
        weight.grad += gw
        gx = np.ascontiguousarray(gxp[:, pd:pd + d, ph:ph + h, pw:pw + wd])
        accumulate(x, gx, owned=True)
    return out2.reshape(cout, d, h, wd), bwd


# ---------------------------------------------------------------------------
# pointwise

@op
def leaky_relu(x: Tensor4, slope: float = 0.2):
    """max(x, slope*x); the backward pass uses slope at x = 0."""
    if not 0.0 < slope < 1.0:
        raise ValueError(f"leaky_relu slope must be in (0, 1), got {slope}")
    _check4(x)
    pos = x.data > 0

    def bwd(g):
        accumulate(x, np.where(pos, g, g * slope), owned=True)
    return np.where(pos, x.data, x.data * slope), bwd


@op
def add(a: Tensor4, b: Tensor4):
    if a.data.shape != b.data.shape:
        raise ValueError(f"add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        accumulate(a, g)
        accumulate(b, g)
    return a.data + b.data, bwd


@op
def sub(a: Tensor4, b: Tensor4):
    if a.data.shape != b.data.shape:
        raise ValueError(f"sub shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        accumulate(a, g)
        accumulate(b, -g, owned=True)
    return a.data - b.data, bwd


@op
def mul(a: Tensor4, b: Tensor4):
    if a.data.shape != b.data.shape:
        raise ValueError(f"mul shape mismatch: {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        accumulate(a, g * b.data, owned=True)
        accumulate(b, g * a.data, owned=True)
    return a.data * b.data, bwd


@op
def square(x: Tensor4):
    def bwd(g):
        accumulate(x, 2.0 * x.data * g, owned=True)
    return x.data * x.data, bwd


@op
def scale(x: Tensor4, c: float):
    """Multiply by a python scalar constant."""
    c = float(c)

    def bwd(g):
        accumulate(x, g * c, owned=True)
    return x.data * c, bwd


@op
def abs_val(x: Tensor4):
    """|x| with subgradient 0 at x = 0."""
    def bwd(g):
        accumulate(x, g * np.sign(x.data), owned=True)
    return np.abs(x.data), bwd


# ---------------------------------------------------------------------------
# reductions

@op
def mean_all(x: Tensor4):
    def bwd(g):
        accumulate(x, np.full(x.data.shape, g / x.data.size, dtype=x.data.dtype), owned=True)
    return np.asarray(x.data.mean()), bwd


@op
def sum_all(x: Tensor4):
    def bwd(g):
        accumulate(x, np.full(x.data.shape, g, dtype=x.data.dtype), owned=True)
    return np.asarray(x.data.sum()), bwd


# ---------------------------------------------------------------------------
# structure

@op
def concat_channels(a: Tensor4, b: Tensor4):
    if a.data.shape[1:] != b.data.shape[1:]:
        raise ValueError(f"concat_channels spatial mismatch: {a.data.shape} vs {b.data.shape}")
    ca = a.data.shape[0]

    def bwd(g):
        accumulate(a, np.ascontiguousarray(g[:ca]), owned=True)
        accumulate(b, np.ascontiguousarray(g[ca:]), owned=True)
    return np.concatenate([a.data, b.data], axis=0), bwd


@op
def max_pool2(x: Tensor4):
    """Non-overlapping 2x2x2 max pooling; gradient routes to the argmax.

    Ties go to the lowest linear index (numpy argmax picks the first hit).
    """
    _check4(x)
    c, d, h, w = x.data.shape
    if d % 2 or h % 2 or w % 2:
        raise ValueError(f"max_pool2 needs even spatial dims, got {(d, h, w)}")
    d2, h2, w2 = d // 2, h // 2, w // 2
    win = (x.data.reshape(c, d2, 2, h2, 2, w2, 2)
                 .transpose(0, 1, 3, 5, 2, 4, 6)
                 .reshape(c, d2, h2, w2, 8))
    idx = win.argmax(axis=-1)

    def bwd(g):
        gwin = np.zeros((c, d2, h2, w2, 8), dtype=g.dtype)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = (gwin.reshape(c, d2, h2, w2, 2, 2, 2)
                   .transpose(0, 1, 4, 2, 5, 3, 6)
                   .reshape(c, d, h, w))
        accumulate(x, np.ascontiguousarray(gx), owned=True)
    return np.take_along_axis(win, idx[..., None], axis=-1)[..., 0], bwd


_UP_MATRICES: dict = {}


def _upsample_matrix(n: int, dtype) -> np.ndarray:
    """(2n, n) trilinear interpolation weights for one axis.

    Output index i samples the input at (i + 0.5)/2 - 0.5, clamped to the
    edges; the backward pass is the exact transpose.
    """
    key = (n, np.dtype(dtype).str)
    m = _UP_MATRICES.get(key)
    if m is None:
        i = np.arange(2 * n)
        coord = np.clip((i + 0.5) / 2.0 - 0.5, 0.0, n - 1.0)
        f = np.minimum(np.floor(coord).astype(int), max(n - 2, 0))
        t = coord - f
        m = np.zeros((2 * n, n), dtype=dtype)
        m[i, f] += 1.0 - t
        m[i, np.minimum(f + 1, n - 1)] += t
        _UP_MATRICES[key] = m
    return m


def _apply_axis(arr, mat, axis):
    out = np.tensordot(mat, arr, axes=([1], [axis]))
    return np.ascontiguousarray(np.moveaxis(out, 0, axis))


@op
def upsample_trilinear2(x: Tensor4):
    """Double every spatial dim with half-voxel-center trilinear weights."""
    _check4(x)
    data = x.data
    dims = data.shape[1:]
    for axis in (1, 2, 3):
        data = _apply_axis(data, _upsample_matrix(dims[axis - 1], data.dtype), axis)

    def bwd(g):
        for axis in (3, 2, 1):
            g = _apply_axis(g, _upsample_matrix(dims[axis - 1], g.dtype).T, axis)
        accumulate(x, g, owned=True)
    return data, bwd


@op
def replicate_pad(x: Tensor4, n: int):
    """Edge-replicate all three spatial axes by n voxels."""
    _check4(x)
    if n < 0:
        raise ValueError("replicate_pad width must be >= 0")

    def bwd(g):
        # fold each axis in turn: pad copies collapse onto the edge voxel
        for axis in (1, 2, 3):
            lo = g.take(range(n), axis=axis).sum(axis=axis, keepdims=True)
            hi = g.take(range(g.shape[axis] - n, g.shape[axis]), axis=axis).sum(axis=axis, keepdims=True)
            g = np.ascontiguousarray(g.take(range(n, g.shape[axis] - n), axis=axis))
            sl_lo = [slice(None)] * 4
            sl_lo[axis] = slice(0, 1)
            sl_hi = [slice(None)] * 4
            sl_hi[axis] = slice(g.shape[axis] - 1, g.shape[axis])
            g[tuple(sl_lo)] += lo
            g[tuple(sl_hi)] += hi
        accumulate(x, g, owned=True)
    return np.pad(x.data, ((0, 0), (n, n), (n, n), (n, n)), mode="edge"), bwd


@op
def slice_spatial(x: Tensor4, start, size):
    """Static spatial crop; backward zero-pads the gradient back in place."""
    _check4(x)
    sd, sh, sw = start
    nd, nh, nw = size
    _, d, h, w = x.data.shape
    if sd < 0 or sh < 0 or sw < 0 or sd + nd > d or sh + nh > h or sw + nw > w:
        raise ValueError(f"slice_spatial window {start}+{size} outside {(d, h, w)}")

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[:, sd:sd + nd, sh:sh + nh, sw:sw + nw] = g
        accumulate(x, gx, owned=True)
    return np.ascontiguousarray(x.data[:, sd:sd + nd, sh:sh + nh, sw:sw + nw]), bwd


def _box_sum_valid(data, radius):
    k = 2 * radius + 1
    for axis in (1, 2, 3):
        n = data.shape[axis] - k + 1
        if n < 1:
            raise ValueError("box_sum3 window larger than input")
        acc = data.take(range(0, n), axis=axis).copy()
        for off in range(1, k):
            acc += data.take(range(off, off + n), axis=axis)
        data = acc
    return data


@op
def box_sum3(x: Tensor4, radius: int = 1):
    """Valid-mode (2r+1)^3 box sum; spatial dims shrink by 2r per axis."""
    _check4(x)
    if radius < 0:
        raise ValueError("box_sum3 radius must be >= 0")

    def bwd(g):
        gp = np.pad(g, ((0, 0),) + ((2 * radius, 2 * radius),) * 3)
        accumulate(x, _box_sum_valid(gp, radius), owned=True)
    return _box_sum_valid(x.data, radius), bwd
