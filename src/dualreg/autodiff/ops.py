"""Differentiable primitives over (C, D, H, W) tensors.

Every op is declared with ``@op``: it validates shapes eagerly, computes
with plain numpy, and returns its output with a backward closure.
Convolution is one GEMM per kernel offset, run one D-slab at a time: a slab
holds as many D-planes as fit ``_SLAB_BYTES`` of the wider channel stack. Its
input planes are copied once, zero-padded, into a flat buffer in which every
offset is a strided view, so the GEMMs read their operand in place and the
operand, product and accumulator stay in L2. No padded copy of the whole
volume is made or kept for the backward pass. The weight gradient runs in
the input gradient's slab loop: each offset's strided view feeds a second
GEMM, so its sum over voxels adds up slab by slab.

The memory-bound ops make no transposed copies. max_pool2 is three separable
pairwise maxima over strided views (W, then H, then D), whose tie and NaN
rule is numpy argmax's first hit; its backward recomputes the window choice
from the input and the output instead of storing an index.
upsample_trilinear2 is one matmul per axis on reshaped views. The network's
LeakyReLUs run in conv3d's slab loop and its skip-adds in place in
upsample_trilinear2, bit for bit as leaky_relu and add, so the tape never
holds the map between the two.
"""

from __future__ import annotations

import numpy as np

from .engine import Parameter, Tensor4, accumulate, op


def _check4(x):
    if not isinstance(x, Tensor4) or x.data.ndim != 4:
        raise ValueError("x must be a 4-d Tensor4")


# ---------------------------------------------------------------------------
# convolution

# bytes of the wider operand (C_in or C_out padded planes) that one D-slab of
# conv3d streams per offset; slabs of this size keep each GEMM's operands in L2
_SLAB_BYTES = 160 * 1024


def _flat_conv(x, wk, kernel, start, sign, dual=None, slope=None):
    """The sum over kernel offsets of wk[pos] times x shifted by sign * offset.

    x is (C_in, D, H, W) and wk (offsets, C_out, C_in), in ``np.ndindex``
    order of the kernel. Each D-slab's input planes, zero-padded in H and W,
    are copied once into a flat buffer that also holds pd zero-padded planes
    on each side of the slab and a zero margin at each end. A shift by
    (i, j, k) is then a shift of the flat index, so each offset's GEMM reads
    a strided 2-d view of the buffer, which BLAS takes with no copy. The
    products cover the whole padded plane, whose border is cropped away. Each
    voxel's sum starts at ``start`` and adds the offsets in order.

    Returns the sum and, given ``dual`` (C_out, D, H, W), the gradient of
    sum(dual * sum) with respect to wk, else None. Each slab of dual, copied
    into a padded plane with a zero border, meets each offset's view in a
    second GEMM while the view is in cache; the slabs' products add up per
    offset.
    """
    cin, d, h, w = x.shape
    cout = wk.shape[1]
    pd, ph, pw = (k // 2 for k in kernel)
    hp, wp = h + 2 * ph, w + 2 * pw
    margin = ph * wp + pw
    shifts = [margin + pd * hp * wp + sign * (((i - pd) * hp + j - ph) * wp + k - pw)
              for i, j, k in np.ndindex(*kernel)]
    depth = max(1, _SLAB_BYTES // (max(cin, cout) * hp * wp * x.itemsize))
    n_planes = depth + 2 * pd
    flat = np.zeros((cin, n_planes * hp * wp + 2 * margin), dtype=x.dtype)
    planes = flat[:, margin:margin + n_planes * hp * wp].reshape(cin, n_planes, hp, wp)
    out = np.empty((cout, d, h, w), dtype=x.dtype)
    acc, tmp = (np.empty(cout * depth * hp * wp, dtype=x.dtype) for _ in range(2))
    gwk = None
    if dual is not None:
        dual_planes = np.zeros((cout, depth, hp, wp), dtype=x.dtype)
        gwk = np.zeros((len(shifts), cout, cin), dtype=x.dtype)
    for z0 in range(0, d, depth):
        z1 = min(z0 + depth, d)
        lo, hi = max(z0 - pd, 0), min(z1 + pd, d)
        planes[:, :lo - z0 + pd] = 0
        planes[:, lo - z0 + pd:hi - z0 + pd, ph:ph + h, pw:pw + w] = x[:, lo:hi]
        planes[:, hi - z0 + pd:z1 - z0 + 2 * pd] = 0
        n = (z1 - z0) * hp * wp
        a, t = acc[:cout * n].reshape(cout, n), tmp[:cout * n].reshape(cout, n)
        if dual is not None:
            dual_planes[:, :z1 - z0, ph:ph + h, pw:pw + w] = dual[:, z0:z1]
            ds = dual_planes.reshape(cout, -1)[:, :n]
        a[:] = start
        for pos, s in enumerate(shifts):
            v = flat[:, s:s + n]
            np.matmul(wk[pos], v, out=t)
            a += t
            if dual is not None:
                gwk[pos] += ds @ v.T
        if slope is not None:  # leaky_relu's expression, on the slab before the crop
            a = np.maximum(a, np.multiply(a, slope, out=t), out=t)
        out[:, z0:z1] = a.reshape(cout, z1 - z0, hp, wp)[:, :, ph:ph + h, pw:pw + w]
    return out, gwk


@op
def conv3d(x: Tensor4, weight: Parameter, bias: Parameter, slope=None):
    """Stride-1 3-D convolution with 'same' zero padding, then LeakyReLU given slope.

    weight is (C_out, C_in, kd, kh, kw) with every kernel extent odd, so the
    output spatial shape equals the input's. bias is (C_out,). ``slope``
    (SLOPE, or None) applies leaky_relu's expression to each slab in the
    loop, and the backward masks g off the stored output as leaky_relu does.

    The forward pass and the input gradient are one slab loop,
    ``_flat_conv``: the forward adds weight times the shifted input to the
    bias, and the input gradient adds the transposed weight (a view, never a
    copy) times the output gradient, shifted the other way, to zero. Both
    add the offsets in ``np.ndindex`` order, and the input gradient also
    adds the padding's weight.T @ 0 = +0 terms, which change no finite
    value. The weight gradient comes out of the input gradient's loop: at
    offset o, the view that holds g shifted by -o meets x's slab, since the
    sum over p of x[p] g[p - o] is the sum over q of g[q] x[q + o].
    """
    _check4(x)
    w = weight.value
    b = bias.value
    if w.ndim != 5:
        raise ValueError(f"conv3d weight must be 5-d, got shape {w.shape}")
    cin = x.data.shape[0]
    cout, wcin, kd, kh, kw = w.shape
    if wcin != cin:
        raise ValueError(f"conv3d channel mismatch: input has {cin}, weight expects {wcin}")
    if kd % 2 == 0 or kh % 2 == 0 or kw % 2 == 0:
        raise ValueError(f"conv3d kernel extents must be odd, got {(kd, kh, kw)}")
    if b.shape != (cout,):
        raise ValueError(f"conv3d bias must have shape ({cout},), got {b.shape}")

    kernel = (kd, kh, kw)
    # per-offset (C_out, C_in) weight slabs, contiguous for the GEMM loop
    wk = np.ascontiguousarray(w.reshape(cout, cin, -1).transpose(2, 0, 1))
    out, _ = _flat_conv(x.data, wk, kernel, b.astype(x.data.dtype)[:, None], 1, slope=slope)

    def bwd(g):
        g = g if slope is None else np.where(out > 0, g, g * slope)
        bias.grad += g.sum(axis=(1, 2, 3))
        gx, gwk = _flat_conv(g, wk.transpose(0, 2, 1), kernel, 0, -1, dual=x.data)
        weight.grad += gwk.transpose(2, 1, 0).reshape(w.shape)
        accumulate(x, gx, owned=True)
    return out, bwd


# ---------------------------------------------------------------------------
# pointwise

SLOPE = 0.2


@op
def leaky_relu(x: Tensor4):
    """max(x, SLOPE*x); the backward pass uses SLOPE at x = 0.

    The backward mask is read off the output: with SLOPE in (0, 1), y > 0
    exactly where x > 0 (NaN and -0 included), so no mask is stored.
    """
    _check4(x)
    y = x.data * SLOPE
    np.maximum(x.data, y, out=y)  # ties (+-0, +-inf) return y, as x * SLOPE

    def bwd(g):
        accumulate(x, np.where(y > 0, g, g * SLOPE), owned=True)
    return y, bwd


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
def concat_channels(*xs: Tensor4):
    """Stack any number of inputs with one spatial shape along the channels."""
    for x in xs[1:]:
        if x.data.shape[1:] != xs[0].data.shape[1:]:
            raise ValueError(f"concat_channels spatial mismatch: {xs[0].data.shape} vs {x.data.shape}")
    cuts = np.cumsum([0] + [x.data.shape[0] for x in xs]).tolist()

    def bwd(g):
        for x, lo, hi in zip(xs, cuts, cuts[1:]):
            accumulate(x, np.ascontiguousarray(g[lo:hi]), owned=True)
    return np.concatenate([x.data for x in xs], axis=0), bwd


def _pair(axis, k):
    """Index of the k-th element (0 or 1) of every pair along a spatial axis."""
    index = [slice(None)] * 4
    index[axis] = slice(k, None, 2)
    return tuple(index)


def _pair_max(a, axis):
    # np.maximum returns its second operand when the two compare equal, so the
    # even element wins a tie, +-0 included; a NaN in either propagates
    return np.maximum(a[_pair(axis, 1)], a[_pair(axis, 0)])


def _route_pair_max(a, m, g, axis):
    """The gradient of a from the gradient g of m = _pair_max(a, axis).

    g goes to the even element where it is m's value (== m, or NaN), else to
    the odd one; the other gets +0. The choice selects g's bits by masking,
    which keeps -0, inf and NaN in g exact and takes no branch per element.
    """
    even = a[_pair(axis, 0)]
    first = np.isnan(even)
    first |= np.equal(even, m)
    bits = g.view(f"u{g.itemsize}")
    mask = np.negative(first, dtype=bits.dtype)  # all ones where the even element wins
    ga = np.empty(a.shape, dtype=g.dtype)
    gbits = ga.view(bits.dtype)
    np.bitwise_and(bits, mask, out=gbits[_pair(axis, 0)])
    np.bitwise_xor(bits, gbits[_pair(axis, 0)], out=gbits[_pair(axis, 1)])
    return ga


@op
def max_pool2(x: Tensor4):
    """Non-overlapping 2x2x2 max pooling as three separable pairwise maxima.

    The maxima run along W, then H, then D, over strided views. Each keeps
    the even element on a tie and propagates NaN, so the value is the first
    hit in (dz, dy, dx) order of the window's maximum (NaN ranks highest):
    numpy argmax's pick, including the sign of a zero. The backward pass
    keeps no index: it recomputes the W and H maxima from the input and
    routes the gradient back through D, H and W to that same first hit, the
    first position whose value == y, or is NaN where y is NaN.
    """
    _check4(x)
    _, d, h, w = x.data.shape
    if d % 2 or h % 2 or w % 2:
        raise ValueError(f"max_pool2 needs even spatial dims, got {(d, h, w)}")
    y = _pair_max(_pair_max(_pair_max(x.data, 3), 2), 1)

    def bwd(g):
        max_w = _pair_max(x.data, 3)
        max_wh = _pair_max(max_w, 2)
        g_wh = _route_pair_max(max_wh, y, g, 1)
        g_w = _route_pair_max(max_w, max_wh, g_wh, 2)
        accumulate(x, _route_pair_max(x.data, max_w, g_w, 3), owned=True)
    return y, bwd


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


@op
def upsample_trilinear2(x: Tensor4, skip: Tensor4 = None, skip_first: bool = False):
    """Double every spatial dim with half-voxel-center trilinear weights; add skip if given.

    One matmul per axis on reshaped views, D then H then W, and the
    transposes in reverse for the backward pass. Its W step multiplies from
    the left on a transposed view: from the right, OpenBLAS rounds some f64
    gradients (at n = 12) unlike a tensordot along W.

    ``skip`` is added in place as add does it, bit for bit: skip + up(x) if
    ``skip_first`` (the order picks a NaN's bits), else up(x) + skip; the
    backward hands g to skip first.
    """
    _check4(x)
    c, d, h, w = x.data.shape
    if skip is not None and skip.data.shape != (c, 2 * d, 2 * h, 2 * w):
        raise ValueError(f"upsample_trilinear2 skip-add shape mismatch: {skip.data.shape}")
    md, mh, mw = (_upsample_matrix(n, x.data.dtype) for n in (d, h, w))
    a = md @ x.data.reshape(c, d, h * w)
    a = mh @ a.reshape(c * 2 * d, h, w)
    y = (a.reshape(-1, w) @ mw.T).reshape(c, 2 * d, 2 * h, 2 * w)
    if skip is not None:
        np.add(*((skip.data, y) if skip_first else (y, skip.data)), out=y)

    def bwd(g):
        if skip is not None:
            accumulate(skip, g)
        md, mh, mw = (_upsample_matrix(n, g.dtype) for n in (d, h, w))
        a = (mw.T @ g.reshape(-1, 2 * w).T).T
        a = mh.T @ a.reshape(c * 2 * d, 2 * h, w)
        a = md.T @ a.reshape(c, 2 * d, h * w)
        accumulate(x, a.reshape(c, d, h, w), owned=True)
    return y, bwd


def _window(axis, lo, hi):
    """Index of lo:hi along a spatial axis of a (C, D, H, W) array."""
    return (slice(None),) * axis + (slice(lo, hi),)


def _fold_replicate_pad(g, n):
    """replicate_pad's input gradient: fold each axis in turn, so that the pad
    copies collapse onto the edge voxel."""
    for axis in (1, 2, 3):
        m = g.shape[axis]
        lo = g[_window(axis, 0, n)].sum(axis=axis, keepdims=True)
        hi = g[_window(axis, m - n, m)].sum(axis=axis, keepdims=True)
        g = g[_window(axis, n, m - n)].copy()
        g[_window(axis, 0, 1)] += lo
        g[_window(axis, m - 2 * n - 1, m - 2 * n)] += hi
    return g


@op
def replicate_pad(x: Tensor4, n: int):
    """Edge-replicate all three spatial axes by n voxels."""
    _check4(x)
    if n < 0:
        raise ValueError("replicate_pad width must be >= 0")

    def bwd(g):
        accumulate(x, _fold_replicate_pad(g, n), owned=True)
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

    window = (slice(None), slice(sd, sd + nd), slice(sh, sh + nh), slice(sw, sw + nw))

    def bwd(g):
        accumulate(x, _zero_padded(g, x.data, window), owned=True)
    return np.ascontiguousarray(x.data[window]), bwd


def _zero_padded(g, like, window):
    """g at window in zeros shaped like ``like``: slice_spatial's backward. A
    sum of these keeps the signed zeros of a sum of slice gradients."""
    gx = np.zeros_like(like)
    gx[window] = g
    return gx


def _box_sum_valid(data, radius):
    k = 2 * radius + 1
    for axis in (1, 2, 3):
        n = data.shape[axis] - k + 1
        if n < 1:
            raise ValueError("box_sum3 window larger than input")
        acc = data[_window(axis, 0, n)].copy()
        for off in range(1, k):
            acc += data[_window(axis, off, off + n)]
        data = acc
    return data


def _box_sum_grad(g, radius):
    """box_sum3's input gradient: the box sum of g zero-padded by 2 * radius."""
    return _box_sum_valid(np.pad(g, ((0, 0),) + ((2 * radius, 2 * radius),) * 3), radius)


@op
def box_sum3(x: Tensor4, radius: int):
    """Valid-mode (2r+1)^3 box sum; spatial dims shrink by 2r per axis."""
    _check4(x)
    if radius < 0:
        raise ValueError("box_sum3 radius must be >= 0")

    def bwd(g):
        accumulate(x, _box_sum_grad(g, radius), owned=True)
    return _box_sum_valid(x.data, radius), bwd
