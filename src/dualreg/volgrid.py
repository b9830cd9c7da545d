"""Volumetric grid types, headered raw I/O, and synthetic data generators.

A stored grid is a pair of files: ``<name>.json`` (shape, spacing, dtype,
channel count) and ``<name>.raw`` (little-endian samples, channel-major,
then D, H, W). The round trip is bitwise exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.ndimage import gaussian_filter

from .jsonio import done, read_json, take


def _spacing(grid) -> tuple:
    """The spacing rule every grid type shares: three finite positive values in mm."""
    sp = tuple(float(s) for s in grid.spacing_mm)
    if len(sp) != 3 or not all(0 < s < np.inf for s in sp):
        raise ValueError(f"{type(grid).__name__} spacing must be 3 finite positive values, "
                         f"got {grid.spacing_mm}")
    return sp


@dataclass(frozen=True)
class Volume:
    """Scalar intensity grid, float32, (D, H, W), spacing in mm per axis."""

    data: np.ndarray
    spacing_mm: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"Volume data must be (D, H, W), got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("Volume contains non-finite values")
        object.__setattr__(self, "spacing_mm", _spacing(self))
        object.__setattr__(self, "data", np.ascontiguousarray(arr))

    @property
    def shape(self):
        return self.data.shape


def check_normalized(data, what: str) -> None:
    """The intensity rule of the similarity term: values in [0, 1], give or take 1e-4."""
    if data.min() < -1e-4 or data.max() > 1.0 + 1e-4:
        raise ValueError(f"{what} must be normalized to [0, 1] "
                         f"(found range [{data.min():.4g}, {data.max():.4g}])")


def check_pair(moving: Volume, fixed: Volume) -> None:
    """The rule for a registration pair: one shape, one spacing, and both
    volumes normalized."""
    for what, a, b in (("shapes", moving.shape, fixed.shape),
                       ("spacings", moving.spacing_mm, fixed.spacing_mm)):
        if a != b:
            raise ValueError(f"pair {what} differ: {a} vs {b}")
    check_normalized(moving.data, "the moving volume")
    check_normalized(fixed.data, "the fixed volume")


@dataclass(frozen=True)
class LabelMask:
    """Segmentation labels, uint8, (D, H, W)."""

    labels: np.ndarray
    spacing_mm: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        arr = np.asarray(self.labels)
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer) or arr.min() < 0 or arr.max() > 255:
                raise ValueError("LabelMask labels must be uint8-compatible integers")
            arr = arr.astype(np.uint8)
        if arr.ndim != 3 or min(arr.shape) < 1:
            raise ValueError(f"LabelMask must be (D, H, W), got shape {arr.shape}")
        object.__setattr__(self, "spacing_mm", _spacing(self))
        object.__setattr__(self, "labels", np.ascontiguousarray(arr))


@dataclass(frozen=True)
class DisplacementField:
    """Per-voxel displacement in voxel units, float32, (3, D, H, W).

    Channel order matches the spatial axes: (dD, dH, dW).
    """

    data: np.ndarray
    spacing_mm: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        if arr.ndim != 4 or arr.shape[0] != 3 or min(arr.shape[1:]) < 1:
            raise ValueError(f"DisplacementField must be (3, D, H, W), got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("DisplacementField contains non-finite values")
        object.__setattr__(self, "spacing_mm", _spacing(self))
        object.__setattr__(self, "data", np.ascontiguousarray(arr))


# ---------------------------------------------------------------------------
# file I/O

_DTYPES = {"f32le": np.dtype("<f4"), "u8": np.dtype("u1")}


def _stem(path) -> Path:
    p = Path(path)
    if p.suffix in (".json", ".raw"):
        p = p.with_suffix("")
    return p


def _save_grid(path, arr, spacing_mm, dtype_key, channels) -> None:
    stem = _stem(path)
    header = {
        "shape": [int(s) for s in arr.shape[-3:]],
        "spacing_mm": [float(s) for s in spacing_mm],
        "dtype": dtype_key,
    }
    if channels != 1:
        header["channels"] = channels
    stem.parent.mkdir(parents=True, exist_ok=True)
    stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
    payload = np.ascontiguousarray(arr, dtype=_DTYPES[dtype_key])
    stem.with_suffix(".raw").write_bytes(payload.tobytes())


def _load_grid(path, kind, dtype_key, channels):
    """A grid of type ``kind``, which checks shape and spacing; faults name the header."""
    stem = _stem(path)

    def parse(header):
        shape = take(header, "shape", [int])
        spacing = take(header, "spacing_mm", [float])
        found = take(header, "dtype", str), take(header, "channels", int, 1)
        if found != (dtype_key, channels):
            raise ValueError(f"expected (dtype, channels) {(dtype_key, channels)}, found {found}")
        done(header)
        dt = _DTYPES[dtype_key]
        expected = channels * math.prod(shape) * dt.itemsize
        payload = stem.with_suffix(".raw").read_bytes()
        if len(payload) != expected:
            raise ValueError(f"the .raw payload is {len(payload)} bytes, header implies {expected}")
        full = [channels] + shape if channels > 1 else shape
        return kind(np.frombuffer(payload, dtype=dt).reshape(full).copy(), spacing)

    return read_json(stem.with_suffix(".json"), parse)


def save_volume(v: Volume, path) -> None:
    _save_grid(path, v.data, v.spacing_mm, "f32le", 1)


def load_volume(path) -> Volume:
    return _load_grid(path, Volume, "f32le", 1)


def save_mask(m: LabelMask, path) -> None:
    _save_grid(path, m.labels, m.spacing_mm, "u8", 1)


def load_mask(path) -> LabelMask:
    return _load_grid(path, LabelMask, "u8", 1)


def save_field(f: DisplacementField, path) -> None:
    _save_grid(path, f.data, f.spacing_mm, "f32le", 3)


def load_field(path) -> DisplacementField:
    return _load_grid(path, DisplacementField, "f32le", 3)


# ---------------------------------------------------------------------------
# intensity normalization

def normalize_intensity(v: Volume) -> Volume:
    """Min-max rescale to [0, 1]; a constant volume maps to all zeros.

    Idempotent bit for bit: the first pass lands min/max exactly on 0/1.
    """
    data = v.data
    lo = float(data.min())
    hi = float(data.max())
    if hi == lo:
        return Volume(np.zeros_like(data), v.spacing_mm)
    out = (data - np.float32(lo)) / np.float32(hi - lo)
    return Volume(out, v.spacing_mm)


# ---------------------------------------------------------------------------
# synthetic data

def _smooth_noise(rng, shape, sigma):
    field = gaussian_filter(rng.standard_normal(shape), sigma)
    lo, hi = field.min(), field.max()
    if hi > lo:
        field = (field - lo) / (hi - lo)
    return field


# organ placement in fractions of the volume shape; chosen so organs never
# overlap and every labeled voxel stays >= 2 voxels from the boundary for
# any shape >= 16, jitter included
# semi-axes are kept small relative to the volume so that a few voxels of
# displacement produces a real overlap loss; organs the size of the volume
# would make registration quality invisible to Dice
_ORGANS = (
    {"center": (0.32, 0.32, 0.32), "semi": (0.096, 0.078, 0.078), "mean": 0.55},
    {"center": (0.62, 0.40, 0.62), "semi": (0.066, 0.084, 0.066), "mean": 0.70},
    {"center": (0.42, 0.68, 0.58), "semi": (0.078, 0.066, 0.084), "mean": 0.85},
)


def synth_phantom(seed: int, shape) -> tuple[Volume, LabelMask]:
    """Deterministic phantom: textured background plus three ellipsoidal organs.

    Labels are {0, 1, 2, 3}; organ k carries label k and a distinct mean
    intensity. The returned volume is normalized to [0, 1].
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or min(shape) < 16:
        raise ValueError(f"synth_phantom needs (D, H, W) all >= 16, got {shape}")
    rng = np.random.default_rng(seed)
    dims = np.asarray(shape, dtype=np.float64)

    vol = 0.12 + 0.26 * _smooth_noise(rng, shape, sigma=1.6)
    labels = np.zeros(shape, dtype=np.uint8)
    grids = np.meshgrid(*(np.arange(s, dtype=np.float64) for s in shape), indexing="ij")

    for k, organ in enumerate(_ORGANS, start=1):
        center = (np.asarray(organ["center"]) + rng.uniform(-0.015, 0.015, 3)) * dims
        semi = np.asarray(organ["semi"]) * dims * rng.uniform(0.92, 1.08, 3)
        r2 = sum(((g - c) / a) ** 2 for g, c, a in zip(grids, center, semi))
        inside = r2 <= 1.0
        texture = 0.12 * _smooth_noise(rng, shape, sigma=2.2)
        vol = np.where(inside, organ["mean"] - 0.06 + texture, vol)
        labels[inside] = k

    vol = gaussian_filter(vol, 0.7)
    return normalize_intensity(Volume(vol.astype(np.float32))), LabelMask(labels)


def synth_deformation(seed: int, shape, amplitude: float,
                      smoothness_sigma: float) -> DisplacementField:
    """Smooth random displacement with max magnitude exactly ``amplitude``.

    Per-channel white noise is Gaussian-smoothed with ``smoothness_sigma``
    and rescaled so the largest displacement magnitude equals the requested
    amplitude. When amplitude < sigma/2 the field is checked fold-free and
    re-sampled with a derived seed if needed (at most 10 retries).
    """
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3 or min(shape) < 2:
        raise ValueError(f"synth_deformation needs (D, H, W) all >= 2, got {shape}")
    amplitude = float(amplitude)
    if not 0 <= amplitude < np.inf:
        raise ValueError(f"synth_deformation amplitude must be finite and >= 0, got {amplitude}")
    if not 0 < smoothness_sigma < np.inf:
        raise ValueError("synth_deformation smoothness_sigma must be finite and > 0, "
                         f"got {smoothness_sigma}")
    if amplitude == 0.0:
        return DisplacementField(np.zeros((3,) + shape, dtype=np.float32))

    from .metrics import jacobian_stats

    check_folds = amplitude < smoothness_sigma / 2.0
    for attempt in range(11):
        rng = np.random.default_rng([seed, attempt])
        u = np.stack([gaussian_filter(rng.standard_normal(shape), smoothness_sigma)
                      for _ in range(3)])
        mag = np.sqrt((u * u).sum(axis=0)).max()
        if mag == 0.0:
            continue
        u = (u * (amplitude / mag)).astype(np.float32)
        field = DisplacementField(u)
        if not check_folds:
            return field
        _, folds, _ = jacobian_stats(field)
        if folds == 0:
            return field
    raise RuntimeError("synth_deformation could not draw a fold-free field in 10 retries")
