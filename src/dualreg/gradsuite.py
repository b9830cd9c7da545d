"""Named finite-difference checks covering every differentiable piece.

Each check rebuilds a small 64-bit graph and compares analytic gradients
against central differences via autodiff.gradcheck. Inputs are seeded and
kept away from the genuine non-smooth points (LeakyReLU at 0, pooling
ties, trilinear lattice kinks, |x| at 0) so the checks measure gradient
correctness, not subgradient choices.

Probe steps are chosen per check. Away from kinks every operator here is
polynomial of degree <= 2 along any single coordinate, so the central
difference is exact and the only numeric-side error is rounding noise,
ulp(loss) / (2 * eps). Those checks use eps = 1e-3 (kink distances are
two orders larger). The descriptor checks go through exp and a quotient,
where truncation returns; their eps sits at the measured noise/truncation
crossover. Composite blocks cap eps at 1e-4: a 1e-3 probe on a first-layer
weight moves downstream pre-activations far enough to cross a LeakyReLU
kink for these seeds.

The same table backs the unit tests, the gradcheck CLI subcommand, and
the acceptance suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Parameter,
    Tensor4,
    abs_val,
    add,
    box_sum3,
    concat_channels,
    conv3d,
    gradcheck,
    leaky_relu,
    max_pool2,
    mean_all,
    mul,
    precision,
    replicate_pad,
    scale,
    slice_spatial,
    square,
    sub,
    sum_all,
    upsample_trilinear2,
)
from .blocks import f3d_conv, make_mrb, make_residual_block, mrb, residual_block
from .losses import mind_descriptor, objective, smoothness_loss
from .network import NetworkConfig, build, forward_graph
from .stn import warp_tensor


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err < self.tol


def _away_from_zero(rng, shape, lo=0.2, hi=1.5):
    return rng.uniform(lo, hi, shape) * rng.choice([-1.0, 1.0], shape)


def _proj(node: Tensor4, w: np.ndarray) -> Tensor4:
    return sum_all(mul(node, Tensor4(w)))


def _randomize(params, rng, w_std=0.4, b_std=0.1):
    for p in params:
        std = w_std if p.value.ndim == 5 else b_std
        p.value[...] = rng.normal(0.0, std, p.value.shape)


def _check_leaky_relu():
    rng = np.random.default_rng(11)
    x = Tensor4(_away_from_zero(rng, (2, 5, 5, 5)))
    w = rng.standard_normal((2, 5, 5, 5))
    return gradcheck(lambda: _proj(leaky_relu(x), w), [x], eps=1e-3)


def _check_arith():
    rng = np.random.default_rng(12)
    a = Tensor4(_away_from_zero(rng, (2, 4, 4, 4)))
    b = Tensor4(_away_from_zero(rng, (2, 4, 4, 4)))

    def f():
        y = sub(mul(a, b), scale(square(add(a, b)), 0.3))
        return mean_all(abs_val(y))

    # |y| kink: with these seeds min |y| ~ 0.027, far beyond the probe step.
    return gradcheck(f, [a, b], eps=1e-3)


def _check_conv3d():
    rng = np.random.default_rng(13)
    x = Tensor4(rng.standard_normal((3, 5, 5, 5)))
    w = Parameter("w", rng.normal(0.0, 0.3, (4, 3, 3, 3, 3)))
    b = Parameter("b", rng.normal(0.0, 0.1, 4))
    proj = rng.standard_normal((4, 5, 5, 5))
    return gradcheck(lambda: _proj(conv3d(x, w, b), proj), [x, w, b], eps=1e-3)


def _check_f3d_conv():
    rng = np.random.default_rng(14)
    x = Tensor4(rng.standard_normal((3, 5, 5, 5)))
    w1 = Parameter("w1", rng.normal(0.0, 0.3, (4, 3, 1, 3, 3)))
    b1 = Parameter("b1", rng.normal(0.0, 0.1, 4))
    w2 = Parameter("w2", rng.normal(0.0, 0.3, (4, 4, 3, 1, 1)))
    b2 = Parameter("b2", rng.normal(0.0, 0.1, 4))
    proj = rng.standard_normal((4, 5, 5, 5))
    return gradcheck(lambda: _proj(f3d_conv(x, w1, b1, w2, b2), proj), [x, w1, b1, w2, b2], eps=1e-3)


def _check_max_pool2():
    rng = np.random.default_rng(15)
    vals = rng.permutation(2 * 4 * 4 * 4).astype(np.float64) * 0.37
    x = Tensor4(vals.reshape(2, 4, 4, 4))
    w = rng.standard_normal((2, 2, 2, 2))
    # distinct multiples of 0.37 keep every pooling argmax stable under the probe
    return gradcheck(lambda: _proj(max_pool2(x), w), [x], eps=1e-3)


def _check_upsample():
    rng = np.random.default_rng(16)
    x = Tensor4(rng.standard_normal((2, 3, 4, 5)))
    w = rng.standard_normal((2, 6, 8, 10))
    return gradcheck(lambda: _proj(upsample_trilinear2(x), w), [x], eps=1e-3)


def _check_replicate_pad():
    rng = np.random.default_rng(17)
    x = Tensor4(rng.standard_normal((2, 3, 3, 3)))
    w = rng.standard_normal((2, 7, 7, 7))
    return gradcheck(lambda: _proj(replicate_pad(x, 2), w), [x], eps=1e-3)


def _check_slice_concat():
    rng = np.random.default_rng(18)
    a = Tensor4(rng.standard_normal((2, 5, 5, 5)))
    b = Tensor4(rng.standard_normal((3, 3, 4, 2)))
    w = rng.standard_normal((5, 3, 4, 2))

    def f():
        y = concat_channels(slice_spatial(a, (1, 0, 2), (3, 4, 2)), b)
        return _proj(y, w)

    return gradcheck(f, [a, b], eps=1e-3)


def _check_box_sum3():
    rng = np.random.default_rng(19)
    x = Tensor4(rng.standard_normal((2, 6, 6, 6)))
    w = rng.standard_normal((2, 4, 4, 4))
    return gradcheck(lambda: _proj(box_sum3(x, 1), w), [x], eps=1e-3)


def _check_warp():
    rng = np.random.default_rng(20)
    img = rng.standard_normal((2, 5, 6, 6))
    f = Tensor4(rng.uniform(0.15, 0.45, (3, 5, 6, 6)) * rng.choice([-1.0, 1.0], (3, 5, 6, 6)))
    w = rng.standard_normal((2, 5, 6, 6))
    # |field| in [0.15, 0.45]: every sample point stays 0.15 from the lattice
    return gradcheck(lambda: _proj(warp_tensor(img, f), w), [f], eps=1e-3)


def _check_mind_descriptor():
    rng = np.random.default_rng(21)
    x = Tensor4(rng.uniform(0.05, 0.95, (1, 8, 8, 8)))
    w = rng.standard_normal((6, 8, 8, 8))
    return gradcheck(lambda: _proj(mind_descriptor(x), w), [x], eps=3e-5)


def _check_mind_loss_warp():
    rng = np.random.default_rng(22)
    img = rng.uniform(0.05, 0.95, (1, 8, 8, 8))
    fixed = rng.uniform(0.05, 0.95, (1, 8, 8, 8))
    fixed_desc = mind_descriptor(Tensor4(fixed)).data
    f = Tensor4(rng.uniform(0.15, 0.45, (3, 8, 8, 8)) * rng.choice([-1.0, 1.0], (3, 8, 8, 8)))
    # eps=3e-4 already crosses a |difference| kink for these volumes; 1e-4 does not
    return gradcheck(lambda: objective(img, f, fixed_desc, 0.0), [f], eps=1e-4)


def _check_smoothness():
    rng = np.random.default_rng(23)
    f = Tensor4(rng.standard_normal((3, 5, 6, 7)))
    return gradcheck(lambda: smoothness_loss(f), [f], eps=1e-3)


def _check_residual_block():
    rng = np.random.default_rng(24)
    p = make_residual_block("rb", 4)
    _randomize(p.parameters(), rng)
    z = Tensor4(rng.standard_normal((4, 4, 4, 4)))
    w = rng.standard_normal((4, 4, 4, 4))
    return gradcheck(lambda: _proj(residual_block(z, p), w), [z] + p.parameters(), eps=1e-4)


def _check_mrb():
    rng = np.random.default_rng(25)
    p = make_mrb("mrb", 1, c_l=4, c_h=4, c_s=4)
    _randomize(p.parameters(), rng, w_std=0.3)
    l = Tensor4(rng.standard_normal((4, 8, 8, 8)))
    h = Tensor4(rng.standard_normal((4, 4, 4, 4)))
    wl = rng.standard_normal((4, 8, 8, 8))
    wh = rng.standard_normal((4, 4, 4, 4))

    def f():
        l_next, h_next = mrb(l, h, p)
        return add(_proj(l_next, wl), _proj(h_next, wh))

    wrt = [l, h] + p.parameters()
    coords = [rng.choice(t.value.size if isinstance(t, Parameter) else t.data.size,
                         size=min(60, t.value.size if isinstance(t, Parameter) else t.data.size),
                         replace=False)
              for t in wrt]
    return gradcheck(f, wrt, eps=1e-4, coords=coords)


def _check_network():
    rng = np.random.default_rng(26)
    net = build(NetworkConfig(n_scales=2, seed=7))
    x = Tensor4(rng.uniform(0.0, 1.0, (2, 16, 16, 16)))
    w = rng.standard_normal((3, 16, 16, 16))
    by_name = net.named_parameters()
    sampled = [by_name[n] for n in ("stem.conv.w", "enc1.fuse.w", "enc2.rb.conv1.w",
                                    "dec1.fuse.w", "head.out.w")]
    coords = [rng.choice(p.size, size=3, replace=False) for p in sampled]
    return gradcheck(lambda: _proj(forward_graph(net, x), w), sampled, coords=coords)


CHECKS = [
    ("leaky_relu", 1e-6, _check_leaky_relu),
    ("arith_chain", 1e-6, _check_arith),
    ("conv3d", 1e-6, _check_conv3d),
    ("f3d_conv", 1e-6, _check_f3d_conv),
    ("max_pool2", 1e-6, _check_max_pool2),
    ("upsample_trilinear2", 1e-6, _check_upsample),
    ("replicate_pad", 1e-6, _check_replicate_pad),
    ("slice_concat", 1e-6, _check_slice_concat),
    ("box_sum3", 1e-6, _check_box_sum3),
    ("warp", 1e-6, _check_warp),
    ("mind_descriptor", 1e-6, _check_mind_descriptor),
    ("mind_loss_warp", 1e-5, _check_mind_loss_warp),
    ("smoothness_loss", 1e-6, _check_smoothness),
    ("residual_block", 1e-6, _check_residual_block),
    ("mrb", 1e-5, _check_mrb),
    ("network", 1e-4, _check_network),
]


def run_all(names=None) -> list:
    wanted = set(names) if names is not None else None
    results = []
    for n, tol, fn in CHECKS:
        if wanted is not None and n not in wanted:
            continue
        with precision("f64"):
            results.append(CheckResult(n, float(fn()), tol))
    return results
