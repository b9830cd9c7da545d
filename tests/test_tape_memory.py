"""The tape's memory lifetime: backward frees what it has consumed.

tracemalloc sees numpy's data buffers, so the traced bytes follow the
activations and grads the tape keeps alive.
"""

import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dualreg import losses
from dualreg.autodiff import Parameter, Tape, Tensor4, conv3d, leaky_relu, max_pool2, scale
from dualreg.autodiff.ops import _SLAB_BYTES, SLOPE
from dualreg.blocks import ConvKind, make_mrb, make_residual_block, mrb, residual_block
from dualreg.losses import MindConfig, descriptor_loss_node, mind_descriptor, objective
from dualreg.network import build, forward_graph
from dualreg.optim import TrainConfig
from dualreg.stn import warp
from dualreg.volgrid import synth_deformation, synth_phantom

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402


def test_backward_frees_the_tape_as_it_walks_it():
    moving, _ = synth_phantom(1, (24, 24, 24))
    fixed = warp(moving, synth_deformation(1, (24, 24, 24), 2.0, 6.0))
    cfg = TrainConfig(n_scales=2, iterations=1, lam=1.5, variant="mrb", lr=1e-3, seed=1)
    net = build(cfg.network_config())
    fixed_desc = mind_descriptor(fixed, MindConfig())
    stacked = np.stack([moving.data, fixed.data])
    tracemalloc.start()
    try:
        with Tape() as tape:
            phi = forward_graph(net, Tensor4(stacked))
            loss = objective(moving.data[None], phi, fixed_desc, cfg.lam, cfg.mind)
            del phi
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            tape.backward(loss)
            after, peak = tracemalloc.get_traced_memory()
            assert len(tape) == 0
            with pytest.raises(RuntimeError, match="already consumed"):
                tape.backward(loss)
    finally:
        tracemalloc.stop()
    assert start > 16 * 2**20
    assert peak <= 1.10 * start
    assert after <= 0.05 * start
    assert all(np.isfinite(p.grad).all() for p in net.parameters)


def test_the_objective_keeps_only_what_its_backward_reads():
    # bench/tracing.py's count: each buffer once, charged to the first record
    # that reaches it, so the field, which an earlier record holds, is not the
    # objective's. Kept: the warp's corners, fractions and masks and its
    # output, the descriptor's box sums, output, scale and argmax, and the
    # fixed descriptor: 140 bytes per voxel. The generic graph held 497.
    n = 24
    moving, _ = synth_phantom(1, (n, n, n))
    fixed = warp(moving, synth_deformation(1, (n, n, n), 2.0, 6.0))
    fixed_desc = mind_descriptor(fixed, MindConfig())
    field = np.random.default_rng(0).uniform(-1.0, 1.0, (3, n, n, n)).astype(np.float32)
    with Tape() as tape:
        phi = scale(Tensor4(field), 1.0)
        objective(moving.data[None], phi, fixed_desc, 1.5, MindConfig())
        seen, held = set(), 0
        for i, (out, fn) in enumerate(tape._ops):
            for arr in tracing._reachable_arrays(out, fn):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                if id(arr) not in seen:
                    seen.add(id(arr))
                    held += arr.nbytes if i > 0 else 0
    assert held <= 150 * n ** 3


def test_the_l1_term_keeps_no_descriptor_sized_array(monkeypatch):
    # its backward rebuilds sign(desc - fixed) from the descriptor node and
    # the constant, which the descriptor's record and the caller hold anyway
    made = []

    def descriptor(v, cfg=None):
        made.append(mind_descriptor(v, cfg))
        return made[-1]

    monkeypatch.setattr(losses, "mind_descriptor", descriptor)
    rng = np.random.default_rng(4)
    fixed = mind_descriptor(Tensor4(rng.random((1, 8, 8, 8), dtype=np.float32)))
    with Tape() as tape:
        descriptor_loss_node(Tensor4(rng.random((1, 8, 8, 8), dtype=np.float32)), fixed.data, None)
    (desc,) = made
    (at,) = [i for i, (out, _) in enumerate(tape._ops) if out is desc]
    held = [a for out, fn in tape._ops[at + 1:] for a in [out.data, *_closure_arrays(fn)]
            if a.size >= desc.data.size and a is not desc.data and a is not fixed.data]
    assert held == []


def test_conv3d_pads_one_slab_at_a_time():
    # conv3d's forward and input gradient pad one D-slab at a time; a padded
    # copy of the whole volume would add about one input's bytes to each peak
    rng = np.random.default_rng(3)
    x = Tensor4(rng.standard_normal((16, 48, 48, 48)).astype(np.float32))
    w = Parameter("w", 0.1 * rng.standard_normal((16, 16, 1, 3, 3)).astype(np.float32))
    b = Parameter("b", np.zeros(16, dtype=np.float32))
    g = rng.standard_normal((16, 48, 48, 48)).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            out = conv3d(x, w, b)
            _, forward_peak = tracemalloc.get_traced_memory()
            ((_, fn),) = tape._ops
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            fn(g)
            _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert forward_peak <= 1.25 * out.data.nbytes
    assert backward_peak - start <= 2.25 * x.data.nbytes
    assert x.grad.shape == x.data.shape


@pytest.mark.parametrize("kernel", [(3, 3, 3), (1, 3, 3), (3, 1, 1)])
def test_conv3d_backward_holds_the_input_gradient_and_slabs(kernel):
    # The weight gradient reads the input gradient's slab views, so backward
    # allocates the input gradient plus slab buffers: g's padded slab (at
    # most three slab depths with its D border) and, one slab deep each, the
    # accumulator, the product and x's padded slab. A full-volume buffer of
    # x would add about one input's bytes.
    rng = np.random.default_rng(4)
    x = Tensor4(rng.standard_normal((16, 32, 32, 32)).astype(np.float32))
    w = Parameter("w", 0.1 * rng.standard_normal((16, 16) + kernel).astype(np.float32))
    b = Parameter("b", np.zeros(16, dtype=np.float32))
    g = rng.standard_normal((16, 32, 32, 32)).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            conv3d(x, w, b)
            ((_, fn),) = tape._ops
            tracemalloc.reset_peak()
            start, _ = tracemalloc.get_traced_memory()
            fn(g)
            _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - start <= x.data.nbytes + 6 * _SLAB_BYTES


# ------------------------------------------------ what a block's tape holds


def _f32_block(block, seed):
    """Draw the block's parameters as float32, as build casts them."""
    rng = np.random.default_rng(seed)
    for site in block.sites():
        for p in site.params:
            p.value = (0.1 * rng.standard_normal(p.value.shape)).astype(np.float32)
            p.grad = np.zeros_like(p.value)
    return block


def _maps_held(f, unit):
    """Bytes alive after f's forward on a live tape, in units of ``unit`` bytes.

    Everything f's inputs and parameters hold is allocated before tracing
    starts, so what is counted is what the tape's records keep alive."""
    tracemalloc.start()
    try:
        with Tape():
            f()
            held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held / unit


def _map(seed, shape):
    return Tensor4(np.random.default_rng(seed).standard_normal(shape).astype(np.float32))


@pytest.mark.parametrize("kind,maps", [(ConvKind.REGULAR, 3), (ConvKind.FACTORIZED, 5)],
                         ids=["regular", "factorized"])
def test_residual_block_tape_holds_no_pre_activation(kind, maps):
    # each conv's LeakyReLU runs in its slab loop, so the tape holds one map
    # per conv stage plus the sum: 3 for two regular sites, 5 for two
    # factorized ones. An unfused LeakyReLU adds two more maps.
    p = _f32_block(make_residual_block("rb", 16, kind), 5)
    z = _map(6, (16, 32, 32, 32))
    assert _maps_held(lambda: residual_block(z, p), z.data.nbytes) <= maps + 0.1


def test_mrb_tape_holds_no_full_resolution_projection():
    # at scale 1 the lower stream is an eighth of l; the tape holds the pooled
    # l (1/8), the concat (2/8), the fuse pair (2/8), the factorized residual
    # block (5/8), the bottleneck (1/8) and l_next (1): 2.375 maps of l. The
    # unfused block adds three pre-activations (3/8) and the upsampled
    # projection (1).
    p = _f32_block(make_mrb("m", 1, 16, 16, 16, ConvKind.FACTORIZED), 7)
    l, h = _map(8, (16, 32, 32, 32)), _map(9, (16, 16, 16, 16))
    assert _maps_held(lambda: mrb(l, h, p), l.data.nbytes) <= 2.5


# ------------------------------------------------------ what closures hold


def _closure_arrays(fn):
    """Every array a backward closure keeps alive, Tensor4 data and grads included."""
    stack = [c.cell_contents for c in fn.__closure__ or ()]
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, Tensor4):
            stack.extend(a for a in (v.data, v.grad) if a is not None)
        elif isinstance(v, (list, tuple)):
            stack.extend(v)


def _recorded_closures(f):
    with Tape() as tape:
        f()
        return [fn for _, fn in tape._ops]


@pytest.mark.parametrize("kernel", [(3, 3, 3), (1, 3, 3), (3, 1, 1)])
def test_conv3d_closure_holds_nothing_larger_than_its_input(kernel):
    rng = np.random.default_rng(0)
    x = Tensor4(rng.standard_normal((3, 7, 9, 5)).astype(np.float32))
    w = Parameter("w", rng.standard_normal((4, 3) + kernel))
    b = Parameter("b", np.zeros(4))
    (fn,) = _recorded_closures(lambda: conv3d(x, w, b))
    spatial = [a.shape[1:] for a in _closure_arrays(fn) if a.ndim == 4]
    assert (7, 9, 5) in spatial
    assert all(np.all(np.less_equal(s, (7, 9, 5))) for s in spatial)


def test_fused_conv3d_closure_holds_its_input_and_output_only():
    # the LeakyReLU's backward mask is read off the stored output
    rng = np.random.default_rng(3)
    x = Tensor4(rng.standard_normal((3, 7, 9, 5)))
    w = Parameter("w", rng.standard_normal((4, 3, 3, 3, 3)))
    b = Parameter("b", np.zeros(4))
    with Tape() as tape:
        out = conv3d(x, w, b, SLOPE)
        ((_, fn),) = tape._ops
    maps = [a for a in _closure_arrays(fn) if a.ndim == 4]
    assert {id(a) for a in maps} == {id(x.data), id(out.data)}
    assert not any(a.dtype == bool for a in _closure_arrays(fn))


def test_leaky_relu_closure_holds_no_mask():
    x = Tensor4(np.random.default_rng(1).standard_normal((2, 4, 4, 4)))
    (fn,) = _recorded_closures(lambda: leaky_relu(x))
    assert not any(a.dtype == bool for a in _closure_arrays(fn))


def test_max_pool2_closure_keeps_no_index():
    x = Tensor4(np.random.default_rng(2).standard_normal((2, 4, 6, 8)))
    (fn,) = _recorded_closures(lambda: max_pool2(x))
    kinds = {a.dtype.kind for a in _closure_arrays(fn)}
    assert kinds == {"f"}
