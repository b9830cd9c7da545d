"""Per-layer tracing for the dualreg benchmark.

A Tracer wraps the public functions of each dualreg module, and the
backward closures the tape records, with timers and counters. It lives in
the benchmark's own files and patches names in place only while installed,
so untraced runs execute the program unmodified.

Figures accumulate per unit of work (one training iteration or one
registered pair); ``summary`` reports the median over the units kept.

Attribution rules:

- A tape record belongs to the innermost traced op that made it
  (conv3d, max_pool2, upsample_trilinear2, leaky_relu; any other autodiff
  op counts as "other"), unless a loss or warp call is active, in which
  case it belongs to that layer.
- A record made inside the network belongs to a site: stem, enc<s>,
  deep<k>, dec<s> or head. Glue between two blocks (the pooling before an
  encoder block, the upsampling and skip addition before a decoder block,
  the activation after the stem or head conv) belongs to the block it
  feeds, so a site's forward time runs from the end of the previous block
  to the end of its own.
- tape_mib counts each buffer reachable from the tape at backward start
  once, charged to the first record (in forward order) that reaches it.
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

from dualreg import blocks, losses, metrics, network, stn, volgrid
from dualreg.autodiff import engine, ops

NAMED_OPS = ("conv3d", "max_pool2", "upsample_trilinear2", "leaky_relu")
OTHER_OPS = ("add", "sub", "mul", "square", "scale", "abs_val", "mean_all", "sum_all",
             "concat_channels", "replicate_pad", "slice_spatial", "box_sum3")
_BWD_KEY = {op: f"autodiff.{op}.bwd_ms" for op in NAMED_OPS}
_BWD_KEY.update({"other": "autodiff.other.bwd_ms", "losses.similarity": "losses.bwd_ms",
                 "losses.smoothness": "losses.bwd_ms", "stn.warp": "stn.warp.bwd_ms"})
_MIB = float(1 << 20)


def _ms(t0):
    return (perf_counter() - t0) * 1e3


def _site_of_conv(args):
    return args[0].name.split(".")[0]


def _site_of_residual(args):
    return args[1].conv1.name.split(".")[0]


def _site_of_mrb(args):
    return args[2].fuse.name.split(".")[0]


def _grid_mib(path):
    p = Path(path)
    return sum(q.stat().st_size for q in (p.with_suffix(".json"), p.with_suffix(".raw"))) / _MIB


def _reachable_arrays(out, fn):
    """Arrays a tape record keeps alive: its output plus its closure's contents."""
    stack = [out]
    for cell in fn.__closure__ or ():
        try:
            stack.append(cell.cell_contents)
        except ValueError:
            continue
    while stack:
        v = stack.pop()
        if isinstance(v, np.ndarray):
            yield v
        elif isinstance(v, engine.Tensor4):
            stack.append(v.data)
            if v.grad is not None:
                stack.append(v.grad)
        elif isinstance(v, (list, tuple)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())


class Tracer:
    """Install with ``with Tracer() as t:``; call ``end_unit`` after each unit of work."""

    def __init__(self):
        self.units = []           # (kept, {metric: value}) per unit of work
        self.cur = defaultdict(float)
        self.per_call = defaultdict(list)
        self._skip_next = False
        self._layer = None        # active loss or warp span
        self._ops = []            # stack of active op labels
        self._depth = 0           # nesting depth of network blocks
        self._seg_start = None    # start of the current site segment, inside forward_graph
        self._pending = []        # records of the current site segment
        self._records = []        # (out, fn, [label, site]) since the last backward
        self._patches = []

    # -- unit bookkeeping -------------------------------------------------

    def skip_next_unit(self):
        """Exclude the next unit from the summary (first iteration or pair)."""
        self._skip_next = True

    def end_unit(self):
        unit = dict(self.cur)
        fwd = unit.get("autodiff.conv3d.fwd_ms", 0.0)
        if fwd > 0:
            unit["autodiff.conv3d.gflops"] = unit["autodiff.conv3d.gflop"] / (fwd / 1e3)
        self.units.append((not self._skip_next, unit))
        self._skip_next = False
        self.cur.clear()

    def summary(self, names):
        kept = [u for keep, u in self.units if keep]
        out = {}
        for name in names:
            if name in self.per_call:
                vals = self.per_call[name]
            else:
                vals = [u.get(name, 0.0) for u in kept]
            out[name] = float(statistics.median(vals)) if vals else 0.0
        return out

    # -- installation -----------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _set(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _replace(self, original, wrapper):
        """Point every dualreg module's reference to ``original`` at ``wrapper``."""
        for modname, mod in list(sys.modules.items()):
            if modname != "dualreg" and not modname.startswith("dualreg."):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def install(self):
        for name in NAMED_OPS:
            self._replace(getattr(ops, name), self._op(name, getattr(ops, name)))
        for name in OTHER_OPS:
            self._replace(getattr(ops, name), self._op("other", getattr(ops, name)))

        self._replace(network.forward_graph, self._forward_graph(network.forward_graph))
        self._set(blocks.ConvSite, "apply", self._block(_site_of_conv, blocks.ConvSite.apply))
        self._replace(blocks.residual_block, self._block(_site_of_residual, blocks.residual_block))
        self._replace(blocks.mrb, self._block(_site_of_mrb, blocks.mrb))

        self._set(engine.Tape, "_record", self._record(engine.Tape._record))
        self._set(engine.Tape, "backward", self._backward(engine.Tape.backward))

        self._replace(losses.descriptor_loss_node,
                      self._span("losses.similarity", losses.descriptor_loss_node))
        self._replace(losses.smoothness_loss,
                      self._span("losses.smoothness", losses.smoothness_loss))
        self._replace(stn.warp_tensor, self._span("stn.warp", stn.warp_tensor))
        self._replace(losses.mind_descriptor, self._fixed_descriptor(losses.mind_descriptor))

        for fn, key in ((stn.warp_labels, "stn.warp_labels_ms"), (metrics.dice, "metrics.dice_ms"),
                        (metrics.asd, "metrics.asd_ms"),
                        (metrics.jacobian_stats, "metrics.jacobian_ms")):
            self._replace(fn, self._timer(key, fn))
        for fn in (volgrid.load_volume, volgrid.load_field, volgrid.load_mask):
            self._replace(fn, self._io("load", fn))
        for fn in (volgrid.save_volume, volgrid.save_field, volgrid.save_mask):
            self._replace(fn, self._io("save", fn))

    # -- wrappers ---------------------------------------------------------

    def _op(self, label, fn):
        key = f"autodiff.{label}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._layer is not None:
                return fn(*args, **kwargs)
            self._ops.append(label)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cur[f"{key}.fwd_ms"] += _ms(t0)
                self._ops.pop()
                self.cur[f"{key}.calls"] += 1
                if label == "conv3d":
                    w = np.shape(getattr(args[1], "value", args[1]))
                    nvox = int(np.prod(args[0].data.shape[1:]))
                    self.cur["autodiff.conv3d.gflop"] += 2.0 * int(np.prod(w)) * nvox / 1e9
        return wrapper

    def _span(self, label, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._layer is not None:
                return fn(*args, **kwargs)
            self._layer = label
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cur[f"{label}.fwd_ms"] += _ms(t0)
                self._layer = None
        return wrapper

    def _fixed_descriptor(self, fn):
        # the Volume form is the once-per-train-call fixed-image descriptor;
        # the Tensor4 form runs inside the similarity span
        @functools.wraps(fn)
        def wrapper(v, *args, **kwargs):
            if not isinstance(v, volgrid.Volume) or self._layer is not None:
                return fn(v, *args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(v, *args, **kwargs)
            finally:
                self.per_call["losses.fixed_descriptor_ms"].append(_ms(t0))
        return wrapper

    def _timer(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.cur[key] += _ms(t0)
        return wrapper

    def _io(self, kind, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.cur[f"volgrid.{kind}_ms"] += _ms(t0)
            path = args[0] if kind == "load" else args[1]
            self.cur["volgrid.read_mib" if kind == "load" else "volgrid.written_mib"] += \
                _grid_mib(path)
            return out
        return wrapper

    def _forward_graph(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            self._seg_start, self._pending = t0, []
            try:
                return fn(*args, **kwargs)
            finally:
                self._seg_start, self._pending = None, []
                self.cur["network.forward_ms"] += _ms(t0)
        return wrapper

    def _block(self, site_of, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1
                if self._depth == 0 and self._seg_start is not None:
                    site = site_of(args)
                    now = perf_counter()
                    self.cur[f"network.site.{site}.fwd_ms"] += (now - self._seg_start) * 1e3
                    self._seg_start = now
                    for rec in self._pending:
                        rec[1] = site
                    self._pending = []
        return wrapper

    def _record(self, original):
        def _record(tape, out, fn):
            rec = [self._layer or (self._ops[-1] if self._ops else "other"), None]
            if self._seg_start is not None:
                self._pending.append(rec)
            self._records.append((out, fn, rec))

            def timed(g):
                t0 = perf_counter()
                fn(g)
                dt = _ms(t0)
                self.cur[_BWD_KEY[rec[0]]] += dt
                if rec[1] is not None:
                    self.cur[f"network.site.{rec[1]}.bwd_ms"] += dt
            original(tape, out, timed)
        return _record

    def _backward(self, original):
        def backward(tape, loss):
            self.cur["autodiff.tape_records"] += len(tape)
            self._count_tape_memory()
            t0 = perf_counter()
            try:
                return original(tape, loss)
            finally:
                self.cur["autodiff.backward_ms"] += _ms(t0)
                self._records = []
        return backward

    def _count_tape_memory(self):
        seen = set()
        for out, fn, (label, site) in self._records:
            for arr in _reachable_arrays(out, fn):
                while isinstance(arr.base, np.ndarray):
                    arr = arr.base
                if id(arr) in seen:
                    continue
                seen.add(id(arr))
                mib = arr.nbytes / _MIB
                self.cur["autodiff.tape_mib"] += mib
                if label in ("conv3d", "leaky_relu"):
                    self.cur[f"autodiff.{label}.tape_mib"] += mib
                if site is not None:
                    self.cur[f"network.site.{site}.tape_mib"] += mib
