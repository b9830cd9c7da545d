"""Reverse-mode autodiff core over channels-first 4-D feature maps.

Design notes:

- Eager execution. Every primitive is declared with ``@op``: it computes its
  output immediately and returns it with a backward closure, which is
  appended to the Tape when one is active. With no active tape the same ops
  run as plain numpy (inference mode).
- Tensors are (C, D, H, W); reductions produce 0-d scalar nodes. No
  broadcasting, no general N-D support.
- The dtype follows the data: float32 for production, float64 for
  verification (finite-difference gradient checks are meaningless in
  float32). No global mode picks it.
- Determinism: ops are fixed-order numpy expressions, so a run is bitwise
  reproducible for a fixed seed on one build, at any BLAS thread count
  (float64 upsampling at some odd sizes excepted; see the README). Across
  code changes conv3d's forward and input gradient keep each voxel's sum
  order, but their GEMMs' widths changed, and OpenBLAS rounds some columns
  by their width: their bits equal the earlier loop's only on the planes
  the README names. The weight gradient now sums slab by slab, so its bits
  changed.
"""

from __future__ import annotations

import functools

import numpy as np


def _float_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        raise TypeError(f"expected a float32 or float64 array, got {arr.dtype}")
    return arr


class Tensor4:
    """A node in the computation graph.

    ``data`` is a float (C, D, H, W) array for feature maps, or 0-d for
    scalar losses, and keeps its dtype.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = _float_array(data)
        if arr.ndim not in (0, 4):
            raise ValueError(f"Tensor4 data must be (C, D, H, W) or scalar, got shape {arr.shape}")
        self.data = arr
        self.grad = None

    def __repr__(self):
        return f"Tensor4(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter:
    """A named trainable float array (conv kernel or bias vector) with a
    persistent grad of the same dtype."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = str(name)
        self.value = _float_array(value)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    @property
    def size(self) -> int:
        return self.value.size

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of the primitives executed during one forward pass.

    Execution order is already topological, so backward visits the records
    once in reverse. It consumes them as it goes: each record is dropped once
    its closure has run, and each intermediate grad once it has been handed
    on, so saved activations are freed as early as possible. Only leaf and
    Parameter grads survive. Each forward pass records on a fresh tape.
    """

    def __init__(self):
        self._ops = []        # (out_node, backward_fn) in execution order

    def __enter__(self):
        _active.append(self)
        return self

    def __exit__(self, *exc):
        _active.pop()
        return False

    def _record(self, out: Tensor4, backward_fn) -> None:
        self._ops.append((out, backward_fn))

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: Tensor4) -> None:
        """Accumulate d(loss)/d(p) into every reachable leaf and Parameter."""
        if not any(out is loss for out, _ in self._ops):
            raise RuntimeError("loss is not an output recorded on this tape (backward "
                               "before forward, or the tape already consumed by a backward)")
        if loss.data.ndim != 0:
            raise ValueError("backward expects a 0-d scalar loss node")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        ops = self._ops
        while ops:
            out, fn = ops.pop()
            g, out.grad = out.grad, None
            if g is not None:
                fn(g)


_active: list[Tape] = []


def accumulate(target: Tensor4, g, owned: bool = False) -> None:
    """Add an upstream gradient into a Tensor4 input's grad.

    ``owned=True`` promises g is a fresh array the op will not touch again,
    so it can be adopted without a defensive copy.
    """
    if target.grad is None:
        target.grad = g if owned else g.copy()
    else:
        target.grad += g


def op(fn):
    """Declare a differentiable primitive.

    ``fn`` returns ``(output array, backward closure)``. The closure takes the
    upstream gradient and accumulate()s into the op's inputs. The output is
    wrapped in a Tensor4, and the closure is recorded only while a tape is
    active, so work needed only for the backward pass belongs inside it.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        data, backward_fn = fn(*args, **kwargs)
        out = Tensor4(data)
        if _active:
            _active[-1]._record(out, backward_fn)
        return out

    return wrapper
