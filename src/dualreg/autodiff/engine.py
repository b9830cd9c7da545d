"""Reverse-mode autodiff core over channels-first 4-D feature maps.

Design notes:

- Eager execution. Every primitive is declared with ``@op``: it computes its
  output immediately and returns it with a backward closure, which is
  appended to the Tape when one is active. With no active tape the same ops
  run as plain numpy (inference mode).
- Tensors are (C, D, H, W); reductions produce 0-d scalar nodes. No
  broadcasting, no general N-D support.
- Dual precision: float32 for production, float64 for verification.
  Finite-difference gradient checks are meaningless in float32.
- Determinism: ops are fixed-order numpy expressions, so a run is bitwise
  reproducible for a fixed seed within one environment.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager

import numpy as np

_DTYPES = {"f32": np.float32, "f64": np.float64}
_default_dtype = np.float32


def default_dtype():
    return _default_dtype


@contextmanager
def precision(mode: str):
    """Temporarily switch the default dtype ('f32' or 'f64')."""
    global _default_dtype
    if mode not in _DTYPES:
        raise ValueError(f"unknown precision mode {mode!r}, expected 'f32' or 'f64'")
    prev = _default_dtype
    _default_dtype = _DTYPES[mode]
    try:
        yield
    finally:
        _default_dtype = prev


class Tensor4:
    """A node in the computation graph.

    ``data`` is (C, D, H, W) for feature maps or 0-d for scalar losses.
    Float arrays keep their dtype; anything else is cast to the default.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(default_dtype())
        if arr.ndim not in (0, 4):
            raise ValueError(f"Tensor4 data must be (C, D, H, W) or scalar, got shape {arr.shape}")
        self.data = arr
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor4(shape={self.data.shape}, dtype={self.data.dtype})"


class Parameter:
    """A named trainable array (conv kernel or bias vector) with a persistent grad.

    Storage adopts the default dtype at construction time, so networks built
    inside a precision("f64") block are verification-grade throughout.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value):
        self.name = str(name)
        self.value = np.asarray(value, dtype=default_dtype())
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

    Execution order is already topological, so backward just visits the
    records once in reverse. The tape is reusable after reset().
    """

    def __init__(self):
        self._ops = []        # (out_node, backward_fn) in execution order
        self._node_ids = set()

    def __enter__(self):
        _active.append(self)
        return self

    def __exit__(self, *exc):
        _active.pop()
        return False

    def _record(self, out: Tensor4, backward_fn) -> None:
        self._ops.append((out, backward_fn))
        self._node_ids.add(id(out))

    def __len__(self):
        return len(self._ops)

    def backward(self, loss: Tensor4) -> None:
        """Accumulate d(loss)/d(p) into every reachable leaf and Parameter."""
        if not isinstance(loss, Tensor4) or loss.data.ndim != 0:
            raise ValueError("backward expects a 0-d scalar loss node")
        if id(loss) not in self._node_ids:
            raise RuntimeError("loss node was not produced on this tape (backward before forward?)")
        loss.grad = np.ones((), dtype=loss.data.dtype)
        for out, fn in reversed(self._ops):
            if out.grad is not None:
                fn(out.grad)

    def reset(self) -> None:
        self._ops.clear()
        self._node_ids.clear()


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
