"""Finite-difference verification of the analytic gradients."""

from __future__ import annotations

import numpy as np

from .engine import Parameter, Tape


def gradcheck(f, wrt, eps: float = 1e-6, coords=None) -> float:
    """Compare analytic gradients of a scalar-valued graph to central differences.

    f
        Zero-argument callable rebuilding the loss node from the leaves in
        ``wrt``. It must be pure apart from reading those arrays.
    wrt
        Sequence of Tensor4 leaves and/or Parameters holding float64 data.
    eps
        Central-difference step, restricted to [1e-7, 1e-3].
    coords
        Optional parallel sequence of flat-index arrays restricting which
        coordinates are probed (None entries probe every coordinate).

    Returns the maximum relative error over all probed coordinates, with the
    relative error defined as |a - n| / max(|a|, |n|, 1e-8).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"gradcheck eps must lie in [1e-7, 1e-3], got {eps}")
    wrt = list(wrt)
    for t in wrt:
        arr = t.value if isinstance(t, Parameter) else t.data
        if arr.dtype != np.float64:
            raise ValueError("gradcheck requires float64 inputs (verification mode)")

    for t in wrt:
        if isinstance(t, Parameter):
            t.zero_grad()
        else:
            t.grad = None
    with Tape() as tape:
        loss = f()
        if not np.isfinite(loss.data):
            raise FloatingPointError("gradcheck: non-finite loss at the base point")
        tape.backward(loss)
    analytic = []
    for t in wrt:
        g = t.grad if isinstance(t, Parameter) else (t.grad if t.grad is not None else np.zeros_like(t.data))
        analytic.append(np.asarray(g, dtype=np.float64).ravel())

    def eval_loss():
        val = float(f().data)
        if not np.isfinite(val):
            raise FloatingPointError("gradcheck: non-finite loss while probing")
        return val

    worst = 0.0
    for i, t in enumerate(wrt):
        arr = t.value if isinstance(t, Parameter) else t.data
        flat = arr.reshape(-1)
        idxs = range(flat.size) if coords is None or coords[i] is None else coords[i]
        for idx in idxs:
            old = flat[idx]
            flat[idx] = old + eps
            fp = eval_loss()
            flat[idx] = old - eps
            fm = eval_loss()
            flat[idx] = old
            numeric = (fp - fm) / (2.0 * eps)
            a = analytic[i][idx]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
            if err > worst:
                worst = err
    return worst
