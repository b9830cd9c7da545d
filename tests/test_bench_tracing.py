"""The benchmark's tracer names ops that exist and leaves nothing patched.

``bench/tracing.py`` looks its ops up by name in ``dualreg.autodiff.ops``
when it installs, so an op that is deleted or renamed breaks only the traced
benchmark runs. These tests fail on that in the fast suite instead.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from dualreg import losses  # noqa: E402
from dualreg.autodiff import Tape, Tensor4, ops  # noqa: E402
from dualreg.volgrid import Volume  # noqa: E402


def test_every_traced_op_is_an_op():
    missing = [name for name in tracing.NAMED_OPS + tracing.OTHER_OPS if not hasattr(ops, name)]
    assert missing == []


def _bindings():
    """Every name bound in a dualreg module, and in each class it defines."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "dualreg" and not modname.startswith("dualreg."):
            continue
        for name, value in vars(mod).items():
            out[modname, name] = value
            if isinstance(value, type) and value.__module__ == modname:
                for attr, v in vars(value).items():
                    out[modname, name, attr] = v
    return out


def test_install_then_uninstall_restores_every_patched_name():
    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        during = _bindings()
    finally:
        tracer.uninstall()
    after = _bindings()
    patched = [key for key, value in before.items() if during.get(key) is not value]
    assert ("dualreg.autodiff.ops", "conv3d") in patched
    assert ("dualreg.autodiff.engine", "Tape", "_record") in patched
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_a_traced_objective_files_every_record_under_its_layer():
    # the fused loss and warp ops run inside the spans of descriptor_loss_node,
    # smoothness_loss and warp_tensor, so no record or backward is "other"
    rng = np.random.default_rng(6)
    moving = rng.random((1, 16, 16, 16), dtype=np.float32)
    fixed_desc = losses.mind_descriptor(Volume(rng.random((16, 16, 16), dtype=np.float32)))
    phi = Tensor4(rng.uniform(-1.0, 1.0, (3, 16, 16, 16)).astype(np.float32))
    tracer = tracing.Tracer()
    with tracer, Tape() as tape:
        loss = losses.objective(moving, phi, fixed_desc, 1.5)
        labels = [label for _, _, (label, _) in tracer._records]
        tape.backward(loss)
    assert sorted(set(labels)) == ["losses.similarity", "losses.smoothness", "stn.warp"]
    assert tracer.cur["losses.bwd_ms"] > 0 and tracer.cur["stn.warp.bwd_ms"] > 0
    assert "autodiff.other.bwd_ms" not in tracer.cur
