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

import tracing  # noqa: E402
from dualreg.autodiff import ops  # noqa: E402


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
