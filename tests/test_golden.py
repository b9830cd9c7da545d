"""Golden bits: what the program writes on one small pair, pinned by hash.

``tests/golden.json`` holds the SHA-256 of every artifact that CLI runs on
one BLAS thread write on a 32^3 synth pair (seed 1): the synth grids, the
``gradcheck`` table, ``loss.csv`` and the checkpoint files of two short
trainings (``mrb`` at N=2 and ``wo_f3d`` at N=4), the registered field and
warped grid, and the ``evaluate`` report without ``runtime_s``. A change
that keeps every computed bit keeps every hash.

The hashes hold only on the build that wrote them: the numpy, scipy and
OpenBLAS versions and the kernels each picks for this CPU. On another build
the hash test skips and names both builds. The second test runs on any
build: the f64 ``forward_graph`` of a seed-0 ``mrb`` net on the same pair
stays within 1e-12 relative of stored summaries.

Each artifact comes from a separate process whose BLAS thread count the
test sets, so the hashes do not depend on how many threads the test process
runs. A third test runs the pipeline again on as many threads as OpenBLAS
gives this process and expects the 1-thread hashes: bits do not depend on
the thread count.

After a change that alters bits on purpose, write the file again with

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import dualreg
from dualreg.autodiff import Tensor4
from dualreg.network import NetworkConfig, build, forward_graph
from dualreg.stn import warp
from dualreg.volgrid import synth_deformation, synth_phantom

GOLDEN = Path(__file__).with_name("golden.json")
SHAPE = "32x32x32"
SYNTH = ("synth", "--seed", "1", "--shape", SHAPE, "--amplitude", "3", "--sigma", "12",
         "--out-dir", "data")
TRAININGS = {
    "mrb": {"N": 2, "variant": "mrb", "lambda": 1.5, "lr": 1e-3, "iterations": 3, "seed": 0},
    "wo_f3d": {"N": 4, "variant": "wo_f3d", "lambda": 1.5, "iterations": 2, "seed": 0},
}
REL = 1e-12


def _openblas(query: str, restype):
    """Ask numpy's bundled OpenBLAS ``get_<query>``; None if it has no such call."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in (f"scipy_openblas_get_{query}64_", f"openblas_get_{query}64_",
                     f"openblas_get_{query}"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], restype
                return fn()
    return None


def fingerprint() -> dict:
    """The build the hashes belong to. OpenBLAS and numpy pick kernels for the
    CPU at run time, so its core and numpy's SIMD targets count too."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    core = _openblas("corename", ctypes.c_char_p)
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_core": core and core.decode(),
        "simd": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
    }


def _cli(*argv, cwd, threads):
    src = str(Path(dualreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    return subprocess.Popen([sys.executable, "-m", "dualreg.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=cwd, env=env)


def _finish(proc) -> str:
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifact_hashes(work: Path, threads: int = 1) -> dict:
    """Run the pipeline in ``work`` and hash what it writes. The gradient
    suite runs beside the rest, each in a process of ``threads`` BLAS threads."""
    gradcheck = _cli("gradcheck", cwd=work, threads=threads)
    _finish(_cli(*SYNTH, cwd=work, threads=threads))
    for name, cfg in TRAININGS.items():
        (work / f"{name}.json").write_text(json.dumps(cfg))
    for proc in [_cli("train", "--config", f"{name}.json", "--data-dir", "data",
                      "--out", name, cwd=work, threads=threads) for name in TRAININGS]:
        _finish(proc)
    _finish(_cli("register", "--checkpoint", "mrb/checkpoint", "--moving", "data/moving",
                 "--fixed", "data/fixed", "--out-field", "phi", "--out-warped", "warped",
                 cwd=work, threads=threads))
    _finish(_cli("evaluate", "--field", "phi", "--moving-labels", "data/moving_labels",
                 "--fixed-labels", "data/fixed_labels", "--report", "report.json",
                 cwd=work, threads=threads))

    hashes = {"gradcheck.stdout": _sha(_finish(gradcheck).encode())}
    files = sorted(work.glob("data/*")) + [work / "phi.json", work / "phi.raw",
                                           work / "warped.json", work / "warped.raw"]
    files += [work / name / f for name in TRAININGS
              for f in ("loss.csv", "checkpoint.json", "checkpoint.bin")]
    for f in files:
        hashes[f.relative_to(work).as_posix()] = _sha(f.read_bytes())
    report = json.loads((work / "report.json").read_text())
    report.pop("runtime_s")  # wall-clock time is the one field that varies
    hashes["report.json minus runtime_s"] = _sha(json.dumps(report, sort_keys=True).encode())
    return hashes


def forward_summary() -> dict:
    """Sum, sum of squares, largest magnitude and 8 sampled values of the f64
    field a seed-0 ``mrb`` net (N=2) predicts for the synth pair."""
    shape = tuple(int(s) for s in SHAPE.split("x"))
    moving, _ = synth_phantom(1, shape)
    fixed = warp(moving, synth_deformation(1, shape, 3.0, 12.0))
    net = build(NetworkConfig(n_scales=2, variant="mrb", seed=0), np.float64)
    pair = Tensor4(np.stack([moving.data, fixed.data]).astype(np.float64))
    phi = forward_graph(net, pair).data.ravel()
    index = np.random.default_rng(0).choice(phi.size, size=8, replace=False)
    return {"sum": float(phi.sum()), "sum_sq": float((phi * phi).sum()),
            "max_abs": float(np.abs(phi).max()), "size": int(phi.size),
            "index": index.tolist(), "samples": phi[index].tolist()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def one_thread_hashes(tmp_path_factory):
    return artifact_hashes(tmp_path_factory.mktemp("one_thread"), threads=1)


def test_artifact_hashes_match_on_the_same_build(golden, one_thread_hashes):
    here = fingerprint()
    if here != golden["fingerprint"]:
        pytest.skip(f"hashes were written on {golden['fingerprint']}; this build is {here}")
    assert one_thread_hashes == golden["hashes"]


def test_hashes_do_not_depend_on_the_blas_thread_count(one_thread_hashes, tmp_path):
    # OpenBLAS caps a requested count at its build limit and the cores it sees,
    # so the pool is read back rather than taken from the environment
    pool = _openblas("num_threads", ctypes.c_int)
    if pool is None or pool < 2:
        pytest.skip(f"this process has an OpenBLAS pool of {pool}, so there is no "
                    "second thread count to compare")
    assert artifact_hashes(tmp_path, threads=pool) == one_thread_hashes


def test_f64_forward_matches_the_stored_summary(golden):
    want = golden["forward_f64"]
    got = forward_summary()
    # a sum or sample may cancel to near 0, so each is read against the
    # field's own scale: n * max|phi| for the sum, max|phi| for a sample
    scale = want["max_abs"]
    assert got["size"] == want["size"] and got["index"] == want["index"]
    assert abs(got["max_abs"] - scale) <= REL * scale
    assert abs(got["sum_sq"] - want["sum_sq"]) <= REL * want["sum_sq"]
    assert abs(got["sum"] - want["sum"]) <= REL * scale * want["size"]
    for a, b in zip(got["samples"], want["samples"]):
        assert abs(a - b) <= REL * scale, (a, b)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = artifact_hashes(Path(tmp))
    old = json.loads(GOLDEN.read_text())["hashes"] if GOLDEN.exists() else {}
    changed = sorted(k for k in old.keys() | hashes.keys() if old.get(k) != hashes.get(k))
    print(f"{len(changed)} of {len(hashes)} hashes differ from the file: {changed}")
    GOLDEN.write_text(json.dumps({"fingerprint": fingerprint(), "hashes": hashes,
                                  "forward_f64": forward_summary()}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
