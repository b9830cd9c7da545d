#!/usr/bin/env python3
"""dualreg benchmark: train, register and evaluate at 48^3.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. One process runs one workload as a closed
loop with a single caller, driving the program only through its public
functions. Set-up is timed apart from the timed loop. With ``--trace 0``
the last line of stdout holds the end-to-end metrics, measured untraced;
with ``--trace 1`` it holds the per-layer metrics of bench/tracing.py. The
line before it names the run and its environment. Every run checks the
program's outputs against bench/reference.py and reports the result as
``correct``. Metric names and units come from BENCHMARK.json.
"""

import os

# BLAS reads its pool size when numpy loads, so pin it before any import of numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SHAPE = (48, 48, 48)
AMPLITUDE, SIGMA = 3.0, 12.0     # the README's reference synthetic pair
# The machine's speed drifts over tens of seconds, so set-ups are sampled at
# both ends of a run: some before the timed loop and some after it.
SETUP_REPEATS = (3, 2)           # set-ups before and after the timed loop
# Every end-to-end metric is reported on every workload. The train workloads
# take register_ms and evaluate_ms from registrations after the timed loop;
# register_mrb48 takes train_step_ms from its set-up training. The evaluations
# after one registration take 12-14 ms or 17-21 ms, as the allocator's state
# left by that registration has it, so the median needs several registrations.
TRAIN_REGISTRATIONS = 6
EVALUATIONS_PER_REGISTRATION = 3
REGISTER_PAIRS = 4               # distinct pairs per register round
CHECKPOINT_ITERATIONS = 8        # set-up training of the register checkpoint
# The checkpoint trains on the README reference pair with network seed 0: after
# a few lr 1e-3 steps, whether Dice rises depends on the pair and the init
# (see bench/README.md), and the checkpoint must be a trained network on every seed.
CHECKPOINT_PAIR_SEED = 7

# name -> TrainConfig fields; ``iterations`` is the length of one round
TRAIN_WORKLOADS = {
    "train_mrb48": dict(n_scales=2, variant="mrb", lam=1.5, lr=1e-3, iterations=6),
    "train_dense_n4": dict(n_scales=4, lam=1.5, iterations=3),
}
REGISTER_CONFIG = TRAIN_WORKLOADS["train_mrb48"]
# The iteration whose loss the last loss of a train call must be below. At
# lr 1e-3 the first Adam step raises the loss, and on some seeds the last
# loss is still above the first, so train_mrb48 compares with the loss after
# that step. It held on seeds 1-20 with 6 iterations per call, and failed on
# seed 11 with 5 (see bench/README.md).
LOSS_FALLS_FROM = {"train_mrb48": 1, "train_dense_n4": 0}


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_program():
    if not (SRC / "dualreg" / "__init__.py").is_file():
        raise BenchError(f"no dualreg sources under {SRC}; run from the root of a checkout")
    for p in (str(SRC), str(BENCH)):
        if p not in sys.path:
            sys.path.insert(0, p)


# ---------------------------------------------------------------------------
# inputs

@dataclass
class Pair:
    moving: object
    fixed: object
    moving_labels: object
    fixed_labels: object
    field_true: object


def make_pair(seed):
    """Synthetic 48^3 pair: phantom, smooth ground-truth field, fixed = warped moving."""
    from dualreg import stn, volgrid

    moving, moving_labels = volgrid.synth_phantom(seed, SHAPE)
    field = volgrid.synth_deformation(seed, SHAPE, AMPLITUDE, SIGMA)
    return Pair(moving, stn.warp(moving, field), moving_labels,
                stn.warp_labels(moving_labels, field), field)


def save_pair(pair, d):
    from dualreg import volgrid

    volgrid.save_volume(pair.moving, d / "moving")
    volgrid.save_volume(pair.fixed, d / "fixed")
    volgrid.save_mask(pair.moving_labels, d / "moving_labels")
    volgrid.save_mask(pair.fixed_labels, d / "fixed_labels")
    volgrid.save_field(pair.field_true, d / "field_true")


# ---------------------------------------------------------------------------
# environment

def openblas_threads():
    """The OpenBLAS pool size in effect, read back from the library numpy loaded."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": openblas_threads(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "dualreg").rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# checks

class Checks:
    """Collects reference-check failures; a run is correct when none failed."""

    def __init__(self):
        self.failures = []
        self.passed = 0

    def run(self, fn, *args, **kwargs):
        from reference import CheckFailed

        try:
            fn(*args, **kwargs)
            self.passed += 1
        except CheckFailed as exc:
            self.failures.append(str(exc))
            print(f"CHECK FAILED {exc}", file=sys.stderr)

    def expect(self, ok, name, detail=""):
        from reference import CheckFailed

        def check():
            if not ok:
                raise CheckFailed(f"{name}: {detail}")
        self.run(check)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults():
    """Minor page faults of this process so far; the run line reports them per operation."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def timed_setup(fn, repeats):
    """Run a set-up ``repeats`` times; return the last result and the times in s."""
    times, result = [], None
    for _ in range(repeats):
        t0 = perf_counter()
        result = fn()
        times.append(perf_counter() - t0)
    return result, times


# ---------------------------------------------------------------------------
# register and evaluate, shared by every workload

@dataclass
class Registration:
    field: object
    warped: object
    reloaded: object
    report: dict
    register_ms: float
    evaluate_ms: list
    faults: int                  # minor page faults of the registration and its evaluations


def register_pair(net, d):
    """Load a pair, predict and apply its field, save both; then reload and score them."""
    from dualreg import metrics, network, stn, volgrid

    faults0, t0 = minor_faults(), perf_counter()
    moving = volgrid.load_volume(d / "moving")
    fixed = volgrid.load_volume(d / "fixed")
    field = network.forward(net, moving, fixed)
    warped = stn.warp(moving, field)
    volgrid.save_field(field, d / "field")
    volgrid.save_volume(warped, d / "warped")
    register_ms = (perf_counter() - t0) * 1e3
    evaluate_ms = []
    for _ in range(EVALUATIONS_PER_REGISTRATION):
        t0 = perf_counter()
        reloaded = volgrid.load_field(d / "field")
        report = metrics.evaluate_pair(reloaded, volgrid.load_mask(d / "moving_labels"),
                                       volgrid.load_mask(d / "fixed_labels"))
        evaluate_ms.append((perf_counter() - t0) * 1e3)
    return Registration(field, warped, reloaded, report.to_dict(), register_ms, evaluate_ms,
                        minor_faults() - faults0)


def check_registration(checks, tag, pair, d, reg):
    import numpy as np

    import reference
    from dualreg import volgrid

    checks.expect(reg.field.data.shape == (3,) + SHAPE and np.isfinite(reg.field.data).all(),
                  f"{tag} field", f"shape {reg.field.data.shape} or non-finite values")
    checks.run(reference.check_resample, f"{tag} warped vs reference", reg.warped.data,
               pair.moving.data, reg.field.data)
    checks.run(reference.check_equal, f"{tag} field reload", reg.reloaded.data, reg.field.data)
    checks.run(reference.check_equal, f"{tag} warped reload",
               volgrid.load_volume(d / "warped").data, reg.warped.data)
    checks.run(reference.check_report, f"{tag} evaluate_pair", reg.report, reg.field.data,
               pair.moving_labels.labels, pair.fixed_labels.labels, pair.fixed_labels.spacing_mm)


# ---------------------------------------------------------------------------
# train workloads

class StepClock:
    """Hook on optim.adam_step: stamps the end of every iteration.

    On the first step of a train call it also checks Adam's bound: no
    parameter moves by more than lr, up to the f32 rounding of its value.
    """

    def __init__(self, optim, checks, tracer=None):
        self.optim, self.checks, self.tracer = optim, checks, tracer
        self.stamps = []          # (time, minor faults) at the end of each iteration
        self.original = optim.adam_step

    def __enter__(self):
        self.optim.adam_step = self.step
        return self

    def __exit__(self, *exc):
        self.optim.adam_step = self.original
        return False

    def step(self, params, state):
        import numpy as np

        before = [p.value.copy() for p in params] if state.t == 0 else None
        t0 = perf_counter()
        self.original(params, state)
        adam_ms = (perf_counter() - t0) * 1e3
        if before is not None:
            worst = 0.0
            for p, old in zip(params, before):
                slack = np.spacing(np.maximum(np.abs(old), np.abs(p.value)))
                worst = max(worst, float(np.max((np.abs(p.value - old) - slack) / state.lr)))
            self.checks.expect(worst <= 1.0 + 1e-6, "adam first step",
                               f"a parameter moved {worst:.6g} x lr")
        if self.tracer is not None:
            self.tracer.cur["optim.adam_ms"] += adam_ms
            self.tracer.end_unit()
        self.stamps.append((perf_counter(), minor_faults()))

    def steps(self, since):
        """Times in ms and minor faults of the iterations of the train call
        started at ``since``, its first excluded."""
        stamps = [s for s in self.stamps if s[0] > since]
        pairs = list(zip(stamps, stamps[1:]))
        return [(b[0] - a[0]) * 1e3 for a, b in pairs], [b[1] - a[1] for a, b in pairs]


def check_curve(checks, tag, curve, iterations, falls_from):
    """Losses finite, and the last below the loss of iteration ``falls_from``."""
    import numpy as np

    checks.expect(len(curve) == iterations and np.isfinite(curve).all(),
                  f"{tag} losses finite", f"loss curve {curve}")
    checks.expect(curve[-1] < curve[falls_from], f"{tag} loss decreases",
                  f"last loss {curve[-1]!r} >= loss {falls_from} {curve[falls_from]!r}")


def run_train(name, seed, seconds, tracer, checks, work):
    """Rounds of one train call on a fresh network; after the timed loop, a
    few registrations of the pair with the last trained network."""
    import numpy as np

    import reference
    from dualreg import network, optim

    cfg = optim.TrainConfig(seed=seed, **TRAIN_WORKLOADS[name])
    d = work / "pair"

    def setup():
        pair = make_pair(seed)
        save_pair(pair, d)
        return pair, network.build(cfg.network_config())
    (pair, initial_net), setup_s = timed_setup(setup, SETUP_REPEATS[0])

    steps, faults, curves, net, attempted, failed = [], [], [], None, 0, 0
    with StepClock(optim, checks, tracer) as clock:
        t_start = perf_counter()
        while perf_counter() - t_start < seconds:
            attempted += cfg.iterations
            if tracer is not None:
                tracer.skip_next_unit()
            try:
                t0 = perf_counter()
                net, curve = optim.train([(pair.moving, pair.fixed)], cfg)
            except Exception:
                traceback.print_exc()
                failed += cfg.iterations
                continue
            step_ms, step_faults = clock.steps(t0)
            steps += step_ms
            faults += step_faults
            curves.append(curve)
            checks.expect(all(np.isfinite(p.value).all() for p in net.parameters),
                          "parameters finite", "a trained parameter is not finite")
    peak = peak_rss_mib()

    register_ms, evaluate_ms, last = [], [], None
    if net is not None:
        for _ in range(TRAIN_REGISTRATIONS):
            attempted += 1
            try:
                last = register_pair(net, d)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            finally:
                if tracer is not None:        # per-layer figures are per training iteration
                    tracer.skip_next_unit()
                    tracer.end_unit()
            register_ms.append(last.register_ms)
            evaluate_ms.extend(last.evaluate_ms)
    setup_s += timed_setup(setup, SETUP_REPEATS[1])[1]

    for k, curve in enumerate(curves):
        check_curve(checks, f"round {k}", curve, cfg.iterations, LOSS_FALLS_FROM[name])
    if curves:
        phi = network.forward(initial_net, pair.moving, pair.fixed)
        checks.run(reference.check_objective, "first loss vs reference objective",
                   curves[0][0], pair.moving.data, pair.fixed.data, phi.data, cfg.lam, cfg.mind)
    if last is not None:
        check_registration(checks, "trained pair", pair, d, last)

    samples = {"setup_s": setup_s, "peak_rss_mib": [peak], "train_step_ms": steps,
               "register_ms": register_ms, "evaluate_ms": evaluate_ms}
    return samples, attempted, failed, {"per_train_step": faults}


# ---------------------------------------------------------------------------
# register workload

def train_checkpoint(out, checks):
    """Train the register checkpoint in a child process; returns its iteration times."""
    subprocess.run([sys.executable, str(BENCH / "make_checkpoint.py"), "--out", str(out)],
                   check=True, timeout=170, cwd=ROOT)
    log = json.loads((out / "train_log.json").read_text())
    for failure in log["checks_failed"]:
        checks.failures.append(f"checkpoint training: {failure}")
    check_curve(checks, "checkpoint", log["curve"], CHECKPOINT_ITERATIONS, 0)
    return log["steps_ms"]


def run_register(name, seed, seconds, tracer, checks, work):
    """Rounds over REGISTER_PAIRS distinct pairs with a checkpoint trained at set-up."""
    import numpy as np

    import reference
    from dualreg import metrics, network, optim, volgrid

    ckpt_dir = work / "checkpoint"
    steps = train_checkpoint(ckpt_dir, checks)
    dirs = [work / f"pair{k}" for k in range(REGISTER_PAIRS)]
    load_ms = []

    def setup():
        pairs = [make_pair(1000 * seed + k) for k in range(REGISTER_PAIRS)]
        for pair, d in zip(pairs, dirs):
            save_pair(pair, d)
        t0 = perf_counter()
        net, _ = optim.load_checkpoint(ckpt_dir / "checkpoint")
        load_ms.append((perf_counter() - t0) * 1e3)
        return pairs, net
    (pairs, net), setup_s = timed_setup(setup, SETUP_REPEATS[0])
    if tracer is not None:
        tracer.per_call["optim.load_checkpoint_ms"] = load_ms
        tracer.skip_next_unit()

    register_ms, evaluate_ms, faults, attempted, failed = [], [], [], 0, 0
    first = {}       # k -> the first registration of pair k; repeats are compared to it

    def same_field(k, reg):
        checks.run(reference.check_equal, f"pair {k} registered twice", reg.field.data,
                   first[k].field.data)

    t_start = perf_counter()
    while perf_counter() - t_start < seconds:
        for k, d in enumerate(dirs):
            attempted += 1
            try:
                reg = register_pair(net, d)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            finally:
                if tracer is not None:
                    tracer.end_unit()
            if attempted > 1:
                register_ms.append(reg.register_ms)
                evaluate_ms.extend(reg.evaluate_ms)
                faults.append(reg.faults)
            if k in first:
                same_field(k, reg)
            else:
                first[k] = reg
    peak = peak_rss_mib()
    setup_s += timed_setup(setup, SETUP_REPEATS[1])[1]

    for k, reg in sorted(first.items()):
        check_registration(checks, f"pair {k}", pairs[k], dirs[k], reg)
    if first:
        same_field(0, register_pair(net, dirs[0]))

    truth = metrics.evaluate_pair(pairs[0].field_true, pairs[0].moving_labels,
                                  pairs[0].fixed_labels)
    checks.expect(all(r["dice"] == 1.0 and r["asd_mm"] == 0.0 for r in truth.labels.values())
                  and truth.folding_count == 0, "ground-truth field scores perfectly",
                  str(truth.to_dict()))
    own = make_pair(CHECKPOINT_PAIR_SEED)
    zero = volgrid.DisplacementField(np.zeros((3,) + SHAPE, np.float32))
    before = metrics.evaluate_pair(zero, own.moving_labels, own.fixed_labels).mean_dice()
    after = metrics.evaluate_pair(network.forward(net, own.moving, own.fixed),
                                  own.moving_labels, own.fixed_labels).mean_dice()
    checks.expect(after > before, "checkpoint improves its training pair",
                  f"mean Dice {after:.4f} <= zero-field {before:.4f}")

    samples = {"setup_s": setup_s, "peak_rss_mib": [peak], "train_step_ms": steps,
               "register_ms": register_ms, "evaluate_ms": evaluate_ms}
    return samples, attempted, failed, {"per_registration": faults}


WORKLOADS = {**{name: run_train for name in TRAIN_WORKLOADS}, "register_mrb48": run_register}


# ---------------------------------------------------------------------------
# command line

def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_program()
    from tracing import Tracer

    env = environment()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    checks = Checks()
    tracer = Tracer() if args.trace else None
    work.mkdir(parents=True, exist_ok=True)
    try:
        run_fn = WORKLOADS[args.workload]
        if tracer is None:
            measured = run_fn(args.workload, args.seed, args.seconds, None, checks, work)
        else:
            with tracer:
                measured = run_fn(args.workload, args.seed, args.seconds, tracer, checks, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    samples, attempted, failed, faults = measured
    values = {name: statistics.median(v) for name, v in samples.items() if v}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = tracer.summary([m["name"] for m in wanted])
    for m in wanted:
        checks.expect(values.get(m["name"]) is not None, f"{m['name']} measured",
                      "no operation completed")
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in wanted if values.get(m["name"]) is not None}
    run = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "env": env, "checks_passed": checks.passed,
           "checks_failed": checks.failures, "end_to_end_samples": samples,
           "minor_faults": {k: statistics.median(v) for k, v in faults.items() if v}}
    result = {"correct": not checks.failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = OUT / "runs" / f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}-{os.getpid()}.json"
    record.write_text(json.dumps({"run": run, "result": result}, indent=1) + "\n")
    print(json.dumps({"run": run}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
