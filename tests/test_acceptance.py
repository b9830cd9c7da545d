"""Acceptance gate: one test per release criterion, slowest ones last.

Every test prints exactly one `CRITERION n: PASS/FAIL - detail` line with
capture suspended, so the gate's verdict is readable straight from the
pytest log, then asserts. Criteria 5-7 retrain networks at 48^3 and
dominate the runtime; the whole module takes roughly 15-20 minutes on one
desktop core. Reference numbers from the pilot runs these thresholds were
frozen against are recorded in README.md.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import dualreg
from dualreg.blocks import ConvKind, make_site
from dualreg.gradsuite import run_all
from dualreg.losses import LossWeights, total_loss
from dualreg.metrics import asd, dice, evaluate_pair, jacobian_stats
from dualreg.network import NetworkConfig, VARIANTS, build, count_parameters, forward
from dualreg.optim import TrainConfig, train
from dualreg.stn import warp, warp_labels
from dualreg.volgrid import (
    DisplacementField,
    LabelMask,
    Volume,
    synth_deformation,
    synth_phantom,
)

SHAPE = (48, 48, 48)
SEED = 7


@pytest.fixture
def verdict(capsys):
    """Emit one CRITERION line straight to the terminal, bypassing capture."""

    def emit(n, ok, detail):
        with capsys.disabled():
            print(f"\nCRITERION {n}: {'PASS' if ok else 'FAIL'} - {detail}",
                  flush=True)
        return detail

    return emit


@pytest.fixture(scope="module")
def pair48():
    moving, moving_labels = synth_phantom(SEED, SHAPE)
    truth = synth_deformation(SEED, SHAPE, 3.0, 12.0)
    fixed = warp(moving, truth)
    fixed_labels = warp_labels(moving_labels, truth)
    zero = DisplacementField(np.zeros((3,) + SHAPE, np.float32))
    baseline = evaluate_pair(zero, moving_labels, fixed_labels)
    return {"moving": moving, "fixed": fixed, "moving_labels": moving_labels,
            "fixed_labels": fixed_labels, "baseline_dice": baseline.mean_dice()}


def test_criterion_1_gradient_suite(verdict):
    t0 = time.perf_counter()
    results = run_all()
    elapsed = time.perf_counter() - t0
    worst = max(results, key=lambda r: r.max_rel_err / r.tol)
    ok = all(r.passed for r in results) and elapsed < 300.0
    detail = verdict(1, ok, f"{sum(r.passed for r in results)}/{len(results)} checks, "
                           f"worst {worst.name} {worst.max_rel_err:.2e} "
                           f"(tol {worst.tol:.0e}), {elapsed:.1f}s")
    assert ok, detail


def test_criterion_2_identity_invariants(verdict):
    moving, labels = synth_phantom(3, (16, 16, 16))
    zero = DisplacementField(np.zeros((3, 16, 16, 16), np.float32))
    warped = warp(moving, zero)
    bitwise = np.array_equal(warped.data, moving.data) and warped.data.dtype == moving.data.dtype
    loss = total_loss(moving, moving, zero, LossWeights(lam=0.0))
    det, folds, jstd = jacobian_stats(zero)
    ok = (bitwise and loss == 0.0 and np.all(det == 1.0) and folds == 0
          and jstd == 0.0 and dice(labels, labels, 1) == 1.0
          and asd(labels, labels, 1) == 0.0)
    detail = verdict(2, ok, f"zero-warp bitwise={bitwise}, loss(I,I,0)={loss}, "
                           f"det==1 all={bool(np.all(det == 1.0))}, folds={folds}, "
                           f"jstd={jstd}, self dice/asd exact")
    assert ok, detail


def test_criterion_3_analytic_jacobian(verdict):
    shape = (12, 12, 12)
    grids = np.meshgrid(*(np.arange(s, dtype=np.float64) for s in shape), indexing="ij")
    x = np.stack(grids)
    outcomes = []
    for mat, want_det, want_folds in (
            (0.1 * np.eye(3), 1.331, 0),
            (np.diag([-2.0, 0.0, 0.0]), -1.0, None)):
        u = np.einsum("ck,kdhw->cdhw", mat, x).astype(np.float32)
        det, folds, _ = jacobian_stats(DisplacementField(u))
        err = float(np.abs(det - want_det).max())
        want = det.size if want_folds is None else want_folds
        outcomes.append((err, err < 1e-5 and folds == want))
    ok = all(good for _, good in outcomes)
    detail = verdict(3, ok, f"det errors {outcomes[0][0]:.2e} (target 1.331), "
                           f"{outcomes[1][0]:.2e} (target -1); folds exact")
    assert ok, detail


def test_criterion_4_parameter_accounting(verdict):
    regular = make_site("a", 16, 16, ConvKind.REGULAR).n_params
    factorized = make_site("b", 16, 16, ConvKind.FACTORIZED).n_params
    site_ratio = factorized / regular
    per_site_ok = (regular == 6928 and factorized == 3104
                   and abs(site_ratio - 0.448) < 5e-4)

    counts = {v: count_parameters(build(NetworkConfig(n_scales=4, variant=v)))
              for v in ("wo_f3d", "w_f3d", "mrb")}
    r_f3d = counts["w_f3d"] / counts["wo_f3d"]
    r_mrb = counts["mrb"] / counts["wo_f3d"]
    windows_ok = 0.468 <= r_f3d <= 0.668 and 0.702 <= r_mrb <= 0.902

    ok = per_site_ok and windows_ok
    detail = verdict(4, ok,
                    f"per-site {regular}/{factorized} ratio {site_ratio:.3f} "
                    f"({'ok' if per_site_ok else 'BAD'}); network ratios "
                    f"{r_f3d:.4f} vs [0.468,0.668], {r_mrb:.4f} vs [0.702,0.902] "
                    f"({'ok' if windows_ok else 'BAD'}; counts {counts})")
    assert ok, detail


def test_criterion_5_synthetic_recovery(pair48, verdict):
    cfg = TrainConfig(n_scales=2, iterations=200, lam=1.5, variant="mrb",
                      lr=1e-3, seed=0)
    t0 = time.perf_counter()
    net, curve = train([(pair48["moving"], pair48["fixed"])], cfg)
    elapsed = time.perf_counter() - t0
    decile = len(curve) // 10
    ratio = float(np.mean(curve[-decile:]) / np.mean(curve[:decile]))
    field = forward(net, pair48["moving"], pair48["fixed"])
    rep = evaluate_pair(field, pair48["moving_labels"], pair48["fixed_labels"])
    gain = rep.mean_dice() - pair48["baseline_dice"]
    fold_frac = rep.folding_count / float(np.prod(SHAPE))
    ok = (ratio <= 0.7 and gain >= 0.08 and fold_frac < 0.005 and elapsed < 1200.0)
    detail = verdict(5, ok, f"loss decile ratio {ratio:.3f} (<=0.7), dice "
                           f"{pair48['baseline_dice']:.4f}->{rep.mean_dice():.4f} "
                           f"gain {gain:+.4f} (>=0.08), folds {rep.folding_count} "
                           f"({100 * fold_frac:.3f}% < 0.5%), {elapsed:.0f}s")
    assert ok, detail


def test_criterion_6_lambda_sweep_shape(pair48, verdict):
    stds = []
    for lam in (0.0, 0.5, 1.5, 3.0, 10.0):
        cfg = TrainConfig(n_scales=2, iterations=60, lam=lam, variant="mrb",
                          lr=1e-3, seed=0)
        net, _ = train([(pair48["moving"], pair48["fixed"])], cfg)
        field = forward(net, pair48["moving"], pair48["fixed"])
        _, _, jstd = jacobian_stats(field)
        stds.append(float(jstd))
    rises = [(b - a) / a for a, b in zip(stds, stds[1:]) if b > a]
    ok = len(rises) == 0 or (len(rises) == 1 and rises[0] <= 0.05)
    detail = verdict(6, ok, "jacobian_std by lambda {0,0.5,1.5,3,10}: "
                    + " ".join(f"{s:.4f}" for s in stds)
                    + f"; inversions {len(rises)}")
    assert ok, detail


def test_criterion_8_variant_matrix(pair48, verdict):
    failures = []
    for name in sorted(VARIANTS):
        spec = VARIANTS[name]
        net = build(NetworkConfig(n_scales=2, variant=name))
        field = forward(net, pair48["moving"], pair48["fixed"])
        if field.data.shape != (3,) + SHAPE or not np.isfinite(field.data).all():
            failures.append(f"{name}: bad field")
            continue
        flag = {"fr": spec.factorize_fr, "encoder": spec.factorize_encoder,
                "decoder": spec.factorize_decoder}
        for rec in net.sites:
            want = ConvKind.FACTORIZED if rec.eligible and flag[rec.region] \
                else ConvKind.REGULAR
            if rec.kind is not want:
                failures.append(f"{name}: site {rec.name} is {rec.kind.name}")
        if len(net.extra_mrbs) != spec.extra_mrbs:
            failures.append(f"{name}: {len(net.extra_mrbs)} extra MRBs")
    ok = not failures
    detail = verdict(8, ok, f"7 variants forward to (3,48,48,48); site audits exact"
                    if ok else "; ".join(failures[:4]))
    assert ok, detail


def _spawn(*argv, cwd):
    # the child runs in cwd, where a relative PYTHONPATH entry no longer resolves
    src = str(Path(dualreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.Popen([sys.executable, "-m", "dualreg.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=cwd, env=env)


def _finish(proc):
    out, err = proc.communicate()
    assert proc.returncode == 0, err
    return out


def _cli(*argv, cwd):
    return _finish(_spawn(*argv, cwd=cwd))


def test_criterion_7_determinism(tmp_path, verdict):
    (tmp_path / "cfg.json").write_text(json.dumps(
        {"N": 2, "variant": "mrb", "lambda": 1.5, "lr": 1e-3,
         "iterations": 50, "seed": 0}))
    _cli("synth", "--seed", str(SEED), "--shape", "48x48x48", "--amplitude", "3",
         "--sigma", "12", "--out-dir", "data", cwd=tmp_path)
    # the two serial runs are independent processes of one thread each, so
    # they train side by side
    runs = [_spawn("train", "--serial", "--config", "cfg.json", "--data-dir", "data",
                   "--out", f"run_{tag}", cwd=tmp_path) for tag in ("a", "b")]
    for proc in runs:
        _finish(proc)
    for tag in ("a", "b"):
        _cli("register", "--serial", "--checkpoint", f"run_{tag}/checkpoint",
             "--moving", "data/moving", "--fixed", "data/fixed",
             "--out-field", f"phi_{tag}", "--out-warped", f"w_{tag}", cwd=tmp_path)
        _cli("evaluate", "--serial", "--field", f"phi_{tag}",
             "--moving-labels", "data/moving_labels",
             "--fixed-labels", "data/fixed_labels",
             "--report", f"rep_{tag}.json", cwd=tmp_path)
    ckpt_same = (tmp_path / "run_a" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "run_b" / "checkpoint.bin").read_bytes()
    reports = []
    for tag in ("a", "b"):
        d = json.loads((tmp_path / f"rep_{tag}.json").read_text())
        d.pop("runtime_s")  # wall-clock time is the one legitimately varying field
        reports.append(json.dumps(d, sort_keys=True))
    reports_same = reports[0] == reports[1]

    out = _cli("train", "--config", "cfg.json", "--data-dir", "data",
               "--out", "run_par", cwd=tmp_path)
    par_loss = json.loads(out)["final_loss"]
    serial_loss = float((tmp_path / "run_a" / "loss.csv")
                        .read_text().strip().splitlines()[-1].split(",")[1])
    rel = abs(par_loss - serial_loss) / abs(serial_loss)
    ok = ckpt_same and reports_same and rel <= 1e-5
    detail = verdict(7, ok, f"serial checkpoints identical={ckpt_same}, reports "
                           f"(minus runtime_s) identical={reports_same}, "
                           f"parallel vs serial final loss rel diff {rel:.2e}")
    assert ok, detail
