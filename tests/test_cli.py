"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main(argv) so exit codes and
stdout/stderr routing are asserted directly. The pipeline test chains
synth -> train -> register -> evaluate at 16^3 with a 4-channel model;
it is the slowest test in this file by far.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dualreg
from dualreg import gradsuite
from dualreg.cli import main
from dualreg.volgrid import load_field, load_volume

GRID_NAMES = ("moving", "moving_labels", "fixed", "fixed_labels", "field_true")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


@pytest.fixture(autouse=True)
def thread_vars_restored():
    """`--serial` writes the thread variables into os.environ; undo that, so
    no later test (or the child processes it starts) inherits them."""
    saved = {var: os.environ.get(var) for var in THREAD_VARS}
    yield
    for var, value in saved.items():
        if value is None:
            os.environ.pop(var, None)
        else:
            os.environ[var] = value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_args(out_dir, seed=7, shape="16x16x16", amplitude=1.5, sigma=4.0):
    return ["synth", "--seed", str(seed), "--shape", shape,
            "--amplitude", str(amplitude), "--sigma", str(sigma),
            "--out-dir", str(out_dir)]


def tiny_config(path, **overrides):
    cfg = {"N": 1, "scale_channels": [4], "fr_channels": 4,
           "lambda": 0.5, "lr": 1e-3, "iterations": 3, "seed": 0}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


# ----------------------------------------------------------------- synth


def test_synth_writes_five_grids(tmp_path, capsys):
    code, out, err = run(capsys, *synth_args(tmp_path / "d"))
    assert code == 0
    paths = json.loads(out)
    assert sorted(paths) == sorted(GRID_NAMES)
    for name in GRID_NAMES:
        stem = tmp_path / "d" / name
        assert stem.with_suffix(".json").exists()
        assert stem.with_suffix(".raw").exists()
    assert "5 grids" in err


def test_synth_is_deterministic(tmp_path, capsys):
    run(capsys, *synth_args(tmp_path / "a"))
    run(capsys, *synth_args(tmp_path / "b"))
    for name in GRID_NAMES:
        for ext in (".json", ".raw"):
            fa = (tmp_path / "a" / name).with_suffix(ext)
            fb = (tmp_path / "b" / name).with_suffix(ext)
            assert fa.read_bytes() == fb.read_bytes(), f"{name}{ext} differs"


def test_synth_amplitude_zero_is_identity(tmp_path, capsys):
    code, _, _ = run(capsys, *synth_args(tmp_path, amplitude=0.0))
    assert code == 0
    assert (tmp_path / "moving.raw").read_bytes() == (tmp_path / "fixed.raw").read_bytes()
    field = load_field(tmp_path / "field_true")
    assert not field.data.any()


def test_synth_rejects_bad_shape_string(tmp_path, capsys):
    code, _, err = run(capsys, *synth_args(tmp_path, shape="16x16"))
    assert code == 1
    assert "shape" in err


def test_missing_required_flag_exits_one(tmp_path, capsys):
    # argparse-level errors are remapped from its default exit code 2,
    # which this interface reserves for numerical failures
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--seed", "7", "--out-dir", str(tmp_path)])
    assert exc.value.code == 1


def test_unknown_subcommand_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


# ---------------------------------------------------------------- params


def test_params_emits_csv_for_all_variants(capsys):
    code, out, err = run(capsys, "params", "--variant", "all", "--n-scales", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "variant,params,ratio_vs_wo_f3d"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert len(rows) == 7
    assert float(rows["wo_f3d"][2]) == 1.0
    # factorizing everything must shrink the model; adding streams grows it back
    assert float(rows["w_f3d"][2]) < 1.0
    assert int(rows["mrb"][1]) > int(rows["w_f3d"][1])
    assert "baseline wo_f3d" in err


def test_params_unknown_variant_exits_one(capsys):
    code, _, err = run(capsys, "params", "--variant", "bogus")
    assert code == 1
    assert "bogus" in err and "wo_f3d" in err


# -------------------------------------------------- train/register/evaluate


def test_pipeline_train_register_evaluate(tmp_path, capsys):
    data = tmp_path / "data"
    run(capsys, *synth_args(data, seed=3))
    cfg = tiny_config(tmp_path / "cfg.json")

    code, out, _ = run(capsys, "train", "--config", str(cfg),
                       "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 0
    info = json.loads(out)
    assert info["iterations"] == 3
    assert (tmp_path / "run" / "checkpoint.json").exists()
    assert (tmp_path / "run" / "checkpoint.bin").exists()
    csv_lines = (tmp_path / "run" / "loss.csv").read_text().strip().splitlines()
    assert csv_lines[0] == "iteration,loss"
    assert len(csv_lines) == 1 + 3
    assert float(csv_lines[-1].split(",")[1]) == pytest.approx(info["final_loss"], rel=1e-6)

    code, out, _ = run(capsys, "register",
                       "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                       "--moving", str(data / "moving"),
                       "--fixed", str(data / "fixed"),
                       "--out-field", str(tmp_path / "phi"),
                       "--out-warped", str(tmp_path / "warped"))
    assert code == 0
    info = json.loads(out)
    field = load_field(tmp_path / "phi")
    assert field.data.shape == (3, 16, 16, 16)
    assert info["max_displacement"] == pytest.approx(np.abs(field.data).max())
    warped = load_volume(tmp_path / "warped")
    assert warped.data.min() >= 0.0 and warped.data.max() <= 1.0

    code, out, _ = run(capsys, "evaluate", "--field", str(tmp_path / "phi"),
                       "--moving-labels", str(data / "moving_labels"),
                       "--fixed-labels", str(data / "fixed_labels"),
                       "--report", str(tmp_path / "report.json"))
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert json.loads(out) == report
    assert set(report) == {"labels", "folding_count", "jacobian_std", "runtime_s"}
    assert report["labels"]  # phantom guarantees nonzero labels


def test_train_rerun_gives_identical_checkpoint(tmp_path, capsys):
    data = tmp_path / "data"
    run(capsys, *synth_args(data, seed=5))
    cfg = tiny_config(tmp_path / "cfg.json", iterations=2)
    for name in ("x", "y"):
        code, _, _ = run(capsys, "train", "--serial", "--config", str(cfg),
                         "--data-dir", str(data), "--out", str(tmp_path / name))
        assert code == 0
    assert (tmp_path / "x" / "checkpoint.bin").read_bytes() == \
        (tmp_path / "y" / "checkpoint.bin").read_bytes()


def test_train_missing_config_field_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 1, "iterations": 3}))  # no lambda
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "lambda" in err


def test_train_malformed_variant_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 1, "lambda": 1.0, "iterations": 1,
                               "variant": {"factorize_fr": True}}))
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "wo_f3d" in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_train_divergence_exits_two_and_dumps_state(tmp_path, capsys):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tiny_config(tmp_path / "cfg.json", lr=1e30, iterations=2)
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 2
    assert "error:" in err
    assert (tmp_path / "run" / "abort.json").exists()


def test_register_shape_mismatch_exits_one(tmp_path, capsys):
    run(capsys, *synth_args(tmp_path / "a", shape="16x16x16"))
    run(capsys, *synth_args(tmp_path / "b", shape="16x16x24"))
    cfg = tiny_config(tmp_path / "cfg.json", iterations=1)
    run(capsys, "train", "--config", str(cfg),
        "--data-dir", str(tmp_path / "a"), "--out", str(tmp_path / "run"))
    code, _, err = run(capsys, "register",
                       "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                       "--moving", str(tmp_path / "a" / "moving"),
                       "--fixed", str(tmp_path / "b" / "moving"),
                       "--out-field", str(tmp_path / "phi"),
                       "--out-warped", str(tmp_path / "warped"))
    assert code == 1
    assert "shapes differ" in err


def test_evaluate_with_true_field_scores_perfectly(tmp_path, capsys):
    # fixed labels were produced by warping the moving labels with the true
    # field, so evaluating that same field must reproduce them exactly
    data = tmp_path / "data"
    run(capsys, *synth_args(data, seed=11))
    code, out, _ = run(capsys, "evaluate", "--field", str(data / "field_true"),
                       "--moving-labels", str(data / "moving_labels"),
                       "--fixed-labels", str(data / "fixed_labels"),
                       "--report", str(tmp_path / "report.json"))
    assert code == 0
    report = json.loads(out)
    for label, row in report["labels"].items():
        assert row["dice"] == 1.0, f"label {label}"
        assert row["asd_mm"] == 0.0, f"label {label}"


# ------------------------------------------------------------- gradcheck


def test_gradcheck_cli_passes_on_this_build(capsys):
    code, out, err = run(capsys, "gradcheck")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,max_rel_err,tol,status"
    assert len(lines) == 1 + len(gradsuite.CHECKS)
    assert all(ln.endswith(",pass") for ln in lines[1:])
    assert f"{len(gradsuite.CHECKS)}/{len(gradsuite.CHECKS)}" in err


def test_gradcheck_failure_exits_two(monkeypatch, capsys):
    fake = [gradsuite.CheckResult("broken_op", 1.0, 1e-6)]
    monkeypatch.setattr(gradsuite, "run_all", lambda: fake)
    code, out, _ = run(capsys, "gradcheck")
    assert code == 2
    assert "broken_op,1.000e+00,1e-06,FAIL" in out


# ---------------------------------------------------------------- serial


def test_serial_flag_pins_thread_pools(monkeypatch, capsys):
    for var in THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    code, _, _ = run(capsys, "--serial", "params", "--variant", "wo_f3d")
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "1"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"


def test_importing_the_cli_loads_no_numpy():
    # BLAS reads its thread variables when numpy loads, so --serial only
    # pins the pools if main() runs before the first numpy import
    src = str(Path(dualreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, dualreg.cli; print('numpy' in sys.modules)"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
