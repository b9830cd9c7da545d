"""End-to-end checks of the command-line surface.

Everything runs in-process through cli.main(argv) so exit codes and
stdout/stderr routing are asserted directly. The pipeline test chains
synth -> train -> register -> evaluate at 16^3 with a 4-channel model;
it is the slowest test in this file by far.
"""

import json

import numpy as np
import pytest

from dualreg import gradsuite
from dualreg.cli import main
from dualreg.volgrid import load_field, load_volume

GRID_NAMES = ("moving", "moving_labels", "fixed", "fixed_labels", "field_true")


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


@pytest.mark.parametrize("bad,named", [(dict(shape="8x8x8"), "(8, 8, 8)"),
                                       (dict(shape="0x16x16"), "(0, 16, 16)"),
                                       (dict(amplitude=-1.0), "-1.0"),
                                       (dict(sigma=-2.5), "-2.5"),
                                       (dict(amplitude=float("nan")), "amplitude must be finite"),
                                       (dict(amplitude=float("inf")), "amplitude must be finite"),
                                       (dict(sigma=float("nan")), "sigma must be finite"),
                                       (dict(sigma=float("inf")), "sigma must be finite"),
                                       (dict(shape="100000x100000x100000"),
                                        "Unable to allocate")],
                         ids=["shape-8", "shape-0", "amplitude", "sigma", "amplitude-nan",
                              "amplitude-inf", "sigma-nan", "sigma-inf", "shape-too-large"])
def test_synth_bad_input_exits_one_before_writing(tmp_path, capsys, bad, named):
    code, out, err = run(capsys, *synth_args(tmp_path / "d", **bad))
    assert code == 1
    assert out == "" and named in err and "Traceback" not in err
    assert not (tmp_path / "d").exists()


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
    code, out, err = run(capsys, "params", "--variant", "bogus")
    assert code == 1
    assert out == ""
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
        code, _, _ = run(capsys, "train", "--config", str(cfg),
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


def test_train_bad_network_config_exits_one_before_writing(tmp_path, capsys):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tiny_config(tmp_path / "cfg.json", N=0)
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "n_scales" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("lr", [-1e-3, 0.0])
def test_train_nonpositive_lr_exits_one_before_writing(tmp_path, capsys, lr):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tiny_config(tmp_path / "cfg.json", lr=lr)
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 1
    assert str(cfg) in err and "lr must be positive" in err
    assert not (tmp_path / "run").exists()


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


def test_train_mind_not_an_object_exits_one(tmp_path, capsys):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"N": 1, "lambda": 1.0, "iterations": 1, "mind": [1]}))
    code, _, err = run(capsys, "train", "--config", str(cfg),
                       "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 1
    assert "'mind'" in err


@pytest.mark.parametrize("edit,named", [
    (dict(learning_rate=1e-3), "learning_rate"),
    (dict(mind={"patch_radious": 3}), "patch_radious"),
    (dict(N=1.9), "'N'"),
    (dict(scale_channels=[4.5]), "scale_channels"),
    (dict(mind={"patch_radius": 1.5}), "patch_radius"),
    ('{"N": 1, lambda: 0.5}', "line 1 column"),
    (dict(N=True), "'N'"),
    (dict(seed=False), "'seed'"),
    (dict(checkpoint_every=True), "'checkpoint_every'"),
    (dict(lr=float("nan")), "'lr'"),
    (dict(lr=float("inf")), "'lr'"),
    (dict(lr=float("-inf")), "'lr'"),
    (dict(mind={"eps": float("nan")}), "'eps'"),
    (dict(lr="1e-3"), "'lr'"),
    ({"lambda": "1.5"}, "'lambda'"),
    ({"lambda": True}, "'lambda'"),
    (dict(scale_channels=5), "'scale_channels'"),
    ("[1, 2]", "JSON object"),
    (dict(seed=-1), "'seed'"),
], ids=["unknown-key", "unknown-mind-key", "fractional-N", "fractional-channels",
        "fractional-patch-radius", "invalid-json", "N-a-bool", "seed-a-bool",
        "checkpoint_every-a-bool", "lr-nan", "lr-inf", "lr-minus-inf", "mind-eps-nan",
        "lr-a-string", "lambda-a-string", "lambda-a-bool", "scale_channels-an-int",
        "top-level-a-list", "seed-negative"])
def test_train_bad_config_exits_one_naming_file_and_key(tmp_path, capsys, edit, named):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tmp_path / "cfg.json"
    if isinstance(edit, str):
        cfg.write_text(edit)
    else:
        tiny_config(cfg, **edit)
    code, out, err = run(capsys, "train", "--config", str(cfg),
                         "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == "" and str(cfg) in err and named in err
    assert not (tmp_path / "run").exists()


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


@pytest.mark.parametrize("field", ["config", "params", "step"])
def test_register_manifest_missing_a_field_exits_one(tmp_path, capsys, field):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tiny_config(tmp_path / "cfg.json", iterations=1)
    run(capsys, "train", "--config", str(cfg),
        "--data-dir", str(data), "--out", str(tmp_path / "run"))
    manifest = tmp_path / "run" / "checkpoint.json"
    doc = json.loads(manifest.read_text())
    del doc[field]
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "register",
                       "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                       "--moving", str(data / "moving"),
                       "--fixed", str(data / "fixed"),
                       "--out-field", str(tmp_path / "phi"),
                       "--out-warped", str(tmp_path / "warped"))
    assert code == 1
    assert "checkpoint.json" in err and repr(field) in err


@pytest.mark.parametrize("section,field", [("config", "n_scales"), ("params", "name")])
def test_register_manifest_missing_a_nested_field_exits_one(tmp_path, capsys, section, field):
    data = tmp_path / "data"
    run(capsys, *synth_args(data))
    cfg = tiny_config(tmp_path / "cfg.json", iterations=1)
    run(capsys, "train", "--config", str(cfg),
        "--data-dir", str(data), "--out", str(tmp_path / "run"))
    manifest = tmp_path / "run" / "checkpoint.json"
    doc = json.loads(manifest.read_text())
    node = doc[section][0] if section == "params" else doc[section]
    del node[field]
    manifest.write_text(json.dumps(doc))
    code, _, err = run(capsys, "register",
                       "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                       "--moving", str(data / "moving"),
                       "--fixed", str(data / "fixed"),
                       "--out-field", str(tmp_path / "phi"),
                       "--out-warped", str(tmp_path / "warped"))
    assert code == 1
    assert str(manifest) in err and repr(field) in err
    assert "Traceback" not in err


def edited(update):
    def edit(text):
        doc = json.loads(text)
        update(doc)
        return json.dumps(doc)
    return edit


MANIFEST_EDITS = {
    "params-an-int": (edited(lambda doc: doc.update(params=3)), "'params'"),
    "n_scales-a-string": (edited(lambda doc: doc["config"].update(n_scales="two")),
                          "'n_scales'"),
    "variant-a-list": (edited(lambda doc: doc["config"].update(variant=["mrb"])), "'variant'"),
    "step-null": (edited(lambda doc: doc.update(step=None)), "'step'"),
    "step-a-string": (edited(lambda doc: doc.update(step="1")), "'step'"),
    "invalid-json": (lambda text: text.replace('"format"', "format", 1), "line 2 column"),
    # the run has one scale and one Adam step; int() would truncate these back
    "n_scales-fractional": (edited(lambda doc: doc["config"].update(n_scales=1.9)),
                            "'n_scales'"),
    "step-fractional": (edited(lambda doc: doc.update(step=1.7)), "'step'"),
    "seed-fractional": (edited(lambda doc: doc["config"].update(seed=0.5)), "'seed'"),
    "seed-negative": (edited(lambda doc: doc["config"].update(seed=-1)), "'seed'"),
    # a version-1 checkpoint is not read: retrain to convert it
    "version-1": (edited(lambda doc: doc.update(version=1)), "version-2"),
    "adam-left-over": (edited(lambda doc: doc.update(adam={"t": 1, "lr": 1e-3, "beta1": 0.9,
                                                           "beta2": 0.999, "eps_adam": 1e-8})),
                       "unknown field(s): ['adam']"),
}


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A synthetic pair and a one-iteration checkpoint of it."""
    root = tmp_path_factory.mktemp("trained")
    assert main(synth_args(root / "data")) == 0
    cfg = tiny_config(root / "cfg.json", iterations=1)
    assert main(["train", "--config", str(cfg), "--data-dir", str(root / "data"),
                 "--out", str(root / "run")]) == 0
    return root


@pytest.mark.parametrize("edit,named", MANIFEST_EDITS.values(), ids=MANIFEST_EDITS.keys())
def test_register_bad_manifest_names_the_manifest(tmp_path, capsys, trained_run, edit, named):
    ckpt = tmp_path / "checkpoint"
    manifest = ckpt.with_suffix(".json")
    manifest.write_text(edit((trained_run / "run" / "checkpoint.json").read_text()))
    ckpt.with_suffix(".bin").write_bytes((trained_run / "run" / "checkpoint.bin").read_bytes())
    capsys.readouterr()  # the fixture's own output, on its first use
    code, out, err = run(capsys, "register", "--checkpoint", str(ckpt),
                         "--moving", str(trained_run / "data" / "moving"),
                         "--fixed", str(trained_run / "data" / "fixed"),
                         "--out-field", str(tmp_path / "phi"),
                         "--out-warped", str(tmp_path / "warped"))
    assert code == 1
    assert out == "" and str(manifest) in err and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "phi.json").exists()


def nan_voxel(payload):
    voxels = np.frombuffer(payload, "<f4").copy()
    voxels[100] = np.nan
    return voxels.tobytes()


GRID_EDITS = {
    "shape-fractional": (edited(lambda h: h.update(shape=[16.9, 16, 16])), "'shape'"),
    "shape-strings": (edited(lambda h: h.update(shape=["16", "16", "16"])), "'shape'"),
    "shape-an-int": (edited(lambda h: h.update(shape=16)), "'shape'"),
    "channels-fractional": (edited(lambda h: h.update(channels=1.5)), "'channels'"),
    "channels-a-bool": (edited(lambda h: h.update(channels=True)), "'channels'"),
    "spacing-nan": (edited(lambda h: h.update(spacing_mm=[float("nan"), 1.0, 1.0])),
                    "'spacing_mm'"),
    "nan-voxel": (None, "non-finite"),
}


@pytest.mark.parametrize("edit,named", GRID_EDITS.values(), ids=GRID_EDITS.keys())
def test_register_bad_moving_grid_names_the_grid(tmp_path, capsys, trained_run, edit, named):
    moving = tmp_path / "moving"
    header = (trained_run / "data" / "moving.json").read_text()
    payload = (trained_run / "data" / "moving.raw").read_bytes()
    moving.with_suffix(".json").write_text(edit(header) if edit else header)
    moving.with_suffix(".raw").write_bytes(payload if edit else nan_voxel(payload))
    capsys.readouterr()  # the fixture's own output, on its first use
    code, out, err = run(capsys, "register", "--checkpoint", str(trained_run / "run" / "checkpoint"),
                         "--moving", str(moving), "--fixed", str(trained_run / "data" / "fixed"),
                         "--out-field", str(tmp_path / "phi"),
                         "--out-warped", str(tmp_path / "warped"))
    assert code == 1
    assert out == "" and str(moving.with_suffix(".json")) in err and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "phi.json").exists()


@pytest.mark.parametrize("which", ["moving", "fixed"])
def test_a_volume_that_is_not_normalized_is_rejected(tmp_path, capsys, trained_run, which):
    """The similarity term reads intensities in [0, 1]: with one volume of
    the pair scaled by 5, register and train exit 1 and name that volume."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("moving", "fixed"):
        for ext in (".json", ".raw"):
            (data / name).with_suffix(ext).write_bytes(
                (trained_run / "data" / name).with_suffix(ext).read_bytes())
    raw = (data / which).with_suffix(".raw")
    raw.write_bytes((np.frombuffer(raw.read_bytes(), "<f4") * np.float32(5)).tobytes())
    named = f"the {which} volume must be normalized to [0, 1]"
    capsys.readouterr()
    code, out, err = run(capsys, "register", "--checkpoint", str(trained_run / "run" / "checkpoint"),
                         "--moving", str(data / "moving"), "--fixed", str(data / "fixed"),
                         "--out-field", str(tmp_path / "phi"),
                         "--out-warped", str(tmp_path / "warped"))
    assert code == 1 and out == "" and named in err
    assert not (tmp_path / "phi.json").exists()
    code, out, err = run(capsys, "train", "--config", str(trained_run / "cfg.json"),
                         "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 1 and out == "" and named in err
    assert not (tmp_path / "run").exists()


def test_a_pair_on_two_grids_is_rejected(tmp_path, capsys, trained_run):
    """A moving volume at 2 mm against a fixed one at 1 mm: register and
    train both refuse the pair."""
    data = tmp_path / "data"
    data.mkdir()
    for name in ("moving", "fixed"):
        for ext in (".json", ".raw"):
            (data / name).with_suffix(ext).write_bytes(
                (trained_run / "data" / name).with_suffix(ext).read_bytes())
    header = data / "moving.json"
    header.write_text(edited(lambda h: h.update(spacing_mm=[2.0, 2.0, 2.0]))(header.read_text()))
    capsys.readouterr()
    code, out, err = run(capsys, "register", "--checkpoint", str(trained_run / "run" / "checkpoint"),
                         "--moving", str(data / "moving"), "--fixed", str(data / "fixed"),
                         "--out-field", str(tmp_path / "phi"),
                         "--out-warped", str(tmp_path / "warped"))
    assert code == 1 and out == "" and "spacings differ" in err
    code, out, err = run(capsys, "train", "--config", str(trained_run / "cfg.json"),
                         "--data-dir", str(data), "--out", str(tmp_path / "run"))
    assert code == 1 and out == "" and "spacings differ" in err
    assert not (tmp_path / "run").exists()


def test_a_pair_that_2_to_the_n_does_not_divide_is_rejected(tmp_path, capsys, trained_run):
    """A 16^3 pair with N = 5: train refuses it before --out exists."""
    cfg = tiny_config(tmp_path / "cfg.json", N=5, scale_channels=None)
    capsys.readouterr()
    code, out, err = run(capsys, "train", "--config", str(cfg),
                         "--data-dir", str(trained_run / "data"), "--out", str(tmp_path / "run"))
    assert code == 1 and out == "" and "divisible by 2^5 = 32" in err
    assert not (tmp_path / "run").exists()


def test_readers_keep_accepting_what_they_accepted(tmp_path, capsys, trained_run):
    """What every reader still takes: an integral float for an integer, an
    integer for a float, ``offsets`` inside ``mind``, a header without
    ``channels``, and the manifest ``train`` writes."""
    cfg = tiny_config(tmp_path / "cfg.json", N=1.0, iterations=1.0, seed=0.0, lr=1,
                      scale_channels=[4.0], mind={"offsets": [[1, 0, 0], [0, 1, 0]]},
                      **{"lambda": 1})
    assert "channels" not in json.loads((trained_run / "data" / "moving.json").read_text())
    code, _, _ = run(capsys, "train", "--config", str(cfg),
                     "--data-dir", str(trained_run / "data"), "--out", str(tmp_path / "run"))
    assert code == 0
    code, _, _ = run(capsys, "register", "--checkpoint", str(tmp_path / "run" / "checkpoint"),
                     "--moving", str(trained_run / "data" / "moving"),
                     "--fixed", str(trained_run / "data" / "fixed"),
                     "--out-field", str(tmp_path / "phi"),
                     "--out-warped", str(tmp_path / "warped"))
    assert code == 0


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

