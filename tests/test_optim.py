"""Adam semantics, the training loop, checkpoints, and the lambda grid search."""

import numpy as np
import pytest

from dualreg.autodiff import Parameter, precision
from dualreg.losses import LossWeights, total_loss
from dualreg.network import VARIANTS, NetworkConfig, build, forward
from dualreg.optim import (
    AdamState,
    NonFiniteGradientError,
    NonFiniteLossError,
    TrainConfig,
    adam_step,
    grid_search_lambda,
    load_checkpoint,
    save_checkpoint,
    train,
)
from dualreg.volgrid import synth_deformation, synth_phantom
from dualreg.stn import warp


def tiny_cfg(**kw):
    base = dict(n_scales=1, iterations=2, lam=1.5, scale_channels=(4,),
                fr_channels=4, lr=1e-3, seed=0)
    base.update(kw)
    return TrainConfig(**base)


def make_pair(seed=0, shape=(16, 16, 16)):
    moving, _ = synth_phantom(seed, shape)
    truth = synth_deformation(seed + 100, shape, amplitude=1.5, smoothness_sigma=6.0)
    fixed = warp(moving, truth)
    return moving, fixed


# ------------------------------------------------------------------ adam


def test_zero_grad_step_changes_nothing_but_t():
    p = Parameter("p", np.arange(4, dtype=np.float32))
    state = AdamState([p], lr=0.1)
    before = p.value.copy()
    adam_step([p], state)
    np.testing.assert_array_equal(p.value, before)
    assert state.t == 1


def test_first_step_magnitude_is_about_lr():
    p = Parameter("p", np.zeros(3, np.float32))
    p.grad[...] = np.array([5.0, -0.01, 300.0], np.float32)
    state = AdamState([p], lr=1e-3)
    adam_step([p], state)
    # bias-corrected first step is lr * g/(|g| + eps'), i.e. lr * sign(g)
    np.testing.assert_allclose(np.abs(p.value), 1e-3, rtol=1e-3)
    assert p.value[0] < 0 and p.value[1] > 0 and p.value[2] < 0
    assert not p.grad.any()  # grads cleared after the step


def test_adam_drives_a_quadratic_to_its_minimum():
    p = Parameter("x", np.array([0.0], np.float32))
    state = AdamState([p], lr=0.1)
    for _ in range(400):
        p.grad[...] = 2.0 * (p.value - 3.0)
        adam_step([p], state)
    assert abs(float(p.value[0]) - 3.0) < 0.05


def test_non_finite_grad_names_the_parameter():
    p = Parameter("enc1.fuse.w", np.zeros(2, np.float32))
    q = Parameter("ok", np.zeros(2, np.float32))
    p.grad[...] = np.array([1.0, np.nan], np.float32)
    state = AdamState([p, q])
    with pytest.raises(NonFiniteGradientError, match="enc1.fuse.w"):
        adam_step([p, q], state)


# ------------------------------------------------------------ TrainConfig


def test_train_config_roundtrip_and_missing_field():
    cfg = tiny_cfg(lam=0.5, checkpoint_every=3)
    d = cfg.to_dict()
    assert d["lambda"] == 0.5 and d["N"] == 1
    assert TrainConfig.from_dict(d) == cfg
    d.pop("lambda")
    with pytest.raises(ValueError, match="lambda"):
        TrainConfig.from_dict(d)


def test_train_config_variant_must_be_a_name():
    with pytest.raises(ValueError, match="wo_f3d"):
        tiny_cfg(variant=VARIANTS["mrb"])


def test_train_config_validation():
    with pytest.raises(ValueError):
        tiny_cfg(iterations=0)
    with pytest.raises(ValueError):
        tiny_cfg(lam=-1.0)


# ------------------------------------------------------------------ train


def test_train_returns_curve_and_updates_weights():
    pair = make_pair(1)
    cfg = tiny_cfg(iterations=3)
    net, curve = train([pair], cfg)
    assert len(curve) == 3
    assert all(np.isfinite(v) for v in curve)
    fresh = build(cfg.network_config())
    moved = any((a.value != b.value).any()
                for a, b in zip(net.parameters, fresh.parameters))
    assert moved


def test_first_training_loss_is_the_total_loss_of_the_initial_field():
    moving, fixed = make_pair(7)
    cfg = TrainConfig(n_scales=2, iterations=1, lam=1.5, variant="mrb", lr=1e-3, seed=0)
    field = forward(build(cfg.network_config()), moving, fixed)
    _, curve = train([(moving, fixed)], cfg)
    assert curve[0] == total_loss(moving, fixed, field, LossWeights(cfg.lam), cfg.mind)


def test_train_is_deterministic():
    pair = make_pair(2)
    cfg = tiny_cfg(iterations=2)
    net1, curve1 = train([pair], cfg)
    net2, curve2 = train([pair], cfg)
    assert curve1 == curve2
    for a, b in zip(net1.parameters, net2.parameters):
        np.testing.assert_array_equal(a.value, b.value)


def test_non_finite_loss_aborts_with_dump(tmp_path):
    moving, fixed = make_pair(3)
    # an absurd lr overflows the weights after step 1, so step 2 sees a
    # non-finite forward pass and must dump state before raising
    cfg = tiny_cfg(iterations=2, lr=1e30)
    with pytest.raises((NonFiniteLossError, NonFiniteGradientError)):
        train([(moving, fixed)], cfg, out_dir=tmp_path)
    assert (tmp_path / "abort.json").exists()


# ------------------------------------------------------------ checkpoints


def test_checkpoint_roundtrip_bitwise(tmp_path):
    pair = make_pair(4)
    cfg = tiny_cfg(iterations=2)
    net, _ = train([pair], cfg)
    state = AdamState(net.parameters, lr=cfg.lr)
    save_checkpoint(net, state, tmp_path / "ck")
    assert (tmp_path / "ck.json").exists() and (tmp_path / "ck.bin").exists()

    net2, state2 = load_checkpoint(tmp_path / "ck")
    for a, b in zip(net.parameters, net2.parameters):
        assert a.name == b.name
        np.testing.assert_array_equal(a.value, b.value)
    assert state2.lr == state.lr and state2.t == state.t


def test_resume_matches_uninterrupted_run(tmp_path):
    pair = make_pair(5)
    straight_net, straight_curve = train([pair], tiny_cfg(iterations=10))

    half_net, half_curve = train([pair], tiny_cfg(iterations=5), out_dir=tmp_path)
    net2, state2 = load_checkpoint(tmp_path / "checkpoint")
    resumed_net, resumed_curve = train([pair], tiny_cfg(iterations=5),
                                       net=net2, state=state2)

    assert half_curve + resumed_curve == straight_curve
    for a, b in zip(straight_net.parameters, resumed_net.parameters):
        np.testing.assert_array_equal(a.value, b.value)


def test_checkpoint_rejects_mismatched_network(tmp_path):
    net = build(NetworkConfig(n_scales=1, fr_channels=4, scale_channels=(4,)))
    state = AdamState(net.parameters)
    save_checkpoint(net, state, tmp_path / "ck")
    other = build(NetworkConfig(n_scales=1, fr_channels=8, scale_channels=(8,)))
    with pytest.raises(ValueError):
        load_checkpoint(tmp_path / "ck", net=other)


def test_checkpoint_parameter_order_is_pinned():
    # the .bin payload is read back in this order, so a reordering orphans
    # every checkpoint written before it
    net = build(NetworkConfig(n_scales=1, fr_channels=4, scale_channels=(4,), variant="mrb"))
    f3d = ("hw.w", "hw.b", "d.w", "d.b")
    sites = [
        ("stem.conv", f3d), ("stem.rb.conv1", f3d), ("stem.rb.conv2", f3d),
        ("enc1.fuse", f3d), ("enc1.rb.conv1", f3d), ("enc1.rb.conv2", f3d),
        ("enc1.bottleneck", ("w", "b")),
        ("deep1.fuse", f3d), ("deep1.rb.conv1", f3d), ("deep1.rb.conv2", f3d),
        ("deep1.bottleneck", ("w", "b")),
        ("deep2.fuse", f3d), ("deep2.rb.conv1", f3d), ("deep2.rb.conv2", f3d),
        ("deep2.bottleneck", ("w", "b")),
        ("head.rb1.conv1", f3d), ("head.rb1.conv2", f3d), ("head.mid", f3d),
        ("head.rb2.conv1", f3d), ("head.rb2.conv2", f3d), ("head.out", ("w", "b")),
    ]
    assert [p.name for p in net.parameters] == \
        [f"{site}.{suffix}" for site, suffixes in sites for suffix in suffixes]


def test_checkpoint_snapshots_at_cadence(tmp_path):
    pair = make_pair(6)
    train([pair], tiny_cfg(iterations=4, checkpoint_every=2), out_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.glob("ckpt_*.json"))
    assert names == ["ckpt_000002.json", "ckpt_000004.json"]
    assert (tmp_path / "checkpoint.json").exists()


# ------------------------------------------------------------ grid search


def test_grid_search_picks_best_dice():
    scores = {0.5: 0.70, 1.5: 0.80, 3.0: 0.75}
    best, table = grid_search_lambda(
        [0.5, 1.5, 3.0], tiny_cfg(), train_set=None, eval_set=None,
        train_fn=lambda c: c.lam, eval_fn=lambda lam, _: scores[lam])
    assert best == 1.5
    assert [row["lambda"] for row in table] == [0.5, 1.5, 3.0]
    assert table[1]["mean_dice"] == 0.80


def test_grid_search_tie_prefers_smaller_lambda():
    best, _ = grid_search_lambda(
        [0.5, 1.5], tiny_cfg(), None, None,
        train_fn=lambda c: c.lam, eval_fn=lambda lam, _: 0.6)
    assert best == 0.5
    with pytest.raises(ValueError):
        grid_search_lambda([], tiny_cfg(), None, None)
