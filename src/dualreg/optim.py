"""Adam, the unsupervised training loop, the lambda grid search, and
checkpoint round-tripping.

Training is a pure function of (config, data): pair sampling is
round-robin and every array op is deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor4
from .jsonio import done, read_json, take
from .losses import LossWeights, MindConfig, mind_descriptor, objective
from .metrics import evaluate_pair
from .network import (Network, NetworkConfig, build, forward, forward_graph,
                      validate_input_shape)
from .volgrid import check_pair


class NonFiniteLossError(FloatingPointError):
    """A non-finite field or loss in a training iteration."""


class NonFiniteGradientError(FloatingPointError):
    """A non-finite parameter gradient at an Adam step."""


BETA1, BETA2, EPS_ADAM = 0.9, 0.999, 1e-8


class AdamState:
    """First/second moment accumulators, keyed by parameter name and in the
    parameters' dtype, plus the step counter."""

    def __init__(self, params, lr: float):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)
        self.t = 0
        self.m = {p.name: np.zeros_like(p.value) for p in params}
        self.v = {p.name: np.zeros_like(p.value) for p in params}


def adam_step(params, state: AdamState) -> None:
    """One bias-corrected update in place; grads are consumed (zeroed)."""
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradientError(
                f"non-finite gradient in parameter {p.name!r} at step {state.t + 1}")
    state.t += 1
    c1 = 1.0 - BETA1 ** state.t
    c2 = 1.0 - BETA2 ** state.t
    for p in params:
        g = p.grad
        m = state.m[p.name]
        v = state.v[p.name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        p.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + EPS_ADAM)
        p.zero_grad()


@dataclass(frozen=True)
class TrainConfig:
    """Everything a training run depends on besides the data itself."""

    n_scales: int
    iterations: int
    lam: float
    scale_channels: tuple = None
    variant: str = "wo_f3d"
    fr_channels: int = 16
    lr: float = 1e-5
    seed: int = 0
    mind: MindConfig = dc_field(default_factory=MindConfig)
    checkpoint_every: int = 0

    def __post_init__(self):
        """Reject a bad config at load time; the owning types hold the rules."""
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables snapshots)")
        LossWeights(self.lam)
        AdamState([], lr=self.lr)
        self.network_config()

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(n_scales=self.n_scales, fr_channels=self.fr_channels,
                             scale_channels=self.scale_channels, variant=self.variant,
                             seed=self.seed)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Read a config object, consuming it, so a key left over is unknown."""
        mind = take(d, "mind", dict, {})
        offsets = take(mind, "offsets", [[int]], None)
        cfg = cls(
            n_scales=take(d, "N", int),
            iterations=take(d, "iterations", int),
            lam=take(d, "lambda", float),
            scale_channels=take(d, "scale_channels", [int], None) or None,
            variant=take(d, "variant", object, cls.variant),
            fr_channels=take(d, "fr_channels", int, cls.fr_channels),
            lr=take(d, "lr", float, cls.lr),
            seed=take(d, "seed", int, cls.seed),
            mind=MindConfig(offsets=MindConfig.offsets if offsets is None else offsets,
                            patch_radius=take(mind, "patch_radius", int, MindConfig.patch_radius),
                            eps=take(mind, "eps", float, MindConfig.eps)),
            checkpoint_every=take(d, "checkpoint_every", int, cls.checkpoint_every),
        )
        done(mind)
        done(d)
        return cfg


def train(pairs, cfg: TrainConfig, out_dir=None):
    """Optimize the registration objective over the pairs, round-robin.

    Returns (net, loss_curve). When ``out_dir`` is given, periodic snapshots
    (per checkpoint_every) plus a final ``checkpoint`` land there; a
    non-finite loss dumps an ``abort`` checkpoint before raising.
    """
    for moving, fixed in pairs:
        check_pair(moving, fixed)
        validate_input_shape(cfg.network_config(), moving.data.shape)
    net = build(cfg.network_config())
    state = AdamState(net.parameters, lr=cfg.lr)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    fixed_descs = [mind_descriptor(fixed, cfg.mind) for _, fixed in pairs]
    curve = []
    for _ in range(cfg.iterations):
        idx = state.t % len(pairs)
        moving, fixed = pairs[idx]
        def numerical_abort(what):
            if out_dir is not None:
                save_checkpoint(net, state.t, out_dir / "abort")
            raise NonFiniteLossError(
                f"{what} at iteration {state.t + 1}"
                + (f"; network dumped to {out_dir / 'abort'}" if out_dir is not None else ""))

        with Tape() as tape:
            phi = forward_graph(net, Tensor4(np.stack([moving.data, fixed.data])))
            if not np.isfinite(phi.data).all():
                numerical_abort("non-finite displacement field")
            loss = objective(moving.data[None], phi, fixed_descs[idx], cfg.lam, cfg.mind)
            value = float(loss.data)
            if not np.isfinite(value):
                numerical_abort(f"non-finite loss {value}")
            tape.backward(loss)
        adam_step(net.parameters, state)
        curve.append(value)
        if out_dir is not None and cfg.checkpoint_every > 0 \
                and state.t % cfg.checkpoint_every == 0:
            save_checkpoint(net, state.t, out_dir / f"ckpt_{state.t:06d}")
    if out_dir is not None:
        save_checkpoint(net, state.t, out_dir / "checkpoint")
    return net, curve


def _mean_dice(net: Network, eval_set) -> float:
    scores = []
    for moving, fixed, mlab, flab in eval_set:
        field = forward(net, moving, fixed)
        report = evaluate_pair(field, mlab, flab)
        scores.append(report.mean_dice())
    return float(np.mean(scores))


def grid_search_lambda(values, cfg: TrainConfig, train_set, eval_set):
    """Train one model per lambda; pick the best mean Dice, ties to smaller lambda.

    Returns (best_lambda, table) where table is a list of
    {"lambda": v, "mean_dice": s} rows in the given order.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("lambda grid must be non-empty")
    table = []
    for v in values:
        net, _ = train(train_set, replace(cfg, lam=v))
        table.append({"lambda": v, "mean_dice": float(_mean_dice(net, eval_set))})
    best = max(table, key=lambda row: (row["mean_dice"], -row["lambda"]))
    return best["lambda"], table


CHECKPOINT_FORMAT = "displacement-net-checkpoint"


def save_checkpoint(net: Network, step: int, path) -> None:
    """Write ``<path>.json`` (manifest) + ``<path>.bin`` (f32le params)."""
    stem = Path(path)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": 2,
        "config": net.config.to_dict(),
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in net.parameters],
        "step": step,
    }
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    np.concatenate([np.ascontiguousarray(p.value, dtype="<f4").ravel()
                    for p in net.parameters]).tofile(stem.with_suffix(".bin"))


def load_checkpoint(path):
    """Rebuild the network of a checkpoint pair; returns (net, step).

    A fault in either file is a ValueError naming the manifest."""
    stem = Path(path)

    def parse(d):
        if (take(d, "format", str), take(d, "version", int)) != (CHECKPOINT_FORMAT, 2):
            raise ValueError("not a version-2 checkpoint manifest")
        net = build(NetworkConfig.from_dict(take(d, "config", dict)))
        entries = take(d, "params", [dict])
        if len(entries) != len(net.parameters):
            raise ValueError(f"checkpoint has {len(entries)} parameters, "
                             f"network has {len(net.parameters)} (variant mismatch?)")
        for entry, p in zip(entries, net.parameters):
            name, shape = take(entry, "name", str), take(entry, "shape", [int])
            done(entry)
            if name != p.name or shape != list(p.value.shape):
                raise ValueError(f"parameter mismatch: checkpoint {name}{shape} "
                                 f"vs network {p.name}{list(p.value.shape)} (variant mismatch?)")
        step = take(d, "step", int)
        done(d)
        # the payload holds the parameters in net.parameters order
        blob = np.frombuffer(stem.with_suffix(".bin").read_bytes(), dtype="<f4")
        want = sum(p.value.size for p in net.parameters)
        if blob.size != want:
            raise ValueError(f"the .bin payload holds {blob.size} float32 values, expected {want}")
        offset = 0
        for p in net.parameters:
            p.value[...] = blob[offset:offset + p.value.size].reshape(p.value.shape)
            offset += p.value.size
        return net, step

    return read_json(stem.with_suffix(".json"), parse)
