"""Adam, the unsupervised training loop, the lambda grid search, and
checkpoint round-tripping.

Training is a pure function of (config, data): pair sampling is
round-robin, every array op is deterministic, and the optimizer state is
checkpointed in full, so a resumed run continues bitwise-identically to
an uninterrupted one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tape, Tensor4, default_dtype
from .losses import MindConfig, mind_descriptor, objective
from .network import Network, NetworkConfig, VARIANTS, build, forward, forward_graph
from .volgrid import Volume


class NumericalError(FloatingPointError):
    """A non-finite value where the math guarantees a finite one on valid input."""


class NonFiniteLossError(NumericalError):
    pass


class NonFiniteGradientError(NumericalError):
    pass


class AdamState:
    """First/second moment accumulators plus the step counter.

    Moments are keyed by parameter name and live in the parameters' dtype,
    which keeps checkpoint resume bitwise-exact.
    """

    def __init__(self, params, lr: float = 1e-5, beta1: float = 0.9,
                 beta2: float = 0.999, eps_adam: float = 1e-8):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps_adam = float(eps_adam)
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
    c1 = 1.0 - state.beta1 ** state.t
    c2 = 1.0 - state.beta2 ** state.t
    for p in params:
        g = p.grad
        m = state.m[p.name]
        v = state.v[p.name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        p.value -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps_adam)
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
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if not np.isfinite(self.lam) or self.lam < 0:
            raise ValueError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0 (0 disables snapshots)")
        if not (isinstance(self.variant, str) and self.variant in VARIANTS):
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"choose from {sorted(VARIANTS)}")

    def network_config(self) -> NetworkConfig:
        return NetworkConfig(n_scales=self.n_scales, fr_channels=self.fr_channels,
                             scale_channels=self.scale_channels, variant=self.variant,
                             seed=self.seed)

    def to_dict(self) -> dict:
        return {
            "N": self.n_scales,
            "scale_channels": list(self.network_config().scale_channels),
            "variant": self.variant,
            "fr_channels": self.fr_channels,
            "lambda": self.lam,
            "lr": self.lr,
            "iterations": self.iterations,
            "seed": self.seed,
            "mind": self.mind.to_dict(),
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        for key in ("N", "lambda", "iterations"):
            if key not in d:
                raise ValueError(f"missing config field: {key!r}")
        return cls(
            n_scales=int(d["N"]),
            iterations=int(d["iterations"]),
            lam=float(d["lambda"]),
            scale_channels=tuple(d["scale_channels"]) if d.get("scale_channels") else None,
            variant=d.get("variant", "wo_f3d"),
            fr_channels=int(d.get("fr_channels", 16)),
            lr=float(d.get("lr", 1e-5)),
            seed=int(d.get("seed", 0)),
            mind=MindConfig.from_dict(d.get("mind", {})),
            checkpoint_every=int(d.get("checkpoint_every", 0)),
        )

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _moving_fixed(item) -> tuple:
    moving, fixed = item[0], item[1]
    if not isinstance(moving, Volume) or not isinstance(fixed, Volume):
        raise TypeError("each training pair must start with (moving: Volume, fixed: Volume)")
    if moving.data.shape != fixed.data.shape:
        raise ValueError(f"pair shapes differ: {moving.data.shape} vs {fixed.data.shape}")
    return moving, fixed


def train(pairs, cfg: TrainConfig, out_dir=None, net: Network = None,
          state: AdamState = None):
    """Optimize the registration objective over the pairs, round-robin.

    Returns (net, loss_curve). When ``out_dir`` is given, periodic snapshots
    (per checkpoint_every) plus a final ``checkpoint`` land there; a
    non-finite loss dumps an ``abort`` checkpoint before raising.
    """
    pairs = [_moving_fixed(p) for p in pairs]
    if not pairs:
        raise ValueError("train needs at least one (moving, fixed) pair")
    if net is None:
        net = build(cfg.network_config())
    if state is None:
        state = AdamState(net.parameters, lr=cfg.lr)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

    fixed_descs = [mind_descriptor(fixed, cfg.mind) for _, fixed in pairs]
    curve = []
    for _ in range(cfg.iterations):
        idx = state.t % len(pairs)
        moving, fixed = pairs[idx]
        net.zero_grad()
        def numerical_abort(what):
            if out_dir is not None:
                save_checkpoint(net, state, out_dir / "abort")
            raise NonFiniteLossError(
                f"{what} at iteration {state.t + 1}"
                + (f"; state dumped to {out_dir / 'abort'}" if out_dir is not None else ""))

        with Tape() as tape:
            stacked = Tensor4(np.stack([moving.data, fixed.data]).astype(default_dtype()))
            phi = forward_graph(net, stacked)
            if not np.isfinite(phi.data).all():
                numerical_abort("non-finite displacement field")
            loss = objective(moving.data[None].astype(default_dtype()), phi,
                             fixed_descs[idx], cfg.lam, cfg.mind)
            value = float(loss.data)
            if not np.isfinite(value):
                numerical_abort(f"non-finite loss {value}")
            tape.backward(loss)
        adam_step(net.parameters, state)
        curve.append(value)
        if out_dir is not None and cfg.checkpoint_every > 0 \
                and state.t % cfg.checkpoint_every == 0:
            save_checkpoint(net, state, out_dir / f"ckpt_{state.t:06d}")
    if out_dir is not None:
        save_checkpoint(net, state, out_dir / "checkpoint")
    return net, curve


def _default_eval(net: Network, eval_set) -> float:
    from .metrics import evaluate_pair

    scores = []
    for item in eval_set:
        moving, fixed, mlab, flab = item[0], item[1], item[2], item[3]
        field = forward(net, moving, fixed)
        report = evaluate_pair(field, mlab, flab)
        scores.append(report.mean_dice())
    return float(np.mean(scores))


def grid_search_lambda(values, cfg: TrainConfig, train_set, eval_set,
                       train_fn=None, eval_fn=None):
    """Train one model per lambda; pick the best mean Dice, ties to smaller lambda.

    Returns (best_lambda, table) where table is a list of
    {"lambda": v, "mean_dice": s} rows in the given order.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("lambda grid must be non-empty")
    if train_fn is None:
        train_fn = lambda c: train(train_set, c)[0]
    if eval_fn is None:
        eval_fn = _default_eval
    table = []
    for v in values:
        net = train_fn(replace(cfg, lam=v))
        table.append({"lambda": v, "mean_dice": float(eval_fn(net, eval_set))})
    best = max(table, key=lambda row: (row["mean_dice"], -row["lambda"]))
    return best["lambda"], table


CHECKPOINT_FORMAT = "displacement-net-checkpoint"


def save_checkpoint(net: Network, state: AdamState, path) -> None:
    """Write ``<path>.json`` (manifest) + ``<path>.bin`` (f32le params|m|v)."""
    stem = Path(path)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "version": 1,
        "config": net.config.to_dict(),
        "params": [{"name": p.name, "shape": list(p.value.shape)} for p in net.parameters],
        "adam": None,
    }
    chunks = [np.ascontiguousarray(p.value, dtype="<f4").ravel() for p in net.parameters]
    if state is not None:
        manifest["adam"] = {"t": state.t, "lr": state.lr, "beta1": state.beta1,
                            "beta2": state.beta2, "eps_adam": state.eps_adam}
        chunks += [np.ascontiguousarray(state.m[p.name], dtype="<f4").ravel()
                   for p in net.parameters]
        chunks += [np.ascontiguousarray(state.v[p.name], dtype="<f4").ravel()
                   for p in net.parameters]
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
        fh.write("\n")
    np.concatenate(chunks).tofile(stem.with_suffix(".bin"))


def load_checkpoint(path, net: Network = None):
    """Rebuild (or fill) a network plus Adam state from a checkpoint pair."""
    stem = Path(path)
    jpath, bpath = stem.with_suffix(".json"), stem.with_suffix(".bin")
    with open(jpath, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{jpath}: not a checkpoint manifest")
    if net is None:
        net = build(NetworkConfig.from_dict(manifest["config"]))
    entries = manifest["params"]
    if len(entries) != len(net.parameters):
        raise ValueError(f"{jpath}: checkpoint has {len(entries)} parameters, "
                         f"network has {len(net.parameters)} (variant mismatch?)")
    for entry, p in zip(entries, net.parameters):
        if entry["name"] != p.name or tuple(entry["shape"]) != p.value.shape:
            raise ValueError(
                f"{jpath}: parameter mismatch: checkpoint {entry['name']}{entry['shape']} "
                f"vs network {p.name}{list(p.value.shape)} (variant mismatch?)")
    n_each = sum(p.size for p in net.parameters)
    blob = np.fromfile(bpath, dtype="<f4")
    adam = manifest.get("adam")
    want = n_each * (3 if adam is not None else 1)
    if blob.size != want:
        raise ValueError(f"{bpath}: expected {want} float32 values, found {blob.size}")

    def take(offset):
        for p in net.parameters:
            yield p, blob[offset:offset + p.size].reshape(p.value.shape)
            offset += p.size

    for p, chunk in take(0):
        p.value[...] = chunk
        p.zero_grad()
    state = AdamState(net.parameters)
    if adam is not None:
        state = AdamState(net.parameters, lr=adam["lr"], beta1=adam["beta1"],
                          beta2=adam["beta2"], eps_adam=adam["eps_adam"])
        state.t = int(adam["t"])
        for p, chunk in take(n_each):
            state.m[p.name][...] = chunk
        for p, chunk in take(2 * n_each):
            state.v[p.name][...] = chunk
    return net, state
