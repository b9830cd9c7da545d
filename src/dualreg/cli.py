"""Command-line pipeline: synthesize data, train, register, evaluate,
gradient-check, and audit parameter counts.

Exit codes: 0 success, 1 user/input error, 2 numerical failure
(non-finite loss or a failed gradient check). Machine-readable results go
to stdout or declared output files; human summaries go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import gradsuite
from .jsonio import read_json
from .metrics import evaluate_pair
from .network import VARIANTS, NetworkConfig, build, count_parameters, forward
from .optim import TrainConfig, grid_search_lambda, load_checkpoint, train
from .stn import warp, warp_labels
from .volgrid import (
    load_field,
    load_mask,
    load_volume,
    save_field,
    save_mask,
    save_volume,
    synth_deformation,
    synth_phantom,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract reserves 2 for math."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_shape(text: str) -> tuple:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise ValueError(f"shape must look like 48x48x48, got {text!r}")
    try:
        shape = tuple(int(p) for p in parts)
    except ValueError:
        raise ValueError(f"shape must be three integers separated by 'x', got {text!r}")
    return shape


def _emit(obj) -> None:
    print(json.dumps(obj))


def cmd_synth(args) -> int:
    shape = _parse_shape(args.shape)
    moving, moving_labels = synth_phantom(args.seed, shape)
    field = synth_deformation(args.seed, shape, args.amplitude, args.sigma)
    fixed = warp(moving, field)
    fixed_labels = warp_labels(moving_labels, field)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, saver, grid in (
            ("moving", save_volume, moving),
            ("moving_labels", save_mask, moving_labels),
            ("fixed", save_volume, fixed),
            ("fixed_labels", save_mask, fixed_labels),
            ("field_true", save_field, field)):
        saver(grid, out / name)
        paths[name] = str(out / name)
    _emit(paths)
    print(f"wrote 5 grids to {out}", file=sys.stderr)
    return 0


def cmd_train(args) -> int:
    cfg = read_json(args.config, TrainConfig.from_dict)
    data = Path(args.data_dir)
    moving = load_volume(data / "moving")
    fixed = load_volume(data / "fixed")
    out = Path(args.out)
    net, curve = train([(moving, fixed)], cfg, out_dir=out)
    csv_path = out / "loss.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("iteration,loss\n")
        for i, v in enumerate(curve, 1):
            fh.write(f"{i},{v:.9g}\n")
    _emit({"checkpoint": str(out / "checkpoint"), "loss_csv": str(csv_path),
           "iterations": len(curve), "final_loss": curve[-1]})
    print(f"trained {len(curve)} iterations, final loss {curve[-1]:.6g}", file=sys.stderr)
    return 0


def cmd_register(args) -> int:
    net, _ = load_checkpoint(args.checkpoint)
    moving = load_volume(args.moving)
    fixed = load_volume(args.fixed)
    field = forward(net, moving, fixed)
    warped = warp(moving, field)
    save_field(field, args.out_field)
    save_volume(warped, args.out_warped)
    _emit({"field": str(args.out_field), "warped": str(args.out_warped),
           "max_displacement": float(np.abs(field.data).max())})
    print(f"registered {args.moving} -> {args.fixed}", file=sys.stderr)
    return 0


def cmd_evaluate(args) -> int:
    field = load_field(args.field)
    moving_labels = load_mask(args.moving_labels)
    fixed_labels = load_mask(args.fixed_labels)
    report = evaluate_pair(field, moving_labels, fixed_labels)
    report.to_json(args.report)
    _emit(report.to_dict())
    print(f"report written to {args.report}", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    results = gradsuite.run_all()
    print("name,max_rel_err,tol,status")
    for r in results:
        print(f"{r.name},{r.max_rel_err:.3e},{r.tol:.0e},{'pass' if r.passed else 'FAIL'}")
    n_pass = sum(r.passed for r in results)
    print(f"{n_pass}/{len(results)} gradient checks passed", file=sys.stderr)
    return 0 if n_pass == len(results) else 2


def cmd_params(args) -> int:
    def count(variant: str) -> int:
        return count_parameters(build(NetworkConfig(n_scales=args.n_scales, variant=variant)))

    base = count("wo_f3d")
    names = sorted(VARIANTS) if args.variant == "all" else [args.variant]
    counts = [count(name) for name in names]  # a bad variant fails before any output
    print("variant,params,ratio_vs_wo_f3d")
    for name, c in zip(names, counts):
        print(f"{name},{c},{c / base:.4f}")
    print(f"baseline wo_f3d: {base} parameters (N={args.n_scales})", file=sys.stderr)
    return 0


def cmd_lambda_search(args) -> int:
    values = [float(tok) for tok in args.values.split(",") if tok.strip()]
    cfg = read_json(args.config, TrainConfig.from_dict)
    data = Path(args.data_dir)
    moving = load_volume(data / "moving")
    fixed = load_volume(data / "fixed")
    moving_labels = load_mask(data / "moving_labels")
    fixed_labels = load_mask(data / "fixed_labels")
    best, table = grid_search_lambda(values, cfg, [(moving, fixed)],
                                     [(moving, fixed, moving_labels, fixed_labels)])
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("lambda,mean_dice\n")
        for row in table:
            fh.write(f"{row['lambda']:.9g},{row['mean_dice']:.9g}\n")
    _emit({"best_lambda": best, "table": table, "csv": str(args.out)})
    print(f"best lambda {best} (table in {args.out})", file=sys.stderr)
    return 0


def _build_parser() -> _Parser:
    root = _Parser(prog="dualreg",
                   description="Deformable volume registration: data synthesis, "
                               "training, inference, and evaluation.")
    sub = root.add_subparsers(dest="command", metavar="command")
    sub.required = True

    p = sub.add_parser("synth", help="generate a synthetic moving/fixed pair with ground truth")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--shape", required=True, help="DxHxW, e.g. 48x48x48")
    p.add_argument("--amplitude", type=float, required=True,
                   help="max displacement magnitude in voxels")
    p.add_argument("--sigma", type=float, required=True,
                   help="Gaussian smoothness of the deformation, in voxels")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="optimize a model on a data directory")
    p.add_argument("--config", required=True, help="training config JSON")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True, help="output directory for checkpoint + loss.csv")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("register", help="predict a field and warp the moving volume")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--moving", required=True)
    p.add_argument("--fixed", required=True)
    p.add_argument("--out-field", required=True)
    p.add_argument("--out-warped", required=True)
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("evaluate", help="score a field against fixed labels")
    p.add_argument("--field", required=True)
    p.add_argument("--moving-labels", required=True)
    p.add_argument("--fixed-labels", required=True)
    p.add_argument("--report", required=True, help="output EvalReport JSON path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", help="run the finite-difference gradient suite")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("params", help="parameter counts and ratios per variant")
    p.add_argument("--variant", required=True, help="variant name or 'all'")
    p.add_argument("--n-scales", type=int, default=4)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("lambda-search", help="grid-search the regularization weight")
    p.add_argument("--values", required=True, help="comma-separated lambdas, e.g. 0.5,1.5,3")
    p.add_argument("--config", required=True)
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=cmd_lambda_search)
    return root


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except FloatingPointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
