#!/usr/bin/env python3
"""Train the register workload's checkpoint in a process of its own.

    python3 bench/make_checkpoint.py --out DIR

Trains the reference config (mrb, N=2, lambda 1.5, lr 1e-3) for a few
iterations on a fixed synthetic pair and writes ``DIR/checkpoint`` plus
``DIR/train_log.json`` (iteration times with the first excluded, the loss
curve, and any failed check). Running it apart keeps the training tape out
of the register workload's peak RSS.
"""

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import run  # pins the BLAS pool before numpy loads


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    run.load_program()
    from dualreg import optim

    pair = run.make_pair(run.CHECKPOINT_PAIR_SEED)
    cfg = optim.TrainConfig(**dict(run.REGISTER_CONFIG, seed=0,
                                   iterations=run.CHECKPOINT_ITERATIONS))
    checks = run.Checks()
    with run.StepClock(optim, checks) as clock:
        t0 = perf_counter()
        _, curve = optim.train([(pair.moving, pair.fixed)], cfg, out_dir=args.out)
    log = {"steps_ms": clock.steps(t0)[0], "curve": curve, "checks_failed": checks.failures}
    (args.out / "train_log.json").write_text(json.dumps(log) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
