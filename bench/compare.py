#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 bench/compare.py BASE NEW

BASE and NEW are directories (or single files) of runs: either the records
bench/run.py writes under bench/out/runs/, or a run's captured stdout, whose
last two lines are the run line and the result line. Runs of both trace
modes may be mixed; each metric is compared over the runs that report it.

For every (workload, metric) pair the script prints both medians and their
quartile spreads ((q3 - q1) / median). End-to-end metrics then get a verdict
against their bound in BENCHMARK.json:

- unresolved: a spread is wider than the bound, unless every NEW run beats
  every BASE run (better);
- worse: NEW's median is worse than BASE's by more than the bound;
- better: NEW's median is better by more than BASE's own spread;
- within bound: otherwise.

The exit code is 0 unless a run is marked incorrect or an input has no runs.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_run(path):
    text = path.read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError:
        obj = None
    if isinstance(obj, dict) and "run" in obj and "result" in obj:
        return obj["run"], obj["result"]
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: not a benchmark run")
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def load_set(where):
    where = Path(where)
    files = sorted(p for p in where.iterdir() if p.is_file()) if where.is_dir() else [where]
    runs = []
    for path in files:
        try:
            runs.append(read_run(path))
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            print(f"skipping {path}: {exc}", file=sys.stderr)
    return runs


def collect(runs):
    """{(workload, metric): [values]} plus the number of incorrect runs."""
    values, incorrect = {}, 0
    for run, result in runs:
        incorrect += not result.get("correct", False)
        for name, m in result["metrics"].items():
            values.setdefault((run["workload"], name), []).append(float(m["value"]))
    return values, incorrect


def spread(vals):
    med = statistics.median(vals)
    if len(vals) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, (q3 - q1) / abs(med)


def verdict(base, new, bound, better):
    sign = 1.0 if better == "lower" else -1.0
    bmed, bspread = spread(base)
    nmed, nspread = spread(new)
    if max(bspread, nspread) > bound:
        return "better" if sign * max(new) < sign * min(base) else "unresolved"
    change = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    if change > bound:
        return "worse"
    if -change > bspread:
        return "better"
    return "within bound"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    sets = [load_set(args.base), load_set(args.new)]
    if not all(sets):
        print("error: an input holds no runs", file=sys.stderr)
        return 1
    (base, bad_base), (new, bad_new) = collect(sets[0]), collect(sets[1])
    for label, runs in (("base", sets[0]), ("new", sets[1])):
        commits = sorted({r["env"].get("commit", "?")[:12] for r, _ in runs})
        print(f"{label}: {len(runs)} runs, commit {', '.join(commits)}")

    print(f"{'workload':16s} {'metric':40s} {'unit':8s} {'base':>12s} {'spread':>7s} "
          f"{'new':>12s} {'spread':>7s} {'change':>8s}  verdict")
    for key in sorted(set(base) | set(new)):
        workload, name = key
        b, n = base.get(key), new.get(key)
        if not b or not n:
            print(f"{workload:16s} {name:40s} only in {'new' if n else 'base'}")
            continue
        (bmed, bs), (nmed, ns) = spread(b), spread(n)
        change = (nmed - bmed) / abs(bmed) if bmed else 0.0
        v = verdict(b, n, *bounds[name]) if name in bounds else "-"
        print(f"{workload:16s} {name:40s} {units.get(name, ''):8s} {bmed:12.4g} {bs:7.3f} "
              f"{nmed:12.4g} {ns:7.3f} {change:+8.3f}  {v}")
    if bad_base or bad_new:
        print(f"incorrect runs: base {bad_base}, new {bad_new}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
