#!/usr/bin/env python3
"""Paired benchmark runs of a parent rev against a change, kept as a file.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_<PR>.json \
        --workload gt --seed 7 --pairs 10

Each side is the committed tree of its rev, `git archive REV` unpacked in
a temporary directory.  Each side first makes one untimed warm-up run,
since a cold first run after the host idles reads 30-50% low.  Then the
pairs run, the parent first in even pairs and the change first in odd ones:
each run is `bench/run.py --workload W --seed N --seconds S` in its own
process, from its side's tree, with S the `run_seconds` of BENCHMARK.json.
This script imports nothing from sparsecode.

The output file holds one entry per run of this script, keyed by workload
and seed; an entry is added to an existing file and never replaces one, so
a rerun of a workload and seed is keyed "#2", "#3" and so on.  An entry
holds every run's `correct`, `failed`, `env` line and end-to-end metrics,
each side's failed operations and incorrect runs, and for each `end_to_end` metric of BENCHMARK.json each side's median,
quartiles and range, the pairs the change won and a verdict by `verdict`'s
rule.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from itertools import count
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quartiles(values: list[float]) -> tuple[float, float]:
    """The first and third quartiles, by the inclusive method; one value is
    both."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float,
            failures: tuple[int, int]) -> dict:
    """One metric's verdict over paired runs: run i of each side is pair i.
    `failures` is each side's count of failed operations and incorrect
    runs, parent then change.

    "gain": the change is better in at least 9 of every 10 pairs, a tie
    counting for neither side, its median is better than the parent's by
    more than the parent's interquartile range, and it fails no more than
    the parent.  "regression": its
    median is worse than the parent's by more than `bound` times the
    parent's median, the rule of BENCHMARK.json.  "unresolved": neither,
    but the parent's interquartile range is wider than that bound, and not
    every change run is better than every parent run.  Anything else is
    "parity"."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    base = statistics.median(parent)
    gap = sign * (statistics.median(change) - base)
    q1, q3 = quartiles(parent)
    if 10 * won >= 9 * len(parent) and gap > q3 - q1 and failures[1] <= failures[0]:
        judged = "gain"
    elif -gap > bound * abs(base):
        judged = "regression"
    elif q3 - q1 > bound * abs(base) and (
            min(sign * c for c in change) <= max(sign * p for p in parent)):
        judged = "unresolved"
    else:
        judged = "parity"
    return {"pairs_won": won, "pairs": len(parent), "verdict": judged}


def summary(values: list[float]) -> dict:
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def archived(rev: str, tree: Path) -> Path:
    """The committed tree of rev, unpacked into the new directory tree."""
    tree.mkdir()
    tar = tree.with_suffix(".tar")
    subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(tar), rev],
                   check=True)
    with tarfile.open(tar) as archive:
        archive.extractall(tree, filter="data")
    return tree


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py process: its env line and its final JSON line."""
    done = subprocess.run(
        [sys.executable, str(tree / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"bench/run.py in {tree} exited {done.returncode}:\n{done.stderr}")
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    last = json.loads(lines[-1])
    return {"correct": last["correct"], "failed": last["failed"], "env": env,
            "metrics": {name: m["value"] for name, m in last["metrics"].items()}}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git rev of the parent side")
    p.add_argument("--change", required=True, help="git rev of the change side")
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    seconds = spec["run_seconds"]

    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: archived(getattr(args, side), Path(tmp) / side)
                 for side in ("parent", "change")}
        for tree in trees.values():
            bench_run(tree, args.workload, args.seed, seconds)
        runs = []
        for i in range(args.pairs):
            for side in ("change", "parent") if i % 2 else ("parent", "change"):
                runs.append({"side": side, "pair": i, **bench_run(
                    trees[side], args.workload, args.seed, seconds)})
                print(f"pair {i} {side}: {runs[-1]['metrics']}", file=sys.stderr, flush=True)

    failures = tuple(sum(r["failed"] + (not r["correct"]) for r in runs if r["side"] == side)
                     for side in trees)
    metrics = {}
    for m in spec["end_to_end"]:
        sides = {side: [r["metrics"][m["name"]] for r in runs if r["side"] == side]
                 for side in trees}
        metrics[m["name"]] = {"better": m["better"], "bound": m["bound"],
                              **{side: summary(v) for side, v in sides.items()},
                              **verdict(sides["parent"], sides["change"], m["better"],
                                        m["bound"], failures)}
    entry = {"workload": args.workload, "seed": args.seed, "seconds": seconds,
             "parent": args.parent, "change": args.change,
             "failures": dict(zip(trees, failures)),
             "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
             "metrics": metrics, "runs": runs}
    book = json.loads(args.out.read_text()) if args.out.is_file() else {}
    key = base = f"{args.workload} seed {args.seed}"
    for n in count(2):
        if key not in book:
            break
        key = f"{base} #{n}"
    book[key] = entry
    args.out.write_text(json.dumps(book, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{args.workload} seed {args.seed} {name}: parent {m['parent']['median']:.4g} "
              f"change {m['change']['median']:.4g} ({m['pairs_won']}/{m['pairs']} won) "
              f"{m['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
