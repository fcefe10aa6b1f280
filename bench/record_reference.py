#!/usr/bin/env python3
"""Record every op's normalised report for the benchmark's reference seeds.

    python3 bench/record_reference.py

Run this only on a build whose outputs are trusted: later benchmark runs
on these seeds must reproduce the recorded reports (see `gate.py`).  A
report that breaks one of the paper's invariants is never recorded.
"""

import shutil
import sys

import gate
import run


def record(workload: str, seed: int) -> None:
    tmp = run.tmp_dir(workload, seed)
    try:
        ops = run.import_library(workload, seed, tmp)
        names = [op.name for op in ops]
        if len(set(names)) != len(names):
            raise SystemExit(f"{workload}: op names are not unique")
        result = run.run_pass(ops, None, lambda msg: print(msg, file=sys.stderr))
        if result.failed:
            raise SystemExit(f"{workload} seed {seed}: {result.failed} ops failed")
        gate.save_reference(workload, seed, dict(zip(names, result.reports)))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    for workload in run.WORKLOADS:
        for seed in gate.REFERENCE_SEEDS:
            record(workload, seed)
            print(f"recorded {gate.reference_path(workload, seed)}")
    return 0

if __name__ == "__main__":
    sys.exit(main())
