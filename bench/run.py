#!/usr/bin/env python3
"""sparsecode benchmark: seeded closed-loop certification workloads.

    python3 bench/run.py --workload corpus|gt|cs-ld --seed N --seconds S --trace 0|1

One process, one client: each op starts when the previous one returns.  The
seed makes the inputs (`workloads.py`); sparsecode only sees those inputs
and is called in-process, through the library or `sparsecode.cli.main`.
Every op's output is checked (`gate.py`) and a failed check or an exception
counts against `ok_frac`.  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics (END_TO_END).  --trace 1 runs
untraced and traced passes in turn, then one pass under tracemalloc, and
reports the per-layer metrics (`per_layer_metrics()`) built by `tracer.py`;
spans and the full per-function table go to `.bench_out/`.

The end-to-end times are host-speed scaled.  The speed of the shared host
this benchmark was built on drifts by up to 60% over tens of seconds, in
process CPU time as much as in wall time, so raw times of whole runs spread
by 15-45% between runs of the same code and seed.  A fixed unit of Python
and numpy work that does not touch sparsecode (`calibration_s`) is timed
every CAL_EVERY_S during a pass, and each op's latency is multiplied by
CAL_REF_S / (the median of the calibrations nearest it, `Pass.scaled`):
the result reads as milliseconds on a host whose calibration unit takes
CAL_REF_S.  Raw figures are logged next to the scaled ones.  The traced run
reports raw times.

The benchmark reads and writes only inside the checkout it runs from and
exits with code 2 when `src/sparsecode` is not there.
"""

import time

_T0 = time.perf_counter()  # anchor of setup_s: before numpy or sparsecode load

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("corpus", "gt", "cs-ld")

# Seconds one untraced pass takes, calibrations aside, on a 2-vCPU x86-64
# box (Python 3.11, numpy 2.4, OpenBLAS).  A run makes round(seconds / pass) passes, so the
# number of latency samples, and with it the tail percentile, is the same
# in every run of a workload however busy the machine is.
NOMINAL_PASS_S = {"corpus": 4.0, "gt": 3.3, "cs-ld": 6.2}
SETUP_REPEATS = 5
TAIL_SAMPLES_ABOVE = 10
# Host-speed calibration (see the module docstring).  CAL_REF_S is the
# median of `calibration_s()` on the 2-vCPU x86-64 box above.
CAL_EVERY_S = 0.1
CAL_REF_S = 0.0110

# name, unit, better, bound (share of the parent's median)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("certs_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "ratio", "higher", 0.001),
]

LAYERS = ("words", "codes", "embeddings", "certify", "listdecode",
          "group_testing", "recovery", "matrixio", "cli")
KERNEL_ROWS = (
    "listdecode.list_sizes_at_radii", "certify.rip2_profile",
    "certify.flat_rip_constant", "certify.coherence", "certify.kernel_injectivity",
    "codes.code_bias", "codes.lwise_distance", "codes.lwise_bias",
    "codes.min_distance", "group_testing.verify_disjunct",
    "group_testing.verify_design", "recovery.cs_decode_exhaustive",
)
CALL_ROWS = (
    "words.bias_of_word", "codes.Code", "codes.random_linear_code_gv",
    "embeddings.sph_code", "embeddings.bool_code", "group_testing.design_from_code",
    "group_testing.gt_encode", "group_testing.gt_decode_cover",
    "group_testing.kautz_singleton", "listdecode.list_size_at_radius",
    "cli.main", "matrixio.read_matrix", "matrixio.write_matrix",
)


def _shape(a, name="m"):
    return tuple(a[name].shape)


# ROADMAP item 1 baseline instances: row, function, matching call, ROADMAP figure
BASELINE_ROWS = [
    ("row.list_size_n14", "listdecode.list_size_at_radius",
     lambda a: (a["c"].n, len(a["c"])) == (14, 16), "37-53 ms"),
    ("row.list_size_n18", "listdecode.list_size_at_radius",
     lambda a: (a["c"].n, len(a["c"])) == (18, 16), "0.6-0.9 s"),
    ("row.list_size_n20", "listdecode.list_size_at_radius",
     lambda a: (a["c"].n, len(a["c"])) == (20, 16), "3.6 s"),
    ("row.code_bias_rs7_3", "codes.code_bias",
     lambda a: (a["c"].q, len(a["c"])) == (7, 343), "1.38 s"),
    ("row.verify_design_rs11_3", "group_testing.verify_design",
     lambda a: len(a["d"].sets) == 1331, "441 ms"),
    ("row.verify_disjunct_ks7_2_L3", "group_testing.verify_disjunct",
     lambda a: _shape(a) == (49, 49) and a["L"] == 3, "~320 ms"),
    ("row.pipeline_ks_gt_q7", "cli.main",
     lambda a: list(a["argv"][:2]) == ["pipeline", "ks-gt"], "1.25 s"),
    ("row.flat_rip_n26", "certify.flat_rip_constant",
     lambda a: _shape(a)[1] == 26 and a["L0"] == 3, "361 ms, 171 MB"),
    ("row.rip2_profile_bool36x27", "certify.rip2_profile",
     lambda a: _shape(a) == (36, 27) and a["L"] == 4, "173 ms"),
    ("row.lwise_distance_c27_L5", "codes.lwise_distance",
     lambda a: len(a["c"]) == 27 and a["L"] == 5, "51 ms"),
    ("row.cs_decode_vand6x12_L3", "recovery.cs_decode_exhaustive",
     lambda a: _shape(a) == (6, 12) and a["L"] == 3, "9 ms"),
]


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [("trace.overhead", "ratio"), ("trace.unattributed_share", "ratio"),
           ("work.units_per_pass", "count")]
    for layer in LAYERS:
        out += [(f"{layer}.self_ms", "ms"), (f"{layer}.share", "ratio")]
    for fn in KERNEL_ROWS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms"),
                (f"{fn}.units", "count"), (f"{fn}.units_per_s", "1/s"),
                (f"{fn}.peak_mb", "MB")]
    for fn in CALL_ROWS:
        out += [(f"{fn}.calls", "count"), (f"{fn}.self_ms", "ms")]
    out += [("group_testing.verify_disjunct.scan_frac", "ratio"),
            ("recovery.cs_decode_exhaustive.tried_frac", "ratio"),
            ("codes.random_linear_code_gv.retries", "count")]
    for row, *_ in BASELINE_ROWS:
        out.append((f"{row}.ms", "ms"))
    out.append(("row.flat_rip_n26.peak_mb", "MB"))
    return out


# ---------------------------------------------------------------- set-up

def import_library(workload: str, seed: int, tmp: Path):
    """Import sparsecode and build the pass's ops and input files."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.pop("SPARSECODE_CAP", None)  # default caps only
    import workloads

    tmp.mkdir(parents=True, exist_ok=True)
    return workloads.build(workload, seed, tmp)


def tmp_dir(workload: str, seed: int) -> Path:
    return ROOT / ".bench_tmp" / f"{workload}-{seed}-{os.getpid()}"


def _setup_in_child(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------- environment

def _blas() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": deps.get("name"), "version": deps.get("version")}
    except (KeyError, TypeError):
        pass
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    return info


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(loadavg: tuple) -> dict:
    import numpy as np

    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": _blas(), "nproc": os.cpu_count(), "git_sha": _git_sha(),
            "loadavg_at_start": list(loadavg), "machine": platform.machine()}


# ---------------------------------------------------------------- host speed

_CAL_ARRAYS = []


def _calibration_unit() -> None:
    """About 11 ms of the kinds of work sparsecode's time goes to.

    Dict and tuple churn, an integer loop, many calls on tiny arrays, a
    small symmetric eigensolve and a sort of an array larger than L2.
    """
    import numpy as np

    if not _CAL_ARRAYS:
        rng = np.random.default_rng(0)
        sym = rng.random((96, 96))
        _CAL_ARRAYS.extend([rng.random(16), sym + sym.T, rng.random(300_000)])
    tiny, sym, big = _CAL_ARRAYS
    table = {}
    for i in range(3_000):
        table[(i, i % 13, i * 7)] = [i, i + 1]
    sorted(table, key=lambda k: k[2] % 101)
    acc = 0
    for i in range(15_000):
        acc += (i * i) ^ (i >> 3) & 0xFF
    for _ in range(150):
        float((tiny * 2.0).sum())
        np.argmax(tiny)
    for _ in range(2):
        np.linalg.eigvalsh(sym)
        sym @ sym
    np.sort(big)


def calibration_s() -> float:
    """Seconds `_calibration_unit` takes now, best of two.

    A single kind of work follows this host's speed changes badly: when the
    host sped up, calls on tiny arrays gained up to 45% and the large sort
    17%.  A mix of them followed the ops best: over six runs of each
    workload, the IQR/median of a run's total and median op time was at
    most 0.13 scaled, against 0.45 unscaled.  The collector is off while
    it runs, so the op's heap does not change its cost.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            _calibration_unit()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


# ---------------------------------------------------------------- passes

class Pass:
    """Latencies and normalised reports of one run of the op list.

    With calibration on, `cal` holds the calibration times of the pass and
    `segment[i]` the index of the last one taken before op i; the next one
    is taken after op i.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.reports: list = []
        self.failed = 0
        self.cal: list[float] = []
        self.segment: list[int] = []

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def scaled(self) -> list[float]:
        """Latencies scaled to a host whose calibration takes CAL_REF_S.

        An op's host speed is the median of the two calibrations before it
        and the two after it, so one calibration that a pause of the host
        made slow does not halve the op's time.
        """
        return [t * CAL_REF_S / statistics.median(self.cal[max(0, k - 1):k + 3])
                for t, k in zip(self.latencies, self.segment)]


def run_pass(ops, reference, log, calibrate: bool = False) -> Pass:
    import gate

    result = Pass()
    perf = time.perf_counter
    if calibrate:
        result.cal.append(calibration_s())
        since = perf()
    for op in ops:
        if calibrate:
            if perf() - since >= CAL_EVERY_S:
                result.cal.append(calibration_s())
                since = perf()
            result.segment.append(len(result.cal) - 1)
        start = perf()
        try:
            raw = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = exc
        result.latencies.append(perf() - start)
        report = None
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                report = op.report(raw)
                problems = gate.check(op, report, reference)
            except Exception as exc:
                problems = [f"report check raised {type(exc).__name__}: {exc}"]
        result.reports.append(report)
        if problems:
            result.failed += 1
            log(f"FAILED {op.name}: {'; '.join(problems[:3])}")
    if calibrate:
        result.cal.append(calibration_s())
    return result


def tail_index(n: int) -> int:
    """Sorted index of the sample with TAIL_SAMPLES_ABOVE samples above it."""
    return n - 1 - TAIL_SAMPLES_ABOVE if n > TAIL_SAMPLES_ABOVE else n - 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------- modes

def untraced(ops, passes: int, reference, log) -> tuple[dict, int, int]:
    runs = [run_pass(ops, reference, log, calibrate=True) for _ in range(passes)]
    raw = [t for r in runs for t in r.latencies]
    latencies = [t for r in runs for t in r.scaled()]
    attempted = len(latencies)
    failed = sum(r.failed for r in runs)
    # which op each latency metric reads, so a reader knows what can move it
    ranked = sorted(zip(latencies, [op.name for _ in runs for op in ops]))
    idx = tail_index(attempted)
    cal = [c for r in runs for c in r.cal]
    log(f"{passes} passes x {len(ops)} ops = {attempted} ops, {failed} failed; "
        f"op_p50_ms reads {ranked[attempted // 2][1]!r}; op_tail_ms is "
        f"p{100.0 * (idx + 1) / attempted:.1f} of {attempted} samples "
        f"and reads {ranked[idx][1]!r}")
    log(f"calibration: {len(cal)} samples, median {statistics.median(cal) * 1e3:.3f} ms "
        f"(min {min(cal) * 1e3:.3f}, max {max(cal) * 1e3:.3f}; reference "
        f"{CAL_REF_S * 1e3:.3f} ms); raw certs_per_s {attempted / sum(raw):.4f}, "
        f"op_p50_ms {statistics.median(raw) * 1e3:.3f}, "
        f"op_tail_ms {sorted(raw)[idx] * 1e3:.3f}")
    metrics = {
        "certs_per_s": _metric(attempted / sum(latencies), "1/s"),
        "op_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": _metric(ranked[idx][0] * 1e3, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed


def traced(ops, passes: int, reference, log, out_stem: Path) -> tuple[dict, int, int]:
    import gate
    from tracer import KERNELS, Tracer

    rows: dict = {}
    for row, fn, predicate, _ in BASELINE_ROWS:
        rows.setdefault(fn, []).append((row, predicate))
    # at least two pairs, so each side runs first (on a cold process) once
    pairs = max(2, passes // 2)
    plain, with_trace, snaps, row_ms = [], [], [], {}
    attempted = failed = 0
    for i in range(pairs):
        if i % 2:
            base = run_pass(ops, reference, log)
        tr = Tracer(rows=rows)
        with tr:
            traced_pass = run_pass(ops, reference, log)
        if not i % 2:
            base = run_pass(ops, reference, log)
        plain.append(base)
        with_trace.append(traced_pass)
        snaps.append(tr.snapshot())
        for row, values in tr.row_ms.items():
            row_ms.setdefault(row, []).extend(values)
        attempted += 2 * len(ops)
        failed += base.failed + traced_pass.failed
        for op, a, b in zip(ops, base.reports, traced_pass.reports):
            if a is not None and b is not None and gate.compare(a, b):
                failed += 1
                log(f"FAILED {op.name}: traced report differs from untraced")
    mem = Tracer(memory=True, rows=rows)
    with mem:
        mem_pass = run_pass(ops, reference, log)
    attempted += len(ops)
    failed += mem_pass.failed
    peaks = mem.snapshot()

    walls = [p.busy_s for p in with_trace]
    overhead = statistics.median(walls) / statistics.median(p.busy_s for p in plain)

    def med(fn: str, field: str) -> float:
        return statistics.median(s.get(fn, {}).get(field, 0) for s in snaps)

    def self_ms(snap: dict, layer: str) -> float:
        return sum(v["self_ms"] for k, v in snap.items() if k.split(".")[0] == layer)

    values: dict[str, float] = {"trace.overhead": overhead}
    layer_ms = {layer: statistics.median(self_ms(s, layer) for s in snaps)
                for layer in LAYERS}
    layer_share = {layer: statistics.median(self_ms(s, layer) / (w * 1e3)
                                            for s, w in zip(snaps, walls))
                   for layer in LAYERS}
    values["trace.unattributed_share"] = 1.0 - sum(layer_share.values())
    values["work.units_per_pass"] = med_units = statistics.median(
        sum(v["units"] for k, v in s.items() if k in KERNELS) for s in snaps)
    for layer in LAYERS:
        values[f"{layer}.self_ms"] = layer_ms[layer]
        values[f"{layer}.share"] = layer_share[layer]
    for fn in KERNEL_ROWS + CALL_ROWS:
        values[f"{fn}.calls"] = med(fn, "calls")
        values[f"{fn}.self_ms"] = med(fn, "self_ms")
    for fn in KERNEL_ROWS:
        values[f"{fn}.units"] = med(fn, "units")
        values[f"{fn}.units_per_s"] = statistics.median(
            s[fn]["units"] / (s[fn]["incl_ms"] / 1e3) if s.get(fn, {}).get("incl_ms") else 0.0
            for s in snaps)
        values[f"{fn}.peak_mb"] = peaks.get(fn, {}).get("peak_mb", 0.0)
    disjunct = "group_testing.verify_disjunct"
    decode = "recovery.cs_decode_exhaustive"
    values[f"{disjunct}.scan_frac"] = (med(disjunct, "work") / values[f"{disjunct}.units"]
                                       if values[f"{disjunct}.units"] else 0.0)
    values[f"{decode}.tried_frac"] = (med(decode, "work") / values[f"{decode}.units"]
                                      if values[f"{decode}.units"] else 0.0)
    values["codes.random_linear_code_gv.retries"] = med("codes.random_linear_code_gv",
                                                        "retries")
    for row, *_ in BASELINE_ROWS:
        values[f"{row}.ms"] = statistics.median(row_ms[row]) if row in row_ms else 0.0
    values["row.flat_rip_n26.peak_mb"] = max(mem.row_peak_mb.get("row.flat_rip_n26", [0.0]))

    log(f"traced: {pairs} untraced/traced pass pairs + 1 tracemalloc pass; "
        f"overhead x{overhead:.3f}; space certified per pass {med_units:.0f}")
    log("layer          self_ms      share")
    for layer in LAYERS:
        log(f"  {layer:<13}{layer_ms[layer]:>10.1f}{layer_share[layer]:>10.3f}")
    log("baseline row                       measured     ROADMAP")
    for row, _, _, figure in BASELINE_ROWS:
        got = values[f"{row}.ms"]
        if got:
            log(f"  {row:<32}{got:>9.1f} ms   {figure}")
    out_stem.parent.mkdir(parents=True, exist_ok=True)
    tr.write_spans(out_stem.with_name(out_stem.name + "-spans.json.gz"))
    detail = {"functions": snaps[-1], "peaks": peaks,
              "rows": {row: {"ms": row_ms.get(row, []), "roadmap": figure}
                       for row, _, _, figure in BASELINE_ROWS},
              "untraced_pass_s": [p.busy_s for p in plain], "traced_pass_s": walls}
    out_stem.with_name(out_stem.name + "-functions.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n")
    units = dict(per_layer_metrics())
    return {k: _metric(values[k], units[k]) for k in units}, attempted, failed


# ---------------------------------------------------------------- main

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)  # run_seconds in BENCHMARK.json
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg = os.getloadavg()
    if not (SRC / "sparsecode" / "__init__.py").is_file():
        print(f"error: no sparsecode sources under {SRC}", file=sys.stderr)
        return 2
    tmp = tmp_dir(args.workload, args.seed)
    try:
        ops = import_library(args.workload, args.seed, tmp)
        setup_s = time.perf_counter() - _T0
        if args.setup_only:
            print(repr(setup_s))
            return 0
        return measure(args, ops, setup_s, loadavg, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(args, ops, setup_main: float, loadavg, tmp: Path) -> int:
    import gate

    def log(msg: str) -> None:
        print(msg, flush=True)

    env = environment(loadavg)
    log("env " + json.dumps(env, sort_keys=True))
    passes = max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))
    reference = gate.load_reference(args.workload, args.seed)
    log(f"workload {args.workload} seed {args.seed}: {len(ops)} ops per pass, "
        f"reference {'recorded' if reference else 'absent, invariants only'}")
    if args.trace:
        stem = ROOT / ".bench_out" / f"{args.workload}-{args.seed}"
        metrics, attempted, failed = traced(ops, passes, reference, log, stem)
    else:
        setups = [setup_main] + [_setup_in_child(args.workload, args.seed)
                                 for _ in range(SETUP_REPEATS - 1)]
        log("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
        metrics, attempted, failed = untraced(ops, passes, reference, log)
        metrics = {"setup_s": _metric(statistics.median(setups), "s"), **metrics}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
