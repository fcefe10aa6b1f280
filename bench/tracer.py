"""Outside-in tracing of sparsecode's layers for the benchmark's traced run.

`Tracer` replaces each public function of each layer module with a timing
wrapper, at the module attribute and at every alias another sparsecode
module imported it under (`listdecode.lwise_distance`, `codes.bias_of_word`,
`cli.sph_code`, ...), so internal calls become child spans.  `Code`
construction is traced through `Code.__init__`.  Nothing under `src/` is
edited; `uninstall` puts every original back.

A span's self time is its duration minus the durations of its wrapped
children.  Spans are kept in memory as flat arrays and written out once,
after the run.  Kernels (the exhaustive certifiers) also record the space
they certify, taken from their report's counters or their input sizes, and,
when the tracer is built with `memory=True`, the tracemalloc peak of each
call above the memory in use when it started.  tracemalloc runs only while
a kernel is on the stack, so the rest of the pass keeps its speed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import sys
import time
import tracemalloc
from array import array
from pathlib import Path
from typing import Callable

LAYERS = ("words", "codes", "embeddings", "certify", "listdecode",
          "group_testing", "recovery", "matrixio", "cli")

MB = 2.0**20


def _comb_of(arg: str, L: str | None = None, size: int = 2):
    """Units hook: C(len(args[arg]), args[L] or size)."""
    def hook(a, result):
        return {"units": math.comb(len(a[arg]), a[L] if L else size)}
    return hook


def _disjunct(a, result):
    n_cols = a["m"].shape[1]
    return {"units": n_cols * math.comb(n_cols - 1, a["L"]),
            "work": result.tuples_checked}


def _decode(a, result):
    n_cols = a["m"].shape[1]
    return {"units": sum(math.comb(n_cols, s) for s in range(a["L"] + 1)),
            "work": result.candidates_tried}


# kernel name -> hook returning the counters of one call
KERNELS: dict[str, Callable] = {
    "codes.min_distance": _comb_of("c"),
    "codes.code_bias": _comb_of("c"),
    "codes.lwise_distance": _comb_of("c", "L"),
    "codes.lwise_bias": _comb_of("c", "L"),
    "certify.coherence": lambda a, r: {"units": r.pairs_checked},
    "certify.rip2_profile": lambda a, r: {"units": r[-1].subsets_checked},
    "certify.flat_rip_constant": lambda a, r: {"units": r.pairs_checked},
    "certify.kernel_injectivity": lambda a, r: {"units": r.subsets_checked},
    "listdecode.list_sizes_at_radii": lambda a, r: {"units": a["c"].q ** a["c"].n},
    "group_testing.verify_disjunct": _disjunct,
    "group_testing.verify_design": lambda a, r: {"units": math.comb(len(a["d"].sets), 2)},
    "recovery.cs_decode_exhaustive": _decode,
}

# non-kernel functions whose result carries a counter worth keeping
COUNTERS: dict[str, Callable] = {
    "codes.random_linear_code_gv": lambda a, r: {"retries": r.retries},
}

COUNTER_KEYS = ("units", "work", "retries")


class FnStats:
    __slots__ = ("calls", "self_s", "incl_s", "peak_bytes") + COUNTER_KEYS

    def __init__(self):
        self.calls = 0
        self.self_s = self.incl_s = 0.0
        self.peak_bytes = 0
        self.units = self.work = self.retries = 0


class Tracer:
    """Wraps every public layer function; use as a context manager."""

    def __init__(self, memory: bool = False, rows: dict | None = None):
        self.memory = memory
        # fn key -> [(row name, predicate on bound args)]
        self.rows = rows or {}
        self.row_ms: dict[str, list[float]] = {}
        self.row_peak_mb: dict[str, list[float]] = {}
        self.names: list[str] = []
        self.stats: list[FnStats] = []
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ install

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        modules = [importlib.import_module(f"sparsecode.{name}") for name in LAYERS]
        owners = [m for name, m in sorted(sys.modules.items())
                  if name == "sparsecode" or name.startswith("sparsecode.")]
        for layer, mod in zip(LAYERS, modules):
            for name, fn in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        code_cls = modules[LAYERS.index("codes")].Code
        self._patch(code_cls, "__init__", self._wrap("codes.Code", code_cls.__init__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    # ------------------------------------------------------------ spans

    def _wrap(self, key: str, fn):
        fid = len(self.names)
        self.names.append(key)
        stats = FnStats()
        self.stats.append(stats)
        hook = KERNELS.get(key) or COUNTERS.get(key)
        rows = self.rows.get(key, [])
        track_peak = self.memory and key in KERNELS
        needs_args = hook is not None or rows
        sig = inspect.signature(fn) if needs_args else None
        stack = self._stack
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_fn)
            span_fn.append(fid)
            span_parent.append(stack[-1][0] if stack else -1)
            frame = [idx, 0.0, 0, 0]  # span, child seconds, peak seen, base
            owns_tracing = track_peak and not tracemalloc.is_tracing()
            if owns_tracing:
                tracemalloc.start()
            if track_peak:
                # fold the peak so far into enclosing spans before resetting it
                frame[3], before = tracemalloc.get_traced_memory()
                for outer in stack:
                    outer[2] = max(outer[2], before)
                tracemalloc.reset_peak()
            stack.append(frame)
            start = perf()
            span_start.append(start)
            span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                span_end[idx] = end
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.incl_s += elapsed
                stats.self_s += elapsed - frame[1]
                peak = 0
                if track_peak:
                    abs_peak = max(frame[2], tracemalloc.get_traced_memory()[1])
                    peak = abs_peak - frame[3]
                    stats.peak_bytes = max(stats.peak_bytes, peak)
                    for outer in stack:
                        outer[2] = max(outer[2], abs_peak)
                if owns_tracing:
                    tracemalloc.stop()
            if needs_args:
                bound = sig.bind(*args, **kwargs).arguments
                if hook is not None:
                    for name, value in hook(bound, result).items():
                        setattr(stats, name, getattr(stats, name) + value)
                for row, predicate in rows:
                    if predicate(bound):
                        self.row_ms.setdefault(row, []).append(elapsed * 1e3)
                        if track_peak:
                            self.row_peak_mb.setdefault(row, []).append(peak / MB)
            return result

        return wrapper

    # ------------------------------------------------------------ results

    def snapshot(self) -> dict:
        """Per-function totals so far: calls, self/inclusive ms, counters, peak."""
        out = {}
        for key, s in zip(self.names, self.stats):
            if s.calls:
                out[key] = {"calls": s.calls, "self_ms": s.self_s * 1e3,
                            "incl_ms": s.incl_s * 1e3, "peak_mb": s.peak_bytes / MB,
                            **{k: getattr(s, k) for k in COUNTER_KEYS}}
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as [function, parent span, start s, end s] rows, gzipped JSON."""
        payload = {
            "functions": self.names,
            "columns": ["function", "parent", "start_s", "end_s"],
            "spans": [list(t) for t in zip(self.span_fn, self.span_parent,
                                           self.span_start, self.span_end)],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)
