"""Correctness gate for benchmark ops: recorded references and paper invariants.

For the seeds listed in `REFERENCE_SEEDS`, every op's normalised report was
recorded once from a known-good build (`python3 bench/record_reference.py`).
A later run must reproduce exit codes, verdicts, witnesses and counts
exactly and float constants within `SLACK`, the tolerance of the acceptance
tests.  On every seed the paper's invariants are checked as well, so seeds
without a reference are still gated.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

SLACK = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_SEEDS = range(0, 16)


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"{seed}.json.gz"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, seed: int, reports: dict) -> None:
    path = reference_path(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(reports, sort_keys=True, separators=(",", ":")).encode()
    # mtime=0 keeps the file byte-identical across recordings
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(data)


def compare(ref, got, path: str = "$") -> list[str]:
    """Differences between two normalised reports (floats within SLACK)."""
    if isinstance(ref, bool) or isinstance(got, bool) or ref is None or got is None:
        return [] if ref is got else [f"{path}: {got!r} != {ref!r}"]
    if isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if isinstance(ref, int) and isinstance(got, int):
            return [] if ref == got else [f"{path}: {got} != {ref}"]
        if math.isfinite(ref) and math.isfinite(got):
            ok = abs(got - ref) <= SLACK
        else:
            ok = repr(float(got)) == repr(float(ref))
        return [] if ok else [f"{path}: {got!r} differs from {ref!r} by > {SLACK}"]
    if isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(ref)}"]
        return [d for k in ref for d in compare(ref[k], got[k], f"{path}.{k}")]
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(got)} != {len(ref)}"]
        return [d for i, (a, b) in enumerate(zip(ref, got))
                for d in compare(a, b, f"{path}[{i}]")]
    return [] if ref == got else [f"{path}: {got!r} != {ref!r}"]


# ---------------------------------------------------------------- invariants

def _le(a: float, b: float) -> bool:
    return a <= b + SLACK


def _balanced(rep: dict, info: dict) -> list[str]:
    eps = rep["epsilon"]
    coh = rep["coherence"]["constant"]
    bad = []
    if not _le(rep["code_bias"], eps):
        bad.append(f"code bias {rep['code_bias']} > eps {eps}")
    if not _le(coh, 2 * eps):
        bad.append(f"coherence {coh} > 2*eps {2 * eps}")
    for r in rep["sph_rip2"][1:]:
        if not _le(r["constant"], r["order"] * coh):
            bad.append(f"rip2({r['order']}) {r['constant']} > L*coherence")
    return bad


def _listdecode(rep: dict, info: dict) -> list[str]:
    return [f"{c['property']} eps={c['epsilon']}: verdict fail"
            for pair in rep["checks"] for c in pair if c["verdict"] == "fail"]


def _flat(rep: dict, info: dict) -> list[str]:
    flat = rep["flat_rip"]["constant"]
    bad = []
    if not _le(flat, 2.0 * rep["rip2"]["constant"]):
        bad.append(f"flat {flat} > 2*rip2(2L0)")
    for L, bias in enumerate(rep["lwise_bias"], start=2):
        factor = 1.0 if L % 2 == 0 else L / (L - 1)
        if not _le(bias, factor * flat / L):
            bad.append(f"{L}-wise bias {bias} > c_L*flat/L")
    return bad


def _bernoulli(rep: dict, info: dict) -> list[str]:
    if rep["disjunct"]:
        return [] if rep["subsets_checked"] == rep["space"] else ["disjunct without full scan"]
    m = info["matrix"].astype(bool)
    target, chosen = rep["witness"]
    if target in chosen or len(chosen) != info["L"]:
        return [f"malformed witness {rep['witness']}"]
    covered = m[:, chosen].any(axis=1)
    if (m[:, target] & ~covered).any():
        return [f"witness {rep['witness']} does not cover its target"]
    return []


def _exit_matches(out: dict, ok: bool) -> list[str]:
    want = 0 if ok else 1
    return [] if out["exit"] == want else [f"exit {out['exit']} != {want}"]


def _ks(out: dict, info: dict) -> list[str]:
    rep, q, k, L = out["report"], info["q"], info["k"], info["L"]
    prop = rep.get("property", rep.get("built"))
    if prop == "kautz-singleton":
        ok = rep["rows"] == q * q and rep["cols"] == q**k
        return _exit_matches(out, True) + ([] if ok else ["wrong shape"])
    if prop == "design":
        return _exit_matches(out, True) + (
            [] if rep["r"] <= k - 1 else [f"design r {rep['r']} > k-1"])
    guaranteed = L * k < q
    if prop == "pipeline-ks-gt":
        bad = _exit_matches(out, rep["disjunct"] and rep["roundtrip_failed"] == 0)
        if guaranteed and not (rep["disjunct"] and rep["roundtrip_failed"] == 0):
            bad.append("KS matrix with L*k<q not disjunct or round trip failed")
        return bad
    if prop == "disjunct":
        bad = _exit_matches(out, rep["disjunct"])
        return bad + (["KS matrix with L*k<q not disjunct"]
                      if guaranteed and not rep["disjunct"] else [])
    if prop == "gt-roundtrip":
        bad = _exit_matches(out, rep["failed"] == 0)
        return bad + (["round-trip failures with L*k<q"]
                      if guaranteed and rep["failed"] else [])
    return [f"unexpected report {prop}"]


def _list_size(rep: dict, info: dict) -> list[str]:
    bad = []
    if not (1 <= rep["max_list_size"] <= info["size"]):
        bad.append(f"list size {rep['max_list_size']} outside [1, |C|]")
    if rep["centers_checked"] != info["q"] ** info["n"]:
        bad.append("not every center checked")
    return bad


def _flat_rip(rep: dict, info: dict) -> list[str]:
    a, b = rep["witness"]
    n_cols, L0 = info["shape"][1], info["L"]
    space = sum(math.comb(n_cols, s) * math.comb(n_cols - s, s) // 2
                for s in range(1, L0 + 1))
    bad = [] if not set(a) & set(b) and len(a) == len(b) else ["witness sets overlap"]
    return bad + ([] if rep["subsets_checked"] == space else ["pair count off"])


def _rip2_profile(rep: dict, info: dict) -> list[str]:
    n_cols = info["shape"][1]
    alphas = [r["constant"] for r in rep["profile"]]
    bad = [] if alphas == sorted(alphas) else ["profile not monotone"]
    total = sum(math.comb(n_cols, s) for s in range(1, info["L"] + 1))
    return bad + ([] if rep["profile"][-1]["subsets_checked"] == total
                  else ["subset count off"])


def _gv_rip(out: dict, info: dict) -> list[str]:
    rep = out["report"]
    bad = _exit_matches(out, True)
    if not (rep["coherence_ok"] and rep["rip2_ok"]):
        bad.append("coherence > 2*eps or rip2 > 2L*eps")
    if not _le(rep["rip2_constant"], info["L"] * rep["coherence"]):
        bad.append("rip2(L) > L*coherence")
    return bad


def _code_bias(rep: dict, info: dict) -> list[str]:
    return [] if 0.0 <= rep["code_bias"] <= 1.0 else ["bias outside [0, 1]"]


def _rip_ld(out: dict, info: dict) -> list[str]:
    bad = _exit_matches(out, out["report"]["pass"])
    return bad + (["johnson verdict fail"]
                  if out["report"]["johnson"]["verdict"] == "fail" else [])


def _cs_roundtrip(out: dict, info: dict) -> list[str]:
    rep = out["report"]
    ok = rep["failures"] == 0 and rep["max_recovery_error"] <= 1e-6
    return _exit_matches(out, True) + ([] if ok else ["recovery failed on an injective matrix"])


def _kernel(out: dict, info: dict) -> list[str]:
    ok = out["report"]["injective"]
    return _exit_matches(out, True) + ([] if ok else ["Vandermonde not injective"])


INVARIANTS = {
    "balanced": _balanced,
    "listdecode": _listdecode,
    "flat": _flat,
    "bernoulli": _bernoulli,
    "ks-build": _ks,
    "ks-design": _ks,
    "ks-pipeline": _ks,
    "ks-disjunct": _ks,
    "ks-roundtrip": _ks,
    "list-size": _list_size,
    "flat-rip": _flat_rip,
    "rip2-profile": _rip2_profile,
    "gv-rip": _gv_rip,
    "code-bias": _code_bias,
    "rip-ld": _rip_ld,
    "cs-roundtrip": _cs_roundtrip,
    "kernel": _kernel,
}


def check(op, report: dict, reference: dict | None) -> list[str]:
    """All problems with one op's report: reference mismatches, then invariants."""
    problems = []
    if reference is not None:
        if op.name not in reference:
            problems.append(f"{op.name}: no recorded reference")
        else:
            problems += compare(reference[op.name], report)
    return problems + INVARIANTS[op.kind](report, op.info)

