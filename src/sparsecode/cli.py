"""Command-line surface: build constructions, certify properties, plan bounds.

Machine-readable JSON goes to stdout; short human summaries go to stderr.
Exit codes: 0 pass, 1 property violated or recovery failed, 2 usage or
internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import caps, certify, codes, group_testing, listdecode, matrixio, recovery
from .embeddings import bool_code, sph_code
from .errors import SparseCodeError

EXHAUSTIVE_ROUNDTRIP_LIMIT = 10**5
# supports encoded and decoded per batch in a round-trip sweep
_ROUNDTRIP_BATCH = 1024


def _emit(report: dict, started: float) -> None:
    report = dict(report)
    report["elapsed_ms"] = round((time.monotonic() - started) * 1000.0, 3)
    print(json.dumps(report))


def _summary(msg: str) -> None:
    print(msg, file=sys.stderr)


def _write_provenance(path: Path, record: dict) -> None:
    meta = Path(str(path) + ".meta.json")
    meta.write_text(json.dumps({"tool_version": __version__, **record}) + "\n")


# ---------------------------------------------------------------- build

def _cmd_build(args) -> int:
    started = time.monotonic()
    out = Path(args.out)
    record = {"construction": args.kind}
    if args.kind == "gv-code":
        lc = codes.random_linear_code_gv(
            args.q, args.n, args.delta, seed=args.seed, slack=args.slack
        )
        code = codes.enumerate_codewords(lc)
        codes.write_code_file(code, out)
        record.update(q=args.q, n=args.n, delta=args.delta, slack=args.slack,
                      seed=args.seed, k=lc.k, retries=lc.retries, size=len(code))
    elif args.kind == "rs-code":
        code = codes.reed_solomon(args.q, args.k)
        codes.write_code_file(code, out)
        record.update(q=args.q, k=args.k, size=len(code))
    elif args.kind in ("sph", "bool"):
        code = codes.read_code_file(args.code)
        normalize = args.kind == "bool" and args.normalize
        m = sph_code(code) if args.kind == "sph" else bool_code(code, normalize=normalize)
        matrixio.write_matrix(m, out)
        record.update(source=str(args.code), normalize=normalize,
                      rows=int(m.shape[0]), cols=int(m.shape[1]))
    elif args.kind == "kautz-singleton":
        m, prov = group_testing.kautz_singleton(args.q, args.k)
        matrixio.write_matrix(m, out)
        record.update(prov)
    elif args.kind == "vandermonde":
        nodes = recovery.unit_circle_nodes(args.cols)
        m = recovery.vandermonde_matrix(nodes, args.n)
        matrixio.write_matrix(m, out)
        record.update(rows=args.n, cols=args.cols, nodes="unit-circle")
    _write_provenance(out, record)
    _emit({"built": args.kind, "out": str(out), **record}, started)
    _summary(f"wrote {args.kind} to {out}")
    return 0


# ---------------------------------------------------------------- verify

def _cmd_verify(args) -> int:
    started = time.monotonic()
    prop = args.property
    # kernel and disjunct take no threshold; their reports keep it as null
    threshold = getattr(args, "threshold", None)
    ok = True
    if prop in ("rip2", "flat-rip", "coherence", "kernel"):
        m = matrixio.read_matrix(args.input)
        if prop == "rip2":
            rep = certify.rip2_constant(m, args.L)
            value = rep.alpha
        elif prop == "flat-rip":
            rep = certify.flat_rip_constant(m, args.L)
            value = rep.constant
        elif prop == "coherence":
            rep = certify.coherence(m)
            value = rep.value
        else:
            rep = certify.kernel_injectivity(m, args.L)
            value = rep.min_singular_value
            ok = rep.injective
        report = rep.to_dict()
        if threshold is not None:
            ok = value <= threshold + 1e-12
    elif prop == "disjunct":
        m = matrixio.read_matrix(args.input)
        rep = group_testing.verify_disjunct(m, args.L)
        report = rep.to_dict()
        ok = rep.disjunct
    elif prop == "design":
        m = matrixio.read_matrix(args.input)
        rep = group_testing.verify_design(group_testing.Design(m))
        report = rep.to_dict()
        if threshold is not None:
            ok = rep.max_intersection <= threshold
    elif prop == "list-decode":
        code = codes.read_code_file(args.input)
        rep = listdecode.list_size_at_radius(code, args.rho)
        report = rep.to_dict()
        if threshold is not None:
            ok = rep.max_list_size < threshold
    elif prop == "lwise-distance":
        code = codes.read_code_file(args.input)
        rep = codes.lwise_distance(code, args.L)
        report = {"property": "lwise-distance", "order": args.L,
                  "constant": rep.relative, "witness": list(rep.witness)}
        if threshold is not None:
            ok = rep.relative >= threshold - 1e-12
    elif prop == "lwise-bias":
        code = codes.read_code_file(args.input)
        value = codes.lwise_bias(code, args.L)
        report = {"property": "lwise-bias", "order": args.L, "constant": value}
        if threshold is not None:
            ok = value <= threshold + 1e-12
    report["threshold"] = threshold
    report["pass"] = bool(ok)
    _emit(report, started)
    _summary(f"{prop}: {'pass' if ok else 'VIOLATED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------- bounds

def _cmd_bounds(args) -> int:
    started = time.monotonic()
    out: dict = {"property": "bounds"}
    if args.q < 2:
        raise SparseCodeError(f"--q must be >= 2, got {args.q}")
    if args.delta is not None:
        out["q_ary_entropy"] = bounds_mod.q_ary_entropy(args.q, args.delta)
        if args.delta < 1 - 1 / args.q:
            out["gv_rate"] = bounds_mod.gv_rate(args.q, args.delta)
        out["mrrw_rate_bound"] = bounds_mod.mrrw_rate_bound(args.q, args.delta)
    if args.epsilon is not None:
        out["gv_critical_expansion"] = bounds_mod.gv_critical_expansion(
            args.q, args.epsilon)
    if args.n is not None and args.N is not None and args.N > args.n:
        out["coherence_lower_indicator"] = bounds_mod.coherence_lower_indicator(
            args.n, args.N)
    if args.L is not None and args.N is not None:
        out["row_indicators"] = bounds_mod.row_bound_indicators(
            args.L, args.N, args.r, args.n_prime)
        if args.alpha is not None:
            out["rip_rows_indicator"] = bounds_mod.rip_rows_indicator(
                args.L, args.N, args.q, args.alpha)
    _emit(out, started)
    _summary("bounds computed")
    return 0


# ---------------------------------------------------------------- round trips

def _indicators(n_cols: int, blocks):
    """Each block of supports, one per row of item indices, as 0/1 rows."""
    for rows in blocks:
        x = np.zeros((len(rows), n_cols), dtype=bool)
        x[np.arange(len(rows))[:, None], rows] = True
        yield x


def _random_supports(n_cols: int, L: int, trials: int, seed: int):
    """`trials` seeded draws of a weight in 0..L and then a support of it.

    Yields batches of supports as 0/1 rows.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _ROUNDTRIP_BATCH):
        x = np.zeros((min(_ROUNDTRIP_BATCH, trials - start), n_cols), dtype=bool)
        for row in x:
            weight = int(rng.integers(0, L + 1))
            row[rng.choice(n_cols, size=weight, replace=False)] = True
        yield x


def _roundtrips(m: np.ndarray, batches) -> tuple[int, int, list[int] | None]:
    """Encode, cover-decode and compare each support, a batch at a time.

    Returns (passed, failed, first failing support).
    """
    passed = failed = 0
    first_failure = None
    for x in batches:
        decoded = group_testing.gt_decode_cover(m, group_testing.gt_encode(m, x))
        ok = (decoded == x).all(axis=1)
        n_ok = int(ok.sum())
        passed += n_ok
        failed += len(x) - n_ok
        if first_failure is None and n_ok < len(x):
            first_failure = np.flatnonzero(x[np.argmin(ok)]).tolist()
    return passed, failed, first_failure


def _require_order(L: int, n_cols: int) -> None:
    if not (0 <= L <= n_cols):
        raise SparseCodeError(f"need 0 <= L <= N, got L={L}, N={n_cols}")


def _cmd_gt_roundtrip(args) -> int:
    started = time.monotonic()
    m = group_testing.as_binary(matrixio.read_matrix(args.matrix))
    n_cols = m.shape[1]
    _require_order(args.L, n_cols)
    total = sum(math.comb(n_cols, w) for w in range(args.L + 1))
    if total <= EXHAUSTIVE_ROUNDTRIP_LIMIT:
        mode = "exhaustive"
        batches = _indicators(n_cols, caps.supports(n_cols, args.L, _ROUNDTRIP_BATCH))
    else:
        mode = "random"
        batches = _random_supports(n_cols, args.L, args.trials, args.seed)
    passed, failed, first_failure = _roundtrips(m, batches)
    report = {
        "property": "gt-roundtrip",
        "order": args.L,
        "mode": mode,
        "passed": passed,
        "failed": failed,
        "first_failure": first_failure,
    }
    _emit(report, started)
    _summary(f"gt-roundtrip: {passed} ok, {failed} failed")
    return 0 if failed == 0 else 1


def _cmd_cs_roundtrip(args) -> int:
    started = time.monotonic()
    m = matrixio.read_matrix(args.matrix).astype(np.complex128)
    n_cols = m.shape[1]
    _require_order(args.L, n_cols)
    rng = np.random.default_rng(args.seed)
    max_err = 0.0
    failures = 0
    for _ in range(args.trials):
        size = int(rng.integers(0, args.L + 1))
        support = sorted(rng.choice(n_cols, size=size, replace=False))
        x = np.zeros(n_cols, dtype=np.complex128)
        for pos in support:
            x[pos] = complex(rng.normal(), rng.normal())
        y = recovery.cs_encode(m, x)
        result = recovery.cs_decode_exhaustive(m, y, args.L)
        if not result.success:
            failures += 1
            continue
        max_err = max(max_err, float(np.abs(result.estimate - x).max()))
    report = {
        "property": "cs-roundtrip",
        "order": args.L,
        "trials": args.trials,
        "failures": failures,
        "max_recovery_error": max_err,
    }
    _emit(report, started)
    _summary(f"cs-roundtrip: {failures} failures, max error {max_err:.2e}")
    return 0 if failures == 0 and max_err <= 1e-6 else 1


# ---------------------------------------------------------------- pipelines

def _cmd_pipeline(args) -> int:
    started = time.monotonic()
    if args.name == "gv-rip":
        lc = codes.random_linear_code_gv(
            args.q, args.n, args.delta, seed=args.seed, slack=args.slack)
        code = codes.balance_closure(codes.enumerate_codewords(lc))
        quotient = codes.quotient_by_ones(code)
        eps = codes.min_distance_epsilon(code)
        m = sph_code(quotient)
        coh = certify.coherence(m)
        rip = certify.rip2_constant(m, args.L)
        report = {
            "property": "pipeline-gv-rip",
            "q": args.q, "n": args.n, "delta": args.delta, "seed": args.seed,
            "code_size": len(code), "quotient_size": len(quotient),
            "epsilon": eps,
            "coherence": coh.value,
            "coherence_bound": 2.0 * eps,
            "coherence_ok": coh.value <= 2.0 * eps + 1e-9,
            "rip2_constant": rip.alpha,
            "rip2_bound": 2.0 * args.L * eps,
            "rip2_ok": rip.alpha <= 2.0 * args.L * eps + 1e-9,
        }
        ok = report["coherence_ok"] and report["rip2_ok"]
    elif args.name == "ks-gt":
        m, prov = group_testing.kautz_singleton(args.q, args.k)
        guaranteed = prov["guaranteed_disjunct_order"]
        L = args.L if args.L is not None else guaranteed
        n_cols = m.shape[1]
        # the round trip's walk checks its cap now, before the design and
        # disjunct walks run; a larger order is verify_disjunct's to refuse
        walk = caps.supports(n_cols, L, _ROUNDTRIP_BATCH) if L < n_cols else ()
        design = group_testing.verify_design(group_testing.Design(m))
        disjunct = group_testing.verify_disjunct(m, L)
        passed, failed, first_failure = _roundtrips(m, _indicators(n_cols, walk))
        report = {
            "property": "pipeline-ks-gt",
            "q": args.q, "k": args.k, "order": L,
            "rows": int(m.shape[0]), "cols": n_cols,
            "design_r": design.max_intersection,
            "design_r_bound": args.k,
            "guaranteed_disjunct_order": guaranteed,
            "disjunct": disjunct.disjunct,
            "roundtrip_passed": passed,
            "roundtrip_failed": failed,
            "first_failure": first_failure,
        }
        ok = disjunct.disjunct and failed == 0
    elif args.name == "rip-ld":
        m = matrixio.read_matrix(args.matrix).astype(np.complex128)
        rip = certify.rip2_constant(m, args.L)
        report = listdecode.rip_to_listdecoding_report(m, args.L, rip.alpha, args.epsilon)
        report["measured_rip_constant"] = rip.alpha
        ok = report["flat_ok"] and all(s["ok"] for s in report["bias_stages"])
        ok = ok and report["johnson"]["verdict"] in ("pass", "vacuous", "not-applicable")
    report["pass"] = bool(ok)
    _emit(report, started)
    _summary(f"pipeline {args.name}: {'pass' if ok else 'VIOLATED'}")
    return 0 if ok else 1


# ---------------------------------------------------------------- parser

def _finite_float(text: str) -> float:
    """A float flag's value; NaN and inf would give a verdict on no number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")
    return value


# each flag's add_argument keywords; a path flag keeps the string as given
_FLAG_KEYWORDS = {
    **dict.fromkeys(["q", "n", "N", "k", "cols", "L", "r", "n-prime", "seed",
                     "trials"], {"type": int}),
    **dict.fromkeys(["delta", "slack", "epsilon", "alpha", "rho", "threshold"],
                    {"type": _finite_float}),
    "normalize": {"action": "store_true"},
}

# command -> (help, handler, positional, {choice: (required, {optional: default})});
# a command without a positional has the one choice None.  Each choice
# declares exactly the flags its handler reads, so argparse refuses the rest.
_COMMANDS = {
    "build": ("construct codes and matrices", _cmd_build, "kind", {
        "gv-code": ("q n delta seed out", {"slack": 0.1}),
        "rs-code": ("q k out", {}),
        "sph": ("code out", {}),
        "bool": ("code out", {"normalize": False}),
        "kautz-singleton": ("q k out", {}),
        "vandermonde": ("n cols out", {}),
    }),
    "verify": ("certify a property of a code or matrix", _cmd_verify, "property", {
        "rip2": ("input L", {"threshold": None}),
        "flat-rip": ("input L", {"threshold": None}),
        "coherence": ("input", {"threshold": None}),
        "disjunct": ("input L", {}),
        "design": ("input", {"threshold": None}),
        "list-decode": ("input rho", {"threshold": None}),
        "lwise-distance": ("input L", {"threshold": None}),
        "lwise-bias": ("input L", {"threshold": None}),
        "kernel": ("input L", {}),
    }),
    "bounds": ("evaluate the closed-form calculators", _cmd_bounds, None, {
        None: ("", {"q": 2, **dict.fromkeys(
            ["n", "N", "L", "r", "n-prime", "delta", "epsilon", "alpha"])}),
    }),
    "gt-roundtrip": ("group-testing encode/decode sweep", _cmd_gt_roundtrip, None, {
        None: ("matrix L", {"seed": 0, "trials": 1000}),
    }),
    "cs-roundtrip": ("compressed-sensing recovery sweep", _cmd_cs_roundtrip, None, {
        None: ("matrix L seed", {"trials": 50}),
    }),
    "pipeline": ("end-to-end construction + certification", _cmd_pipeline, "name", {
        "gv-rip": ("q n delta seed L", {"slack": 0.1}),
        "ks-gt": ("q k", {"L": None}),
        "rip-ld": ("matrix L epsilon", {}),
    }),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecode",
        description="Measurement matrices from codes, with exhaustive certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, func, positional, choices) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        if positional:
            nested = p.add_subparsers(dest=positional, required=True)
        for choice, (required, optional) in choices.items():
            leaf = nested.add_parser(choice) if positional else p
            for flag in required.split():
                leaf.add_argument(f"--{flag}", required=True,
                                  **_FLAG_KEYWORDS.get(flag, {}))
            for flag, default in optional.items():
                leaf.add_argument(f"--{flag}", default=default,
                                  **_FLAG_KEYWORDS.get(flag, {}))
    return parser


def _check_counts(args) -> None:
    """A verdict on an order below 0 or on no trials would come from no work."""
    for flag, least in (("L", 0), ("trials", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise SparseCodeError(f"--{flag} must be >= {least}, got {value}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (SparseCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 0 and 1 are verdicts; any other failure is an internal error
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
