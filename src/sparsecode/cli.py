"""Command-line surface: build constructions, certify properties, plan bounds.

Each command handler returns (report, holds, summary), prints nothing and
catches nothing.  `main` alone times the command, prints the report as one
line of strict JSON on stdout and the summary on stderr, and exits: 0 when
the property holds, 1 when it is violated or recovery failed, 2 on a usage
or internal error, with one `error:` line on stderr and nothing on stdout.
A report holding a NaN or an infinity is no JSON and no verdict, so it
exits 2.

`--threshold` is read as the `Decimal` of its text.  `verify`'s exact
rows (`design`, `list-decode`, `lwise-distance`) judge the number their
certifier returns, an int or the L-wise walk's own exact `Fraction`,
against that decimal with a plain operator; this module recounts nothing.
`main` prints every exact number as its float.  Every float verdict, a
`verify` row's or a pipeline stage's, is one relation, `_at_most`, which
holds the library's one slack.

A round trip's sample may refute; a sample that passes confirms nothing
until its certifier (`verify_disjunct`, `kernel_injectivity`) has run, and
that certifier's cap refusal reaches `main` like any other.

Each group-testing round trip is one call of `group_testing.recovers`,
which takes the supports as batches of index rows and returns the verdict:
passed, failed and the first failure.  This module builds no 0/1 row,
sees no word and counts no support.
`gt-roundtrip`'s random draws are `rng.integers` then `rng.choice` per
support, but up to L = 32 a batch of them is one `rng.integers` call over
the ranges of the words each draw reads: one Python pass over the coming
words, numpy's own uint32 draws, reads ahead each draw's weight, a wrong
one (after a rejected word) is drawn again, and Floyd's loop runs one step
at a time across the batch.  `cs-roundtrip` draws per trial, as its
`rng.normal` values come from the same stream between the supports: one
call per trial, a real and an imaginary part per column of the support.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
import time
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import caps, certify, codes, group_testing, listdecode, matrixio, recovery
from .codes import _decimal
from .embeddings import bool_code, sph_code, sph_inverse_binary
from .errors import SparseCodeError

EXHAUSTIVE_ROUNDTRIP_LIMIT = 10**5
# support draws encoded and decoded per batch in a random round-trip sweep,
# and cs-roundtrip trials per call of the batch decoder
_ROUNDTRIP_BATCH = 1024
# a cs-roundtrip trial whose estimate is off by more than this has failed
_RECOVERY_TOL = 1e-6


# ---------------------------------------------------------------- build

def _cmd_build(args) -> tuple[dict, bool, str]:
    """Build one kind, write it with the writer for its type (a `Code` to a
    code file, else a matrix file) and its provenance beside it."""
    out = Path(args.out)
    if args.kind == "gv-code":
        lc = codes.random_linear_code_gv(args.q, args.n, args.delta, seed=args.seed)
        built = codes.enumerate_codewords(lc)
        record = dict(q=args.q, n=args.n, delta=args.delta, slack=codes._GV_SLACK,
                      seed=args.seed, k=lc.k, retries=lc.retries, size=len(built))
    elif args.kind == "rs-code":
        built = codes.reed_solomon(args.q, args.k)
        record = dict(q=args.q, k=args.k, size=len(built))
    elif args.kind in ("sph", "bool"):
        code = codes.read_code_file(args.code)
        normalize = args.kind == "bool" and args.normalize
        built = sph_code(code) if args.kind == "sph" else bool_code(code, normalize=normalize)
        record = dict(source=str(args.code), normalize=normalize,
                      rows=int(built.shape[0]), cols=int(built.shape[1]))
    elif args.kind == "kautz-singleton":
        built, record = group_testing.kautz_singleton(args.q, args.k)
    elif args.kind == "vandermonde":
        nodes = recovery.unit_circle_nodes(args.cols)
        built = recovery.vandermonde_matrix(nodes, args.n)
        record = dict(rows=args.n, cols=args.cols, nodes="unit-circle")
    record = {"construction": args.kind, **record}
    write = codes.write_code_file if isinstance(built, codes.Code) else matrixio.write_matrix
    write(built, out)
    Path(f"{out}.meta.json").write_text(
        json.dumps({"tool_version": __version__, **record}) + "\n")
    return {"built": args.kind, "out": str(out), **record}, True, f"wrote {args.kind} to {out}"


# ---------------------------------------------------------------- verify

def _at_most(value: float, threshold) -> bool:
    """A float value against an exact threshold or a float bound, with the
    library's one slack, 1e-12."""
    return value <= float(threshold) + 1e-12


def _lwise_distance(code, args) -> dict:
    # the walk's relative distance is its exact ratio, which the verdict reads
    rep = codes.lwise_distance(code, args.L)
    return {"property": args.property, "order": args.L,
            "constant": rep.relative, "witness": list(rep.witness)}


# property -> (required flags, whether it reads a code file (else a matrix
# file), certifier(input, args) -> report, the report key its verdict reads,
# that key's relation to --threshold).  With no relation a property takes no
# --threshold and the key is its verdict.  Each call looks its certifier up in
# the certifier's module, so a wrapper set there sees the call.
_VERIFY = {
    "rip2": ("input L", False, lambda m, a: certify.rip2_constant(m, a.L).to_dict(),
             "constant", _at_most),
    "flat-rip": ("input L", False, lambda m, a: certify.flat_rip_constant(m, a.L).to_dict(),
                 "constant", _at_most),
    "coherence": ("input", False, lambda m, a: certify.coherence(m).to_dict(),
                  "constant", _at_most),
    "disjunct": ("input L", False, lambda m, a: group_testing.verify_disjunct(m, a.L).to_dict(),
                 "disjunct", None),
    "design": ("input", False, lambda m, a: group_testing.verify_design(
        group_testing.Design(m)).to_dict(), "r", operator.le),
    "list-decode": ("input rho", True, lambda c, a: listdecode.list_size_at_radius(
        c, a.rho).to_dict(), "max_list_size", operator.lt),
    "lwise-distance": ("input L", True, _lwise_distance, "constant", operator.ge),
    "lwise-bias": ("input L", True, lambda c, a: {
        "property": a.property, "order": a.L, "constant": codes.lwise_bias(c, a.L)},
        "constant", _at_most),
    "kernel": ("input L", False, lambda m, a: certify.kernel_injectivity(m, a.L).to_dict(),
               "injective", None),
}


def _cmd_verify(args) -> tuple[dict, bool, str]:
    _, reads_code, certifier, key, relation = _VERIFY[args.property]
    read = codes.read_code_file if reads_code else matrixio.read_matrix
    report = certifier(read(args.input), args)
    threshold = args.threshold if relation else None
    ok = bool(report[key] if relation is None else threshold is None
              or relation(report[key], threshold))
    report["threshold"] = threshold
    report["pass"] = ok
    return report, ok, f"{args.property}: {'pass' if ok else 'VIOLATED'}"


# ---------------------------------------------------------------- bounds

def _cmd_bounds(args) -> tuple[dict, bool, str]:
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
    return out, True, "bounds computed"


# ---------------------------------------------------------------- round trips

def _draw_support(rng: np.random.Generator, n_cols: int, L: int) -> np.ndarray:
    """A weight drawn in 0..L, then a support of that weight in range(n_cols)."""
    return rng.choice(n_cols, size=int(rng.integers(0, L + 1)), replace=False)


def _random_supports(n_cols: int, L: int, trials: int, seed: int):
    """`trials` seeded support draws, yielded in batches of index rows: each
    draw sorted and padded to width L with n_cols, which names no column.

    The draws are `_draw_support(default_rng(seed), n_cols, L)`'s, and the
    generator ends where those calls leave it.  Up to L = _BATCH_DRAWS_MAX_L
    a batch of them takes one `rng.integers` call (`_draw_batch`); above it
    one numpy call per draw is the faster way to the same rows."""
    rng = np.random.default_rng(seed)
    for start in range(0, trials, _ROUNDTRIP_BATCH):
        rows = np.full((min(_ROUNDTRIP_BATCH, trials - start), L), n_cols)
        if L <= _BATCH_DRAWS_MAX_L:
            _draw_batch(rng, rows, n_cols)
        else:
            for row in rows:
                support = _draw_support(rng, n_cols, L)
                row[:len(support)] = support
        # the padding sorts last
        rows.sort(axis=1)
        yield rows


# The largest L drawn a batch at a time.  `_draw_batch`'s cost grows with L,
# while a numpy call per draw costs about the same at any small L: for 1,024
# draws on a 2-vCPU x86-64 box (numpy 2.4) the batch took 0.11-0.19 of the
# calls' time at L = 8, 0.45-0.55 at L = 32, 0.69-0.79 at L = 48 and
# 1.00-1.08 at L = 64, over N from L to 9,000.  It stays 32, though the
# batch still wins at 48: no workload draws above 32 to show it.
_BATCH_DRAWS_MAX_L = 32


def _draw_batch(rng: np.random.Generator, rows: np.ndarray, n_cols: int) -> None:
    """Fill each row of `rows` with one draw's support, in Floyd's pick
    order, leaving `rng` where the draws' own numpy calls would.

    `rng.integers(0, L + 1)` reads the weight w from one uint32 word, and
    `rng.choice(N, w, replace=False)` runs Floyd's algorithm (Bentley and
    Floyd, CACM 1987), one word per step j = N-w..N-1 in 0..j, then
    shuffles its w picks, a word for each but the first.  numpy takes a
    partial Fisher-Yates shuffle instead when N > 10000 and w > N // 50,
    which no w <= _BATCH_DRAWS_MAX_L reaches.  So one `rng.integers` call
    over the ranges of each draw's words (`_word_ranges`) reads the same
    words, rejections included, once each draw's weight is known: the
    weights are read ahead from the coming words, and a batch whose drawn
    weight differs from one read ahead is drawn again up to that draw."""
    n, L = rows.shape
    if not L:
        # the weight's range is 0: no draw reads a word
        return
    bitgen = rng.bit_generator
    table = _word_ranges(n_cols, L)
    cost = (table > 0).sum(axis=1).tolist()
    done = 0
    while done < n:
        todo = n - done
        state = bitgen.state
        # a draw reads at most 2L words when none is rejected; a full-range
        # uint32 draw takes one word per value, the words numpy's bounded
        # draws read, over any bit generator
        words = rng.integers(0, 2**32, size=2 * todo * L, dtype=np.uint32)
        # each draw starts where the one before it stops, if no word is rejected
        stream, w, pos = memoryview(words), [], 0
        for _ in range(todo):
            w.append((stream[pos] * (L + 1)) >> 32)
            pos += cost[w[-1]]
        bitgen.state = state
        values = rng.integers(0, table[w], endpoint=True)
        wrong = np.flatnonzero(values[:, 0] != w)
        if len(wrong):
            # the draws before the first wrong weight read the ranges assumed,
            # and that draw's weight is exact, as its range is L whatever was
            # read ahead: those draws are drawn again with it
            k = int(wrong[0])
            w = w[:k] + [int(values[k, 0])]
            bitgen.state = state
            values = rng.integers(0, table[w], endpoint=True)
        rows[done:done + len(w)] = _floyd_picks(n_cols, L, values, np.array(w))
        done += len(w)


def _word_ranges(n_cols: int, L: int) -> np.ndarray:
    """One row per weight w in 0..L: the range of each word a draw of weight
    w reads, in stream order, padded with 0, which reads no word, to width
    2L.  L for the weight, N-w..N-1 for Floyd's steps, leaving out range 0,
    and w-1..1 for the shuffle."""
    k = np.arange(2 * L)
    w = np.arange(L + 1)[:, None]
    steps = w - (w == n_cols)
    ranges = np.where(k <= steps, n_cols - steps + k - 1,
                      np.where(k < steps + w, steps + w - k, 0))
    ranges[:, 0] = L
    return ranges


def _floyd_picks(n_cols: int, L: int, values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Floyd's picks from the values of each draw's words (`_word_ranges`),
    padded with n_cols to width L.

    Step t, of range j_t = N-w+t, reads word 1 + t, or word t where step 0
    has range 0 (w = N) and gives 0; it picks its value, or j_t if an
    earlier step picked that value.  The steps run in Floyd's order, each
    one across the whole batch."""
    t = np.arange(L)
    active = t < w[:, None]
    j = (n_cols - w)[:, None] + t
    word = t + (w < n_cols)[:, None]
    picks = np.where(active, np.where(j > 0, np.take_along_axis(values, word, axis=1), 0),
                     n_cols)
    for s in range(1, L):
        repeated = active[:, s] & (picks[:, :s] == picks[:, s, None]).any(axis=1)
        picks[repeated, s] = j[repeated, s]
    return picks


def _require_order(L: int, n_cols: int) -> None:
    if not (0 <= L <= n_cols):
        raise SparseCodeError(f"need 0 <= L <= N, got L={L}, N={n_cols}")


def _cmd_gt_roundtrip(args) -> tuple[dict, bool, str]:
    m = group_testing.as_binary(matrixio.read_matrix(args.matrix))
    n_cols = m.shape[1]
    _require_order(args.L, n_cols)
    total = sum(math.comb(n_cols, w) for w in range(args.L + 1))
    if total <= EXHAUSTIVE_ROUNDTRIP_LIMIT:
        mode = "exhaustive"
        batches = caps.supports(n_cols, args.L)
    else:
        mode = "random"
        batches = _random_supports(n_cols, args.L, args.trials, args.seed)
    passed, failed, first_failure = group_testing.recovers(m, batches)
    report = {
        "property": "gt-roundtrip",
        "order": args.L,
        "mode": mode,
        "passed": passed,
        "failed": failed,
        "first_failure": first_failure,
    }
    holds, summary = failed == 0, f"gt-roundtrip: {passed} ok, {failed} failed"
    if holds and mode == "random":
        # a sample that passes proves nothing: every support of weight <= L
        # decodes iff m is L-disjunct, and at L = N iff it is (N-1)-disjunct,
        # as the support of all N columns leaves none outside it to cover
        disjunct = group_testing.verify_disjunct(m, min(args.L, n_cols - 1))
        if not disjunct.disjunct:
            target, cover = disjunct.witness
            report["witness"] = [target, list(cover)]
            holds, summary = False, f"{summary}; not {args.L}-disjunct"
    return report, holds, summary


def _cmd_cs_roundtrip(args) -> tuple[dict, bool, str]:
    m = matrixio.read_matrix(args.matrix).astype(np.complex128)
    n_cols = m.shape[1]
    _require_order(args.L, n_cols)
    # the decoder's walk checks its cap now, before any trial is encoded
    caps.supports(n_cols, args.L)
    rng = np.random.default_rng(args.seed)
    max_err = 0.0
    failures = 0
    for start in range(0, args.trials, _ROUNDTRIP_BATCH):
        xs, ys = [], []
        for _ in range(min(_ROUNDTRIP_BATCH, args.trials - start)):
            x = np.zeros(n_cols, dtype=np.complex128)
            support = np.sort(_draw_support(rng, n_cols, args.L))
            # each value's real then imaginary part, in column order
            x[support] = rng.normal(size=(len(support), 2)).view(np.complex128)[:, 0]
            ys.append(recovery.cs_encode(m, x))
            xs.append(x)
        for x, result in zip(xs, recovery.cs_decode_batch(m, np.array(ys), args.L)):
            if result.success:
                err = float(np.abs(result.estimate - x).max())
                max_err = max(max_err, err)
            # a trial fails on a miss, or on a wrong support that fits y
            failures += not result.success or err > _RECOVERY_TOL
    report = {
        "property": "cs-roundtrip",
        "order": args.L,
        "trials": args.trials,
        "failures": failures,
        "max_recovery_error": max_err,
    }
    holds = failures == 0
    summary = f"cs-roundtrip: {failures} failures, max error {max_err:.2e}"
    # a sample that passes proves nothing: every L-sparse vector is recovered
    # iff every 2L columns are independent.  At L = 0 the sample is complete,
    # as every draw is the one 0-sparse vector.
    kernel = certify.kernel_injectivity(m, args.L) if holds and args.L else None
    if kernel and not kernel.injective:
        report["witness"] = list(kernel.witness)
        holds, summary = False, f"{summary}; not injective at L={args.L}"
    return report, holds, summary


# ---------------------------------------------------------------- pipelines

def _epsilon_floor(L: int) -> tuple[float, bool]:
    """Smallest certified radius parameter for the RIP -> list-decoding chain.

    The chain certifies bias only up to tuples of size floor(L/2), so the
    Johnson step needs floor(1/eps^2) + 1 <= floor(L/2), i.e.
    eps >= 1/sqrt(floor(L/2) - 1).  Returns (eps_0, attainable).
    """
    half = L // 2
    if half < 2:
        return 1.0, False
    # the Johnson step additionally needs eps^2 < 1/2: floor(L/2) - 1 > 2
    return 1.0 / math.sqrt(half - 1), half >= 4


def _cmd_pipeline(args) -> tuple[dict, bool, str]:
    if args.name == "gv-rip":
        lc = codes.random_linear_code_gv(args.q, args.n, args.delta, seed=args.seed)
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
            "coherence_ok": _at_most(coh.value, 2.0 * eps),
            "rip2_constant": rip.alpha,
            "rip2_bound": 2.0 * args.L * eps,
            "rip2_ok": _at_most(rip.alpha, 2.0 * args.L * eps),
        }
        ok = report["coherence_ok"] and report["rip2_ok"]
    elif args.name == "ks-gt":
        m, prov = group_testing.kautz_singleton(args.q, args.k)
        guaranteed = prov["guaranteed_disjunct_order"]
        L = args.L if args.L is not None else guaranteed
        n_cols = m.shape[1]
        # the round trip's walk checks its cap now, before the disjunct walk
        # runs; a larger order is verify_disjunct's to refuse
        walk = caps.supports(n_cols, L) if L < n_cols else ()
        disjunct = group_testing.verify_disjunct(m, L)
        passed, failed, first_failure = group_testing.recovers(m, walk)
        report = {
            "property": "pipeline-ks-gt",
            "q": args.q, "k": args.k, "order": L,
            "rows": int(m.shape[0]), "cols": n_cols,
            # two sets of the design meet where their codewords agree
            "design_r": prov["block_length"] - prov["min_distance"],
            "design_r_bound": args.k,
            "guaranteed_disjunct_order": guaranteed,
            "disjunct": disjunct.disjunct,
            "roundtrip_passed": passed,
            "roundtrip_failed": failed,
            "first_failure": first_failure,
        }
        ok = disjunct.disjunct and failed == 0
    elif args.name == "rip-ld":
        # RIP -> flat RIP -> bias -> list decoding on the binary code behind
        # a +-1/sqrt(n) matrix: each stage's constant beside the bound the
        # stage before it predicts
        m = certify.as_matrix(matrixio.read_matrix(args.matrix))
        # the Johnson step's refusals of epsilon come before any walk
        listdecode.johnson_inverse_square(args.epsilon)
        rip = certify.rip2_constant(m, args.L)
        code = codes.Code.from_array(2, sph_inverse_binary(m))
        if len(code) != m.shape[1]:
            raise SparseCodeError("matrix has duplicate columns")
        l0 = min(max(args.L // 2, 1), m.shape[1] // 2)
        if l0 < 1:
            raise SparseCodeError("matrix has too few columns for the pipeline")
        flat = certify.flat_rip_constant(m, l0)
        flat_bound = certify.FLAT_FROM_RIP_FACTOR * rip.alpha
        bias_stages = []
        for order in range(2, l0 + 1):
            measured = codes.lwise_bias(code, order)
            predicted = certify.bias_factor_from_flat(order) * flat.constant / order
            bias_stages.append({"L": order, "measured_bias": measured,
                                "predicted_bound": predicted,
                                "ok": _at_most(measured, predicted)})
        eps0, attainable = _epsilon_floor(args.L)
        johnson = listdecode.johnson_check(code, args.epsilon)
        report = {
            "property": "rip-to-list-decoding",
            "order": args.L,
            "claimed_rip_constant": rip.alpha,
            "flat_constant": flat.constant,
            "flat_predicted_bound": flat_bound,
            "flat_ok": _at_most(flat.constant, flat_bound),
            "bias_stages": bias_stages,
            "epsilon": args.epsilon,
            "epsilon_floor": eps0,
            "epsilon_floor_attainable": attainable,
            # eps >= 1/sqrt(floor(L/2) - 1), for the decimal eps prints as
            "epsilon_above_floor": attainable and (
                _decimal(args.epsilon) ** 2 * (args.L // 2 - 1) >= 1),
            "johnson": johnson.to_dict(),
            "measured_rip_constant": rip.alpha,
        }
        ok = report["flat_ok"] and all(s["ok"] for s in bias_stages)
        ok = ok and johnson.verdict != "fail"
    report["pass"] = bool(ok)
    return report, ok, f"pipeline {args.name}: {'pass' if ok else 'VIOLATED'}"


# ---------------------------------------------------------------- parser

def _finite_float(text: str) -> float:
    """A float flag's value; NaN and inf would give a verdict on no number.
    argparse turns the ValueError of either refusal into one usage error,
    `invalid finite float value`, from this function's name."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _threshold(text: str) -> Decimal:
    """--threshold's value: the decimal its text reads, exactly, for each
    text that `_finite_float` accepts.  Decimal reads it, as
    Fraction("1e-999999999") would build a billion-digit power of ten."""
    _finite_float(text)
    return Decimal(text)


_finite_float.__name__ = _threshold.__name__ = "finite float"


# each flag's add_argument keywords; a path flag keeps the string as given
_FLAG_KEYWORDS = {
    **dict.fromkeys(["q", "n", "N", "k", "cols", "L", "r", "n-prime", "seed",
                     "trials"], {"type": int}),
    **dict.fromkeys(["delta", "epsilon", "alpha", "rho"], {"type": _finite_float}),
    "threshold": {"type": _threshold},
    "normalize": {"action": "store_true"},
}

# command -> (help, handler, positional, {choice: (required, {optional: default})});
# a command without a positional has the one choice None.  Each choice
# declares exactly the flags its handler reads, so argparse refuses the rest.
_COMMANDS = {
    "build": ("construct codes and matrices", _cmd_build, "kind", {
        "gv-code": ("q n delta seed out", {}),
        "rs-code": ("q k out", {}),
        "sph": ("code out", {}),
        "bool": ("code out", {"normalize": False}),
        "kautz-singleton": ("q k out", {}),
        "vandermonde": ("n cols out", {}),
    }),
    "verify": ("certify a property of a code or matrix", _cmd_verify, "property", {
        prop: (flags, {"threshold": None} if relation else {})
        for prop, (flags, _, _, _, relation) in _VERIFY.items()}),
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
        "gv-rip": ("q n delta seed L", {}),
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
    """A verdict on an order below 0 or on no trials would come from no work,
    and a seed below 0 seeds no draw."""
    for flag, least in (("L", 0), ("trials", 1), ("seed", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < least:
            raise SparseCodeError(f"--{flag} must be >= {least}, got {value}")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        _check_counts(args)
        report, holds, summary = args.func(args)
        report = {**report, "elapsed_ms": round((time.monotonic() - started) * 1000.0, 3)}
        # an exact number prints as its float; a NaN or an infinity is no
        # JSON and no verdict: ValueError, exit 2
        print(json.dumps(report, allow_nan=False, default=float))
        print(summary, file=sys.stderr)
        return 0 if holds else 1
    except (SparseCodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # exit 0 and 1 are verdicts; any other failure is an internal error
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
