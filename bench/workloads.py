"""Seeded inputs and operations for the three benchmark workloads.

A workload is a fixed list of operations ("ops") built from the seed;
`run.py` runs the list as one pass and repeats passes.  Each op has a timed
`run` that calls into sparsecode and an untimed `report` that turns the raw
result into a JSON-ready dict for the reference gate.

Library functions are always looked up through their module at call time
(`codes.code_bias`, not a name imported here), so the tracer's wrappers
see every call.

Sizes are fixed by the op's position in the pass; the seed only chooses
content.  Random codes are drawn without replacement so every code has
exactly its planned size, which keeps the work per pass nearly independent
of the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from sparsecode import (
    certify,
    cli,
    codes,
    embeddings,
    group_testing,
    listdecode,
    matrixio,
    recovery,
)
from sparsecode.words import Word

WORKLOADS = ("corpus", "gt", "cs-ld")

LD_EPSILONS = (0.25, 1.0 / 3.0, 0.5)
CONVERSE_L = 2
FLAT_L0 = 3
# Dense enough that the lex-first witness of L=3 comes within ~100 tuples
# for every seed, so a random-design op costs verify_disjunct's per-call
# work on a violated design; sparser designs put the median op's witness
# anywhere from tens to thousands of tuples, depending on the seed.
RANDOM_DESIGN_SHAPE = (48, 80)
RANDOM_DESIGN_P = 0.5
RANDOM_DESIGN_L = 3
RANDOM_DESIGNS_PER_STRUCTURED_OP = 3


@dataclass
class Op:
    """One closed-loop operation: `run` is timed, `report` is not."""

    name: str
    kind: str
    run: Callable[[], Any]
    report: Callable[[Any], dict]
    info: dict = field(default_factory=dict)
    inputs: tuple = ()  # the generated inputs, for determinism checks


def random_code(q: int, n: int, size: int, rng: np.random.Generator) -> codes.Code:
    """`size` distinct uniformly random words of length n over Z_q."""
    picks = rng.choice(q**n, size=size, replace=False)
    digits = (picks[:, None] // q ** np.arange(n - 1, -1, -1)[None, :]) % q
    return codes.Code(Word(q, tuple(int(s) for s in row)) for row in digits)


def _code_key(c: codes.Code) -> dict:
    return {"q": c.q, "n": c.n, "size": len(c)}


def _distance(rep) -> dict:
    return {"absolute": float(rep.absolute), "relative": float(rep.relative),
            "witness": list(rep.witness)}


def _jsonable(obj):
    """Round-trip through JSON so tuples, numpy scalars and floats normalise."""
    return json.loads(json.dumps(obj))


# ---------------------------------------------------------------- corpus

def _balanced_params(i: int) -> tuple[int, int, int]:
    q = 2 + i % 2
    n = 6 + (i // 2) % 7
    classes = 4 + (i * 5 + i // 6) % 6
    return q, n, classes


def _balanced_op(i: int, rng: np.random.Generator) -> Op:
    q, n, classes = _balanced_params(i)
    while True:
        code = codes.random_balanced_code(q, n, classes, rng)
        quotient = codes.quotient_by_ones(code)
        if len(quotient) >= 4 and len(code) <= 27:
            break

    def run():
        eps = codes.min_distance_epsilon(code)
        bias = codes.code_bias(quotient)
        sph = embeddings.sph_code(quotient)
        coh = certify.coherence(sph)
        sph_profile = certify.rip2_profile(sph, min(4, sph.shape[1]))
        boolean = embeddings.bool_code(code, normalize=True)
        bool_profile = certify.rip2_profile(boolean, min(4, boolean.shape[1]))
        design = group_testing.verify_design(
            group_testing.design_from_code(code))
        lwise = [codes.lwise_distance(code, L) for L in range(2, min(5, len(code)) + 1)]
        return eps, bias, coh, sph_profile, bool_profile, design, lwise

    def report(raw):
        eps, bias, coh, sph_profile, bool_profile, design, lwise = raw
        return _jsonable({
            "code": _code_key(code),
            "epsilon": eps,
            "code_bias": bias,
            "coherence": coh.to_dict(),
            "sph_rip2": [r.to_dict() for r in sph_profile],
            "bool_rip2": [r.to_dict() for r in bool_profile],
            "design": design.to_dict(),
            "lwise_distance": [_distance(r) for r in lwise],
        })

    return Op(f"balanced[{i}]", "balanced", run, report, _code_key(code), (code,))


# (n, |C|) for binary list-decoding codes: 40 points spread evenly over
# n in 8..14 and |C| in 5..16, ending at the ROADMAP's n=14, |C|=16 row
LD_GRID = [(n, size) for size in range(5, 17) for n in range(8, 15)]
LD_PARAMS = [LD_GRID[round(i * (len(LD_GRID) - 1) / 39)] for i in range(40)]


def _listdecode_op(i: int, rng: np.random.Generator) -> Op:
    n, size = LD_PARAMS[i]
    code = random_code(2, n, size, rng)

    def run():
        return [(listdecode.johnson_check(code, eps),
                 listdecode.converse_check(code, CONVERSE_L, eps))
                for eps in LD_EPSILONS]

    def report(raw):
        return _jsonable({
            "code": _code_key(code),
            "checks": [[j.to_dict(), c.to_dict()] for j, c in raw],
        })

    return Op(f"listdecode[{i}]", "listdecode", run, report, _code_key(code), (code,))


def _flat_op(i: int, rng: np.random.Generator) -> Op:
    n = 6 + i % 9
    size = 8 + (i * 3) % 5
    code = random_code(2, n, size, rng)

    def run():
        m = embeddings.sph_code(code)
        flat = certify.flat_rip_constant(m, FLAT_L0)
        rip = certify.rip2_constant(m, 2 * FLAT_L0)
        biases = [codes.lwise_bias(code, L) for L in range(2, 2 * FLAT_L0 + 1)]
        return flat, rip, biases

    def report(raw):
        flat, rip, biases = raw
        return _jsonable({
            "code": _code_key(code),
            "flat_rip": flat.to_dict(),
            "rip2": rip.to_dict(),
            "lwise_bias": biases,
        })

    return Op(f"flat[{i}]", "flat", run, report, _code_key(code), (code,))


def corpus_ops(seed: int) -> list[Op]:
    """40 balanced, 40 list-decoding and 10 flat-RIP certification batteries."""
    rng = np.random.default_rng([seed, 1])
    balanced = [_balanced_op(i, rng) for i in range(40)]
    ld = [_listdecode_op(i, rng) for i in range(40)]
    flat = [_flat_op(i, rng) for i in range(10)]
    ops = []
    for i in range(40):
        ops += [balanced[i], ld[i]]
        if i % 4 == 3:
            ops.append(flat[i // 4])
    return ops


# ---------------------------------------------------------------- CLI ops

def _cli_op(name: str, kind: str, argv: list[str], tmp: Path, **info) -> Op:
    """An op that runs `sparsecode.cli.main(argv)` in-process."""

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def report(raw):
        code, text = raw
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 1:
            raise ValueError(f"{name}: expected one JSON line, got {len(lines)}")
        payload = json.loads(lines[0])
        payload.pop("elapsed_ms", None)
        return {"exit": code, "report": _strip_tmp(payload, str(tmp))}

    return Op(name, kind, run, report, {"argv": list(argv), **info})


def _strip_tmp(obj, prefix: str):
    if isinstance(obj, dict):
        return {k: _strip_tmp(v, prefix) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_strip_tmp(v, prefix) for v in obj]
    if isinstance(obj, str) and obj.startswith(prefix):
        return "<tmp>/" + Path(obj).name
    return obj


# ---------------------------------------------------------------- gt

def _random_design_op(i: int, rng: np.random.Generator) -> Op:
    rows, cols = RANDOM_DESIGN_SHAPE
    m = (rng.random((rows, cols)) < RANDOM_DESIGN_P).astype(np.int64)

    def run():
        return group_testing.verify_disjunct(m, RANDOM_DESIGN_L)

    def report(raw):
        rep = raw.to_dict()
        rep["space"] = cols * math.comb(cols - 1, RANDOM_DESIGN_L)
        return _jsonable(rep)

    return Op(f"bernoulli[{i}]", "bernoulli", run, report,
              {"matrix": m, "L": RANDOM_DESIGN_L}, (m,))


def gt_ops(seed: int, tmp: Path) -> list[Op]:
    """Kautz-Singleton CLI certificates interleaved with random designs."""
    files = {}
    for q, k in ((11, 2), (7, 2), (5, 2)):
        m, _ = group_testing.kautz_singleton(q, k)
        files[(q, k)] = str(tmp / f"ks_{q}_{k}.json")
        matrixio.write_matrix(m, files[(q, k)])
    built = str(tmp / "ks_11_3.json")
    structured = [
        _cli_op("build ks(11,3)", "ks-build",
                ["build", "kautz-singleton", "--q", "11", "--k", "3", "--out", built],
                tmp, q=11, k=3, L=None),
        _cli_op("verify design ks(11,3)", "ks-design",
                ["verify", "design", "--input", built], tmp, q=11, k=3, L=None),
        _cli_op("pipeline ks-gt q=7 k=2", "ks-pipeline",
                ["pipeline", "ks-gt", "--q", "7", "--k", "2"], tmp, q=7, k=2, L=3),
        _cli_op("verify disjunct ks(11,2) L=2", "ks-disjunct",
                ["verify", "disjunct", "--input", files[(11, 2)], "--L", "2"],
                tmp, q=11, k=2, L=2),
        _cli_op("gt-roundtrip ks(7,2) L=3", "ks-roundtrip",
                ["gt-roundtrip", "--matrix", files[(7, 2)], "--L", "3",
                 "--seed", str(seed)], tmp, q=7, k=2, L=3),
        # violated: the witness comes at tuple 4,164 and the exit code is 1
        _cli_op("verify disjunct ks(5,2) L=5", "ks-disjunct",
                ["verify", "disjunct", "--input", files[(5, 2)], "--L", "5"],
                tmp, q=5, k=2, L=5),
        # too many supports for an exhaustive sweep: random mode, exit code 1
        _cli_op("gt-roundtrip ks(5,2) L=6", "ks-roundtrip",
                ["gt-roundtrip", "--matrix", files[(5, 2)], "--L", "6",
                 "--seed", str(seed)], tmp, q=5, k=2, L=6),
    ]
    rng = np.random.default_rng([seed, 2])
    ops = []
    for i, op in enumerate(structured):
        ops.append(op)
        ops += [_random_design_op(i * RANDOM_DESIGNS_PER_STRUCTURED_OP + j, rng)
                for j in range(RANDOM_DESIGNS_PER_STRUCTURED_OP)]
    return ops


# ---------------------------------------------------------------- cs-ld

def _library_op(name: str, kind: str, fn: Callable[[], Any],
                to_dict: Callable[[Any], dict], info: dict, inputs: tuple) -> Op:
    return Op(name, kind, fn, lambda raw: _jsonable(to_dict(raw)), info, inputs)


def cs_ld_ops(seed: int, tmp: Path) -> list[Op]:
    """A few large list-decoding, RIP, bias and recovery certificates."""
    rng = np.random.default_rng([seed, 3])
    ld18 = random_code(2, 18, 16, rng)
    ld20 = random_code(2, 20, 16, rng)
    flat_code = random_code(2, 16, 26, rng)
    flat_m = embeddings.sph_code(flat_code)
    while True:  # nine shift classes of three words each: a 36 x 27 matrix
        bool_m = embeddings.bool_code(codes.random_balanced_code(3, 12, 9, rng),
                                      normalize=True)
        if bool_m.shape[1] == 27:
            break
    rs = codes.reed_solomon(7, 3)
    ripld = str(tmp / "ripld_sph.json")
    matrixio.write_matrix(embeddings.sph_code(random_code(2, 16, 20, rng)), ripld)
    vand = str(tmp / "vand_6x12.json")
    matrixio.write_matrix(
        recovery.vandermonde_matrix(recovery.unit_circle_nodes(12), 6), vand)

    def sweep(code):
        return lambda: listdecode.list_size_at_radius(code, 0.25)

    return [
        _library_op("list size n=18", "list-size", sweep(ld18),
                    lambda r: r.to_dict(), _code_key(ld18), (ld18,)),
        _library_op("flat rip N=26 L0=3", "flat-rip",
                    lambda: certify.flat_rip_constant(flat_m, FLAT_L0),
                    lambda r: r.to_dict(), {"shape": list(flat_m.shape), "L": FLAT_L0},
                    (flat_m,)),
        _library_op("rip2 profile bool 36x27 L=4", "rip2-profile",
                    lambda: certify.rip2_profile(bool_m, 4),
                    lambda r: {"profile": [x.to_dict() for x in r]},
                    {"shape": list(bool_m.shape), "L": 4}, (bool_m,)),
        _cli_op("pipeline gv-rip n=20", "gv-rip",
                ["pipeline", "gv-rip", "--q", "2", "--n", "20", "--delta", "0.2",
                 "--seed", str(seed), "--L", "4"], tmp, L=4),
        _library_op("code bias rs(7,3)", "code-bias",
                    lambda: codes.code_bias(rs),
                    lambda r: {"code_bias": r}, _code_key(rs), (rs,)),
        _cli_op("pipeline rip-ld n=16 N=20", "rip-ld",
                ["pipeline", "rip-ld", "--matrix", ripld, "--L", "4",
                 "--epsilon", "0.5"], tmp),
        _cli_op("cs-roundtrip vand 6x12 L=3", "cs-roundtrip",
                ["cs-roundtrip", "--matrix", vand, "--L", "3", "--seed", str(seed)], tmp),
        _cli_op("verify kernel vand 6x12 L=3", "kernel",
                ["verify", "kernel", "--input", vand, "--L", "3"], tmp),
        _library_op("list size n=20", "list-size", sweep(ld20),
                    lambda r: r.to_dict(), _code_key(ld20), (ld20,)),
    ]


def build(workload: str, seed: int, tmp: Path) -> list[Op]:
    """The op list of one pass of `workload`, with its input files in `tmp`."""
    if workload == "corpus":
        return corpus_ops(seed)
    if workload == "gt":
        return gt_ops(seed, tmp)
    if workload == "cs-ld":
        return cs_ld_ops(seed, tmp)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
