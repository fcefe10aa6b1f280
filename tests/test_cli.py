import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from itertools import chain, combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
import sparsecode
from sparsecode import caps, certify, cli, codes, group_testing, recovery
from sparsecode.cli import main
from sparsecode.codes import Code, read_code_file
from sparsecode.embeddings import bool_code, sph_code
from sparsecode.group_testing import kautz_singleton
from sparsecode.matrixio import read_matrix, write_matrix
from sparsecode.recovery import RecoveryResult, unit_circle_nodes, vandermonde_matrix
from test_report_json import CODE


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


def strip_elapsed(report):
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


class TestBuild:
    def test_kautz_singleton(self, capsys, tmp_path):
        out = tmp_path / "ks.json"
        code, report, _ = run(
            capsys, "build", "kautz-singleton", "--q", "5", "--k", "2",
            "--out", str(out),
        )
        assert code == 0
        m = read_matrix(out)
        assert m.shape == (25, 25)
        meta = json.loads((tmp_path / "ks.json.meta.json").read_text())
        assert meta["construction"] == "kautz-singleton"
        assert meta["tool_version"]

    def test_rs_code(self, capsys, tmp_path):
        out = tmp_path / "rs.code"
        code, report, _ = run(
            capsys, "build", "rs-code", "--q", "3", "--k", "1", "--out", str(out)
        )
        assert code == 0
        assert report["size"] == 3
        assert out.read_text().splitlines()[0] == "3 3"

    def test_gv_code_bad_delta_exits_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "build", "gv-code", "--q", "2", "--n", "10",
            "--delta", "0.8", "--seed", "1", "--out", str(tmp_path / "c"),
        )
        assert code == 2
        assert "error" in err

    def test_missing_flags_exit_2(self, capsys, tmp_path):
        code, out, err = run_any(capsys, ["build", "gv-code", "--out", str(tmp_path / "c")])
        assert (code, out) == (2, "")
        assert "error: the following arguments are required: --q, --n, --delta, --seed" in err

    @pytest.mark.parametrize("kind", ["rs-code", "kautz-singleton"])
    def test_codeword_cap_exits_2(self, capsys, tmp_path, monkeypatch, kind):
        monkeypatch.setenv("SPARSECODE_CAP", "100")
        out = tmp_path / "out"
        code, report, err = run(capsys, "build", kind, "--q", "11", "--k", "2",
                                "--out", str(out))
        assert code == 2
        assert report is None
        assert err.count("error:") == 1
        assert "121 codewords exceed cap 100" in err
        assert not out.exists()

    def test_sph_from_code_file(self, capsys, tmp_path):
        code_path = tmp_path / "rs.code"
        run(capsys, "build", "rs-code", "--q", "5", "--k", "1",
            "--out", str(code_path))
        out = tmp_path / "sph.json"
        code, report, _ = run(
            capsys, "build", "sph", "--code", str(code_path), "--out", str(out)
        )
        assert code == 0
        m = read_matrix(out)
        assert m.shape == (5, 5)
        assert np.allclose(np.linalg.norm(m, axis=0), 1.0)


class TestVerify:
    @pytest.fixture()
    def ks_matrix(self, capsys, tmp_path):
        out = tmp_path / "ks.json"
        run(capsys, "build", "kautz-singleton", "--q", "5", "--k", "2",
            "--out", str(out))
        return out

    def test_disjunct_pass(self, capsys, ks_matrix):
        code, report, _ = run(
            capsys, "verify", "disjunct", "--input", str(ks_matrix), "--L", "2"
        )
        assert code == 0
        assert report["pass"] is True

    def test_design_report(self, capsys, ks_matrix):
        code, report, _ = run(
            capsys, "verify", "design", "--input", str(ks_matrix)
        )
        assert code == 0
        assert report["n_prime"] == 5

    def test_rip2_on_identity_embedding(self, capsys, tmp_path):
        code_path = tmp_path / "c.code"
        code_path.write_text("2 2\n0 0\n0 1\n")
        out = tmp_path / "sph.json"
        run(capsys, "build", "sph", "--code", str(code_path), "--out", str(out))
        code, report, _ = run(
            capsys, "verify", "rip2", "--input", str(out),
            "--L", "2", "--threshold", "0.5",
        )
        assert code == 0
        assert report["constant"] == pytest.approx(0.0)

    def test_threshold_violation_exits_1(self, capsys, tmp_path):
        code_path = tmp_path / "c.code"
        code_path.write_text("2 2\n0 0\n1 1\n")
        out = tmp_path / "sph.json"
        run(capsys, "build", "sph", "--code", str(code_path), "--out", str(out))
        code, report, _ = run(
            capsys, "verify", "coherence", "--input", str(out),
            "--threshold", "0.5",
        )
        assert code == 1
        assert report["pass"] is False

    def test_cap_exceeded_exits_2(self, capsys, ks_matrix, monkeypatch):
        monkeypatch.setenv("SPARSECODE_CAP", "100")
        code, _, err = run(
            capsys, "verify", "rip2", "--input", str(ks_matrix), "--L", "4",
        )
        assert code == 2
        assert err == "error: 15275 subsets up to size 4 exceed cap 100\n"

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "coherence", "--input", "/nonexistent.json"
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["abc", "0", "-5"])
    def test_bad_env_cap_exits_2(self, capsys, tmp_path, monkeypatch, value):
        code_path = tmp_path / "c.code"
        code_path.write_text("2 2\n0 0\n1 1\n")
        monkeypatch.setenv("SPARSECODE_CAP", value)
        code, report, err = run(
            capsys, "verify", "list-decode", "--input", str(code_path),
            "--rho", "0.5",
        )
        assert code == 2
        assert report is None
        assert err.count("error:") == 1
        assert "SPARSECODE_CAP" in err

    def test_env_cap_is_honored(self, capsys, tmp_path, monkeypatch):
        code_path = tmp_path / "c.code"
        code_path.write_text("2 2\n0 0\n1 1\n")
        monkeypatch.setenv("SPARSECODE_CAP", "3")
        code, _, err = run(
            capsys, "verify", "list-decode", "--input", str(code_path),
            "--rho", "0.5",
        )
        assert code == 2
        assert "4 centers exceed cap 3" in err

    def test_lwise_distance(self, capsys, tmp_path):
        code_path = tmp_path / "c.code"
        code_path.write_text("2 2\n0 0\n0 1\n1 1\n")
        code, report, _ = run(
            capsys, "verify", "lwise-distance", "--input", str(code_path),
            "--L", "3", "--threshold", "0.5",
        )
        assert code == 0
        assert report["constant"] == pytest.approx(2 / 3)


# each --threshold property on the inputs of test_report_json, as
# (argv, [(threshold, exit code)]): at the value it certifies there, and
# either side of the 1e-12 slack of a float relation; lwise-distance's
# constant is an exact ratio correctly rounded, so it is judged by >= alone
_BOUNDARIES = [
    *[(argv, [(v, 0), (v - 0.5e-12, 0), (v - 2e-12, 1)]) for argv, v in (
        (["coherence", "--input", "sph.json"], 0.5),
        (["rip2", "--input", "sph.json", "--L", "2"], 0.2928932188134524),
        (["flat-rip", "--input", "sph.json", "--L", "1"], 0.5),
        (["lwise-bias", "--input", "c.code", "--L", "2"], 0.25))],
    (["lwise-distance", "--input", "c.code", "--L", "3"],
     [(0.5, 0), (0.5 + 0.5e-12, 1), (0.5 + 2e-12, 1)]),
    # r <= threshold, and max_list_size < threshold, on the exact integer
    # and the threshold's decimal text: each text 1e-17 off the value reads
    # as the value's double
    (["design", "--input", "bool.json"],
     [(3, 0), (2, 1), ("2.99999999999999999", 1), ("3.00000000000000001", 0)]),
    (["list-decode", "--input", "c.code", "--rho", "0.25"],
     [(4, 0), (3, 1), ("3.00000000000000001", 0), ("2.99999999999999999", 1)]),
]


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("report-inputs")
    codes.write_code_file(CODE, root / "c.code")
    write_matrix(sph_code(CODE), root / "sph.json")
    write_matrix(bool_code(CODE), root / "bool.json")
    return root


@pytest.mark.parametrize("argv, threshold, exit_code", [
    (argv, t, code) for argv, points in _BOUNDARIES for t, code in points],
    ids=lambda a: a[0] if isinstance(a, list) else str(a))
def test_verify_relation_at_its_boundary(capsys, report_inputs, argv, threshold, exit_code):
    flags = [str(report_inputs / a) if a.endswith((".json", ".code")) else a for a in argv[1:]]
    code, report, _ = run(capsys, "verify", argv[0], *flags, "--threshold", str(threshold))
    assert (code, report["pass"]) == (exit_code, exit_code == 0)


@pytest.mark.parametrize("threshold, exit_code", [
    ("0.8", 0), ("0.8000000000005", 1), ("0.80000000000000001", 1),
    ("0.79999999999999999", 0), ("8e-1", 0), ("1e-999999999", 0)])
def test_lwise_distance_is_judged_without_a_slack(capsys, tmp_path, threshold, exit_code):
    """RS(5,2)'s least 3-wise distance is exactly 4/5, printed as 0.8.  A
    threshold 5e-13 above it is violated, though a 1e-12 slack would pass
    it, and so is one 1e-17 above it, whose double is 0.8's: the verdict
    reads the exact ratio and the decimal text.  The report prints both as
    floats."""
    rs = tmp_path / "rs.code"
    run(capsys, "build", "rs-code", "--q", "5", "--k", "2", "--out", str(rs))
    code, report, _ = run(capsys, "verify", "lwise-distance", "--input", str(rs),
                          "--L", "3", "--threshold", threshold)
    assert (code, report["constant"], report["pass"]) == (exit_code, 0.8, exit_code == 0)
    assert report["threshold"] == float(threshold)
    assert report["constant"] >= float(threshold) - 1e-12


def test_list_decode_radius_is_floored_exactly(capsys, tmp_path):
    """On RS(5,2), rho = 0.3999999999999 gives rho n = 1.9999999999995,
    whose floor is 1: at radius 1 the max list size is 1, below 2.  A slack
    of 1e-12 once rounded the radius up to 2, whose max list size is 2."""
    rs = tmp_path / "rs.code"
    run(capsys, "build", "rs-code", "--q", "5", "--k", "2", "--out", str(rs))
    code, report, _ = run(capsys, "verify", "list-decode", "--input", str(rs),
                          "--rho", "0.3999999999999", "--threshold", "2")
    assert (code, report["absolute_radius"], report["max_list_size"]) == (0, 1, 1)


def test_gv_code_meets_its_delta_exactly(capsys, tmp_path):
    """delta = 0.200000000005 on 20 coordinates asks for distance above 4.
    A target of delta * n - 1e-9 once accepted seed 2's first draw, of
    2-wise distance 0.2 at witness [0, 4]; the code built now verifies."""
    gv = tmp_path / "gv.code"
    run(capsys, "build", "gv-code", "--q", "2", "--n", "20", "--delta", "0.200000000005",
        "--seed", "2", "--out", str(gv))
    code, report, _ = run(capsys, "verify", "lwise-distance", "--input", str(gv),
                          "--L", "2", "--threshold", "0.200000000005")
    assert (code, report["constant"]) == (0, 0.25)


@pytest.mark.parametrize("threshold, exit_code", [
    ("0.222222222222222223", 1), ("0.222222222222222221", 0)])
def test_full_walk_is_judged_on_its_exact_ratio(capsys, tmp_path, threshold, exit_code):
    """Five binary words that form no group, so the walk is full: the least
    3-wise distance is exactly 2/9, at [1, 2, 3].  Both texts read as the
    double of 2/9; the one above 2/9 is violated, the one below holds."""
    ng = tmp_path / "ng.code"
    ng.write_text("2 6\n0 0 0 0 0 0\n0 1 1 1 0 0\n0 1 1 1 0 1\n0 1 1 1 1 0\n1 1 1 1 0 0\n")
    code, report, _ = run(capsys, "verify", "lwise-distance", "--input", str(ng),
                          "--L", "3", "--threshold", threshold)
    assert (code, report["witness"], report["threshold"]) == (exit_code, [1, 2, 3], 2 / 9)
    assert report["constant"] == 2 / 9


@settings(derandomize=True, max_examples=300, deadline=None)
@given(text=st.one_of(
    st.text(),
    st.from_regex(r"\A\s*[-+]?(\d[\d_]*)?\.?[\d_]*([eE][-+]?[\d_]+)?\s*\Z"),
    st.floats().map(repr),
    st.sampled_from(["inf", "-Infinity", "nan", "1e400", "1e-400", " 0.8 ", "1_0.5",
                     "1__0", "_1", "0.8_", "4/5", "0x10", "\u0660.\u0668", "\uff10.\uff18"])))
def test_threshold_reads_the_texts_a_float_flag_reads(text):
    """--threshold accepts and refuses exactly the texts `_finite_float` does,
    reads each as the decimal of its text, and prints the double
    `_finite_float` would give."""
    try:
        value = cli._finite_float(text)
    except ValueError:
        with pytest.raises(ValueError):
            cli._threshold(text)
    else:
        threshold = cli._threshold(text)
        assert threshold == Decimal(text) and float(threshold) == value


def test_verify_dispatches_through_its_table():
    """`_cmd_verify` has no if statement and names no property: each verify
    property is one row of `cli._VERIFY`."""
    tree = ast.parse(Path(cli.__file__).read_text())
    verify = next(node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name == "_cmd_verify")
    assert [node.lineno for node in ast.walk(verify) if isinstance(node, ast.If)
            or isinstance(node, ast.Constant) and node.value in cli._VERIFY] == []


def test_only_main_catches():
    """Handlers run straight through: a refusal raised anywhere reaches
    `main`, whose one try turns it into exit 2."""
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    tries = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Try)]
    assert len(tries) == 1
    assert tries == [node.lineno for node in ast.walk(main_def) if isinstance(node, ast.Try)]


def test_build_writes_once():
    """`_cmd_build` calls one writer, picked by the built object's type from
    the two it names once each, and writes the provenance in one call."""
    tree = ast.parse(Path(cli.__file__).read_text())
    build = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_cmd_build")
    calls = [getattr(node.func, "id", getattr(node.func, "attr", "")) or ""
             for node in ast.walk(build) if isinstance(node, ast.Call)]
    named = [getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(build)]
    assert sorted(c for c in calls if c.lstrip("_").startswith("write")) == ["write", "write_text"]
    assert (named.count("write_code_file"), named.count("write_matrix")) == (1, 1)


class TestBounds:
    def test_rate_values(self, capsys):
        code, report, _ = run(
            capsys, "bounds", "--q", "2", "--delta", "0.11"
        )
        assert code == 0
        assert report["gv_rate"] == pytest.approx(0.5, abs=5e-4)
        assert report["mrrw_rate_bound"] > report["gv_rate"]

    def test_rip_rows_indicator_needs_alpha_not_epsilon(self, capsys):
        argv = ["bounds", "--L", "3", "--N", "10", "--alpha", "0.5"]
        code, report, _ = run(capsys, *argv)
        assert code == 0
        assert report["rip_rows_indicator"] == 165.7861266955713
        _, with_epsilon, _ = run(capsys, *argv, "--epsilon", "0.1")
        assert strip_elapsed(with_epsilon) == {
            **strip_elapsed(report), "gv_critical_expansion": with_epsilon["gv_critical_expansion"]}
        _, no_alpha, _ = run(capsys, *argv[:5], "--epsilon", "0.1")
        assert "rip_rows_indicator" not in no_alpha

    @pytest.mark.parametrize("q", ["1", "0"])
    def test_small_alphabet_names_the_flag(self, capsys, q):
        code, report, err = run(capsys, "bounds", "--q", q, "--epsilon", "1")
        assert code == 2
        assert report is None
        assert err.count("error:") == 1
        assert "--q" in err


class TestRoundtrips:
    def test_gt_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "ks.json"
        run(capsys, "build", "kautz-singleton", "--q", "5", "--k", "2",
            "--out", str(out))
        code, report, _ = run(
            capsys, "gt-roundtrip", "--matrix", str(out), "--L", "2"
        )
        assert code == 0
        assert report["mode"] == "exhaustive"
        assert report["passed"] == 326
        assert report["failed"] == 0

    def test_cs_roundtrip(self, capsys, tmp_path):
        out = tmp_path / "v.json"
        run(capsys, "build", "vandermonde", "--n", "4", "--cols", "8",
            "--out", str(out))
        code, report, _ = run(
            capsys, "cs-roundtrip", "--matrix", str(out), "--L", "2",
            "--seed", "9", "--trials", "20",
        )
        assert code == 0
        assert report["failures"] == 0
        assert report["max_recovery_error"] <= 1e-6

    def test_cs_roundtrip_counts_its_failures(self, capsys, monkeypatch, tmp_path):
        """A trial the decoder misses is counted, not measured: the error is
        the largest over the successes alone, and any miss exits 1.  Every
        second trial is made a miss, far from its x, across two batches."""
        out = tmp_path / "v.json"
        write_matrix(vandermonde_matrix(unit_circle_nodes(6), 3), out)
        encode, decode = recovery.cs_encode, recovery.cs_decode_batch
        xs, errors = [], []

        def record(m, x):
            xs.append(x)
            return encode(m, x)

        def every_second_missed(m, ys, L):
            results = []
            for result in decode(m, ys, L):
                i = len(errors)
                errors.append(float(np.abs(result.estimate - xs[i]).max()))
                if i % 2:
                    result = RecoveryResult(xs[i] + 1.0, result.residual_norm, (),
                                            result.candidates_tried, False)
                results.append(result)
            return results

        monkeypatch.setattr(recovery, "cs_encode", record)
        monkeypatch.setattr(recovery, "cs_decode_batch", every_second_missed)
        trials = cli._ROUNDTRIP_BATCH + 9
        code, report, err = run(capsys, "cs-roundtrip", "--matrix", str(out), "--L", "1",
                                "--seed", "3", "--trials", str(trials))
        misses = trials // 2
        assert len(errors) == trials
        assert report["failures"] == misses
        assert report["max_recovery_error"] == max(errors[::2])
        assert 0.0 < report["max_recovery_error"] <= 1e-6
        assert code == 1
        assert err == f"cs-roundtrip: {misses} failures, max error {max(errors[::2]):.2e}\n"

    def test_cs_roundtrip_counts_a_wrong_fit(self, capsys, monkeypatch, tmp_path):
        """A trial that decodes to the wrong vector fails as a miss does: it
        is counted, and its error is measured.  Every third trial is made to
        decode 0.5 away from its x, across two batches."""
        out = tmp_path / "v.json"
        write_matrix(vandermonde_matrix(unit_circle_nodes(6), 3), out)
        encode, decode = recovery.cs_encode, recovery.cs_decode_batch
        xs = []

        def record(m, x):
            xs.append(x)
            return encode(m, x)

        def every_third_wrong(m, ys, L):
            results = []
            for i, result in enumerate(decode(m, ys, L), len(xs) - len(ys)):
                if i % 3 == 0:
                    result = RecoveryResult(xs[i] + 0.5, result.residual_norm,
                                            result.support_found, result.candidates_tried,
                                            True)
                results.append(result)
            return results

        monkeypatch.setattr(recovery, "cs_encode", record)
        monkeypatch.setattr(recovery, "cs_decode_batch", every_third_wrong)
        trials = cli._ROUNDTRIP_BATCH + 9
        code, report, err = run(capsys, "cs-roundtrip", "--matrix", str(out), "--L", "1",
                                "--seed", "3", "--trials", str(trials))
        wrong = len(range(0, trials, 3))
        assert (code, report["failures"]) == (1, wrong)
        assert report["max_recovery_error"] == pytest.approx(0.5)
        assert err == f"cs-roundtrip: {wrong} failures, max error 5.00e-01\n"


def _loop_roundtrips(m, supports):
    """The per-support loop, kept as the oracle for group_testing.recovers."""
    b = m.astype(bool)
    passed = failed = 0
    first_failure = None
    for support in supports:
        x = np.zeros(m.shape[1], dtype=bool)
        x[list(support)] = True
        y = (b & x[None, :]).any(axis=1)
        if np.array_equal(~(b & ~y[:, None]).any(axis=0), x):
            passed += 1
        else:
            failed += 1
            if first_failure is None:
                first_failure = [int(i) for i in support]
    return passed, failed, first_failure


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _zero_word_rng(z):
    """A PCG64 generator whose uint32 word z is 0, in next_uint32 order (each
    64-bit output's low half, then its high half): seed 0's state, stepped
    back from an output z // 2 with that half rewritten.  PCG64 steps its
    128-bit state s to s * multiplier + inc, then outputs the XOR of its
    halves rotated right by its top 6 bits."""
    state = np.random.PCG64(0).state
    s, inc = state["state"]["state"], state["state"]["inc"]
    mod, word = 1 << 128, (1 << 64) - 1
    for _ in range(z // 2 + 1):
        s = (s * _PCG64_MULTIPLIER + inc) % mod
    rot, high = s >> 122, s >> 64
    xored = (high ^ s) & word
    out = ((xored >> rot) | (xored << (64 - rot))) & word
    out &= ~(0xFFFFFFFF << 32 * (z % 2))
    s = (high << 64) | ((((out << rot) | (out >> (64 - rot))) & word) ^ high)
    inverse = pow(_PCG64_MULTIPLIER, -1, mod)
    for _ in range(z // 2 + 1):
        s = (s - inc) * inverse % mod
    state["state"]["state"] = s
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


def _roundtrip_cases():
    """(matrix, L) pairs: random designs, designs of more than 64 tests (two
    words per column), an all-zero column, duplicated columns and L = 0."""
    rng = np.random.default_rng(23)
    cases = [(kautz_singleton(5, 2)[0], 3), (np.eye(5, dtype=np.int64), 5)]
    for _ in range(6):
        m = (rng.random((int(rng.integers(1, 12)), 10)) < 0.35).astype(np.int64)
        cases.append((m, int(rng.integers(0, 4))))
    cases += [(kautz_singleton(11, 2)[0], 2),
              ((rng.random((100, 12)) < 0.08).astype(np.int64), 3)]
    repeated = (rng.random((9, 8)) < 0.4).astype(np.int64)
    repeated[:, 3] = 0
    repeated[:, 6] = repeated[:, 1]
    cases += [(repeated, L) for L in range(4)]
    cases += [(kautz_singleton(3, 2)[0], 0), (np.eye(5, dtype=np.int64), 0)]
    return cases


def _exhaustive(n_cols, L):
    return chain.from_iterable(combinations(range(n_cols), w) for w in range(L + 1))


def _encoded_ok(m, rows):
    """Whether each support of a batch of index rows (padded with N) comes
    back through gt_encode and gt_decode_cover: the float-product oracle."""
    x = np.zeros((len(rows), m.shape[1] + 1), dtype=bool)
    x[np.arange(len(rows))[:, None], rows] = True
    x = x[:, :-1]
    return (group_testing.gt_decode_cover(m, group_testing.gt_encode(m, x)) == x).all(axis=1)


class TestRoundtripBatches:
    @pytest.mark.parametrize("batch", [1, 7, None])
    def test_exhaustive_matches_per_support_loop(self, monkeypatch, batch):
        if batch is not None:
            monkeypatch.setattr(caps, "_SUPPORT_BLOCK", batch)
        failures = passes = 0
        for m, L in _roundtrip_cases():
            n_cols = m.shape[1]
            got = group_testing.recovers(m, caps.supports(n_cols, L))
            assert got == _loop_roundtrips(m, _exhaustive(n_cols, L)), (m.shape, L)
            failures += got[1] > 0
            passes += got[1] == 0
        assert failures >= 5 and passes >= 3

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_column_block_changes_no_result(self, monkeypatch, block):
        """The subset test's column blocks, at 1, 7 and the default, in
        exhaustive and random mode: no block size moves a count, a witness
        or any one support's verdict, alone or in its batch."""
        if block is not None:
            monkeypatch.setattr(group_testing, "_COLUMN_BLOCK", block)
        # each batch's failures, as `recovers` offers them to its LexFirst
        offered, offer = [], caps.LexFirst.offer

        def recorded(lead, scores, name):
            offered.append(scores.copy())
            offer(lead, scores, name)

        monkeypatch.setattr(caps.LexFirst, "offer", recorded)
        # from KS(11,2) on: two words per column, zero and duplicated columns, L = 0
        for m, L in _roundtrip_cases()[-8:]:
            n_cols = m.shape[1]
            walk = list(caps.supports(n_cols, L))
            rows = list(cli._random_supports(n_cols, L, 300, 5))
            offered.clear()
            assert group_testing.recovers(m, walk) == _loop_roundtrips(
                m, _exhaustive(n_cols, L)), (m.shape, L)
            assert group_testing.recovers(m, rows) == _loop_roundtrips(
                m, [row[row < n_cols] for batch in rows for row in batch]), (m.shape, L)
            # support by support in its batch, so no two errors cancel
            assert [fails.tolist() for fails in offered] == [
                (~_encoded_ok(m, batch)).tolist() for batch in walk + rows], (m.shape, L)
            # and each support alone, as a one-row batch
            for row in chain(*walk, *rows):
                ok = _encoded_ok(m, row[None])[0]
                assert group_testing.recovers(m, [row[None]]) == (
                    (1, 0, None) if ok else (0, 1, row[row < n_cols].tolist())), (m.shape, row)

    def test_random_rows_are_padded_at_every_weight(self):
        """Each random draw is one row, sorted and padded with N to width L,
        at every weight 0..L; the draws are the seeded ones."""
        n_cols, L = 25, 6
        trials = 2 * cli._ROUNDTRIP_BATCH + 5
        rows = np.concatenate(list(cli._random_supports(n_cols, L, trials, 3)))
        rng = np.random.default_rng(3)
        weights = []
        for row in rows:
            support = sorted(rng.choice(n_cols, size=int(rng.integers(0, L + 1)), replace=False))
            weights.append(len(support))
            assert row.tolist() == support + [n_cols] * (L - len(support))
        assert set(weights) == set(range(L + 1))
        m, _ = kautz_singleton(5, 2)
        got = group_testing.recovers(m, cli._random_supports(n_cols, L, trials, 3))
        assert got == _loop_roundtrips(m, [row[row < n_cols] for row in rows])
        assert got[1] > 0

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n_cols=st.one_of(st.integers(1, 40), st.integers(41, 2**32)), data=st.data(),
           seed=st.integers(0, 2**32 - 1),
           batch=st.sampled_from([1, 7, cli._ROUNDTRIP_BATCH]))
    def test_random_supports_equal_the_draw_loop(self, n_cols, data, seed, batch):
        """The batch draws are the per-draw loop's rows, batch for batch, on
        both sides of `_BATCH_DRAWS_MAX_L` and across batch boundaries.
        Columns near 2^32 make most words of a Floyd step rejected."""
        L = data.draw(st.integers(0, min(n_cols, cli._BATCH_DRAWS_MAX_L + 8)), label="L")
        trials = data.draw(st.integers(1, 2 * batch + 3), label="trials")
        with mock.patch.object(cli, "_ROUNDTRIP_BATCH", batch):
            got = list(cli._random_supports(n_cols, L, trials, seed))
        want = list(oracle.random_supports(n_cols, L, trials, seed, batch))
        assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want]

    @pytest.mark.parametrize("n_cols, L, trials, seed", [
        (5, 0, 2100, 3),        # L = 0: no draw reads a word
        (17, 17, 2100, 0),      # L = N: Floyd's first step has range 0
        (1, 1, 50, 4),
        (10001, 210, 300, 1),   # w > N // 50: numpy's tail shuffle
        (10001, 260, 60, 2),
    ])
    def test_random_supports_equal_the_draw_loop_at_the_edges(self, n_cols, L, trials, seed):
        batch = cli._ROUNDTRIP_BATCH
        got = list(cli._random_supports(n_cols, L, trials, seed))
        want = list(oracle.random_supports(n_cols, L, trials, seed, batch))
        assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want]

    @pytest.mark.parametrize("n_cols, L, trials, seed", [
        (25, 6, 1000, 7),
        (25, 6, 2100, 3),
        (17, 17, 300, 0),
        (9973, 6, 2000, 185),
        (49, 40, 50, 1),        # above _BATCH_DRAWS_MAX_L: a numpy call per draw
        (5, 0, 10, 2),
    ])
    def test_the_generator_ends_where_the_draw_loop_leaves_it(self, monkeypatch, n_cols, L,
                                                              trials, seed):
        """No word read ahead is lost: once the draws are exhausted, the
        generator's state is the per-draw loop's."""
        made, default_rng = [], np.random.default_rng

        def recorded(seed):
            made.append(default_rng(seed))
            return made[-1]

        monkeypatch.setattr(np.random, "default_rng", recorded)
        got = list(cli._random_supports(n_cols, L, trials, seed))
        want = list(oracle.random_supports(n_cols, L, trials, seed, cli._ROUNDTRIP_BATCH))
        assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want]
        assert made[0].bit_generator.state == made[1].bit_generator.state

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.Philox,
        np.random.MT19937])
    @pytest.mark.parametrize("n_cols, L, trials, seed", [
        (25, 6, 2100, 3),
        (17, 17, 300, 0),
        (9973, 6, 2000, 185),
        (1331, 32, 1100, 1),
    ])
    def test_every_bit_generator_gives_the_draw_loop(self, monkeypatch, bit_generator,
                                                     n_cols, L, trials, seed):
        """The words read ahead are numpy's own uint32 draws, so over any bit
        generator the batch draws are the per-draw loop's rows, and the
        generator ends in the loop's state."""
        made = []

        def recorded(seed):
            made.append(np.random.Generator(bit_generator(seed)))
            return made[-1]

        def plain(state):
            # a state holds arrays (MT19937's key, Philox's counter), which == cannot judge
            if isinstance(state, dict):
                return {k: plain(v) for k, v in state.items()}
            return state.tolist() if isinstance(state, np.ndarray) else state

        monkeypatch.setattr(np.random, "default_rng", recorded)
        got = list(cli._random_supports(n_cols, L, trials, seed))
        want = list(oracle.random_supports(n_cols, L, trials, seed, cli._ROUNDTRIP_BATCH))
        assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want]
        assert plain(made[0].bit_generator.state) == plain(made[1].bit_generator.state)

    def test_a_rejected_word_is_skipped(self, monkeypatch):
        """Seed 185's 2,000 draws of weight <= 6 in 9,973 columns read one word
        that Lemire's method rejects, in a Floyd step; seeds 322 and 338 are
        the only others below 400 that do."""
        floyd_picks, pieces = cli._floyd_picks, []

        def counted(n_cols, L, values, w):
            pieces.append(len(w))
            return floyd_picks(n_cols, L, values, w)

        monkeypatch.setattr(cli, "_floyd_picks", counted)
        got = np.concatenate(list(cli._random_supports(9973, 6, 2000, 185)))
        want = np.concatenate(list(oracle.random_supports(9973, 6, 2000, 185, 1024)))
        assert np.array_equal(got, want)
        # the rejected word shifts the weights read ahead after it, so the
        # second batch is drawn again up to its first wrong weight, then on
        assert pieces == [1024, 105, 871]

    @pytest.mark.parametrize("n_cols", [25, 6])
    def test_a_rejected_word_is_skipped_in_every_place(self, monkeypatch, n_cols):
        """Word z of the stream set to 0, which a range r rejects unless r + 1
        is a power of two, for every z the first draws read: a weight, a
        Floyd step or a shuffle word, at the first draw or a later one."""
        floyd_picks, redrawn_at = cli._floyd_picks, set()

        def counted(n_cols, L, values, w):
            # 20 draws in one piece unless a weight read ahead was wrong
            if len(w) < 20:
                redrawn_at.add(z)
            return floyd_picks(n_cols, L, values, w)

        monkeypatch.setattr(cli, "_floyd_picks", counted)
        for z in range(48):
            monkeypatch.setattr(np.random, "default_rng", lambda seed: _zero_word_rng(z))
            got = list(cli._random_supports(n_cols, 6, 20, 0))
            want = list(oracle.random_supports(n_cols, 6, 20, 0, cli._ROUNDTRIP_BATCH))
            assert [rows.tolist() for rows in got] == [rows.tolist() for rows in want], z
        # the first weight's word among them: a rejected weight word is read
        # ahead as a weight, so its draw is the one drawn again.  N = 6 has
        # fewer, as its ranges below 6 include 1 and 3, which reject no word
        assert 0 in redrawn_at and len(redrawn_at) == {25: 44, 6: 34}[n_cols]

    def test_the_draw_buffer_is_one_batch(self):
        """10^5 draws peak no higher than two batches' (about 1 MiB): the
        words a batch reads ahead go back to the generator, and none are
        kept between batches."""

        def peak(trials):
            tracemalloc.start()
            try:
                for _ in cli._random_supports(25, 6, trials, 0):
                    pass
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)
        two_batches = peak(2 * cli._ROUNDTRIP_BATCH)
        assert peak(10**5) <= 1.1 * two_batches < 2 << 20

    def test_round_trips_make_no_float_product(self, monkeypatch):
        """The round trips decode on packed words: with `_counts` refused,
        both modes still give the per-support loop's counts and witness."""
        # KS(5,2), and the design with an all-zero and a duplicated column
        cases = [(kautz_singleton(5, 2)[0], 2, 6), (_roundtrip_cases()[-3][0], 3, 3)]

        def refused(*args, **kwargs):
            raise AssertionError("a round trip made a float product")

        for module in (codes, group_testing):
            monkeypatch.setattr(module, "_counts", refused)
        failures = 0
        for m, exhaustive_L, random_L in cases:
            n_cols = m.shape[1]
            got = group_testing.recovers(m, caps.supports(n_cols, exhaustive_L))
            assert got == _loop_roundtrips(m, _exhaustive(n_cols, exhaustive_L))
            rows = list(cli._random_supports(n_cols, random_L, 400, 7))
            got = group_testing.recovers(m, rows)
            assert got == _loop_roundtrips(
                m, [row[row < n_cols] for batch in rows for row in batch])
            failures += got[1] > 0
        assert failures == 2

    def test_round_trip_memory_is_blocked(self):
        """KS(11,3) at L = 1, 1,331 columns over 121 tests: the subset test
        walks the columns in blocks, so no temporary passes 2^17 words.  The
        two float products it replaced peaked at 7.9 MiB, and an unblocked
        test at 13 MiB."""
        m, _ = kautz_singleton(11, 3)
        n_cols = m.shape[1]
        tracemalloc.start()
        try:
            got = group_testing.recovers(m, caps.supports(n_cols, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == (n_cols + 1, 0, None)
        assert peak <= 2 << 20

    @pytest.mark.parametrize("batch", [7, None])
    def test_random_mode_keeps_seeded_draws(self, capsys, monkeypatch, tmp_path, batch):
        if batch is not None:
            monkeypatch.setattr(cli, "_ROUNDTRIP_BATCH", batch)
        m, _ = kautz_singleton(5, 2)
        write_matrix(m, tmp_path / "ks.json")
        code, report, _ = run(capsys, "gt-roundtrip", "--matrix", str(tmp_path / "ks.json"),
                              "--L", "6", "--seed", "3", "--trials", "300")
        rng = np.random.default_rng(3)
        supports = []
        for _ in range(300):
            weight = int(rng.integers(0, 7))
            supports.append(sorted(rng.choice(25, size=weight, replace=False)))
        passed, failed, first_failure = _loop_roundtrips(m, supports)
        assert report["mode"] == "random"
        assert (report["passed"], report["failed"], report["first_failure"]) == (
            passed, failed, first_failure)
        assert code == (0 if failed == 0 else 1)
        assert failed > 0


class TestSampledRoundtripsConfirm:
    """A sampled round trip may refute; only its certifier confirms."""

    def test_cs_passes_meet_the_kernel_certifier(self, capsys, cli_files):
        # every trial recovers its vector on 9 of these seeds, yet columns
        # 0, 1 and 11 are dependent; on the other 7 a wrong support fits.
        # Each of the nine sets {0, 1, j, 11} is singular, so which one the
        # kernel certifier names first is its SVD's rounding: [0, 1, 3, 11]
        # on one OpenBLAS kernel, [0, 1, 5, 11] on another
        witnessed, wrong_fits = 0, {}
        for seed in range(16):
            code, report, err = run(capsys, "cs-roundtrip", "--matrix",
                                    str(cli_files / "kernel-trap.json"), "--L", "2",
                                    "--seed", str(seed))
            assert code == 1
            if report["failures"] == 0:
                witnessed += 1
                assert report["max_recovery_error"] <= 1e-6
                assert list(report)[-2:] == ["witness", "elapsed_ms"]
                assert len(report["witness"]) == 4 and {0, 1, 11} <= set(report["witness"])
                assert err.endswith("; not injective at L=2\n")
            else:
                assert "witness" not in report
                wrong_fits[seed] = report["failures"]
        assert witnessed == 9
        # every trial decodes, so each failure is a wrong support that fits
        assert wrong_fits == {0: 1, 2: 2, 3: 1, 4: 1, 6: 1, 8: 1, 14: 2}

    def test_cs_passes_meet_the_kernel_certifier_at_its_one_singular_set(self, capsys,
                                                                         cli_files):
        # columns 0, 1, 2 and 11 are the one dependent 4-set, so the witness
        # is the same on every kernel; every trial recovers its vector
        for seed in range(8):
            code, report, err = run(capsys, "cs-roundtrip", "--matrix",
                                    str(cli_files / "kernel-trap-3.json"), "--L", "2",
                                    "--seed", str(seed))
            assert (code, report["failures"]) == (1, 0)
            assert report["max_recovery_error"] <= 1e-6
            assert list(report)[-2:] == ["witness", "elapsed_ms"]
            assert report["witness"] == [0, 1, 2, 11]
            assert err.endswith("; not injective at L=2\n")

    def test_gt_pass_meets_the_disjunct_certifier(self, capsys, monkeypatch, cli_files):
        # under the default cap this scan exits 2 (TestExitContract)
        monkeypatch.setenv("SPARSECODE_CAP", "20000000")
        code, report, err = run(capsys, "gt-roundtrip", "--matrix",
                                str(cli_files / "cover-trap.json"), "--L", "4", "--seed", "0")
        assert (code, strip_elapsed(report), err) == (1, {
            "property": "gt-roundtrip", "order": 4, "mode": "random", "passed": 1000,
            "failed": 0, "first_failure": None, "witness": [49, [0, 1, 2, 3]]},
            "gt-roundtrip: 1000 ok, 0 failed; not 4-disjunct\n")

    def test_every_sampled_pass_goes_through_its_certifier(self, capsys, monkeypatch,
                                                            cli_files, tmp_path):
        """With both certifiers planted to raise, each sampled run that exited
        0 exits 2, and every other run is unchanged: a refuting sample, the
        exhaustive gt sweep and the cs sample at L = 0, which is complete."""
        write_matrix(kautz_singleton(7, 2)[0], tmp_path / "ks7.json")
        write_matrix(np.eye(17, dtype=bool), tmp_path / "eye17.json")
        runs = {
            "cs-roundtrip --matrix vand.json --L 1 --seed 0 --trials 3": (0, [1]),
            "cs-roundtrip --matrix kernel-trap.json --L 1 --seed 0": (0, [1]),
            "cs-roundtrip --matrix kernel-trap.json --L 2 --seed 0": (1, []),
            "cs-roundtrip --matrix kernel-trap.json --L 0 --seed 0": (0, []),
            "gt-roundtrip --matrix ks.json --L 1": (0, []),
            "gt-roundtrip --matrix ks.json --L 6 --seed 7": (1, []),
            "gt-roundtrip --matrix ks7.json --L 4 --seed 0": (0, [4]),
            # the support of all 17 columns leaves none to cover: order 16
            "gt-roundtrip --matrix eye17.json --L 17 --seed 0 --trials 20": (0, [16]),
        }

        def argv(line):
            return [str(cli_files / a) if (cli_files / a).is_file() else
                    str(tmp_path / a) if (tmp_path / a).is_file() else a for a in line.split()]

        before = {line: run_any(capsys, argv(line)) for line in runs}
        orders = []

        def planted(m, L):
            orders.append(L)
            raise RuntimeError("planted")

        monkeypatch.setattr(certify, "kernel_injectivity", planted)
        monkeypatch.setattr(group_testing, "verify_disjunct", planted)
        for line, (want, called) in runs.items():
            orders.clear()
            code, out, err = run_any(capsys, argv(line))
            assert (before[line][0], orders) == (want, called), line
            if called:
                assert (code, out, err) == (2, "", "error: internal RuntimeError: planted\n")
            else:
                assert (code, strip_elapsed(json.loads(out)), err) == (
                    want, strip_elapsed(json.loads(before[line][1])), before[line][2])


class TestPipelines:
    def test_ks_gt(self, capsys, monkeypatch):
        # design_r comes from kautz_singleton's distance walk; no second walk
        # runs over the same pairs, and that one is anchored, since RS(5,2)
        # is a group
        walks, largest = [], codes._largest_count_pair
        for module in (codes, group_testing):
            monkeypatch.setattr(module, "_largest_count_pair",
                                lambda m, anchored: walks.append((m.shape, anchored))
                                or largest(m, anchored))
        code, report, _ = run(
            capsys, "pipeline", "ks-gt", "--q", "5", "--k", "2"
        )
        assert code == 0
        assert (report["design_r"], walks) == (1, [((25, 25), True)])
        assert report["roundtrip_passed"] == 326
        assert report["disjunct"] is True

    def test_gv_rip(self, capsys):
        code, report, _ = run(
            capsys, "pipeline", "gv-rip", "--q", "2", "--n", "14",
            "--delta", "0.3", "--seed", "5", "--L", "2",
        )
        assert code == 0
        assert report["coherence_ok"] and report["rip2_ok"]

    @pytest.mark.parametrize("stage", ["coherence", "rip2"])
    @pytest.mark.parametrize("above, holds", [(1e-10, False), (1e-13, True)])
    def test_gv_rip_stage_has_the_one_slack(self, capsys, monkeypatch, stage, above, holds):
        """A stage planted `above` its bound: 1e-10 over is violated, as a
        float stage is judged like a float `verify` row, with 1e-12, and
        1e-13 over holds."""
        argv = ["pipeline", "gv-rip", "--q", "2", "--n", "14", "--delta", "0.3",
                "--seed", "5", "--L", "2"]
        _, report, _ = run(capsys, *argv)
        bound = report[f"{stage}_bound"]
        if stage == "coherence":
            coherence = certify.coherence
            monkeypatch.setattr(certify, "coherence", lambda m: dataclasses.replace(
                coherence(m), value=bound + above))
        else:
            rip2_constant = certify.rip2_constant
            monkeypatch.setattr(certify, "rip2_constant", lambda m, L: dataclasses.replace(
                rip2_constant(m, L), alpha=bound + above))
        code, planted, _ = run(capsys, *argv)
        assert (code, planted[f"{stage}_ok"], planted["pass"]) == (int(not holds), holds, holds)

    def test_rip_ld_rejects_non_embedding(self, capsys, tmp_path):
        out = tmp_path / "v.json"
        run(capsys, "build", "vandermonde", "--n", "4", "--cols", "8",
            "--out", str(out))
        code, _, err = run(
            capsys, "pipeline", "rip-ld", "--matrix", str(out),
            "--L", "4", "--epsilon", "0.5",
        )
        assert code == 2

    def test_ks_gt_refuses_its_round_trip_before_any_walk(self, capsys):
        # KS(5,2) passes the disjunct cap at L=20 (265,650 choices), but its
        # round trip would walk every support of weight <= 20
        started = time.monotonic()
        result = run_any(capsys, ["pipeline", "ks-gt", "--q", "5", "--k", "2", "--L", "20"])
        assert time.monotonic() - started < 1.0
        assert result == (2, "", "error: 33539156 supports exceed cap 10000000\n")

    @pytest.mark.parametrize("seed", range(8))
    def test_cs_roundtrip_refuses_over_its_cap_before_any_trial(
            self, capsys, cli_files, monkeypatch, seed):
        # big.json's trials draw encode refusals, but its 6 supports of
        # weight <= 1 are refused first
        monkeypatch.setenv("SPARSECODE_CAP", "1")
        result = run_any(capsys, ["cs-roundtrip", "--matrix", str(cli_files / "big.json"),
                                  "--L", "1", "--seed", str(seed), "--trials", "5"])
        assert result == (2, "", "error: 6 supports exceed cap 1\n")

    def test_missing_flags_exit_2(self, capsys):
        code, out, err = run_any(capsys, ["pipeline", "gv-rip"])
        assert (code, out) == (2, "")
        assert "error: the following arguments are required: --q, --n, --delta, --seed, --L" in err


_NUMPY_MA_PROBE = """
import contextlib, io, sys
from sparsecode.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("argv", [
    ["verify", "design", "--input", "ks.json"],
    ["pipeline", "ks-gt", "--q", "7", "--k", "2"],
])
def test_design_paths_never_import_numpy_ma(tmp_path, argv):
    # these paths have no use for numpy.ma, a sizeable import at process start
    write_matrix(kautz_singleton(5, 2)[0], tmp_path / "ks.json")
    env = dict(os.environ, PYTHONPATH=str(Path(sparsecode.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", _NUMPY_MA_PROBE, *argv],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["0", "False"], done.stderr


# runs each argv of a JSON list in this one process; prints [exit code,
# stdout with elapsed_ms masked] per argv
_MASKED_RUNS = """
import contextlib, io, json, sys
from sparsecode.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    report = json.loads(out.getvalue())
    report["elapsed_ms"] = None
    runs.append([code, json.dumps(report)])
print(json.dumps(runs))
"""


class TestDeterminism:
    def test_gv_rip_repeated_runs_identical(self, capsys):
        argv = ["pipeline", "gv-rip", "--q", "2", "--n", "12",
                "--delta", "0.25", "--seed", "7", "--L", "2"]
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert strip_elapsed(a) == strip_elapsed(b)

    def test_repeated_runs_identical(self, capsys):
        argv = ["pipeline", "ks-gt", "--q", "5", "--k", "2"]
        _, a, _ = run(capsys, *argv)
        _, b, _ = run(capsys, *argv)
        assert strip_elapsed(a) == strip_elapsed(b)

    def test_reports_do_not_depend_on_blas_threads(self, tmp_path):
        rng = np.random.default_rng(5)
        argvs = []
        for q, n, size in ((2, 10, 24), (2, 14, 30), (2, 7, 40), (3, 8, 30)):
            picks = rng.choice(q**n, size=size, replace=False)
            words = picks[:, None] // q ** np.arange(n - 1, -1, -1) % q
            path = str(tmp_path / f"sph_{q}_{n}_{size}.json")
            write_matrix(sph_code(Code.from_array(q, words)), path)
            argvs += [["verify", "coherence", "--input", path],
                      ["verify", "rip2", "--input", path, "--L", "3"],
                      ["verify", "flat-rip", "--input", path, "--L", "2"],
                      ["verify", "kernel", "--input", path, "--L", "2"]]
        argvs += [["pipeline", "gv-rip", "--q", "2", "--n", "20", "--delta", "0.2",
                   "--seed", str(seed), "--L", "4"] for seed in range(4)]
        # the decoder's filter takes its residuals from BLAS products
        for rows, cols, L, trials in ((6, 12, 3, 50), (256, 16, 2, 200)):
            path = str(tmp_path / f"vand_{rows}x{cols}.json")
            write_matrix(vandermonde_matrix(unit_circle_nodes(cols), rows), path)
            argvs.append(["cs-roundtrip", "--matrix", path, "--L", str(L), "--seed", "7",
                          "--trials", str(trials)])

        def outputs(threads):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(sparsecode.__file__).parents[1]))
            done = subprocess.run([sys.executable, "-c", _MASKED_RUNS, json.dumps(argvs)],
                                  env=env, capture_output=True, text=True, check=True)
            return json.loads(done.stdout)

        one = outputs("1")
        assert len(one) == len(argvs) == 22
        assert all(out and code in (0, 1) for code, out in one)
        assert outputs("2") == one


# files for the exit-contract and fuzz tests, by name; "ks.json" is KS(5,2)
_BAD_FILES = {
    "list.json": "[1, 2]",
    "no-n.json": json.dumps({"kind": "complex", "N": 1, "entries": [[1, 0]]}),
    "ragged.json": json.dumps({"kind": "binary", "rows": ["011", "10"]}),
    "two.json": json.dumps({"kind": "binary", "rows": ["02", "11"]}),
    "uneven.json": json.dumps({"kind": "binary", "rows": ["11", "01"]}),
    "nan.json": '{"kind": "complex", "n": 1, "N": 2, "entries": [[NaN, 0], [1, 0]]}',
    "text.json": json.dumps({"kind": "complex", "n": 1, "N": 1, "entries": [["1", 0]]}),
    "torn.json": '{"kind": "binary", "rows": ["01"',
    "zero-width.json": json.dumps({"kind": "binary", "rows": [""]}),
    "bool-shape.json": json.dumps({"kind": "complex", "n": True, "N": True,
                                   "entries": [[1, 0]]}),
    "bool-entries.json": json.dumps({"kind": "complex", "n": 1, "N": 2,
                                     "entries": [[True, False], [False, True]]}),
    "mixed-bool.json": json.dumps({"kind": "complex", "n": 1, "N": 2,
                                   "entries": [[True, 0.5], [0.25, 0]]}),
    "empty.code": "",
    "header.code": "2 3\n",
    "short.code": "3 2\n0 1\n2\n",
    "symbol.code": "2 2\n0 2\n",
    "alphabet.code": "1 2\n0 0\n",
    "negative.code": "2 2\n0 -1\n",
    "junk.code": "q n\nx y\n",
    # finite entries whose Gram overflows
    "huge.json": json.dumps({"kind": "complex", "n": 2, "N": 2,
                             "entries": [[1e200, 0], [1, 0], [1, 0], [1, 0]]}),
}


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-files")
    for name, text in _BAD_FILES.items():
        (root / name).write_text(text)
    (root / "c.code").write_text("2 3\n0 0 1\n1 1 0\n0 1 1\n1 0 0\n")
    write_matrix(kautz_singleton(5, 2)[0], root / "ks.json")
    write_matrix(sph_code(read_code_file(root / "c.code")), root / "sph.json")
    write_matrix(vandermonde_matrix(unit_circle_nodes(6), 3), root / "vand.json")
    # finite entries whose measurements' norm overflows
    write_matrix(np.full((4, 5), 1.5e308), root / "big.json")
    # finite entries whose measurements overflow
    write_matrix(np.full((4, 5), 1.7e308), root / "max.json")
    write_matrix(_kernel_trap(2), root / "kernel-trap.json")
    write_matrix(_kernel_trap(3), root / "kernel-trap-3.json")
    write_matrix(_cover_trap(), root / "cover-trap.json")
    return root


def _kernel_trap(terms):
    """A 6 x 12 complex Gaussian whose column 11 is the sum of its first
    `terms` columns, so it is not injective at L = 2: with 2 terms every
    4-set holding columns 0, 1 and 11 is dependent, with 3 terms only
    columns 0, 1, 2 and 11 are."""
    rng = np.random.default_rng(1)
    m = rng.normal(size=(6, 12)) + 1j * rng.normal(size=(6, 12))
    m[:, 11] = m[:, :terms].sum(axis=1)
    return m


def _cover_trap():
    """KS(7,2) and a 50th column on 7 rows that columns 0-3 cover: not
    4-disjunct, though few random supports of weight <= 4 find it."""
    ks = kautz_singleton(7, 2)[0]
    column = np.zeros((ks.shape[0], 1), dtype=bool)
    column[[7, 8, 9, 10, 14, 16, 18]] = True
    return np.hstack([ks, column])


def run_any(capsys, argv):
    """Like run, but keeps argparse's own exit and does not parse stdout."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitContract:
    @pytest.mark.parametrize("argv", [
        ["verify", "rip2", "--input", "ks.json"],
        ["verify", "disjunct", "--input", "ks.json"],
        ["verify", "list-decode", "--input", "c.code"],
        ["verify", "rip2", "--input", "ks.json", "--L", "2", "--workers", "1"],
        ["verify", "coherence", "--input", "no-n.json"],
        ["verify", "coherence", "--input", "list.json"],
        ["verify", "coherence", "--input", "ragged.json"],
        ["verify", "disjunct", "--input", "two.json", "--L", "1"],
        ["verify", "coherence", "--input", "nan.json", "--threshold", "0.5"],
        ["verify", "coherence", "--input", "text.json"],
        ["verify", "list-decode", "--input", "empty.code", "--rho", "0.5"],
        ["verify", "list-decode", "--input", "header.code", "--rho", "0.5"],
        ["verify", "list-decode", "--input", "junk.code", "--rho", "0.5"],
        ["verify", "list-decode", "--input", "short.code", "--rho", "0.5"],
        ["verify", "list-decode", "--input", "symbol.code", "--rho", "0.5"],
        ["verify", "list-decode", "--input", "alphabet.code", "--rho", "0.5"],
        ["verify", "list-decode", "--input", "negative.code", "--rho", "0.5"],
        ["verify", "list-decode", "--input", "ks.json", "--rho", "0.5"],
        ["gt-roundtrip", "--matrix", "ks.json", "--L", "30"],
        ["gt-roundtrip", "--matrix", "ks.json", "--L", "-1"],
        ["gt-roundtrip", "--matrix", "sph.json", "--L", "1"],
        ["gt-roundtrip", "--matrix", "sph.json", "--L", "1", "--trials", "0"],
        ["verify", "design", "--input", "sph.json"],
        ["verify", "disjunct", "--input", "sph.json", "--L", "1"],
        ["verify", "design", "--input", "uneven.json"],
        ["bounds", "--q", "1", "--epsilon", "1"],
        ["verify", "rip2", "--input", "ks.json", "--L", "1", "--threshold", "nan"],
        ["verify", "rip2", "--input", "ks.json", "--L", "1", "--threshold", "inf"],
        ["verify", "list-decode", "--input", "c.code", "--rho", "-inf"],
        ["bounds", "--q", "2", "--epsilon", "nan"],
        ["bounds", "--q", "2", "--epsilon", "inf"],
        ["bounds", "--q", "2", "--n", "8", "--delta", "nan"],
        ["bounds", "--q", "2", "--alpha", "inf", "--L", "4"],
        ["build", "gv-code", "--q", "2", "--n", "8", "--delta", "nan", "--seed", "1",
         "--out", "out.json"],
        ["pipeline", "gv-rip", "--q", "2", "--n", "8", "--delta", "inf", "--L", "2",
         "--seed", "1"],
    ], ids=lambda argv: " ".join(argv))
    def test_bad_input_exits_2(self, capsys, cli_files, argv):
        argv = [str(cli_files / a) if (cli_files / a).is_file() else a
                for a in argv]
        code, out, err = run_any(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.count("error:") == 1

    @pytest.mark.parametrize("name, reason", [
        ("short.code", "codeword length 1 != declared 2"),
        ("symbol.code", "symbols must lie in [0, 2)"),
        ("alphabet.code", "alphabet size must be >= 2, got 1"),
        ("negative.code", "symbols must lie in [0, 2)"),
    ])
    def test_code_file_reasons(self, capsys, cli_files, name, reason):
        argv = ["verify", "list-decode", "--input", str(cli_files / name),
                "--rho", "0.5"]
        code, out, err = run_any(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {reason}\n")

    @pytest.mark.parametrize("prop, flags", [("rip2", ["--L", "2"]), ("coherence", [])],
                             ids=["rip2", "coherence"])
    def test_gram_overflow_reason(self, capsys, cli_files, prop, flags):
        argv = ["verify", prop, "--input", str(cli_files / "huge.json"), *flags]
        code, out, err = run_any(capsys, argv)
        assert (code, out, err) == (
            2, "", "error: Gram matrix overflows: column norms too large\n")

    def test_kernel_reports_on_an_overflowing_gram(self, capsys, cli_files):
        # kernel reads no Gram entry for its verdict: where the Gram
        # overflows its filter keeps every subset, and the SVDs decide
        code, report, _ = run(capsys, "verify", "kernel", "--input",
                              str(cli_files / "huge.json"), "--L", "1")
        assert code == 0
        assert strip_elapsed(report) == {
            "property": "kernel", "order": 1, "constant": 1.0, "injective": True,
            "witness": None, "subsets_checked": 1, "threshold": None, "pass": True}

    # each of these once ran to a verdict from no work or in a report that is
    # no JSON, to an internal error, or to numpy warnings before its reason
    @pytest.mark.parametrize("argv, reason", [
        (["cs-roundtrip", "--matrix", "vand.json", "--L", "1", "--seed", "0",
          "--trials", "-3"], "--trials must be >= 1, got -3"),
        (["cs-roundtrip", "--matrix", "vand.json", "--L", "1", "--seed", "0",
          "--trials", "0"], "--trials must be >= 1, got 0"),
        # 25 columns at L=6 is past the exhaustive limit: random mode
        (["gt-roundtrip", "--matrix", "ks.json", "--L", "6", "--trials", "-1"],
         "--trials must be >= 1, got -1"),
        (["gt-roundtrip", "--matrix", "ks.json", "--L", "-1"],
         "--L must be >= 0, got -1"),
        (["cs-roundtrip", "--matrix", "vand.json", "--L", "-1", "--seed", "0"],
         "--L must be >= 0, got -1"),
        (["cs-roundtrip", "--matrix", "vand.json", "--L", "9", "--seed", "0"],
         "need 0 <= L <= N, got L=9, N=6"),
        (["cs-roundtrip", "--matrix", "big.json", "--L", "1", "--seed", "0",
          "--trials", "5"], "measurement norm overflows"),
        (["cs-roundtrip", "--matrix", "max.json", "--L", "4", "--seed", "0",
          "--trials", "5"], "measurement entries must be finite"),
        (["verify", "flat-rip", "--input", "huge.json", "--L", "1"],
         "flat RIP requires unit-norm columns"),
        (["verify", "disjunct", "--input", "ks.json", "--L", "-2"],
         "--L must be >= 0, got -2"),
        (["pipeline", "ks-gt", "--q", "5", "--k", "2", "--L", "-1"],
         "--L must be >= 0, got -1"),
        (["bounds", "--L", "3", "--N", "0"], "need N >= 2, got N=0"),
        (["bounds", "--L", "3", "--N", "10", "--r", "0", "--n-prime", "5"],
         "need r >= 1 and n_prime >= 1, got r=0, n_prime=5"),
        (["bounds", "--L", "3", "--N", "10", "--r", "-1", "--n-prime", "5"],
         "need r >= 1 and n_prime >= 1, got r=-1, n_prime=5"),
        (["bounds", "--L", "2", "--N", "10", "--alpha", "1e-160"],
         "rip_rows_indicator is not a finite float"),
        (["bounds", "--L", "2", "--N", "10", "--alpha", "1e-200"],
         "rip_rows_indicator is not a finite float"),
        (["bounds", "--epsilon", "1e200"], "gv_critical_expansion is not a finite float"),
        # random mode, then exhaustive mode, which reads no seed
        (["gt-roundtrip", "--matrix", "ks.json", "--L", "6", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["gt-roundtrip", "--matrix", "ks.json", "--L", "1", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["cs-roundtrip", "--matrix", "vand.json", "--L", "1", "--seed", "-1"],
         "--seed must be >= 0, got -1"),
        (["build", "gv-code", "--q", "2", "--n", "8", "--delta", "0.2", "--seed", "-1",
          "--out", "out.json"], "--seed must be >= 0, got -1"),
        (["pipeline", "gv-rip", "--q", "2", "--n", "8", "--delta", "0.2", "--seed", "-1",
          "--L", "2"], "--seed must be >= 0, got -1"),
        (["gt-roundtrip", "--matrix", "zero-width.json", "--L", "0"],
         "binary matrix rows must not be empty"),
        (["cs-roundtrip", "--matrix", "zero-width.json", "--L", "0", "--seed", "0"],
         "binary matrix rows must not be empty"),
        (["verify", "kernel", "--input", "zero-width.json", "--L", "1"],
         "binary matrix rows must not be empty"),
        (["verify", "coherence", "--input", "bool-shape.json"],
         'complex matrix file needs integers "n", "N" >= 1'),
        # np.array once read a JSON true or false as an entry of 1 or 0
        *[(["verify", "coherence", "--input", name],
           "complex matrix entries must be [re, im] number pairs")
          for name in ("bool-entries.json", "mixed-bool.json")],
        (["build", "vandermonde", "--n", "0", "--cols", "4", "--out", "out.json"],
         "need at least one node and one row, got 4 nodes and 0 rows"),
        (["build", "vandermonde", "--n", "-2", "--cols", "4", "--out", "out.json"],
         "need at least one node and one row, got 4 nodes and -2 rows"),
        (["build", "vandermonde", "--n", "3", "--cols", "0", "--out", "out.json"],
         "need at least one node and one row, got 0 nodes and 3 rows"),
        # the gap check once allocated an N x N array: a MemoryError at 10^6
        (["build", "vandermonde", "--n", "3", "--cols", "1000000", "--out", "out.json"],
         "499999500000 node pairs exceed cap 10000000"),
        # floor(1/eps^2) once raised an OverflowError or a ZeroDivisionError
        *[(["pipeline", "rip-ld", "--matrix", "sph.json", "--L", "4", "--epsilon", eps],
           f"need 1/epsilon^2 to be a finite float, got epsilon={eps}")
          for eps in ("1e-160", "1e-200")],
        # epsilon is refused before any walk: before the order, read by the
        # RIP-2 walk, and before the non-embedding matrix, found after it
        (["pipeline", "rip-ld", "--matrix", "sph.json", "--L", "99", "--epsilon", "0.9"],
         "need 0 < epsilon with epsilon^2 < 1/2"),
        (["pipeline", "rip-ld", "--matrix", "vand.json", "--L", "2", "--epsilon", "0"],
         "need 0 < epsilon with epsilon^2 < 1/2"),
    ], ids=lambda a: " ".join(a) if isinstance(a, list) else "")
    def test_count_reasons(self, capsys, cli_files, tmp_path, argv, reason):
        argv = [str(cli_files / a) if (cli_files / a).is_file() else
                str(tmp_path / a) if a == "out.json" else a for a in argv]
        code, out, err = run_any(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {reason}\n")
        assert list(tmp_path.iterdir()) == []

    # a sample that passes meets its certifier, whose own refusal exits 2:
    # 79 supports of weight <= 2 fit a cap of 100, 495 kernel subsets do not,
    # and the disjunct scan's 10,593,800 choices exceed the default cap
    @pytest.mark.parametrize("argv, cap, reason", [
        (["cs-roundtrip", "--matrix", "kernel-trap.json", "--L", "2", "--seed", "1"], "100",
         "495 subsets exceed cap 100"),
        (["gt-roundtrip", "--matrix", "cover-trap.json", "--L", "4", "--seed", "0"], None,
         "10593800 choices exceed cap 10000000"),
    ], ids=["cs-roundtrip", "gt-roundtrip"])
    def test_certifier_over_its_cap_exits_2(self, capsys, monkeypatch, cli_files, argv, cap,
                                            reason):
        monkeypatch.delenv("SPARSECODE_CAP", raising=False)
        if cap:
            monkeypatch.setenv("SPARSECODE_CAP", cap)
        argv = [str(cli_files / a) if (cli_files / a).is_file() else a for a in argv]
        assert run_any(capsys, argv) == (2, "", f"error: {reason}\n")

    # +-1/2 entries embed a binary code: two equal columns, then one column
    @pytest.mark.parametrize("cols, reason", [
        (2, "matrix has duplicate columns"),
        (1, "matrix has too few columns for the pipeline"),
    ])
    def test_rip_ld_refuses_its_code(self, capsys, tmp_path, cols, reason):
        path = tmp_path / "halves.json"
        write_matrix(np.full((4, cols), 0.5), path)
        argv = ["pipeline", "rip-ld", "--matrix", str(path), "--L", "1", "--epsilon", "0.6"]
        assert run_any(capsys, argv) == (2, "", f"error: {reason}\n")

    def test_float_flag_that_is_no_number(self, capsys, cli_files):
        argv = ["verify", "list-decode", "--input", str(cli_files / "c.code"),
                "--rho", "0.5", "--threshold", "abc"]
        code, out, err = run_any(capsys, argv)
        assert (code, out) == (2, "")
        assert err.endswith(
            "error: argument --threshold: invalid finite float value: 'abc'\n")

    def test_internal_error_exits_2(self, capsys, cli_files, monkeypatch):
        # exit 0 and 1 are verdicts, so a certifier's own failure is neither
        def fail(c, rho):
            raise RuntimeError("planted")
        monkeypatch.setattr(cli.listdecode, "list_size_at_radius", fail)
        argv = ["verify", "list-decode", "--input", str(cli_files / "c.code"), "--rho", "0.5"]
        assert run_any(capsys, argv) == (2, "", "error: internal RuntimeError: planted\n")

    def test_bounds_q_past_the_float_range(self, capsys):
        """gv_rate and h_q take any integer q; the calculators that need q as
        a float refuse it, naming q and the float range."""
        q = str(10**400)
        limit = "q <= 1.7976931348623157e+308"
        for flags, name in ((["--delta", "0.5"], "mrrw_rate_bound"),
                            (["--epsilon", "0.5"], "gv_critical_expansion")):
            code, out, err = run_any(capsys, ["bounds", "--q", q, *flags])
            assert (code, out, err) == (
                2, "", f"error: {name} needs q within the float range, {limit}\n")

    # each flag here is one another kind reads (these once ran to a verdict
    # that ignored it), or --slack: the GV sampler's margin is a constant of
    # codes, not a flag
    @pytest.mark.parametrize("argv, unread", [
        (["verify", "kernel", "--input", "vand.json", "--L", "1"], ["--threshold", "0.5"]),
        (["verify", "coherence", "--input", "ks.json"], ["--L", "2"]),
        (["build", "sph", "--code", "c.code", "--out", "out.json"], ["--normalize"]),
        (["pipeline", "ks-gt", "--q", "5", "--k", "2"], ["--epsilon", "0.5"]),
        (["build", "gv-code", "--q", "2", "--n", "8", "--delta", "0.2", "--seed", "1",
          "--out", "out.json"], ["--slack", "0.1"]),
        (["pipeline", "gv-rip", "--q", "2", "--n", "8", "--delta", "0.2", "--seed", "1",
          "--L", "2"], ["--slack", "0.1"]),
    ], ids=lambda a: " ".join(a))
    def test_unread_flag_exits_2(self, capsys, cli_files, tmp_path, argv, unread):
        argv = [str(cli_files / a) if (cli_files / a).is_file() else
                str(tmp_path / a) if a == "out.json" else a for a in argv]
        code, out, err = run_any(capsys, argv + unread)
        assert (code, out) == (2, "")
        assert err.count("error:") == 1
        assert err.endswith("error: unrecognized arguments: " + " ".join(unread) + "\n")
        assert not (tmp_path / "out.json").exists()
        assert run_any(capsys, argv)[0] == 0


# well-formed files half the time, so runs also reach the certifiers
_INPUTS = st.one_of(
    st.sampled_from(["ks.json", "sph.json", "vand.json", "c.code"]),
    st.sampled_from(sorted(_BAD_FILES) + ["missing.json", "."]),
)
_REALS = st.sampled_from(["-0.5", "0", "0.1", "0.25", "0.5", "1", "2", "nan", "1e-160",
                          "1e200"])
_VALUES = {
    "--input": _INPUTS, "--matrix": _INPUTS, "--code": _INPUTS,
    "--out": st.sampled_from(["out.json", "no/such/dir.json"]),
    "--normalize": st.none(),
    **{f: st.integers(lo, hi).map(str) for f, lo, hi in (
        ("--L", -1, 2), ("--q", 1, 5), ("--k", 0, 2), ("--n", 0, 6),
        ("--N", 0, 8), ("--r", 0, 3), ("--n-prime", 0, 8),
        ("--seed", 0, 3), ("--trials", 0, 4))},
    **{f: _REALS for f in (
        "--delta", "--epsilon", "--alpha", "--rho", "--threshold")},
    # 10^6 columns once reached an internal MemoryError in build vandermonde
    "--cols": st.one_of(st.just("1000000"), st.integers(0, 8).map(str)),
}
# argv prefix -> (flags it accepts beside the required ones, flags it requires)
_COMMANDS = {
    "build gv-code": ([], ["--q", "--n", "--delta", "--seed", "--out"]),
    "build rs-code": ([], ["--q", "--k", "--out"]),
    "build sph": ([], ["--code", "--out"]),
    "build bool": (["--normalize"], ["--code", "--out"]),
    "build kautz-singleton": ([], ["--q", "--k", "--out"]),
    "build vandermonde": ([], ["--n", "--cols", "--out"]),
    **{f"verify {prop}": (["--threshold"], ["--input", "--L"])
       for prop in ("rip2", "flat-rip", "lwise-distance", "lwise-bias")},
    **{f"verify {prop}": (["--threshold"], ["--input"]) for prop in ("coherence", "design")},
    **{f"verify {prop}": ([], ["--input", "--L"]) for prop in ("kernel", "disjunct")},
    "verify list-decode": (["--threshold"], ["--input", "--rho"]),
    "bounds": (["--q", "--n", "--N", "--L", "--r", "--n-prime", "--delta",
                "--epsilon", "--alpha"], []),
    "gt-roundtrip": (["--seed", "--trials"], ["--matrix", "--L"]),
    "cs-roundtrip": (["--trials"], ["--matrix", "--L", "--seed"]),
    "pipeline gv-rip": ([], ["--q", "--n", "--delta", "--seed", "--L"]),
    "pipeline ks-gt": (["--L"], ["--q", "--k"]),
    "pipeline rip-ld": ([], ["--matrix", "--L", "--epsilon"]),
}


def _parser_table(parser, prefix=()):
    """_COMMANDS as read back from the parser: each leaf's optional and required flags."""
    options = [a for a in parser._actions
               if a.option_strings not in ([], ["-h", "--help"])]
    nested = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not nested:
        return {" ".join(prefix): tuple(
            sorted(a.option_strings[0] for a in options if a.required == want)
            for want in (False, True))}
    assert not options  # a flag before the positional is in no leaf's row
    return {command: flags for name, child in nested[0].choices.items()
            for command, flags in _parser_table(child, (*prefix, name)).items()}


def test_fuzz_table_is_what_the_parser_accepts():
    assert _parser_table(cli._build_parser()) == {
        command: (sorted(accepted), sorted(required))
        for command, (accepted, required) in _COMMANDS.items()}


def test_only_main_prints_or_times():
    """The exit contract is main's alone: handlers return (report, holds,
    summary), and no other code in cli prints or reads the clock."""
    def calls(root):
        return {(node.lineno, name) for node in ast.walk(root)
                if isinstance(node, ast.Call)
                and (name := getattr(node.func, "id", getattr(node.func, "attr", None)))
                in ("print", "monotonic")}

    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert {name for _, name in calls(main_def)} == {"print", "monotonic"}
    assert calls(tree) - calls(main_def) == set()


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    argv = ["bounds", "--q", "2", "--delta", "0.11"]
    assert main(argv) == 0

    def rebuilt(*args, **kwargs):
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", rebuilt)
    assert [main(argv), main(["verify", "design", "--input", "/nonexistent"])] == [0, 2]


# argv prefix -> flags for a run to a verdict on the cli_files inputs
_LEAF_RUNS = {
    "build gv-code": "--q 2 --n 8 --delta 0.2 --seed 1 --out out.json",
    "build rs-code": "--q 3 --k 1 --out out.json",
    "build sph": "--code c.code --out out.json",
    "build bool": "--code c.code --out out.json",
    "build kautz-singleton": "--q 3 --k 1 --out out.json",
    "build vandermonde": "--n 3 --cols 6 --out out.json",
    "verify rip2": "--input sph.json --L 2",
    "verify flat-rip": "--input sph.json --L 1",
    "verify coherence": "--input sph.json",
    "verify disjunct": "--input ks.json --L 1",
    "verify design": "--input ks.json",
    "verify list-decode": "--input c.code --rho 0.5",
    "verify lwise-distance": "--input c.code --L 2",
    "verify lwise-bias": "--input c.code --L 2",
    "verify kernel": "--input vand.json --L 1",
    "bounds": "--q 2 --delta 0.11",
    "gt-roundtrip": "--matrix ks.json --L 1",
    "cs-roundtrip": "--matrix vand.json --L 1 --seed 0 --trials 3",
    "pipeline gv-rip": "--q 2 --n 8 --delta 0.2 --seed 1 --L 2",
    "pipeline ks-gt": "--q 3 --k 2",
    "pipeline rip-ld": "--matrix sph.json --L 2 --epsilon 0.5",
}
# the leaves that walk a capped space: a code's codewords, subsets, pairs,
# choices, centers or supports
_CAPPED_LEAVES = {
    "build gv-code", "build rs-code", "build kautz-singleton", "build vandermonde",
    *(f"verify {p}" for p in ("rip2", "flat-rip", "coherence", "disjunct", "design",
                              "list-decode", "lwise-distance", "lwise-bias", "kernel")),
    "gt-roundtrip", "cs-roundtrip", "pipeline gv-rip", "pipeline ks-gt", "pipeline rip-ld",
}


class TestCapOverride:
    """SPARSECODE_CAP is the one way to set a cap; no leaf takes --cap."""

    def _argv(self, cli_files, tmp_path, leaf):
        return leaf.split() + [str(cli_files / a) if (cli_files / a).is_file() else
                               str(tmp_path / a) if a == "out.json" else a
                               for a in _LEAF_RUNS[leaf].split()]

    def test_every_leaf_has_a_run(self):
        assert set(_LEAF_RUNS) == set(_COMMANDS)
        assert _CAPPED_LEAVES < set(_LEAF_RUNS)

    @pytest.mark.parametrize("leaf", sorted(_LEAF_RUNS))
    def test_cap_flag_is_refused(self, capsys, monkeypatch, cli_files, tmp_path, leaf):
        monkeypatch.delenv("SPARSECODE_CAP", raising=False)
        argv = self._argv(cli_files, tmp_path, leaf)
        code, out, err = run_any(capsys, argv + ["--cap", "5"])
        assert (code, out) == (2, "")
        assert err.count("error:") == 1
        assert err.endswith("error: unrecognized arguments: --cap 5\n")
        assert list(tmp_path.iterdir()) == []
        assert run_any(capsys, argv)[0] in (0, 1)

    @pytest.mark.parametrize("leaf", sorted(_LEAF_RUNS))
    def test_env_cap_of_one(self, capsys, monkeypatch, cli_files, tmp_path, leaf):
        argv = self._argv(cli_files, tmp_path, leaf)
        monkeypatch.delenv("SPARSECODE_CAP", raising=False)
        uncapped = run_any(capsys, argv)
        assert uncapped[0] in (0, 1)
        for path in tmp_path.iterdir():
            path.unlink()
        monkeypatch.setenv("SPARSECODE_CAP", "1")
        code, out, err = run_any(capsys, argv)
        if leaf in _CAPPED_LEAVES:
            assert (code, out) == (2, "")
            assert err.count("\n") == 1 and err.startswith("error: ")
            assert err.endswith(" exceed cap 1\n")
            assert list(tmp_path.iterdir()) == []
        else:
            # a leaf that walks no capped space runs as without the cap
            assert (code, strip_elapsed(json.loads(out)), err) == (
                uncapped[0], strip_elapsed(json.loads(uncapped[1])), uncapped[2])

    def test_gt_roundtrip_caps_only_its_exhaustive_sweep(self, capsys, monkeypatch,
                                                           cli_files):
        matrix = str(cli_files / "ks.json")
        monkeypatch.setenv("SPARSECODE_CAP", "1")
        code, out, err = run_any(capsys, ["gt-roundtrip", "--matrix", matrix, "--L", "1"])
        assert (code, out, err) == (2, "", "error: 26 supports exceed cap 1\n")
        # 245,506 supports at L=6: seeded random draws, which are not capped;
        # a sample that passes would meet the disjunct scan, which is, but
        # these 5 draws refute
        code, report, _ = run(capsys, "gt-roundtrip", "--matrix", matrix, "--L", "6",
                              "--trials", "5")
        assert code in (0, 1)
        assert (report["mode"], report["passed"] + report["failed"]) == ("random", 5)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestFuzz:
    @pytest.mark.parametrize("command", sorted({c.split()[0] for c in _COMMANDS}))
    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_and_stdout_contract(self, capsys, monkeypatch, cli_files, command,
                                           data):
        if data.draw(st.integers(0, 3)):
            monkeypatch.setenv("SPARSECODE_CAP", str(data.draw(st.integers(1, 3000))))
        else:
            monkeypatch.delenv("SPARSECODE_CAP", raising=False)
        prefix = data.draw(st.sampled_from(
            [c for c in _COMMANDS if c.split()[0] == command]))
        accepted, required = _COMMANDS[prefix]
        argv = prefix.split()
        flags = required + [f for f in accepted if data.draw(st.integers(0, 3))]
        # a flag the parser rejects: unknown, or one only other commands read
        # (but not a prefix of one this command reads, which argparse expands)
        rejected = None
        if data.draw(st.integers(0, 9)) == 0:
            rejected = data.draw(st.sampled_from(["--workers", "--bogus"] + [
                f for f in _VALUES
                if not any(a.startswith(f) for a in accepted + required)]))
            flags.append(rejected)
        for flag in flags:
            value = data.draw(_VALUES.get(flag, st.just("1")))
            if flag in ("--input", "--matrix", "--code", "--out"):
                value = str(cli_files / value)
            argv += [flag] if value is None else [flag, value]
        code, out, err = run_any(capsys, argv)
        assert code in (0, 1, 2)
        assert "error: internal" not in err
        if code in (0, 1):
            lines = out.splitlines()
            assert len(lines) == 1
            json.loads(lines[0], parse_constant=_no_constant)
        if code == 2 or rejected:
            assert (code, out) == (2, "")
