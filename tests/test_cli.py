import argparse
import json
import os
import subprocess
import sys
import time
from itertools import chain, combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparsecode
from sparsecode import caps, cli
from sparsecode.cli import main
from sparsecode.codes import read_code_file
from sparsecode.embeddings import sph_code
from sparsecode.group_testing import kautz_singleton
from sparsecode.matrixio import read_matrix, write_matrix
from sparsecode.recovery import unit_circle_nodes, vandermonde_matrix


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


def _loop_roundtrips(m, supports):
    """The per-support loop, kept as the oracle for cli._roundtrips."""
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


class TestRoundtripBatches:
    @pytest.mark.parametrize("batch", [1, 7, None])
    def test_exhaustive_matches_per_support_loop(self, monkeypatch, batch):
        if batch is not None:
            monkeypatch.setattr(cli, "_ROUNDTRIP_BATCH", batch)
        rng = np.random.default_rng(23)
        cases = [(kautz_singleton(5, 2)[0], 3), (np.eye(5, dtype=np.int64), 5)]
        for _ in range(6):
            m = (rng.random((int(rng.integers(1, 12)), 10)) < 0.35).astype(np.int64)
            cases.append((m, int(rng.integers(0, 4))))
        failures = 0
        for m, L in cases:
            n_cols = m.shape[1]
            supports = chain.from_iterable(combinations(range(n_cols), w)
                                           for w in range(L + 1))
            walk = caps.supports(n_cols, L, cli._ROUNDTRIP_BATCH)
            got = cli._roundtrips(m, cli._indicators(n_cols, walk))
            assert got == _loop_roundtrips(m, supports)
            failures += got[1] > 0
        assert failures >= 3

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


class TestPipelines:
    def test_ks_gt(self, capsys):
        code, report, _ = run(
            capsys, "pipeline", "ks-gt", "--q", "5", "--k", "2"
        )
        assert code == 0
        assert report["roundtrip_passed"] == 326
        assert report["disjunct"] is True

    def test_gv_rip(self, capsys):
        code, report, _ = run(
            capsys, "pipeline", "gv-rip", "--q", "2", "--n", "14",
            "--delta", "0.3", "--seed", "5", "--L", "2",
        )
        assert code == 0
        assert report["coherence_ok"] and report["rip2_ok"]

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
    return root


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
        ["build", "gv-code", "--q", "2", "--n", "8", "--delta", "0.2", "--seed", "1",
         "--slack", "nan", "--out", "out.json"],
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

    # each of these once ran to a verdict from no work, or to an internal error
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
        (["verify", "disjunct", "--input", "ks.json", "--L", "-2"],
         "--L must be >= 0, got -2"),
        (["pipeline", "ks-gt", "--q", "5", "--k", "2", "--L", "-1"],
         "--L must be >= 0, got -1"),
        (["bounds", "--L", "3", "--N", "0"], "need N >= 2, got N=0"),
        (["bounds", "--L", "3", "--N", "10", "--r", "0", "--n-prime", "5"],
         "need r >= 1 and n_prime >= 1, got r=0, n_prime=5"),
        (["bounds", "--L", "3", "--N", "10", "--r", "-1", "--n-prime", "5"],
         "need r >= 1 and n_prime >= 1, got r=-1, n_prime=5"),
        (["gt-roundtrip", "--matrix", "zero-width.json", "--L", "0"],
         "binary matrix rows must not be empty"),
        (["cs-roundtrip", "--matrix", "zero-width.json", "--L", "0", "--seed", "0"],
         "binary matrix rows must not be empty"),
        (["verify", "kernel", "--input", "zero-width.json", "--L", "1"],
         "binary matrix rows must not be empty"),
        (["verify", "coherence", "--input", "bool-shape.json"],
         'complex matrix file needs integers "n", "N" >= 1'),
        (["build", "vandermonde", "--n", "0", "--cols", "4", "--out", "out.json"],
         "need at least one node and one row, got 4 nodes and 0 rows"),
        (["build", "vandermonde", "--n", "-2", "--cols", "4", "--out", "out.json"],
         "need at least one node and one row, got 4 nodes and -2 rows"),
        (["build", "vandermonde", "--n", "3", "--cols", "0", "--out", "out.json"],
         "need at least one node and one row, got 0 nodes and 3 rows"),
    ], ids=lambda a: " ".join(a) if isinstance(a, list) else "")
    def test_count_reasons(self, capsys, cli_files, tmp_path, argv, reason):
        argv = [str(cli_files / a) if (cli_files / a).is_file() else
                str(tmp_path / a) if a == "out.json" else a for a in argv]
        code, out, err = run_any(capsys, argv)
        assert (code, out, err) == (2, "", f"error: {reason}\n")
        assert list(tmp_path.iterdir()) == []

    # each flag here is one another kind reads; these once ran to a verdict
    # that ignored it
    @pytest.mark.parametrize("argv, unread", [
        (["verify", "kernel", "--input", "vand.json", "--L", "1"], ["--threshold", "0.5"]),
        (["verify", "coherence", "--input", "ks.json"], ["--L", "2"]),
        (["build", "sph", "--code", "c.code", "--out", "out.json"], ["--normalize"]),
        (["pipeline", "ks-gt", "--q", "5", "--k", "2"], ["--epsilon", "0.5"]),
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
_REALS = st.sampled_from(["-0.5", "0", "0.1", "0.25", "0.5", "1", "2", "nan"])
_VALUES = {
    "--input": _INPUTS, "--matrix": _INPUTS, "--code": _INPUTS,
    "--out": st.sampled_from(["out.json", "no/such/dir.json"]),
    "--normalize": st.none(),
    **{f: st.integers(lo, hi).map(str) for f, lo, hi in (
        ("--L", -1, 2), ("--q", 1, 5), ("--k", 0, 2), ("--n", 0, 6),
        ("--cols", 0, 8), ("--N", 0, 8), ("--r", 0, 3), ("--n-prime", 0, 8),
        ("--seed", 0, 3), ("--trials", 0, 4))},
    **{f: _REALS for f in (
        "--delta", "--epsilon", "--alpha", "--rho", "--threshold", "--slack")},
}
# argv prefix -> (flags it accepts beside the required ones, flags it requires)
_COMMANDS = {
    "build gv-code": (["--slack"], ["--q", "--n", "--delta", "--seed", "--out"]),
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
    "pipeline gv-rip": (["--slack"], ["--q", "--n", "--delta", "--seed", "--L"]),
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
    "build gv-code", "build rs-code", "build kautz-singleton",
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
        # 245,506 supports at L=6: seeded random draws, which are not capped
        code, report, _ = run(capsys, "gt-roundtrip", "--matrix", matrix, "--L", "6",
                              "--trials", "5")
        assert code in (0, 1)
        assert (report["mode"], report["passed"] + report["failed"]) == ("random", 5)


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
        code, out, _ = run_any(capsys, argv)
        assert code in (0, 1, 2)
        if code == 1:
            lines = out.splitlines()
            assert len(lines) == 1
            json.loads(lines[0])
        if code == 2 or rejected:
            assert (code, out) == (2, "")
