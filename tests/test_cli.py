import json
import os
import subprocess
import sys
from itertools import chain, combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sparsecode
from sparsecode import cli
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
        code, _, err = run(
            capsys, "build", "gv-code", "--out", str(tmp_path / "c")
        )
        assert code == 2
        assert "missing required flag" in err

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

    def test_cap_exceeded_exits_2(self, capsys, ks_matrix):
        code, _, err = run(
            capsys, "verify", "rip2", "--input", str(ks_matrix),
            "--L", "4", "--cap", "100",
        )
        assert code == 2
        assert "exceed" in err

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
            got = cli._roundtrips(m, cli._supports_up_to(n_cols, L))
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

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run(capsys, "pipeline", "gv-rip")
        assert code == 2
        assert "missing required flag" in err


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
    "empty.code": "",
    "header.code": "2 3\n",
    "short.code": "3 2\n0 1\n2\n",
    "symbol.code": "2 2\n0 2\n",
    "alphabet.code": "1 2\n0 0\n",
    "negative.code": "2 2\n0 -1\n",
    "junk.code": "q n\nx y\n",
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
        ("--seed", 0, 3), ("--trials", 0, 4), ("--cap", 1, 3000))},
    **{f: _REALS for f in (
        "--delta", "--epsilon", "--alpha", "--rho", "--threshold", "--slack")},
}
# (positional choices, flags the subcommand accepts, flags it requires)
_COMMANDS = {
    "build": (["gv-code", "rs-code", "sph", "bool", "kautz-singleton",
               "vandermonde"],
              ["--q", "--n", "--k", "--cols", "--delta", "--slack", "--seed",
               "--code", "--normalize"], ["--out"]),
    "verify": (["rip2", "flat-rip", "coherence", "disjunct", "design",
                "list-decode", "lwise-distance", "lwise-bias", "kernel"],
               ["--L", "--rho", "--threshold", "--cap"], ["--input"]),
    "bounds": ([], ["--q", "--n", "--N", "--L", "--r", "--n-prime", "--delta",
                    "--epsilon", "--alpha"], []),
    "gt-roundtrip": ([], ["--seed", "--trials"], ["--matrix", "--L"]),
    "cs-roundtrip": ([], ["--trials", "--cap"], ["--matrix", "--L", "--seed"]),
    "pipeline": (["gv-rip", "ks-gt", "rip-ld"],
                 ["--q", "--n", "--k", "--L", "--delta", "--slack",
                  "--epsilon", "--seed", "--matrix", "--cap"], []),
}


class TestFuzz:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_code_and_stdout_contract(self, capsys, cli_files, command, data):
        choices, accepted, required = _COMMANDS[command]
        argv = [command] + ([data.draw(st.sampled_from(choices))] if choices else [])
        flags = required + [f for f in accepted if data.draw(st.integers(0, 3))]
        if data.draw(st.integers(0, 9)) == 0:  # a flag the parser rejects
            flags.append(data.draw(st.sampled_from(["--workers", "--bogus"])))
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
        if code == 2:
            assert out == ""
