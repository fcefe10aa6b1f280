"""The JSON text of every certifier report, key order included.

Other tests compare parsed dicts, which forgive a reordered key; the CLI's
output is a line of text, so these compare the text.  Each `verify`
property runs on small fixed inputs (a binary code of length 4, its
spherical and Boolean embeddings, and a 2 x 3 matrix whose column 1 covers
column 0), with `elapsed_ms` masked.  The Johnson and converse reports are
pinned with and without their `radius` key.  The README's table of
report keys is the pinned order.  `cs-roundtrip` is pinned on Vandermonde
matrices, over seeds, a failing recovery and the trial counts at the edges
of the CLI's decoding chunks.
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from sparsecode import cli, listdecode
from sparsecode.codes import Code, write_code_file
from sparsecode.embeddings import bool_code, sph_code
from sparsecode.matrixio import write_matrix
from sparsecode.recovery import unit_circle_nodes, vandermonde_matrix

CODE = Code.from_array(2, [[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 1, 0],
                           [1, 0, 1, 1], [1, 1, 0, 1]])

# (verify argv with input file names, exit code, stdout with elapsed_ms 0)
VERIFY = [
    (["coherence", "--input", "sph.json", "--threshold", "0.5"], 0,
     '{"property": "coherence", "constant": 0.5, "witness": [0, 1], '
     '"max_norm_deviation": 0.0, "subsets_checked": 10, "threshold": 0.5, '
     '"pass": true, "elapsed_ms": 0}'),
    (["rip2", "--input", "sph.json", "--L", "2"], 0,
     '{"property": "rip2", "order": 2, "constant": 0.2928932188134524, '
     '"witness": [0, 1], "subsets_checked": 15, "threshold": null, '
     '"pass": true, "elapsed_ms": 0}'),
    (["flat-rip", "--input", "sph.json", "--L", "1"], 0,
     '{"property": "flat-rip", "order": 1, "constant": 0.5, '
     '"witness": [[0], [1]], "unit_norm_ok": true, "subsets_checked": 10, '
     '"threshold": null, "pass": true, "elapsed_ms": 0}'),
    (["kernel", "--input", "sph.json", "--L", "1"], 0,
     '{"property": "kernel", "order": 1, "constant": 0.7071067811865475, '
     '"injective": true, "witness": null, "subsets_checked": 10, '
     '"threshold": null, "pass": true, "elapsed_ms": 0}'),
    (["kernel", "--input", "sph.json", "--L", "3"], 1,
     '{"property": "kernel", "order": 3, "constant": 0.0, "injective": false, '
     '"witness": [0, 1, 2, 3, 4], "subsets_checked": 1, "threshold": null, '
     '"pass": false, "elapsed_ms": 0}'),
    (["disjunct", "--input", "cover.json", "--L", "2"], 1,
     '{"property": "disjunct", "order": 2, "disjunct": false, '
     '"witness": [0, [1, 2]], "subsets_checked": 1, "threshold": null, '
     '"pass": false, "elapsed_ms": 0}'),
    (["disjunct", "--input", "bool.json", "--L", "1"], 0,
     '{"property": "disjunct", "order": 1, "disjunct": true, "witness": null, '
     '"subsets_checked": 20, "threshold": null, "pass": true, "elapsed_ms": 0}'),
    (["design", "--input", "bool.json", "--threshold", "3"], 0,
     '{"property": "design", "n": 8, "n_prime": 4, "r": 3, "witness": [0, 1], '
     '"threshold": 3.0, "pass": true, "elapsed_ms": 0}'),
    (["list-decode", "--input", "c.code", "--rho", "0.25"], 0,
     '{"property": "list-decode", "radius": 0.25, "absolute_radius": 1, '
     '"max_list_size": 3, "worst_center": [1, 0, 0, 1], "centers_checked": 16, '
     '"threshold": null, "pass": true, "elapsed_ms": 0}'),
    (["lwise-distance", "--input", "c.code", "--L", "3"], 0,
     '{"property": "lwise-distance", "order": 3, "constant": 0.5, '
     '"witness": [0, 1, 2], "threshold": null, "pass": true, "elapsed_ms": 0}'),
    (["lwise-bias", "--input", "c.code", "--L", "2", "--threshold", "0.5"], 0,
     '{"property": "lwise-bias", "order": 2, "constant": 0.25, "threshold": 0.5, '
     '"pass": true, "elapsed_ms": 0}'),
]

IMPLICATIONS = [
    (lambda: listdecode.johnson_check(CODE, 0.6),
     '{"property": "johnson", "premise_value": 0.5, "premise_threshold": 0.14, '
     '"conclusion_value": 1.0, "conclusion_threshold": 2.0, "verdict": "pass", '
     '"L_prime": 3, "epsilon": 0.6, "radius": 0}'),
    (lambda: listdecode.johnson_check(CODE, 0.3),
     '{"property": "johnson", "premise_value": null, '
     '"premise_threshold": 0.41000000000000003, "conclusion_value": null, '
     '"conclusion_threshold": 11.0, "verdict": "not-applicable", '
     '"L_prime": 12, "epsilon": 0.3}'),
    (lambda: listdecode.converse_check(CODE, 1, 0.5),
     '{"property": "johnson-converse", "premise_value": 1.0, '
     '"premise_threshold": 1.0, "conclusion_value": 0.25, '
     '"conclusion_threshold": -0.5, "verdict": "vacuous", "L": 1, '
     '"L_prime": 2, "epsilon": 0.5, "radius": 0}'),
    (lambda: listdecode.converse_check(CODE, 3, 0.5),
     '{"property": "johnson-converse", "premise_value": null, '
     '"premise_threshold": null, "conclusion_value": null, '
     '"conclusion_threshold": null, "verdict": "not-applicable", "L": 3, '
     '"L_prime": 6, "epsilon": 0.5}'),
]

# (cs-roundtrip flags with input file names, exit code, stdout with elapsed_ms 0),
# as printed before the trials were decoded together: Vandermonde 6 x 12 at
# L=3 for seeds 0-15; recovery failing on a 2 x 8 matrix at L=2; and the
# edges of the CLI's 1024-trial chunks at L=1, on the 6 x 12 matrix and on
# the all-ones 1 x 8 one, where each seed's largest error is at its last trial.
# A failing run's "failures" counts its trials decoded to a wrong vector too.
CS_ROUNDTRIP = [
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "0"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 1.7632984155323095e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "1"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 1.5691261864978394e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "2"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.808666774861361e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "3"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 1.3732700395566711e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "4"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.7755575615628914e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "5"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.531698018113677e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "6"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.531698018113677e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "7"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.089609621416101e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "8"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 1.8452761694870047e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "9"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.198129442157285e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "10"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.318213734067276e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "11"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.9142032672361675e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "12"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 1.7342238036525468e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "13"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.2266822963392197e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "14"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.2215299868541707e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "3", "--seed", "15"], 0,
     '{"property": "cs-roundtrip", "order": 3, "trials": 50, '
     '"failures": 0, "max_recovery_error": 2.482534153247273e-15, "elapsed_ms": 0}'),
    (["--matrix", "v2x8.json", "--L", "2", "--seed", "3"], 1,
     '{"property": "cs-roundtrip", "order": 2, "trials": 50, '
     '"failures": 16, "max_recovery_error": 8.98133329310136, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "1", "--seed", "5", "--trials", "1"], 0,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1, '
     '"failures": 0, "max_recovery_error": 2.3714374201337736e-16, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "1", "--seed", "5", "--trials", "1023"], 0,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1023, '
     '"failures": 0, "max_recovery_error": 1.784146017590271e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "1", "--seed", "5", "--trials", "1024"], 0,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1024, '
     '"failures": 0, "max_recovery_error": 1.784146017590271e-15, "elapsed_ms": 0}'),
    (["--matrix", "v6x12.json", "--L", "1", "--seed", "5", "--trials", "1025"], 0,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1025, '
     '"failures": 0, "max_recovery_error": 1.784146017590271e-15, "elapsed_ms": 0}'),
    (["--matrix", "v1x8.json", "--L", "1", "--seed", "1730", "--trials", "1022"], 1,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1022, '
     '"failures": 449, "max_recovery_error": 3.1608430926892797, "elapsed_ms": 0}'),
    (["--matrix", "v1x8.json", "--L", "1", "--seed", "1730", "--trials", "1023"], 1,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1023, '
     '"failures": 450, "max_recovery_error": 3.958519289959152, "elapsed_ms": 0}'),
    (["--matrix", "v1x8.json", "--L", "1", "--seed", "1613", "--trials", "1023"], 1,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1023, '
     '"failures": 464, "max_recovery_error": 3.4313268968000448, "elapsed_ms": 0}'),
    (["--matrix", "v1x8.json", "--L", "1", "--seed", "1613", "--trials", "1024"], 1,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1024, '
     '"failures": 465, "max_recovery_error": 3.4573814561109457, "elapsed_ms": 0}'),
    (["--matrix", "v1x8.json", "--L", "1", "--seed", "213", "--trials", "1024"], 1,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1024, '
     '"failures": 456, "max_recovery_error": 3.326854015018868, "elapsed_ms": 0}'),
    (["--matrix", "v1x8.json", "--L", "1", "--seed", "213", "--trials", "1025"], 1,
     '{"property": "cs-roundtrip", "order": 1, "trials": 1025, '
     '"failures": 457, "max_recovery_error": 3.390675060644627, "elapsed_ms": 0}'),
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("report-json")
    write_code_file(CODE, root / "c.code")
    write_matrix(sph_code(CODE), root / "sph.json")
    write_matrix(bool_code(CODE), root / "bool.json")
    write_matrix(np.array([[1, 1, 0], [0, 1, 1]], dtype=bool), root / "cover.json")
    for rows, cols in ((6, 12), (2, 8), (1, 8)):
        write_matrix(vandermonde_matrix(unit_circle_nodes(cols), rows),
                     root / f"v{rows}x{cols}.json")
    return root


def test_the_nine_properties_are_pinned():
    assert {argv[0] for argv, _, _ in VERIFY} == set(cli._COMMANDS["verify"][3])


@pytest.mark.parametrize("argv, exit_code, stdout", VERIFY,
                         ids=[" ".join(argv[:1] + argv[3:]) for argv, _, _ in VERIFY])
def test_verify_stdout_text(capsys, inputs, argv, exit_code, stdout):
    flags = [str(inputs / a) if a.endswith((".json", ".code")) else a for a in argv[1:]]
    assert cli.main(["verify", argv[0], *flags]) == exit_code
    out = capsys.readouterr().out
    assert re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out) == stdout + "\n"


@pytest.mark.parametrize("flags, exit_code, stdout", CS_ROUNDTRIP,
                         ids=[" ".join(flags[1:]) for flags, _, _ in CS_ROUNDTRIP])
def test_cs_roundtrip_stdout_text(capsys, inputs, flags, exit_code, stdout):
    flags = [str(inputs / a) if a.endswith(".json") else a for a in flags]
    assert cli.main(["cs-roundtrip", *flags]) == exit_code
    out = capsys.readouterr().out
    assert re.sub(r'"elapsed_ms": [^,}]+', '"elapsed_ms": 0', out) == stdout + "\n"


@pytest.mark.parametrize("check, text", IMPLICATIONS,
                         ids=["johnson", "johnson-not-applicable",
                              "converse", "converse-not-applicable"])
def test_implication_report_text(check, text):
    assert json.dumps(check().to_dict()) == text


def test_readme_key_table_is_the_pinned_order():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme[readme.index("| property | report keys |\n"):].split("\n\n")[0]
    table = dict(re.findall(r"^\| `([^`]*)` \| `([^`]*)` \|$", rows, re.M))
    pinned = {}
    for argv, _, stdout in VERIFY:
        keys = list(json.loads(stdout))
        assert keys[-3:] == ["threshold", "pass", "elapsed_ms"]
        pinned[argv[0]] = " ".join(keys[:-3])
    assert table == pinned
