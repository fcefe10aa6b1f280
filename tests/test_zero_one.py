"""0/1 data is bool from construction to decoder.

The Boolean embedding is a design's incidence matrix, and that matrix is the
OR channel's measurement matrix, so every 0/1 array the library makes is
bool and reaches the next step without a cast.  Arrays that are not 0/1
data (code symbols, set elements) stay int64.
"""

import numpy as np

from sparsecode import cli, group_testing
from sparsecode.codes import Code, reed_solomon
from sparsecode.embeddings import bool_code, bool_word, sph_code, sph_inverse_binary
from sparsecode.group_testing import Design, gt_decode_cover, gt_encode, kautz_singleton
from sparsecode.matrixio import read_matrix, write_matrix
from sparsecode.words import Word


def test_zero_one_results_are_bool(tmp_path):
    c = reed_solomon(5, 2)
    m, _ = kautz_singleton(5, 2)
    path = tmp_path / "ks.json"
    write_matrix(m, path)
    one = np.zeros(m.shape[1], dtype=bool)
    one[[3, 17]] = True
    batch = np.eye(m.shape[1], dtype=bool)[:4]
    for got in (bool_word(Word(3, (0, 2, 1))), bool_code(c), m, read_matrix(path),
                gt_encode(m, one), gt_encode(m, batch),
                gt_decode_cover(m, gt_encode(m, one)), gt_decode_cover(m, gt_encode(m, batch))):
        assert got.dtype == bool
    # code symbols and set elements are no 0/1 data
    binary = Code.from_array(2, [[0, 1, 1], [1, 0, 1], [1, 1, 1]])
    assert sph_inverse_binary(sph_code(binary)).dtype == np.int64
    assert Design(m).sets.dtype == np.int64


def test_cli_round_trips_hand_bool_to_every_zero_one_check(tmp_path, monkeypatch, capsys):
    seen = []
    real = group_testing._zero_one

    def spy(a, what):
        seen.append((what, np.asarray(a).dtype))
        return real(a, what)

    monkeypatch.setattr(group_testing, "_zero_one", spy)
    path = str(tmp_path / "ks.json")
    runs = ((["build", "kautz-singleton", "--q", "5", "--k", "2", "--out", path], 0),
            (["gt-roundtrip", "--matrix", path, "--L", "2"], 0),  # exhaustive
            (["gt-roundtrip", "--matrix", path, "--L", "6"], 1),  # random, fails
            (["pipeline", "ks-gt", "--q", "5", "--k", "2"], 0))
    for argv, exit_code in runs:
        assert cli.main(argv) == exit_code
    capsys.readouterr()
    # the round trips decode on packed words and build no x or y
    assert {what for what, _ in seen} == {"group-testing matrix"}
    assert [(what, dtype) for what, dtype in seen if dtype != bool] == []
