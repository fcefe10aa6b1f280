import json

import numpy as np
import pytest

from sparsecode.errors import DomainError
from sparsecode.matrixio import read_matrix, write_matrix


class TestRoundtrip:
    def test_binary_matrix(self, tmp_path):
        m = np.array([[0, 1, 1], [1, 0, 1]])
        path = tmp_path / "m.json"
        write_matrix(m, path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "binary"
        assert payload["rows"] == ["011", "101"]
        assert np.array_equal(read_matrix(path), m)

    @pytest.mark.parametrize("dtype", [np.int64, np.float64, bool])
    def test_binary_bytes_match_per_character_format(self, tmp_path, dtype):
        rng = np.random.default_rng(70)
        m = (rng.random((13, 70)) < 0.4).astype(dtype)
        path = tmp_path / "m.json"
        write_matrix(m, path)
        rows = ["".join(str(int(v)) for v in row) for row in m]
        assert path.read_text() == json.dumps({"kind": "binary", "rows": rows}) + "\n"
        back = read_matrix(path)
        assert back.dtype == np.int64
        assert np.array_equal(back, m)

    def test_complex_matrix(self, tmp_path):
        rng = np.random.default_rng(71)
        m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        path = tmp_path / "m.json"
        write_matrix(m, path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "complex"
        assert np.allclose(read_matrix(path), m)

    def test_real_non_binary_goes_complex(self, tmp_path):
        m = np.array([[0.5, 1.0], [1.0, 0.0]])
        path = tmp_path / "m.json"
        write_matrix(m, path)
        assert json.loads(path.read_text())["kind"] == "complex"


class TestErrors:
    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(DomainError):
            read_matrix(path)

    def test_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "sparse"}))
        with pytest.raises(DomainError):
            read_matrix(path)

    def test_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"kind": "complex", "n": 2, "N": 2, "entries": [[1, 0]]})
        )
        with pytest.raises(DomainError):
            read_matrix(path)

    @pytest.mark.parametrize("row", ["0/", "0:", "1 ", "0\u00e9"])
    def test_binary_symbols_near_the_digits(self, tmp_path, row):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "binary", "rows": [row, "01"]}))
        with pytest.raises(DomainError, match="0 or 1"):
            read_matrix(path)

    def test_empty_binary(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "binary", "rows": []}))
        with pytest.raises(DomainError):
            read_matrix(path)

    @pytest.mark.parametrize("rows", [[""], ["", ""]])
    def test_zero_width_binary_rows(self, tmp_path, rows):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "binary", "rows": rows}))
        with pytest.raises(DomainError, match="binary matrix rows must not be empty"):
            read_matrix(path)

    @pytest.mark.parametrize("n, cols", [(True, True), (True, 1), (1, True), (False, 1)])
    def test_boolean_shape(self, tmp_path, n, cols):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "complex", "n": n, "N": cols,
                                    "entries": [[1, 0]]}))
        with pytest.raises(DomainError, match='needs integers "n", "N" >= 1'):
            read_matrix(path)
