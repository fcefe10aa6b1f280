import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
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
        assert back.dtype == bool
        assert np.array_equal(back, m)

    def test_complex_matrix(self, tmp_path):
        rng = np.random.default_rng(71)
        m = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        path = tmp_path / "m.json"
        write_matrix(m, path)
        payload = json.loads(path.read_text())
        assert payload["kind"] == "complex"
        assert np.allclose(read_matrix(path), m)

    def test_literals_outside_the_entries_are_no_entries(self, tmp_path):
        # the words true and false elsewhere in the file refuse nothing
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"kind": "complex", "n": 1, "N": 2, "note": "true or false",
                                    "checked": False, "entries": [[1, 0], [0.5, -2]]}))
        assert read_matrix(path).tolist() == [[1 + 0j, 0.5 - 2j]]

    def test_real_non_binary_goes_complex(self, tmp_path):
        m = np.array([[0.5, 1.0], [1.0, 0.0]])
        path = tmp_path / "m.json"
        write_matrix(m, path)
        assert json.loads(path.read_text())["kind"] == "complex"


_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.5]),
                    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _matrices(draw):
    """Complex, real and integer matrices, C-ordered, F-ordered or transposed."""
    n, cols = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["complex", "real", "int"]))
    if kind == "int":
        entries = st.integers(-3, 3)
    elif kind == "real":
        entries = _FLOATS
    else:
        entries = st.builds(complex, _FLOATS, _FLOATS)
    m = np.array(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                               min_size=n, max_size=n)))
    layout = draw(st.sampled_from(["C", "F", "T"]))
    if layout == "F":
        return np.asfortranarray(m)
    if layout == "T":
        return np.ascontiguousarray(m.T).T
    return m


@given(_matrices())
@example(np.array([[-0.0, 5e-324], [1e308, -1e308]]))
@example(np.asfortranarray([[1j, -0.0 - 0.0j], [5e-324j, 2.0]]))
@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_complex_file_matches_entry_loop(tmp_path, m):
    # a real 0/1 matrix is written as a binary file
    assume(not (np.isrealobj(m) and np.isin(m, (0, 1)).all()))
    path = tmp_path / "m.json"
    write_matrix(m, path)
    assert path.read_text() == oracle.complex_matrix_text(m)


_EDGES = [0, 1, -0.0, 0.5, np.nan, np.inf, -np.inf]


@st.composite
def _edge_matrices(draw):
    """Bool matrices, and float or complex (zero imaginary part) matrices of
    0, 1, -0.0, 0.5, NaN and +-inf."""
    n, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    dtype = draw(st.sampled_from([bool, np.float64, np.complex128]))
    entries = st.booleans() if dtype is bool else st.sampled_from(_EDGES)
    return np.array(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                  min_size=n, max_size=n)), dtype=dtype)


@given(st.one_of(_matrices(), _edge_matrices()))
@example(np.array([[True, False], [False, False]]))
@example(np.array([[-0.0, 1.0], [0.0, -0.0]]))
@example(np.array([[0.0, np.nan]]))
@example(np.array([[1.0, np.inf], [-np.inf, 0.0]]))
@example(np.array([[1 + 0j, 0j]]))
@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_kind_and_bytes_match_the_isin_rule(tmp_path, m):
    path = tmp_path / "m.json"
    write_matrix(m, path)
    want = oracle.matrix_file_text(m)
    assert json.loads(path.read_text())["kind"] == json.loads(want)["kind"]
    assert path.read_text() == want


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

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 0]], ["01", 10], [None]])
    def test_binary_rows_that_are_not_strings(self, tmp_path, rows):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "binary", "rows": rows}))
        with pytest.raises(DomainError, match="^binary matrix rows must be strings$"):
            read_matrix(path)

    def test_ragged_complex_entries(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "complex", "n": 1, "N": 2,
                                    "entries": [[1, 0], [0]]}))
        with pytest.raises(DomainError, match="^malformed matrix entries: "):
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

    @pytest.mark.parametrize("entries", [
        [[True, False], [False, True]],
        [[True, 0.5], [0.25, 0]],
        [[1, 0], [0, False]],
    ])
    def test_boolean_entries(self, tmp_path, entries):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "complex", "n": 1, "N": 2,
                                    "entries": entries}))
        with pytest.raises(DomainError,
                           match=r"^complex matrix entries must be \[re, im\] number pairs$"):
            read_matrix(path)
