import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
from sparsecode.codes import Code
from sparsecode.embeddings import (
    bool_code,
    bool_word,
    sph_code,
    sph_inverse_binary,
    sph_word,
)
from sparsecode.errors import NotAnEmbeddingError
from sparsecode.words import Word

_DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestSphericalWord:
    def test_all_zero_word(self):
        v = sph_word(Word(3, (0, 0, 0, 0)))
        assert np.allclose(v, np.ones(4) / 2.0)

    def test_ternary_roots_of_unity(self):
        v = sph_word(Word(3, (0, 1, 2)))
        omega = np.exp(2j * np.pi / 3)
        assert np.allclose(v, np.array([1, omega, omega**2]) / math.sqrt(3))

    def test_binary_example_is_exact(self):
        v = sph_word(Word(2, (0, 1, 1, 0)))
        assert np.array_equal(v, np.array([0.5, -0.5, -0.5, 0.5]) + 0j)

    def test_unit_norm(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            q = int(rng.choice([2, 3, 5]))
            w = Word(q, tuple(int(s) for s in rng.integers(0, q, size=7)))
            assert np.linalg.norm(sph_word(w)) == pytest.approx(1.0, abs=1e-12)


class TestBooleanWord:
    def test_worked_example(self):
        v = bool_word(Word(2, (0, 1, 1, 0)))
        assert np.array_equal(v, [1, 0, 0, 1, 0, 1, 1, 0])

    def test_all_zero_ternary(self):
        v = bool_word(Word(3, (0, 0)))
        assert np.array_equal(v, [1, 0, 0, 1, 0, 0])

    def test_support_size_equals_length(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            q = int(rng.choice([2, 3, 5]))
            w = Word(q, tuple(int(s) for s in rng.integers(0, q, size=6)))
            assert bool_word(w).sum() == w.n


class TestCodeEmbeddings:
    def test_sph_code_columns(self):
        c = Code([Word(2, (0, 0)), Word(2, (1, 1))])
        m = sph_code(c)
        r = 1 / math.sqrt(2)
        assert np.allclose(m[:, 0], [r, r])
        assert np.allclose(m[:, 1], [-r, -r])

    def test_sph_code_single_column(self):
        m = sph_code(Code([Word(2, (0, 1))]))
        assert m.shape == (2, 1)

    def test_bool_code_normalized_norms(self):
        c = Code([Word(3, (0, 1, 2)), Word(3, (2, 0, 1))])
        m = bool_code(c, normalize=True)
        assert np.allclose(np.linalg.norm(m, axis=0), 1.0)

    def test_bool_code_disjoint_supports(self):
        c = Code([Word(2, (0, 0, 0)), Word(2, (1, 1, 1))])
        m = bool_code(c, normalize=True)
        assert m.shape == (6, 2)
        assert abs(m[:, 0] @ m[:, 1]) == pytest.approx(0.0)


class TestSphericalInverse:
    def test_all_positive_column(self):
        n = 5
        m = np.ones((n, 1)) / math.sqrt(n)
        got = sph_inverse_binary(m)
        assert got.dtype == np.int64
        assert np.array_equal(got, [[0] * n])

    def test_roundtrip(self):
        # 25 columns in draw order, repeats kept: row j is column j's word
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 2, size=(25, 9))
        m = np.column_stack([sph_word(Word(2, tuple(int(s) for s in row))) for row in rows])
        assert np.array_equal(sph_inverse_binary(m), rows)

    def test_perturbed_entry_rejected(self):
        m = np.ones((4, 3)) / 2.0
        m[2, 1] = 0.9 / 2.0
        with pytest.raises(NotAnEmbeddingError, match=r"^entry 2 = \(0\.45\+0j\) "):
            sph_inverse_binary(m)

    def test_empty_column_rejected(self):
        # 1/sqrt(0) once raised a ZeroDivisionError
        with pytest.raises(NotAnEmbeddingError, match="empty column"):
            sph_inverse_binary(np.zeros((0, 3)))


@st.composite
def _binary_codes(draw):
    n = draw(st.integers(1, 12))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return Code.from_array(2, draw(st.lists(row, min_size=1, max_size=20)))


@given(_binary_codes())
@example(Code.from_array(2, [[1]]))
@example(Code.from_array(2, [[0], [1]]))
@example(Code.from_array(2, [[0, 1, 1, 0, 1]]))
@_DIFFERENTIAL
def test_inverse_of_sph_code_is_the_word_array(c):
    got = sph_inverse_binary(sph_code(c))
    want = c.array()
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


def _oracle_inverse(m):
    """The per-column oracle over m's columns: (word rows, None) or (None, message)."""
    try:
        words = [oracle.sph_inverse_binary(m[:, j]) for j in range(m.shape[1])]
    except NotAnEmbeddingError as exc:
        return None, str(exc)
    return np.array([w.symbols for w in words], dtype=np.int64), None


# offsets within INVERSE_TOL keep an entry; the rest spoil it
_OFFSETS = [1e-12, -1e-10, 1e-10j, 2e-9, -1e-6, 0.5j, 0.1, -2.0, 1.0]


@given(c=_binary_codes(), data=st.data())
@example(c=Code.from_array(2, [[0]]), data=None)
@_DIFFERENTIAL
def test_perturbed_matrices_match_the_column_oracle(c, data):
    m = sph_code(c)
    if data is not None:
        cells = st.tuples(st.integers(0, m.shape[0] - 1), st.integers(0, m.shape[1] - 1))
        for i, j in data.draw(st.lists(cells, max_size=4)):
            m[i, j] += data.draw(st.sampled_from(_OFFSETS))
    want, message = _oracle_inverse(m)
    if message is None:
        assert np.array_equal(sph_inverse_binary(m), want)
    else:
        with pytest.raises(NotAnEmbeddingError) as info:
            sph_inverse_binary(m)
        assert str(info.value) == message
