import math

import numpy as np
import pytest

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
        col = np.ones(n) / math.sqrt(n)
        assert sph_inverse_binary(col) == Word(2, (0,) * n)

    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            w = Word(2, tuple(int(s) for s in rng.integers(0, 2, size=9)))
            assert sph_inverse_binary(sph_word(w)) == w

    def test_perturbed_entry_rejected(self):
        col = np.ones(4) / 2.0
        col[2] = 0.9 / 2.0
        with pytest.raises(NotAnEmbeddingError):
            sph_inverse_binary(col)

    def test_empty_column_rejected(self):
        # 1/sqrt(0) once raised a ZeroDivisionError
        with pytest.raises(NotAnEmbeddingError, match="empty column"):
            sph_inverse_binary(np.zeros(0))
