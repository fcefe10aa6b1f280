import numpy as np
import pytest

from eigen import hermitian_eigvals, jacobi_eigh, singular_values
from sparsecode.errors import DomainError


class TestJacobiEigh:
    def test_diagonal_matrix(self):
        w, v = jacobi_eigh(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [1.0, 2.0, 3.0])
        assert np.allclose(np.abs(v[np.array([1, 2, 0]), np.arange(3)]), 1.0)

    def test_matches_lapack_on_random_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            k = int(rng.integers(2, 9))
            a = rng.normal(size=(k, k))
            a = a + a.T
            w, v = jacobi_eigh(a)
            assert np.allclose(w, np.linalg.eigvalsh(a), atol=1e-8)
            assert np.allclose(v @ np.diag(w) @ v.T, a, atol=1e-8)
            assert np.allclose(v.T @ v, np.eye(k), atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            jacobi_eigh(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            jacobi_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestHermitianEigvals:
    def test_matches_lapack_on_random_hermitian(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            g = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            g = g + g.conj().T
            assert np.allclose(
                hermitian_eigvals(g), np.linalg.eigvalsh(g), atol=1e-8
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_eigvals(np.array([[0.0, 1j], [1j, 0.0]]))


class TestSingularValues:
    def test_matches_lapack_svd(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            k = int(rng.integers(1, n + 1))
            m = rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k))
            sv = singular_values(m)
            ref = np.sort(np.linalg.svd(m, compute_uv=False))
            assert np.allclose(sv, ref, atol=1e-8)

    def test_orthonormal_columns(self):
        assert np.allclose(singular_values(np.eye(4)[:, :2]), [1.0, 1.0])
