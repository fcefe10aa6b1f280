"""Cyclic Jacobi eigen-solver for small symmetric/Hermitian matrices.

The test suite's independent oracle for the LAPACK-backed certifier path;
no library code imports it.  Gram matrices at desk scale (<= 12 columns) are
small enough that classical sweeps converge in a handful of iterations.
"""

from __future__ import annotations

import numpy as np

from sparsecode.errors import DomainError

OFF_DIAGONAL_TOL = 1e-12
MAX_SWEEPS = 100


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-decomposition of a real symmetric matrix by cyclic rotations.

    Returns (eigenvalues ascending, eigenvectors as columns) with
    A = V diag(w) V^T.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError("matrix must be square")
    if not np.allclose(a, a.T, atol=1e-10):
        raise DomainError("matrix must be symmetric")
    m = a.copy()
    k = m.shape[0]
    v = np.eye(k)
    scale = max(np.abs(m).max(), 1.0)
    for _ in range(MAX_SWEEPS):
        off = np.sqrt(max((m**2).sum() - (np.diag(m) ** 2).sum(), 0.0))
        if off <= OFF_DIAGONAL_TOL * scale:
            break
        for p in range(k - 1):
            for q in range(p + 1, k):
                if abs(m[p, q]) <= OFF_DIAGONAL_TOL * scale / (k * k):
                    continue
                theta = 0.5 * np.arctan2(2.0 * m[p, q], m[q, q] - m[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rp, rq = m[p].copy(), m[q].copy()
                m[p], m[q] = c * rp - s * rq, s * rp + c * rq
                cp, cq = m[:, p].copy(), m[:, q].copy()
                m[:, p], m[:, q] = c * cp - s * cq, s * cp + c * cq
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p], v[:, q] = c * vp - s * vq, s * vp + c * vq
    order = np.argsort(np.diag(m))
    return np.diag(m)[order].copy(), v[:, order].copy()


def hermitian_eigvals(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix via its real embedding.

    The 2k x 2k real matrix [[Re, -Im], [Im, Re]] has each eigenvalue of G
    twice; take every other value after sorting.
    """
    g = np.asarray(g, dtype=np.complex128)
    if not np.allclose(g, g.conj().T, atol=1e-10):
        raise DomainError("matrix must be Hermitian")
    re, im = g.real, g.imag
    big = np.block([[re, -im], [im, re]])
    w, _ = jacobi_eigh(big)
    return w[::2].copy()


def singular_values(m: np.ndarray) -> np.ndarray:
    """Singular values of a complex matrix, ascending, via its Gram matrix."""
    g = np.asarray(m).conj().T @ np.asarray(m)
    w = hermitian_eigvals(g)
    return np.sqrt(np.clip(w, 0.0, None))
