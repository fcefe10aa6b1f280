"""Desk-scale compressed sensing with exhaustive-support decoding.

Measurement matrices are Vandermonde by default (unit-circle nodes keep
them well conditioned); decoding tries every support of size up to L in
canonical order and accepts the first least-squares fit within tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import caps
from .certify import as_finite, as_matrix, kernel_injectivity
from .errors import DomainError

DEFAULT_DECODE_TOL = 1e-8
NODE_GAP_TOL = 1e-9
# supports per block of the decoder's walk
_SUPPORT_BLOCK = 256


@dataclass(frozen=True)
class RecoveryResult:
    estimate: np.ndarray
    residual_norm: float
    support_found: tuple[int, ...]
    candidates_tried: int
    success: bool

    def to_dict(self) -> dict:
        return {
            "property": "cs-recovery",
            "success": self.success,
            "support": list(self.support_found),
            "residual_norm": self.residual_norm,
            "candidates_tried": self.candidates_tried,
        }


def unit_circle_nodes(N: int) -> np.ndarray:
    """N equispaced points on the complex unit circle."""
    angles = 2.0 * np.pi * np.arange(N) / N
    return np.cos(angles) + 1j * np.sin(angles)


def vandermonde_matrix(nodes: np.ndarray, rows: int) -> np.ndarray:
    """M[i, j] = nodes[j]**i for i in [0, rows)."""
    nodes = as_finite(nodes, "node")
    if nodes.ndim != 1:
        raise DomainError("nodes must be a vector")
    diffs = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(diffs, np.inf)
    if diffs.min() <= NODE_GAP_TOL:
        raise DomainError("nodes must be pairwise distinct")
    with np.errstate(over="ignore", invalid="ignore"):
        powers = nodes[None, :] ** np.arange(rows)[:, None]
    return as_finite(powers, "Vandermonde")


def cs_encode(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear measurement y = M x."""
    m = as_matrix(m)
    x = as_finite(x, "x")
    if x.shape != (m.shape[1],):
        raise DomainError(f"x must have length {m.shape[1]}")
    return m @ x


def cs_decode_exhaustive(
    m: np.ndarray,
    y: np.ndarray,
    L: int,
    tol: float = DEFAULT_DECODE_TOL,
) -> RecoveryResult:
    """First support of size <= L whose least-squares fit explains y.

    Supports are scanned in order of increasing size, then lexicographic,
    which pins the answer whenever several supports fit at tolerance.  A
    miss is reported as an unsuccessful result, not an exception.
    """
    m = as_matrix(m)
    y = as_finite(y, "measurement")
    if y.shape != (m.shape[0],):
        raise DomainError(f"y must have length {m.shape[0]}")
    n_cols = m.shape[1]
    if not (0 <= L <= n_cols):
        raise DomainError(f"need 0 <= L <= N, got L={L}")
    caps.require(sum(math.comb(n_cols, s) for s in range(0, L + 1)),
                 caps.subset_cap(), "supports")
    accept = tol * (1.0 + float(np.linalg.norm(y)))
    tried = 0
    for size in range(0, L + 1):
        for _, rows in caps.subset_blocks(n_cols, size, _SUPPORT_BLOCK, _SUPPORT_BLOCK):
            for support in map(tuple, rows.tolist()):
                tried += 1
                if size == 0:
                    residual = float(np.linalg.norm(y))
                    coef = np.zeros(0, dtype=np.complex128)
                else:
                    sub = m[:, support]
                    coef, _, _, _ = np.linalg.lstsq(sub, y, rcond=None)
                    residual = float(np.linalg.norm(y - sub @ coef))
                if residual <= accept:
                    estimate = np.zeros(n_cols, dtype=np.complex128)
                    for pos, val in zip(support, coef):
                        estimate[pos] = val
                    return RecoveryResult(estimate, residual, support, tried, True)
    return RecoveryResult(
        np.zeros(n_cols, dtype=np.complex128), float(np.linalg.norm(y)), (), tried, False
    )


def uniqueness_certificate(m: np.ndarray, L: int) -> bool:
    """True iff every 2L-column submatrix has trivial kernel.

    Implies that cs_decode_exhaustive recovers every L-sparse vector from
    its exact measurements.
    """
    return kernel_injectivity(m, L).injective
