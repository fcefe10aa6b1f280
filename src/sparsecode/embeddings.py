"""Spherical and Boolean embeddings of words and codes.

The spherical map sends symbol s to zeta^s / sqrt(n) with zeta a primitive
q-th root of unity, so columns are unit vectors.  The Boolean map replaces
each symbol by the matching standard basis vector of {0,1}^q.
"""

from __future__ import annotations

import math

import numpy as np

from .codes import Code
from .errors import NotAnEmbeddingError
from .words import Word

UNIT_NORM_TOL = 1e-12
INVERSE_TOL = 1e-9


def _sph(q: int, cols: np.ndarray) -> np.ndarray:
    """Spherical embedding of words laid out along axis 0 of `cols`."""
    n = cols.shape[0]
    if q == 2:
        # exact +-1/sqrt(n); the trig path would leave a sin(pi) residue
        return (1.0 - 2.0 * cols) / math.sqrt(n) + 0j
    angles = 2.0 * np.pi * cols / q
    return (np.cos(angles) + 1j * np.sin(angles)) / math.sqrt(n)


def _bool(q: int, cols: np.ndarray) -> np.ndarray:
    """Boolean embedding of words laid out along axis 0 of `cols`.

    Coordinate i holding symbol s sets row i*q + s.
    """
    levels = np.arange(q).reshape((q,) + (1,) * (cols.ndim - 1))
    onehot = cols[:, None] == levels
    return onehot.reshape((-1,) + cols.shape[1:]).astype(np.int64)


def _columns(c: Code) -> np.ndarray:
    """The codewords as the columns of a C-ordered n x |C| array."""
    return np.ascontiguousarray(c.array().T)


def sph_word(c: Word) -> np.ndarray:
    """Unit-norm spherical embedding of a word, length n."""
    return _sph(c.q, np.array(c.symbols, dtype=np.int64))


def bool_word(c: Word) -> np.ndarray:
    """0/1 embedding of a word, length q*n, one 1 per q-block."""
    return _bool(c.q, np.array(c.symbols, dtype=np.int64))


def sph_code(c: Code) -> np.ndarray:
    """n x |C| complex matrix whose columns are sph_word of each codeword."""
    return _sph(c.q, _columns(c))


def bool_code(c: Code, normalize: bool = False) -> np.ndarray:
    """qn x |C| matrix of Boolean embeddings; unit columns when normalized."""
    m = _bool(c.q, _columns(c))
    if normalize:
        return m / math.sqrt(c.n)
    return m


def sph_inverse_binary(column: np.ndarray) -> Word:
    """Recover the binary word whose spherical embedding is `column`.

    Every entry must be within 1e-9 of +-1/sqrt(n); anything else is
    rejected as not an embedding.
    """
    col = np.asarray(column, dtype=np.complex128)
    n = col.shape[0]
    scale = 1.0 / math.sqrt(n)
    plus = np.abs(col - scale) <= INVERSE_TOL
    minus = np.abs(col + scale) <= INVERSE_TOL
    if not np.all(plus | minus):
        bad = int(np.argmin(plus | minus))
        raise NotAnEmbeddingError(
            f"entry {bad} = {col[bad]} is not within tolerance of +-1/sqrt(n)"
        )
    return Word(2, tuple(int(m) for m in minus))
