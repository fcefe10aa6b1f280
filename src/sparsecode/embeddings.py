"""Spherical and Boolean embeddings of words and codes.

The spherical map sends symbol s to zeta^s / sqrt(n) with zeta a primitive
q-th root of unity, so columns are unit vectors.  The Boolean map replaces
each symbol by the matching standard basis vector of {0,1}^q, held as bools.
"""

from __future__ import annotations

import math

import numpy as np

from . import caps
from .codes import Code, _one_hot, _symbol_columns
from .errors import NotAnEmbeddingError
from .words import Word

INVERSE_TOL = 1e-9


def _sph(q: int, cols: np.ndarray) -> np.ndarray:
    """Spherical embedding of words laid out along axis 0 of `cols`."""
    n = cols.shape[0]
    if q == 2:
        # exact +-1/sqrt(n); the trig path would leave a sin(pi) residue
        return (1.0 - 2.0 * cols) / math.sqrt(n) + 0j
    angles = 2.0 * np.pi * cols / q
    return (np.cos(angles) + 1j * np.sin(angles)) / math.sqrt(n)


def sph_word(c: Word) -> np.ndarray:
    """Unit-norm spherical embedding of a word, length n."""
    return _sph(c.q, np.array(c.symbols, dtype=np.int64))


def bool_word(c: Word) -> np.ndarray:
    """Bool 0/1 embedding of a word, length q*n, one True per q-block;
    cast before `@` for integer products."""
    return _one_hot(c.q, np.array(c.symbols, dtype=np.int64))


def sph_code(c: Code) -> np.ndarray:
    """n x |C| complex matrix whose columns are sph_word of each codeword."""
    return _sph(c.q, _symbol_columns(c))


def bool_code(c: Code, normalize: bool = False) -> np.ndarray:
    """qn x |C| bool matrix of Boolean embeddings; unit float columns when
    normalized.  Cast before `@` for integer products."""
    m = _one_hot(c.q, _symbol_columns(c))
    if normalize:
        return m / math.sqrt(c.n)
    return m


def sph_inverse_binary(m: np.ndarray) -> np.ndarray:
    """The (N, n) 0/1 words whose spherical embeddings are m's N columns.

    Every entry must be within INVERSE_TOL of +-1/sqrt(n); the first one,
    column by column, that is not is rejected as not an embedding.
    """
    m = np.asarray(m, dtype=np.complex128)
    n = m.shape[0]
    if n == 0:
        raise NotAnEmbeddingError("an empty column is no spherical embedding")
    scale = 1.0 / math.sqrt(n)
    minus = np.abs(m + scale) <= INVERSE_TOL
    ok = minus | (np.abs(m - scale) <= INVERSE_TOL)
    if not ok.all():
        lead = caps.LexFirst()
        lead.offer(~ok.T, lambda pos: divmod(pos, n))
        j, bad = lead.witness
        raise NotAnEmbeddingError(
            f"entry {bad} = {m[bad, j]} is not within tolerance of +-1/sqrt(n)"
        )
    return minus.T.astype(np.int64)
