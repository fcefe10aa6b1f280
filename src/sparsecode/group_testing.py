"""Designs, disjunct matrices, and the Kautz-Singleton group-testing pipeline.

Columns of a measurement matrix are supports of design sets; encoding is the
OR of the selected columns; decoding declares an item present iff every test
containing it came back positive.  For an L-disjunct matrix and inputs of
weight at most L, that decoder is exact.

A design is its incidence matrix and is built only from it, `Design(m)`;
`design_from_code` is `Design` of the code's Boolean embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import tee

import numpy as np

from . import caps
from .codes import Code, _counts, _largest_count_pair, min_distance, reed_solomon
from .embeddings import bool_code
from .errors import DomainError

# L-sets per block in verify_disjunct: a first small block, doubling to the max
_TUPLE_BLOCK_FIRST = 64
_TUPLE_BLOCK_MAX = 1 << 13


class Design:
    """N subsets of [ground_size], each of size set_size, held as their
    read-only bool incidence matrix: column j is the indicator of set j."""

    def __init__(self, incidence: np.ndarray):
        """The design whose set j is the support of column j of a 0/1 matrix."""
        b = as_binary(incidence)
        sizes = b.sum(axis=0)
        if sizes.size == 0 or sizes.min() != sizes.max():
            raise DomainError("matrix columns have non-uniform support sizes")
        self._matrix = np.array(b, dtype=bool)
        self._matrix.flags.writeable = False
        self._set_size = int(sizes[0])

    @property
    def matrix(self) -> np.ndarray:
        """(ground_size, N) bool, read-only."""
        return self._matrix

    @property
    def ground_size(self) -> int:
        return self._matrix.shape[0]

    @property
    def set_size(self) -> int:
        return self._set_size

    @property
    def sets(self) -> np.ndarray:
        """(N, set_size) int64: the elements of each set, ascending."""
        # nonzeros of the transpose come column by column, rows ascending
        rows = np.nonzero(self.matrix.T)[1].reshape(self.matrix.shape[1], self.set_size)
        rows.flags.writeable = False
        return rows

    def __eq__(self, other):
        return (isinstance(other, Design) and self.set_size == other.set_size
                and np.array_equal(self.matrix, other.matrix))


@dataclass(frozen=True)
class DesignReport:
    ground_size: int
    set_size: int
    max_intersection: int
    witness: tuple[int, int] | None

    def to_dict(self) -> dict:
        return {
            "property": "design",
            "n": self.ground_size,
            "n_prime": self.set_size,
            "r": self.max_intersection,
            "witness": None if self.witness is None else list(self.witness),
        }


@dataclass(frozen=True)
class DisjunctReport:
    order: int
    disjunct: bool
    witness: tuple[int, tuple[int, ...]] | None  # (covered column, covering set)
    tuples_checked: int

    def to_dict(self) -> dict:
        return {
            "property": "disjunct",
            "order": self.order,
            "disjunct": self.disjunct,
            "witness": None if self.witness is None
            else [self.witness[0], list(self.witness[1])],
            "subsets_checked": self.tuples_checked,
        }


def _zero_one(a, what: str) -> np.ndarray:
    """The 0/1 array a as booleans; any other entry is an input error."""
    a = np.asarray(a)
    if a.dtype != bool and not ((a == 0) | (a == 1)).all():
        raise DomainError(f"{what} entries must be 0 or 1")
    return a.astype(bool, copy=False)


def as_binary(m: np.ndarray) -> np.ndarray:
    """The 0/1 matrix m as booleans; any other entry is an input error."""
    if np.ndim(m) != 2:
        raise DomainError("a group-testing matrix must be 2-D")
    return _zero_one(m, "group-testing matrix")


def design_from_code(c: Code) -> Design:
    """Sets = supports of the Boolean embeddings of the codewords."""
    return Design(bool_code(c))


def verify_design(d: Design) -> DesignReport:
    """Exact max pairwise intersection size, with its lex-first witness pair.

    Intersections are blocks of rows of the Gram matrix of the incidence
    matrix, the count kernel that also gives min distance.
    """
    if d.matrix.shape[1] < 2:
        return DesignReport(d.ground_size, d.set_size, 0, None)
    return DesignReport(d.ground_size, d.set_size, *_largest_count_pair(d.matrix))


def _packed_rows(bits: np.ndarray) -> np.ndarray:
    """(rows, cols) bools -> (words, cols) uint64: bit r % 64 of word r // 64."""
    packed = np.zeros((bits.shape[1], 8 * -(-bits.shape[0] // 64)), dtype=np.uint8)
    packed[:, : -(-bits.shape[0] // 8)] = np.packbits(bits.T, axis=1, bitorder="little")
    return packed.view(np.uint64).T


def verify_disjunct(m: np.ndarray, L: int) -> DisjunctReport:
    """Exhaustive disjunctness check over every (target, L-set) choice.

    Targets go in order; the L-sets of the other columns go in lex order.
    Each column is cut down to the target's support and packed into uint64
    words, so an L-set covers the target iff the OR of its words is full.
    """
    b = as_binary(m)
    n_cols = b.shape[1]
    if L < 0:
        raise DomainError(f"need 0 <= L, got L={L}")
    if L + 1 > n_cols:
        raise DomainError(f"need L + 1 <= N, got L={L}, N={n_cols}")
    per_target = math.comb(n_cols - 1, L)
    count = per_target * n_cols
    caps.require(count, caps.subset_cap(), "choices")
    # every target walks the same blocks; tee builds each block once
    walks = tee(caps.subset_blocks(n_cols - 1, L, _TUPLE_BLOCK_FIRST,
                                   _TUPLE_BLOCK_MAX), n_cols)
    for target, walk in zip(range(n_cols), walks):
        support = b[:, target]
        words = _packed_rows(np.delete(b[support], target, axis=1))
        full = _packed_rows(np.ones((int(support.sum()), 1), dtype=bool))[:, 0]
        for start, rows in walk:
            covers = np.ones(len(rows), dtype=bool)
            for word, full_word in zip(words, full):
                union = np.zeros(len(rows), dtype=np.uint64)
                for col in rows.T:
                    union |= word[col]
                covers &= union == full_word
            hit = int(np.argmax(covers))
            if covers[hit]:
                # others' index c is column c + (c >= target)
                chosen = rows[hit] + (rows[hit] >= target)
                return DisjunctReport(L, False, (target, tuple(int(c) for c in chosen)),
                                      target * per_target + start + hit + 1)
    return DisjunctReport(L, True, None, count)


def max_disjunct_order(m: np.ndarray) -> int:
    """Largest L for which the matrix is L-disjunct (0 if none)."""
    m = as_binary(m)
    best = 0
    for L in range(1, m.shape[1]):
        if not verify_disjunct(m, L).disjunct:
            break
        best = L
    return best


def gt_encode(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """OR-channel measurement: y(i) = OR_j (M[i,j] AND x[j]).

    x is one 0/1 input of length N or a batch of shape (B, N); y has the
    matching shape (rows,) or (B, rows).
    """
    b = as_binary(m)
    x = _zero_one(x, "x")
    if x.ndim not in (1, 2) or x.shape[-1] != b.shape[1]:
        raise DomainError(f"x must have length {b.shape[1]}")
    return (_counts(x, b.T) > 0).astype(np.int64)


def gt_decode_cover(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cover decoder: item j present iff all tests containing j are positive.

    y is one 0/1 measurement of length rows or a batch of shape (B, rows).
    The output always contains the true support; for an L-disjunct matrix
    and inputs of weight <= L it equals it.
    """
    b = as_binary(m)
    y = _zero_one(y, "y")
    if y.ndim not in (1, 2) or y.shape[-1] != b.shape[0]:
        raise DomainError(f"y must have length {b.shape[0]}")
    # item j is out iff some negative test contains it
    return (_counts(~y, b) == 0).astype(np.int64)


def kautz_singleton(q: int, k: int) -> tuple[np.ndarray, dict]:
    """Reed-Solomon -> Boolean embedding -> disjunct matrix, with provenance.

    The Boolean embedding of the code is the incidence matrix of its design.

    Yields a q^2 x q^k binary matrix that is L-disjunct for every L with
    L * k < q.
    """
    code = reed_solomon(q, k)
    matrix = bool_code(code)
    # conservative guarantee L * k < q; the measured intersection bound is
    # k - 1, so the matrix is in fact at least this disjunct
    guaranteed = (q - 1) // k
    provenance = {
        "construction": "kautz-singleton",
        "q": q,
        "k": k,
        "block_length": code.n,
        "min_distance": min_distance(code).absolute if len(code) > 1 else None,
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "guaranteed_disjunct_order": int(guaranteed),
    }
    return matrix, provenance
