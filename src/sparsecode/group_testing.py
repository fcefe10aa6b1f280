"""Designs, disjunct matrices, and the Kautz-Singleton group-testing pipeline.

Columns of a measurement matrix are supports of design sets; encoding is the
OR of the selected columns; decoding declares an item present iff every test
containing it came back positive.  For an L-disjunct matrix and inputs of
weight at most L, that decoder is exact.

The disjunct certificate is exhaustive, but the cover bound (Kautz &
Singleton, IEEE Trans. IT 10, 1964; Du & Hwang, Combinatorial Group Testing)
settles many targets without a walk: L columns whose intersections with a
target of weight w sum to less than w cannot cover it.  A target whose L
largest intersections fall short is certified in one row of intersections
instead of C(N-1, L) L-sets, and `subsets_checked` still counts them all;
`verify_disjunct` gives the proof and when the bound is computed.

The round trips' verdict, `recovers`, runs on the same packed column words
as the disjunct scan, and both take a set's union from one helper, `_union`.
The cover decoder returns a support plus every other column inside its
union, so a support of weight w round-trips iff exactly w columns lie inside
it: one OR of at most L words and one subset test per column, where
`gt_encode` and `gt_decode_cover`, kept for single vectors and as the
oracles, make a float product each.  `recovers` sweeps every batch of
supports it is given and returns the counts and the first failure, so a
caller makes one call per round trip.  It shares the cover bound: a column
whose w largest intersections with the others fall short of its weight is
inside the union of no support of weight <= w, so the subset test runs over
the other columns only, and on a Kautz-Singleton matrix below its order
over none.

A design is its incidence matrix and is built only from it, `Design(m)`;
`design_from_code` is `Design` of the code's Boolean embedding.  Every 0/1
array made here is bool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import caps
from .codes import (
    Code,
    Report,
    _counts,
    _forms_group,
    _group_rank,
    _largest_count_pair,
    min_distance,
    reed_solomon,
)
from .embeddings import bool_code
from .errors import DomainError

# targets per intersection product of the cover bound in verify_disjunct
_BOUND_BLOCK = 64
# columns per subset test of `recovers`: with batches of up to 1024 supports,
# no temporary of a block passes 2^17 words
_COLUMN_BLOCK = 128


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
class DesignReport(Report):
    _property = "design"
    _keys = {"ground_size": "n", "set_size": "n_prime", "max_intersection": "r"}

    ground_size: int
    set_size: int
    max_intersection: int
    witness: tuple[int, int] | None


@dataclass(frozen=True)
class DisjunctReport(Report):
    _property = "disjunct"
    _keys = {"tuples_checked": "subsets_checked"}

    order: int
    disjunct: bool
    witness: tuple[int, tuple[int, ...]] | None  # (covered column, covering set)
    tuples_checked: int


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


def _embeds_group(d: Design) -> bool:
    """Whether d's incidence matrix is the Boolean embedding, in its own
    column order, of distinct words over Z_q that form a group.

    The embedding of words of length n over Z_q has q*n rows in n blocks of
    q, and each set holds one element of each block: element i*q + s for
    symbol s at coordinate i.  The sizes go first, before any array work.
    """
    n, size = d.set_size, d.matrix.shape[1]
    q, extra = divmod(d.ground_size, n) if n else (0, 1)
    # a group holds the zero word, whose set is {0, q, 2q, ...}
    if extra or _group_rank(q, size) is None or not d.matrix[::q].all(axis=0).any():
        return False
    blocks = d.matrix.reshape(n, q, size)
    # each set has n elements, so it holds one of each block iff it meets every block
    if not blocks.any(axis=1).all():
        return False
    symbols = np.arange(q, dtype=np.min_scalar_type(q - 1))[:, None]
    return _forms_group(q, (blocks * symbols).sum(axis=1, dtype=symbols.dtype).T)


def verify_design(d: Design) -> DesignReport:
    """Exact max pairwise intersection size, with its lex-first witness pair.

    Intersections are blocks of rows of the Gram matrix of the incidence
    matrix, the count kernel that also gives min distance.  Two sets of a
    code's embedding meet where their words agree, so on the embedding of a
    group the pairs (0, j) alone settle it (see `codes`).
    """
    if d.matrix.shape[1] < 2:
        return DesignReport(d.ground_size, d.set_size, 0, None)
    return DesignReport(d.ground_size, d.set_size,
                        *_largest_count_pair(d.matrix, _embeds_group(d)))


def _packed_rows(bits: np.ndarray) -> np.ndarray:
    """(rows, cols) bools -> (words, cols) uint64: bit r % 64 of word r // 64."""
    packed = np.zeros((bits.shape[1], 8 * -(-bits.shape[0] // 64)), dtype=np.uint8)
    packed[:, : -(-bits.shape[0] // 8)] = np.packbits(bits.T, axis=1, bitorder="little")
    return packed.view(np.uint64).T


def _union(word: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The OR of word[c] over the columns c of each row: one uint64 per row."""
    union = np.zeros(len(rows), dtype=np.uint64)
    for col in rows.T:
        union |= word[col]
    return union


def _largest_others(meets: np.ndarray, t0: int, w: int) -> np.ndarray:
    """Each row's sum of its w largest entries, in int64, with row i's own
    column t0 + i read as 0: the most of column t0 + i that w other columns
    can cover, given its intersections with every column."""
    rows = np.arange(len(meets))
    meets[rows, t0 + rows] = 0
    w = min(w, meets.shape[1])
    return np.partition(meets, -w, axis=1)[:, meets.shape[1] - w:].astype(np.int64).sum(axis=1)


def _unsettled(b: np.ndarray, L: int):
    """Target 0 of the 0/1 matrix b, then each later target that the cover
    bound leaves: those whose L largest intersections with other columns
    reach their weight.  Lazy: one intersection product per _BOUND_BLOCK
    targets, made only when the scan reaches their block."""
    yield 0
    for t0 in range(1, b.shape[1], _BOUND_BLOCK):
        block = b[:, t0:t0 + _BOUND_BLOCK]
        top = 0  # the empty set covers only an empty target
        if L:
            top = _largest_others(_counts(block.T, b), t0, L)
        yield from (t0 + np.flatnonzero(top >= block.sum(axis=0))).tolist()


def _open_columns(words: np.ndarray, w: int) -> np.ndarray:
    """Whether each column of packed words (words, N) is open at width w:
    its w largest intersections with the other columns reach its weight.
    The intersections are popcounts, N x N in blocks of columns, so no
    temporary passes 2^17 words; width 0 needs none."""
    n_cols = words.shape[1]
    top = np.zeros(n_cols, dtype=np.int64)
    step = max(1, (1 << 17) // max(n_cols, 1))
    for c0 in range(0, n_cols if w else 0, step):
        meets = np.zeros((min(step, n_cols - c0), n_cols), dtype=np.int64)
        for word in words:
            meets += np.bitwise_count(word[c0:c0 + step, None] & word)
        top[c0:c0 + step] = _largest_others(meets, c0, w)
    return top >= np.bitwise_count(words).sum(axis=0, dtype=np.int64)


def verify_disjunct(m: np.ndarray, L: int) -> DisjunctReport:
    """Exhaustive disjunctness check over every (target, L-set) choice.

    Targets go in order; the L-sets of the other columns go in lex order.
    Each column is cut down to the target's support and packed into uint64
    words, so an L-set covers the target iff the OR of its words is full.

    The cover bound certifies a target without that walk.  Let T be the
    target's support and I[c] = |col_c ∩ T| for each other column c.  An
    L-set S covers the target iff T is the union of the sets col_c ∩ T over
    c in S, so only if |T| <= the sum of I[c] over S, which is at most the
    sum of the L largest I[c].  When that sum is below |T|, no L-set covers
    the target, and all its C(N-1, L) choices are certified.  A settled
    target has no cover, so skipping it leaves the lex-first witness, and
    the count of choices up to it, where the walk puts them; a target the
    bound cannot settle is walked as before.

    The bound is lazy (`_unsettled`).  Target 0 is always walked, and a
    witness there (a dense random design's, mostly) costs no intersection
    product.  Once its walk finds no cover, every later target reads its
    row of one product per block of `_BOUND_BLOCK` targets, made when the
    walk reaches it.  Each target's walk is `caps.lex_first_max` of its
    0/1 cover score, which ends at the first cover.  The choices checked up
    to a witness are the earlier targets' C(N-1, L) each and the witness's
    one-based lex rank among its target's L-sets.  By the combinatorial
    number system (Knuth, TAOCP 4A, 7.2.1.3), the L-sets of the N-1 other
    columns that follow c_0 < ... < c_{L-1} in lex order number the sum of
    C(N-2-c_i, L-i) over i = 0..L-1, so the count is (target + 1) *
    C(N-1, L) less that sum.
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

    for target in _unsettled(b, L):
        support = b[:, target]
        words = _packed_rows(np.delete(b[support], target, axis=1))
        full = _packed_rows(np.ones((int(support.sum()), 1), dtype=bool))[:, 0]

        def covers(rows):
            """Whether each L-set of the other columns covers the target."""
            hit = np.ones(len(rows), dtype=bool)
            for word, full_word in zip(words, full):
                hit &= _union(word, rows) == full_word
            return hit

        # every target walks the same blocks of the one table of this shape
        hit, chosen = caps.lex_first_max(covers, n_cols - 1, L, caps.LexFirst())
        if hit:
            checked = (target + 1) * per_target - sum(
                math.comb(n_cols - 2 - c, L - i) for i, c in enumerate(chosen))
            # others' index c is column c + (c >= target)
            return DisjunctReport(L, False, (target, tuple(c + (c >= target) for c in chosen)),
                                  checked)
    return DisjunctReport(L, True, None, count)


def recovers(m: np.ndarray, batches) -> tuple[int, int, list[int] | None]:
    """The round trips' verdict over batches of supports: (passed, failed,
    first failing support).  A support passes when, encoded by `gt_encode`
    and cover-decoded by `gt_decode_cover`, it comes back as itself.

    A batch holds one support per row of distinct column indices; a row
    shorter than the batch's width is padded with N, which names no column.
    Every batch is decided on words packed once.  The first failure is the
    first failing row in batch order, taken by `caps.LexFirst` with its
    padding stripped, or None when every support passes.

    The cover decoder returns every column whose support lies inside the
    union of the support's columns: the support itself and any other column
    so covered.  So a support of weight w round-trips iff exactly w columns
    lie inside that union.  Column N is all zero, so a padded row's union is
    its support's, and it is left out of the count.  The subset test walks
    the columns in blocks of _COLUMN_BLOCK, with the supports of a batch as
    the contiguous inner axis.

    The cover bound leaves that test only the open columns.  A column is
    open at width w when the sum of its w largest intersections with the
    other columns, top_w(c), reaches its weight, and settled otherwise.
    Let S be a support of weight <= w and c a settled column outside S:
    |col_c ∩ ∪S| <= the sum over j in S of |col_c ∩ col_j| <= top_w(c) <
    |col_c|, so c never lies inside the union.  Every member of S does.  So
    S fails iff some open column outside S lies inside ∪S, that is iff the
    open columns inside ∪S outnumber the open columns in S.  A batch's rows
    have weight at most its width, padded ones included, so one bound per
    width covers them all.  The bound costs about one subset test of N
    supports, so a width's bound is built at its first batch of at least N
    supports and reused; smaller batches test every column.  Width 0 is
    free: top_0 = 0, so only an empty column is open there.
    """
    b = as_binary(m)
    n_cols = b.shape[1]
    # (words, N + 1): each column's tests, then the padding column's none
    words = _packed_rows(np.pad(b, ((0, 0), (0, 1))))
    # per width: the open columns' words, and which of the N + 1 are open
    every = words[:, :n_cols, None], np.arange(n_cols + 1) < n_cols
    bounds = {}
    checked = failed = 0
    lead = caps.LexFirst()
    for rows in batches:
        width = rows.shape[1]
        if width not in bounds and (len(rows) >= n_cols or not width):
            is_open = np.append(_open_columns(words[:, :n_cols], width), False)
            bounds[width] = words[:, is_open, None], is_open
        real, is_open = bounds.get(width, every)
        # with no column open, every support passes
        fails = np.zeros(len(rows), dtype=bool)
        if real.shape[1]:
            lacks = [~_union(word, rows) for word in words]
            inside = np.zeros(len(rows), dtype=np.int64)
            for c0 in range(0, real.shape[1], _COLUMN_BLOCK):
                block = real[:, c0:c0 + _COLUMN_BLOCK]
                held = np.ones((block.shape[1], len(rows)), dtype=bool)
                for word, lack in zip(block, lacks):
                    held &= (word & lack) == 0
                # a block has fewer than 2^16 columns
                inside += held.sum(axis=0, dtype=np.uint16)
            fails = inside != is_open[rows].sum(axis=1)
        checked += len(rows)
        failed += int(fails.sum())
        # a 0/1 score: the lead is the first failure, once there is one
        lead.offer(fails, lambda pos: [int(c) for c in rows[pos] if c < n_cols])
    return checked - failed, failed, lead.witness if lead.best else None


def gt_encode(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """OR-channel measurement: y(i) = OR_j (M[i,j] AND x[j]).

    x is one 0/1 input of length N or a batch of shape (B, N); y is bool,
    of the matching shape (rows,) or (B, rows): cast it before `@` for
    integer products.
    """
    b = as_binary(m)
    x = _zero_one(x, "x")
    if x.ndim not in (1, 2) or x.shape[-1] != b.shape[1]:
        raise DomainError(f"x must have length {b.shape[1]}")
    return _counts(x, b.T) > 0


def gt_decode_cover(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cover decoder: item j present iff all tests containing j are positive.

    y is one 0/1 measurement of length rows or a batch of shape (B, rows).
    The output is bool, of shape (N,) or (B, N): cast it before `@` for
    integer products.  It always contains the true support; for an
    L-disjunct matrix and inputs of weight <= L it equals it.
    """
    b = as_binary(m)
    y = _zero_one(y, "y")
    if y.ndim not in (1, 2) or y.shape[-1] != b.shape[0]:
        raise DomainError(f"y must have length {b.shape[0]}")
    # item j is out iff some negative test contains it
    return _counts(~y, b) == 0


def kautz_singleton(q: int, k: int) -> tuple[np.ndarray, dict]:
    """Reed-Solomon -> Boolean embedding -> disjunct matrix, with provenance.

    The Boolean embedding of the code is the incidence matrix of its design.

    Yields a q^2 x q^k bool matrix that is L-disjunct for every L with
    L * k < q; cast it before `@` for integer products.
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
        "min_distance": min_distance(code).absolute,
        "rows": int(matrix.shape[0]),
        "cols": int(matrix.shape[1]),
        "guaranteed_disjunct_order": int(guaranteed),
    }
    return matrix, provenance
