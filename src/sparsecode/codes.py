"""Code containers and the distance/bias metrics driving every reduction.

A Code is a deduplicated, lexicographically sorted (N, n) array of symbols
over a common alphabet, and every builder here is a map on that whole
array.  The sort order is load-bearing: embeddings, quotients and witnesses
all refer to codeword indices in this order, which makes every downstream
matrix reproducible byte-for-byte.

Group codes are certified from item 0.  Let C be a group under addition
mod q, as a Reed-Solomon code, a GV span, and their balance closures and
quotients are.  Distances, agreements and the symbol counts of a - b
depend only on a - b.  So for a pair or L-set S of codewords and any s in
S, the translate S - s + w_0 lies in C, has the same score, and contains
item 0.  Every set that contains item 0 precedes every set that does not
in lex order, so the lex-first extremum over the sets that contain item 0
is the lex-first extremum overall; its score comes from the same integer
counts, so it has the same float bits.  This holds in any item order.
`min_distance`, `code_bias`, `lwise_distance`, `lwise_bias` and
`group_testing.verify_design` walk only those sets when their input is a
group (`_forms_group`), and every other input, any code over a non-prime
q among them, takes the full walk.  Reference: MacWilliams & Sloane, *The
Theory of Error-Correcting Codes* (1977), Ch. 1.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Iterable

import numpy as np

from . import caps
from .bounds import q_ary_entropy
from .errors import (
    ConstructionFailedError,
    DomainError,
    PreconditionError,
)
from .words import Word, is_prime

# a float32 sum of up to 2**24 terms of 0 or 1 is an exact integer
_FLOAT32_TERMS = 1 << 24
# above every sum of distances in an L-set: the L-wise cut's mask value
_ABOVE_TOTALS = np.int64(2**62)
# generator draws random_linear_code_gv tries before it gives up
_RETRY_BUDGET = 200
# the fraction random_linear_code_gv shaves off the GV dimension, so that the
# distance target is reachable within the retry budget
_GV_SLACK = 0.1


def _lex_unique(a: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d array, in lex order.

    The rows np.unique(axis=0) gives, but np.unique imports numpy.ma on its
    first call (~15 ms and ~1.3 MB in every process).  np.lexsort takes its
    last key as the primary one, hence the reversed columns.
    """
    a = a[np.lexsort(a.T[::-1])]
    fresh = np.ones(len(a), dtype=bool)
    fresh[1:] = (a[1:] != a[:-1]).any(axis=1)
    return a[fresh]


class Code:
    """A finite set of equal-length words over Z_q.

    The codewords are the rows of one read-only int64 (N, n) array, distinct
    and in lex order.  Iterating yields them as Words.
    """

    # whether the codewords form a group: None until it is first asked
    _group: bool | None = None

    def __init__(self, words: Iterable[Word]):
        words = list(words)
        if not words:
            raise DomainError("a code needs at least one codeword")
        q, n = words[0].q, words[0].n
        if any(w.q != q or w.n != n for w in words):
            raise DomainError("all codewords must share alphabet and length")
        code = Code.from_array(q, [w.symbols for w in words])
        self.q, self.n, self._rows = code.q, code.n, code._rows

    @classmethod
    def from_array(cls, q: int, rows) -> "Code":
        """The code whose codewords are the rows of `rows` (any order, repeats)."""
        if q < 2:
            raise DomainError(f"alphabet size must be >= 2, got {q}")
        shape_error = DomainError("codewords must form an (N, n) integer array")
        try:
            a = np.asarray(rows)
        except ValueError as exc:  # ragged rows
            raise shape_error from exc
        if a.ndim > 0 and len(a) == 0:
            raise DomainError("a code needs at least one codeword")
        if a.ndim != 2:
            raise shape_error
        if a.shape[1] == 0:
            raise DomainError("word must have positive length")
        if a.dtype.kind not in "iu":
            raise shape_error
        if a.min() < 0 or a.max() >= q:
            raise DomainError(f"symbols must lie in [0, {q})")
        code = cls.__new__(cls)
        code.q, code.n = q, a.shape[1]
        code._rows = _lex_unique(a.astype(np.int64))
        code._rows.flags.writeable = False
        return code

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self):
        return (Word(self.q, row) for row in map(tuple, self._rows.tolist()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Code) and self.q == other.q
                and np.array_equal(self._rows, other._rows))

    def __repr__(self) -> str:
        return f"Code(q={self.q}, n={self.n}, N={len(self)})"

    def array(self) -> np.ndarray:
        """Codewords as a read-only (N, n) int64 array, row i = codeword i."""
        return self._rows

    def _is_group(self) -> bool:
        """Whether the codewords are a group under addition mod q, decided
        on the first call and kept."""
        if self._group is None:
            self._group = _forms_group(self.q, self._rows)
        return self._group


def _json_value(v):
    """A report value as JSON: tuples as lists at any depth, a Word as its
    symbols, anything else as it is."""
    if isinstance(v, Word):
        v = v.symbols
    return [_json_value(x) for x in v] if isinstance(v, tuple) else v


@dataclass(frozen=True)
class Report:
    """A certifier's result, serialised by one rule.

    A subclass names its property in `_property` and maps a field to a JSON
    key that differs from its name in `_keys`.  The keys come in field order,
    after "property"; a mapping-valued field contributes its own keys in its
    place.
    """

    _keys = {}

    def to_dict(self) -> dict:
        out = {"property": self._property}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Mapping):
                out.update(value)
            else:
                out[self._keys.get(f.name, f.name)] = _json_value(value)
        return out


def _decimal(x) -> Fraction:
    """The decimal that the float x prints as, exactly.  float() first, so
    that a numpy scalar reads as its value and not as `np.float64(...)`."""
    return Fraction(repr(float(x)))


@dataclass(frozen=True)
class DistanceReport:
    """Extremal (average) distance with the subset attaining it.

    For pairwise minimum distance `absolute` is an integer count; for L-wise
    distance it is the minimal average absolute pairwise distance of an
    L-set, which may be fractional.  Either way `relative` is the exact
    ratio absolute / n, a `Fraction`.
    """

    absolute: float
    relative: Fraction
    witness: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class LinearCode:
    """A linear code over a prime field, given by a full-rank generator."""

    q: int
    k: int
    n: int
    generator: np.ndarray
    retries: int = 0

    def __post_init__(self):
        if not is_prime(self.q):
            raise DomainError(f"linear codes need a prime modulus, got {self.q}")
        if not (1 <= self.k <= self.n):
            raise DomainError("need 1 <= k <= n")
        g = np.asarray(self.generator, dtype=np.int64) % self.q
        if g.shape != (self.k, self.n):
            raise DomainError("generator shape must be (k, n)")
        if _rank_mod_p(g, self.q) != self.k:
            raise DomainError("generator must have full rank over the field")
        object.__setattr__(self, "generator", g)

    def __eq__(self, other) -> bool:
        # every field by value, arrays by np.array_equal; unhashable, as Code is
        return isinstance(other, LinearCode) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    """The rank over F_p, p prime, of an integer matrix with entries in
    [0, p): forward elimination a column at a time, each step on every row
    below the pivot at once.

    Only the pivot row is reduced mod p.  A row below it loses its lead mod
    p times that row, so it stays congruent to the exact elimination and
    grows by less than p^2 a step; a lead is tested mod p.
    """
    a = np.array(mat, dtype=np.int64)
    rank = 0
    for col in range(a.shape[1]):
        if rank == len(a):
            break
        rest = a[rank:, col:]
        lead = rest[:, 0] % p
        nonzero = np.flatnonzero(lead)
        if nonzero.size == 0:
            continue
        top = nonzero[0]
        rest[[0, top]] = rest[[top, 0]]
        lead[[0, top]] = lead[[top, 0]]
        rest[1:] -= lead[1:, None] * (rest[0] * pow(int(lead[0]), p - 2, p) % p)
        rank += 1
    return rank


def _group_rank(q: int, size: int) -> int | None:
    """The r with size = q^r when q is prime, the rank that a group of
    `size` words over F_q has; None when no group has that size."""
    if not is_prime(q):
        return None
    r = 0
    while q**r < size:
        r += 1
    return r if q**r == size else None


def _forms_group(q: int, words: np.ndarray) -> bool:
    """Whether the rows of an (N, n) array over Z_q form a group under
    addition mod q: q is prime, the rows are distinct, N = q^r, and their
    rank over F_q is r.  Rank r puts them in a span of q^r words, and N
    distinct ones are then the whole span.  The cheapest checks go first:
    the integer ones, then one that every group passes, that the zero word
    is a row."""
    r = _group_rank(q, len(words))
    return (r is not None and bool((words == 0).all(axis=1).any())
            and len(_lex_unique(words)) == len(words) and _rank_mod_p(words, q) == r)


def _span(q: int, g: np.ndarray) -> np.ndarray:
    """Every word m*G mod q, in the product order of the messages m, within
    the codeword cap.  Rows of G go last to first: the words so far are block
    0, and block s is block s - 1 plus the row mod q; a sum is <= 2q - 2."""
    caps.require(q**len(g), caps.codeword_cap(), "codewords")
    words = np.zeros((q**len(g), g.shape[1]), dtype=np.min_scalar_type(2 * q - 2))
    for size, row in zip(q ** np.arange(len(g)), g[::-1].astype(words.dtype)):
        for s in range(size, q * size, size):
            np.add(words[s - size:s], row, out=words[s:s + size])
            words[s:s + size] %= q
    return words


def enumerate_codewords(lc: LinearCode) -> Code:
    """All q^k codewords m*G of a linear code, which form a group."""
    code = Code.from_array(lc.q, _span(lc.q, lc.generator))
    code._group = True
    return code


def _symbol_columns(c: Code) -> np.ndarray:
    """Codeword j as column j of a C-ordered n x |C| array of small ints."""
    return np.ascontiguousarray(c.array().T, dtype=np.min_scalar_type(c.q - 1))


def _one_hot(q: int, cols: np.ndarray) -> np.ndarray:
    """Boolean embedding of words laid out along axis 0 of `cols`, as bools.

    Coordinate i holding symbol s sets row i*q + s, so the supports of two
    words meet in exactly their agreements.
    """
    levels = np.arange(q).reshape((q,) + (1,) * (cols.ndim - 1))
    return (cols[:, None] == levels).reshape((q * len(cols),) + cols.shape[1:])


def _count_dtype(bound: int) -> type:
    return np.float32 if bound <= _FLOAT32_TERMS else np.float64


def _counts(a: np.ndarray, b: np.ndarray, bound: int | None = None) -> np.ndarray:
    """a @ b for integer operands, as floats that are exact integers.

    `bound` bounds the magnitude of every operand entry and of every sum of
    their products, and must be at most 2**53; for 0/1 operands it is
    the contraction length, the default.  One BLAS product, in float32 while
    the bound allows every partial sum to be exact, in float64 above that:
    every partial sum is then an integer the type holds, in any summation
    order, so the product is exact.
    """
    dtype = _count_dtype(b.shape[0] if bound is None else bound)
    return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)


def _largest_count_pair(m: np.ndarray, anchored: bool) -> tuple[int, tuple[int, int]]:
    """(largest intersection, lex-first pair i < j attaining it) over the
    supports of the columns of a 0/1 matrix with at least two columns;
    `anchored`, over the pairs (0, j) alone, for the embedding of a group:
    column 0's intersections are exact int64 column sums over the rows of
    its support, and the matrix is not cast."""
    caps.require(math.comb(m.shape[1], 2), caps.subset_cap(), "pairs")
    if anchored:
        def scores(i0, i1):
            return m[m[:, 0] != 0].sum(axis=0, dtype=np.int64)[None]
    else:
        m = m.astype(_count_dtype(len(m)))

        def scores(i0, i1):
            return _counts(m[:, i0:i1].T, m[:, i0:])
    most, witness = caps.lex_first_max_pair(scores, m.shape[1], anchored)
    return int(most), witness


def _pairwise_distances(c: Code) -> np.ndarray:
    """The |C| x |C| Hamming distance matrix: n minus the agreements.

    int64, because the L-subset walk adds its rows into int64 pair sums, and
    a mixed-width add costs more than the wider matrix at these sizes.
    """
    m = _one_hot(c.q, _symbol_columns(c))
    return c.n - _counts(m.T, m).astype(np.int64)


def min_distance(c: Code) -> DistanceReport:
    """Minimum pairwise Hamming distance, with its lex-first witness pair.

    The closest pair agrees in the most coordinates: its Boolean embeddings
    meet the most, counted a block of rows at a time in O(block * |C|) memory.
    On a group, the weights of w_j - w_0 alone, with witness (0, j).
    """
    if len(c) < 2:
        raise DomainError("minimum distance needs at least two codewords")
    most, witness = _largest_count_pair(_one_hot(c.q, _symbol_columns(c)),
                                        c._is_group())
    best = c.n - most
    return DistanceReport(best, Fraction(best, c.n), witness)


def _check_lsets(c: Code, L: int) -> None:
    if not (2 <= L <= len(c)):
        raise DomainError(f"need 2 <= L <= |C|, got L={L}, |C|={len(c)}")
    caps.require(math.comb(len(c), L), caps.subset_cap(), f"subsets of size {L}")


def _least_total_cut(d: np.ndarray, L: int, group: bool):
    """`caps.lex_first_max_pair_sum`'s cut for the least total of an L-set
    under the distance matrix d, whose walk offers -total; `group` when the
    codewords form a group, whose walk is anchored.

    Its thresholds are made at its first call.  dmin is the least distance
    between two codewords: on a group, row 0's least entry, the least
    weight.  The seed is the least exact total of greedy L-sets: from each
    item (item 0 alone on a group) and a closest partner, grown at each
    step by an item with the least sum of distances to the set, all at
    once in L - 1 vector steps.  It is only a threshold; no walk offers it.

    The proof.  Let P be a prefix of s items, last item l, with k = L - s
    >= 2 items still to add, and S = P + Q a completion, Q k items above l.
    Then total(S) = total(P) + (the sum of R[P, j] over j in Q) + total(Q).
    The middle sum is at least the k smallest R[P, j] over j > l, since Q
    is k distinct such j, and total(Q) >= C(k, 2) dmin.  So total(S) >=
    LB(P), the sum of the three bounds.  Every L-set's total is at least
    floor = C(L, 2) dmin, and the least total T is at most the seed.  On a
    group every L-set has a translate through item 0 with its total (see
    the module docstring), so the anchored walk's T is the same.  P is cut:
     - when LB(P) > seed: every completion's total is > T;
     - when best is not None and LB(P) >= t, the total of the walk's
       incumbent (-best), which precedes every completion: each
       completion's total is > t, or = t and later in lex order, and the
       lead never takes a later tie;
     - whatever LB(P), when t <= floor: no total is below t.
    The code tests LB(P) >= min(seed + 1, t), which is the first two cuts
    at once, and the third as min(seed + 1, t) <= floor, since seed >=
    floor.  No cut prefix has a completion that is the lex-first least
    total.
    Every quantity is an exact int64 sum of at most C(L, 2) entries of d,
    far below _ABOVE_TOTALS, so no comparison needs a margin.
    """
    size, big = len(d), _ABOVE_TOTALS
    made = []

    def thresholds() -> tuple[int, int]:
        """(seed, dmin)."""
        starts = np.arange(1 if group else size)
        near = d[starts] + big * (starts[:, None] == np.arange(size))
        # some least entry of each row, not the first: no witness rests on it
        partner = near.argpartition(0, axis=1)[:, 0]
        closest = near[starts, partner]
        totals = closest.copy()
        member = np.zeros(near.shape, dtype=bool)
        member[starts, starts] = member[starts, partner] = True
        sums = d[starts] + d[partner]
        for _ in range(L - 2):
            nearest = np.where(member, big, sums).argpartition(0, axis=1)[:, 0]
            totals += sums[starts, nearest]
            sums += d[nearest]
            member[starts, nearest] = True
        return int(totals.min()), int(closest.min())

    def cut(total, rows, last, k, best):
        if not made:
            made.append(thresholds())
        seed, dmin = made[0]
        t = seed + 1 if best is None else min(seed + 1, -best)
        if t <= math.comb(L, 2) * dmin:
            return np.ones(len(last), dtype=bool)
        rest = np.where(np.arange(size) > last[:, None], rows, big)
        rest.partition(k - 1, axis=1)
        return rest[:, :k].sum(axis=1) + total >= t - math.comb(k, 2) * dmin

    return cut


def lwise_distance(c: Code, L: int) -> DistanceReport:
    """Minimum over L-subsets of the average relative pairwise distance.

    The L-set with the least exact total pairwise distance, which is
    n * C(L, 2) times its average relative distance.  The walk cuts the
    prefixes that `_least_total_cut` proves cannot complete to it.
    `relative` is that total over n * C(L, 2), exactly, and `absolute` is
    its correctly rounded float times n.
    """
    _check_lsets(c, L)
    d, group = _pairwise_distances(c), c._is_group()
    least, witness = caps.lex_first_max_pair_sum(d, L, np.negative, group,
                                                 _least_total_cut(d, L, group))
    exact = Fraction(-least, c.n * math.comb(L, 2))
    return DistanceReport(float(exact) * c.n, exact, witness)


def lwise_bias(c: Code, L: int) -> float:
    """Max over L-subsets of |average distance - 1/2|; binary codes only."""
    if c.q != 2:
        raise DomainError("L-wise bias is only defined for binary codes here")
    _check_lsets(c, L)
    scale = c.n * math.comb(L, 2)
    return caps.lex_first_max_pair_sum(_pairwise_distances(c), L,
                                       lambda t: np.abs(t / scale - 0.5),
                                       c._is_group())[0]


def is_balanced(c: Code) -> bool:
    """True iff the code is closed under adding multiples of the all-ones word.

    Adding the all-ones word permutes Z_q^n, so the shifted rows are |C|
    distinct words; they are the code itself iff they sort to the same array.
    """
    shifted = _lex_unique((c.array() + 1) % c.q)
    return np.array_equal(shifted, c.array())


def balance_closure(c: Code) -> Code:
    """Smallest balanced superset: all constant shifts of every codeword."""
    alphas = np.arange(c.q)[:, None, None]
    return Code.from_array(c.q, ((c.array() + alphas) % c.q).reshape(-1, c.n))


def quotient_by_ones(c: Code) -> Code:
    """One representative (lexicographic minimum) per constant-shift class.

    The q shifts w + alpha*1 of a word w start with the q distinct symbols
    w[0] + alpha, so exactly one of them starts with 0, and it is smaller in
    lex order than every other shift: the class minimum is w - w[0]*1.
    """
    if not is_balanced(c):
        raise PreconditionError("quotient requires a balanced code")
    a = c.array()
    return Code.from_array(c.q, (a - a[:, :1]) % c.q)


def code_bias(c: Code) -> float:
    """Max bias of the difference of any two distinct codewords.

    The bias of a word is the statistical distance of its empirical symbol
    distribution to uniform.  a - b holds s where a holds t + s and b holds
    t, so its count of s is the agreement count of b's one-hot columns with
    a's shifted by s in each coordinate.  Each count k gives the term
    abs(k/n - 1.0/q), with k/n correctly rounded, and the terms are added
    one symbol at a time in symbol order, so the value is the same on every
    interpreter and equal, bit for bit, to the scalar definition.  On a
    group, row 0 alone: the pairs (0, j).
    """
    size = len(c)
    if size < 2:
        raise DomainError("code bias needs at least two codewords")
    q, n = c.q, c.n
    caps.require(math.comb(size, 2), caps.subset_cap(), "pairs")
    h = _one_hot(q, _symbol_columns(c)).astype(_count_dtype(q * n))
    # row k*q + t of h[shifts[s]] is row k*q + (t + s) % q of h
    rows = np.arange(q * n)
    shifts = [rows - rows % q + (rows + s) % q for s in range(q)]

    def sums(i0: int, i1: int) -> np.ndarray:
        total = np.zeros((i1 - i0, size - i0))
        for shift in shifts:
            # int64, so k/n is a float64 division, not a float32 one
            counts = _counts(h[shift, i0:i1].T, h[:, i0:]).astype(np.int64)
            total += np.abs(counts / n - 1.0 / q)
        return total

    return 0.5 * caps.lex_first_max_pair(sums, size, c._is_group())[0]


def min_distance_epsilon(c: Code) -> float:
    """Smallest eps with relative min distance >= 1 - (1+eps)/q.

    Inverts the distance threshold of the bias reduction; may be negative
    for codes whose distance exceeds 1 - 1/q.
    """
    delta = float(min_distance(c).relative)
    return c.q * (1.0 - delta) - 1.0


def random_linear_code_gv(q: int, n: int, delta: float, seed: int) -> LinearCode:
    """Sample a linear code of relative distance >= delta at near-GV rate.

    Rejection sampling with a seeded generator: draw uniform k x n generator
    matrices until one clears the distance target, on one test of the words
    mG of the q^k - 1 nonzero messages m.  G has full rank iff no nonzero m
    encodes to the zero word, and then the code's minimum distance is its
    least nonzero weight; so a least weight >= max(ceil(delta * n), 1) is
    exactly "full rank and distance >= delta * n", with delta * n taken
    exactly for the decimal that delta prints as.  The retry count is
    recorded on the returned LinearCode.
    """
    # delta == 1 - 1/q is admitted so the zero-rate boundary surfaces as a
    # construction failure (dimension < 1) rather than a range error
    if not (0 <= delta <= 1 - 1 / q):
        raise DomainError(f"need 0 <= delta <= 1 - 1/q, got {delta}")
    if not is_prime(q):
        raise DomainError(f"alphabet size {q} must be prime")
    k = math.floor((1.0 - q_ary_entropy(q, delta)) * (1.0 - _GV_SLACK) * n)
    if k < 1:
        raise ConstructionFailedError(
            f"rate target gives dimension {k} < 1 for q={q}, n={n}, delta={delta}"
        )
    rng = np.random.default_rng(seed)
    target = max(math.ceil(_decimal(delta) * n), 1)
    for attempt in range(_RETRY_BUDGET):
        g = rng.integers(0, q, size=(k, n))
        if (_span(q, g)[1:] != 0).sum(axis=1).min() >= target:
            return LinearCode(q, k, n, g, retries=attempt)
    raise ConstructionFailedError(
        f"no generator met distance {delta} within {_RETRY_BUDGET} tries"
    )


def reed_solomon(q: int, k: int) -> Code:
    """Evaluations of all degree-<k polynomials at every point of Z_q."""
    if not is_prime(q):
        raise DomainError(f"alphabet size {q} must be prime")
    if not (1 <= k <= q):
        raise DomainError(f"need 1 <= k <= q, got k={k}")
    # generator row e holds x^e at each point x; distinct points give rank k
    generator = [[pow(x, e, q) for x in range(q)] for e in range(k)]
    return enumerate_codewords(LinearCode(q, k, q, generator))


def write_code_file(c: Code, path: str | Path) -> None:
    """Write a code as 'q n' followed by one codeword per line, lex order."""
    lines = [f"{c.q} {c.n}"]
    lines += [" ".join(map(str, row)) for row in c.array().tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def read_code_file(path: str | Path) -> Code:
    rows = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not rows or len(rows[0]) != 2:
        raise DomainError(f"code file {path} must start with a 'q n' header line")
    try:
        (q, n), *symbol_rows = [[int(t) for t in row] for row in rows]
    except ValueError as exc:
        raise DomainError(f"code file {path} holds a non-integer token") from exc
    for symbols in symbol_rows:
        if len(symbols) != n:
            raise DomainError(f"codeword length {len(symbols)} != declared {n}")
    return Code.from_array(q, symbol_rows)


def random_balanced_code(
    q: int, n: int, classes: int, rng: np.random.Generator
) -> Code:
    """A random balanced code: shift-closure of `classes` random words."""
    seeds = [rng.integers(0, q, size=n) for _ in range(classes)]
    return balance_closure(Code.from_array(q, seeds))
