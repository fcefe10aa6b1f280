"""Code containers and the distance/bias metrics driving every reduction.

A Code is a deduplicated, lexicographically sorted set of Words over a
common alphabet.  The sort order is load-bearing: embeddings, quotients and
witnesses all refer to codeword indices in this order, which makes every
downstream matrix reproducible byte-for-byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path
from typing import Iterable

import numpy as np

from . import caps
from .bounds import q_ary_entropy
from .errors import (
    ConstructionFailedError,
    DomainError,
    EnumerationCapError,
    PreconditionError,
)
from .words import Word, is_prime

# codeword pairs per block in code_bias
_PAIR_BLOCK = 1 << 14
# codeword rows per block in min_distance
_DISTANCE_BLOCK = 64


class Code:
    """A finite set of equal-length words over Z_q."""

    def __init__(self, words: Iterable[Word]):
        ws = sorted(set(words))
        if not ws:
            raise DomainError("a code needs at least one codeword")
        q, n = ws[0].q, ws[0].n
        if any(w.q != q or w.n != n for w in ws):
            raise DomainError("all codewords must share alphabet and length")
        self.q = q
        self.n = n
        self.words: tuple[Word, ...] = tuple(ws)

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __eq__(self, other) -> bool:
        return isinstance(other, Code) and self.words == other.words

    def __repr__(self) -> str:
        return f"Code(q={self.q}, n={self.n}, N={len(self)})"

    def array(self) -> np.ndarray:
        """Codewords as an (N, n) integer array, row i = codeword i."""
        return np.array([w.symbols for w in self.words], dtype=np.int64)


@dataclass(frozen=True)
class DistanceReport:
    """Extremal (average) distance with the subset attaining it.

    For pairwise minimum distance `absolute` is an integer count; for L-wise
    distance it is the minimal average absolute pairwise distance of an
    L-set, which may be fractional.  Either way relative = absolute / n.
    """

    absolute: float
    relative: float
    witness: tuple[int, ...]


@dataclass(frozen=True)
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


def _rank_mod_p(mat: np.ndarray, p: int) -> int:
    a = mat.copy() % p
    rank = 0
    rows, cols = a.shape
    for col in range(cols):
        pivot = next((r for r in range(rank, rows) if a[r, col] % p), None)
        if pivot is None:
            continue
        a[[rank, pivot]] = a[[pivot, rank]]
        a[rank] = (a[rank] * pow(int(a[rank, col]), p - 2, p)) % p
        for r in range(rows):
            if r != rank and a[r, col]:
                a[r] = (a[r] - a[r, col] * a[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def enumerate_codewords(lc: LinearCode, cap: int | None = None) -> Code:
    """All q^k codewords m*G of a linear code."""
    total = lc.q**lc.k
    limit = caps.codeword_cap(cap)
    if total > limit:
        raise EnumerationCapError(f"{total} codewords exceed cap {limit}")
    messages = np.array(list(product(range(lc.q), repeat=lc.k)), dtype=np.int64)
    rows = (messages @ lc.generator) % lc.q
    return Code(Word(lc.q, tuple(int(s) for s in row)) for row in rows)


def _pairwise_distances(c: Code) -> np.ndarray:
    a = c.array()
    return (a[:, None, :] != a[None, :, :]).sum(axis=2)


def min_distance(c: Code) -> DistanceReport:
    """Minimum pairwise Hamming distance, with its lex-first witness pair.

    The closest pair agrees in the most coordinates; agreements are counted
    one coordinate at a time for a block of rows, in O(block * |C|) memory.
    """
    if len(c) < 2:
        raise DomainError("minimum distance needs at least two codewords")
    a = c.array().astype(np.min_scalar_type(c.q - 1))
    # signed, and wide enough for n agreements
    count_dtype = np.min_scalar_type(-c.n - 1)

    def agreements(i0: int, i1: int) -> np.ndarray:
        agree = np.zeros((i1 - i0, len(c) - i0), dtype=count_dtype)
        for k in range(c.n):
            agree += a[i0:i1, k, None] == a[i0:, k]
        return agree

    most, witness = caps.lex_first_max_pair(agreements, len(c), _DISTANCE_BLOCK)
    best = c.n - most
    return DistanceReport(best, best / c.n, witness)


def _avg_subset_distances(c: Code, L: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Average relative pairwise distance of every L-subset, in lex order."""
    count = math.comb(len(c), L)
    if count > cap:
        raise EnumerationCapError(f"{count} subsets of size {L} exceed cap {cap}")
    d = _pairwise_distances(c)
    idx = caps.subsets(len(c), L)
    totals = np.zeros(len(idx), dtype=np.int64)
    for a, b in combinations(range(L), 2):
        totals += d[idx[:, a], idx[:, b]]
    return totals / (c.n * math.comb(L, 2)), idx


def lwise_distance(c: Code, L: int, cap: int | None = None) -> DistanceReport:
    """Minimum over L-subsets of the average relative pairwise distance."""
    if not (2 <= L <= len(c)):
        raise DomainError(f"need 2 <= L <= |C|, got L={L}, |C|={len(c)}")
    avgs, idx = _avg_subset_distances(c, L, caps.subset_cap(cap))
    pos = int(np.argmin(avgs))
    rel = float(avgs[pos])
    return DistanceReport(rel * c.n, rel, tuple(int(i) for i in idx[pos]))


def lwise_bias(c: Code, L: int, cap: int | None = None) -> float:
    """Max over L-subsets of |average distance - 1/2|; binary codes only."""
    if c.q != 2:
        raise DomainError("L-wise bias is only defined for binary codes here")
    if not (2 <= L <= len(c)):
        raise DomainError(f"need 2 <= L <= |C|, got L={L}, |C|={len(c)}")
    avgs, _ = _avg_subset_distances(c, L, caps.subset_cap(cap))
    return float(np.abs(avgs - 0.5).max())


def is_balanced(c: Code) -> bool:
    """True iff the code is closed under adding multiples of the all-ones word."""
    present = set(c.words)
    return all(w.shift(1) in present for w in c.words)


def balance_closure(c: Code) -> Code:
    """Smallest balanced superset: all constant shifts of every codeword."""
    return Code(w.shift(alpha) for w in c.words for alpha in range(c.q))


def quotient_by_ones(c: Code) -> Code:
    """One representative (lexicographic minimum) per constant-shift class."""
    if not is_balanced(c):
        raise PreconditionError("quotient requires a balanced code")
    reps = {min(w.shift(alpha) for alpha in range(c.q)) for w in c.words}
    return Code(reps)


def code_bias(c: Code) -> float:
    """Max bias of the difference of any two distinct codewords.

    Equal, bit for bit, to the max of bias_of_word(a.diff(b)) over
    codeword pairs a < b: the pairs are taken in fixed-size blocks, each
    difference's symbol counts k give the terms abs(k/n - 1.0/q) (k/n is
    correctly rounded, as float(Fraction(k, n)) is), and the terms are added
    one symbol at a time in symbol order, as statistical_distance adds them.
    """
    size = len(c)
    if size < 2:
        raise DomainError("code bias needs at least two codewords")
    q, n = c.q, c.n
    # symbols and a[i] + q - a[j] < 2q fit this dtype; counts never exceed n
    a = c.array().astype(np.min_scalar_type(2 * q))
    count_dtype = np.min_scalar_type(n)
    rows = np.arange(size, dtype=np.int64)
    # pairs (i, j), i < j, in combinations order: row i starts at first[i]
    first = rows * (size - 1) - rows * (rows - 1) // 2
    total = size * (size - 1) // 2
    uniform = 1.0 / q
    best = 0.0
    for p0 in range(0, total, _PAIR_BLOCK):
        pair = np.arange(p0, min(p0 + _PAIR_BLOCK, total), dtype=np.int64)
        i = np.searchsorted(first, pair, side="right") - 1
        j = pair - first[i] + i + 1
        # (n, pairs): counting a symbol reduces over contiguous rows
        diff = np.ascontiguousarray(((a[i] + q - a[j]) % q).T)
        sums = np.zeros(len(pair))
        for s in range(q):
            counts = np.add.reduce(diff == s, axis=0, dtype=count_dtype)
            sums += np.abs(counts / n - uniform)
        best = max(best, float((0.5 * sums).max()))
    return best


def min_distance_epsilon(c: Code) -> float:
    """Smallest eps with relative min distance >= 1 - (1+eps)/q.

    Inverts the distance threshold of the bias reduction; may be negative
    for codes whose distance exceeds 1 - 1/q.
    """
    delta = min_distance(c).relative
    return c.q * (1.0 - delta) - 1.0


def random_linear_code_gv(
    q: int,
    n: int,
    delta: float,
    seed: int,
    slack: float = 0.1,
    retry_budget: int = 200,
    cap: int | None = None,
) -> LinearCode:
    """Sample a linear code of relative distance >= delta at near-GV rate.

    Rejection sampling with a seeded generator: draw uniform k x n generator
    matrices until one is full rank and its code clears the distance target.
    The retry count is recorded on the returned LinearCode.
    """
    # delta == 1 - 1/q is admitted so the zero-rate boundary surfaces as a
    # construction failure (dimension < 1) rather than a range error
    if not (0 <= delta <= 1 - 1 / q):
        raise DomainError(f"need 0 <= delta <= 1 - 1/q, got {delta}")
    if not is_prime(q):
        raise DomainError(f"alphabet size {q} must be prime")
    # slack shaves a fraction off the GV dimension so the distance target
    # is reachable within a small retry budget
    k = math.floor((1.0 - q_ary_entropy(q, delta)) * (1.0 - slack) * n)
    if k < 1:
        raise ConstructionFailedError(
            f"rate target gives dimension {k} < 1 for q={q}, n={n}, delta={delta}"
        )
    rng = np.random.default_rng(seed)
    target = delta * n - 1e-9
    for attempt in range(retry_budget):
        g = rng.integers(0, q, size=(k, n))
        if _rank_mod_p(g, q) != k:
            continue
        lc = LinearCode(q, k, n, g, retries=attempt)
        code = enumerate_codewords(lc, cap)
        # linear code: min distance = min weight of a nonzero codeword
        weights = [sum(s != 0 for s in w.symbols) for w in code.words
                   if any(w.symbols)]
        if weights and min(weights) >= target:
            return lc
    raise ConstructionFailedError(
        f"no generator met distance {delta} within {retry_budget} tries"
    )


def reed_solomon(q: int, k: int) -> Code:
    """Evaluations of all degree-<k polynomials at every point of Z_q."""
    if not is_prime(q):
        raise DomainError(f"alphabet size {q} must be prime")
    if not (1 <= k <= q):
        raise DomainError(f"need 1 <= k <= q, got k={k}")
    points = np.arange(q, dtype=np.int64)
    # rows of V are (x^0, ..., x^(k-1)) per evaluation point
    vand = np.array([[pow(int(x), e, q) for e in range(k)] for x in points])
    coeffs = np.array(list(product(range(q), repeat=k)), dtype=np.int64)
    evals = (coeffs @ vand.T) % q
    return Code(Word(q, tuple(int(s) for s in row)) for row in evals)


def write_code_file(c: Code, path: str | Path) -> None:
    """Write a code as 'q n' followed by one codeword per line, lex order."""
    lines = [f"{c.q} {c.n}"]
    lines += [" ".join(str(s) for s in w.symbols) for w in c.words]
    Path(path).write_text("\n".join(lines) + "\n")


def read_code_file(path: str | Path) -> Code:
    rows = [ln.split() for ln in Path(path).read_text().splitlines() if ln.strip()]
    if not rows or len(rows[0]) != 2:
        raise DomainError(f"code file {path} must start with a 'q n' header line")
    try:
        (q, n), *symbol_rows = [[int(t) for t in row] for row in rows]
    except ValueError as exc:
        raise DomainError(f"code file {path} holds a non-integer token") from exc
    words = []
    for symbols in symbol_rows:
        if len(symbols) != n:
            raise DomainError(f"codeword length {len(symbols)} != declared {n}")
        words.append(Word(q, tuple(symbols)))
    return Code(words)


def random_balanced_code(
    q: int, n: int, classes: int, rng: np.random.Generator
) -> Code:
    """A random balanced code: shift-closure of `classes` random words."""
    seeds = [Word(q, tuple(int(s) for s in rng.integers(0, q, size=n)))
             for _ in range(classes)]
    return balance_closure(Code(seeds))
