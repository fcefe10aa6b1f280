"""Word-by-word reference implementations, kept as `==` oracles.

The library holds a code as one (N, n) array and builds, embeds and
measures it with array maps.  The scalar chain it replaced lives on here:
empirical distributions, statistical distance and word bias, Hamming
distance between two Words (and the mismatch error only these raise),
constant shifts and differences, and the Word-chain builders
(linear-code enumeration, Reed-Solomon, balance closure, quotient by the
all-ones word, spherical and Boolean embeddings, the binary inverse of the
spherical one a column at a time, code files, and complex matrix files with
their entries converted one at a time), the GV sampler's loop that tested
each draw's rank (by the row loop that the vectorised rank replaced) and
then its enumerated code's weights, and the design as
a tuple of int tuples with its conversions to and from 0/1 matrices.  The
subset certifiers' own loops live here too: the itertools enumerator, and
RIP-2, flat RIP, kernel injectivity, L-wise distance and bias and the
exhaustive decoder, each walking every subset and breaking ties by hand,
as they did before caps took over the walk and the tie-break, and the
exact ratio of an L-set recounted from its words, as `verify
lwise-distance` counted its witness before the walk's own total served.
So do the exact counts of 0/1 products that one BLAS kernel now gives: the
per-coordinate agreement count behind min distance, and the non-BLAS int64
product behind flat RIP's overlap mask, the design Gram and the OR channel.
So do the loops that counts and caps' product order replaced: code bias
over pairs indexed by hand and symbol counts taken one symbol at a time,
and the list-size sweep's per-coordinate distance table and center digits.
So does the Vandermonde gap check on the whole N x N distance array, which
the row-blocked pair walk replaced, and the decoder's filter for one
measurement at a time, one QR of [A_S y] per support, which the filter
shared by a stack of measurements replaced.
So do the Johnson-type check and its converse, each with its own
not-applicable branch, list-size and L'-wise calls and verdict chain, as
they were before one evaluation of the link served both.
So does the random round trip's draw loop, two numpy calls per support,
which drawing a batch at a time from the generator's words replaced.
No library code imports this module.  Builders return the sorted tuple of distinct
Words, the order the library's Code uses.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product

import numpy as np

from sparsecode.certify import (
    RANK_TOL,
    _pivots_positive,
    FlatRipReport,
    KernelReport,
    RipReport,
    as_matrix,
)
from sparsecode import codes
from sparsecode.bounds import q_ary_entropy
from sparsecode.codes import DistanceReport, LinearCode
from sparsecode.embeddings import INVERSE_TOL
from sparsecode.errors import (
    ConstructionFailedError,
    DomainError,
    NotAnEmbeddingError,
    PreconditionError,
    SparseCodeError,
)
from sparsecode.group_testing import DesignReport, as_binary
from sparsecode.listdecode import (
    ConverseReport,
    JohnsonReport,
    johnson_inverse_square,
    list_sizes_at_radii,
)
from sparsecode.recovery import _COND, _QR_MARGIN, NODE_GAP_TOL, RecoveryResult
from sparsecode.words import Word, is_prime

MASS_TOLERANCE = 1e-12


class DimensionMismatchError(SparseCodeError, ValueError):
    """Operands disagree on length or alphabet size."""


@dataclass(frozen=True)
class Distribution:
    """A probability mass function on Z_q."""

    q: int
    masses: tuple[float, ...]

    def __post_init__(self):
        if len(self.masses) != self.q:
            raise DomainError("need exactly q masses")
        if any(m < -MASS_TOLERANCE for m in self.masses):
            raise DomainError("masses must be nonnegative")
        if abs(sum(self.masses) - 1.0) > MASS_TOLERANCE:
            raise DomainError("masses must sum to 1")

    @classmethod
    def uniform(cls, q: int) -> "Distribution":
        return cls(q, (1.0 / q,) * q)


def _check_compatible(a: Word, b: Word) -> None:
    if a.q != b.q:
        raise DimensionMismatchError(f"alphabet mismatch: {a.q} vs {b.q}")
    if a.n != b.n:
        raise DimensionMismatchError(f"length mismatch: {a.n} vs {b.n}")


def shift(w: Word, alpha: int) -> Word:
    """Add alpha to every position, mod q."""
    return Word(w.q, tuple((s + alpha) % w.q for s in w.symbols))


def diff(a: Word, b: Word) -> Word:
    """Componentwise difference a - b, mod q."""
    _check_compatible(a, b)
    return Word(a.q, tuple((x - y) % a.q for x, y in zip(a.symbols, b.symbols)))


def hamming_distance(a: Word, b: Word) -> int:
    """Number of positions where a and b differ."""
    _check_compatible(a, b)
    return sum(x != y for x, y in zip(a.symbols, b.symbols))


def statistical_distance(p: Distribution, r: Distribution) -> float:
    """Half the l1 distance, with the terms added one at a time in symbol order."""
    if p.q != r.q:
        raise DimensionMismatchError(f"alphabet mismatch: {p.q} vs {r.q}")
    total = 0.0
    for x, y in zip(p.masses, r.masses):
        total += abs(x - y)
    return 0.5 * total


def empirical_distribution(c: Word) -> Distribution:
    """Fraction of positions of c holding each symbol, each rounded once."""
    counts = [0] * c.q
    for s in c.symbols:
        counts[s] += 1
    return Distribution(c.q, tuple(float(Fraction(k, c.n)) for k in counts))


def bias_of_word(c: Word) -> float:
    """Statistical distance of the empirical symbol distribution to uniform."""
    return statistical_distance(empirical_distribution(c), Distribution.uniform(c.q))


# ---------------------------------------------------------------- builders

def code_words(words) -> tuple[Word, ...]:
    """The sorted distinct Words, as the scalar Code stored them."""
    ws = sorted(set(words))
    if not ws:
        raise DomainError("a code needs at least one codeword")
    return tuple(ws)


def enumerate_codewords(q: int, generator: np.ndarray) -> tuple[Word, ...]:
    k = len(generator)
    messages = np.array(list(product(range(q), repeat=k)), dtype=np.int64)
    rows = (messages @ np.asarray(generator, dtype=np.int64)) % q
    return code_words(Word(q, tuple(int(s) for s in row)) for row in rows)


def reed_solomon(q: int, k: int) -> tuple[Word, ...]:
    vand = np.array([[pow(x, e, q) for e in range(k)] for x in range(q)])
    coeffs = np.array(list(product(range(q), repeat=k)), dtype=np.int64)
    evals = (coeffs @ vand.T) % q
    return code_words(Word(q, tuple(int(s) for s in row)) for row in evals)


def is_balanced(words: tuple[Word, ...]) -> bool:
    present = set(words)
    return all(shift(w, 1) in present for w in words)


def balance_closure(words: tuple[Word, ...]) -> tuple[Word, ...]:
    q = words[0].q
    return code_words(shift(w, alpha) for w in words for alpha in range(q))


def quotient_by_ones(words: tuple[Word, ...]) -> tuple[Word, ...]:
    if not is_balanced(words):
        raise PreconditionError("quotient requires a balanced code")
    q = words[0].q
    return code_words(min(shift(w, alpha) for alpha in range(q)) for w in words)


def random_balanced_code(
    q: int, n: int, classes: int, rng: np.random.Generator
) -> tuple[Word, ...]:
    seeds = [Word(q, tuple(int(s) for s in rng.integers(0, q, size=n)))
             for _ in range(classes)]
    return balance_closure(code_words(seeds))


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """The rank over F_p by the row loop the vectorised elimination
    replaced: each pivot normalised, then cleared from the other rows one
    row at a time."""
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


def random_linear_code_gv(q: int, n: int, delta: float, seed: int) -> LinearCode:
    """The GV sampler as it decided each draw twice: a rank test mod q, then
    the least nonzero weight of the enumerated, sorted code."""
    if not (0 <= delta <= 1 - 1 / q):
        raise DomainError(f"need 0 <= delta <= 1 - 1/q, got {delta}")
    if not is_prime(q):
        raise DomainError(f"alphabet size {q} must be prime")
    k = math.floor((1.0 - q_ary_entropy(q, delta)) * (1.0 - codes._GV_SLACK) * n)
    if k < 1:
        raise ConstructionFailedError(
            f"rate target gives dimension {k} < 1 for q={q}, n={n}, delta={delta}"
        )
    rng = np.random.default_rng(seed)
    # delta * n exactly, for the decimal delta prints as
    target = Fraction(str(delta)) * n
    for attempt in range(codes._RETRY_BUDGET):
        g = rng.integers(0, q, size=(k, n))
        if rank_mod_p(g, q) != k:
            continue
        lc = LinearCode(q, k, n, g, retries=attempt)
        weights = (codes.enumerate_codewords(lc).array() != 0).sum(axis=1)
        weights = weights[weights > 0]
        if weights.size and int(weights.min()) >= target:
            return lc
    raise ConstructionFailedError(
        f"no generator met distance {delta} within {codes._RETRY_BUDGET} tries"
    )


def sph_word(c: Word) -> np.ndarray:
    symbols = np.array(c.symbols, dtype=np.float64)
    if c.q == 2:
        return (1.0 - 2.0 * symbols) / math.sqrt(c.n) + 0j
    angles = 2.0 * np.pi * symbols / c.q
    return (np.cos(angles) + 1j * np.sin(angles)) / math.sqrt(c.n)


def bool_word(c: Word) -> np.ndarray:
    out = np.zeros(c.q * c.n, dtype=np.int64)
    for i, s in enumerate(c.symbols):
        out[i * c.q + s] = 1
    return out


def sph_code(words: tuple[Word, ...]) -> np.ndarray:
    return np.column_stack([sph_word(w) for w in words])


def bool_code(words: tuple[Word, ...], normalize: bool = False) -> np.ndarray:
    m = np.column_stack([bool_word(w) for w in words])
    if normalize:
        return m / math.sqrt(words[0].n)
    return m


def sph_inverse_binary(column: np.ndarray) -> Word:
    """The binary word whose spherical embedding is `column`."""
    col = np.asarray(column, dtype=np.complex128)
    n = col.shape[0]
    if n == 0:
        raise NotAnEmbeddingError("an empty column is no spherical embedding")
    scale = 1.0 / math.sqrt(n)
    plus = np.abs(col - scale) <= INVERSE_TOL
    minus = np.abs(col + scale) <= INVERSE_TOL
    if not np.all(plus | minus):
        bad = int(np.argmin(plus | minus))
        raise NotAnEmbeddingError(
            f"entry {bad} = {col[bad]} is not within tolerance of +-1/sqrt(n)"
        )
    return Word(2, tuple(int(m) for m in minus))


def complex_matrix_text(m: np.ndarray) -> str:
    """A complex matrix file's text, its entries converted one at a time."""
    cm = np.asarray(m).astype(np.complex128)
    payload = {
        "kind": "complex",
        "n": int(cm.shape[0]),
        "N": int(cm.shape[1]),
        "entries": [[float(v.real), float(v.imag)] for v in cm.flatten()],
    }
    return json.dumps(payload) + "\n"


def matrix_file_text(m: np.ndarray) -> str:
    """A matrix file's text: binary rows, one character per entry, when
    np.isin finds only 0 and 1 in a real matrix; complex otherwise."""
    m = np.asarray(m)
    if np.isrealobj(m) and np.isin(m, (0, 1)).all():
        rows = ["".join(str(int(v)) for v in row) for row in m]
        return json.dumps({"kind": "binary", "rows": rows}) + "\n"
    return complex_matrix_text(m)


def code_file_text(words: tuple[Word, ...]) -> str:
    lines = [f"{words[0].q} {words[0].n}"]
    lines += [" ".join(str(s) for s in w.symbols) for w in words]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- designs

@dataclass(frozen=True)
class Design:
    """N subsets of [ground_size], each of size set_size, as int tuples."""

    ground_size: int
    set_size: int
    sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(len(s) != self.set_size for s in self.sets):
            raise DomainError("every set must have exactly set_size elements")
        elements = np.sort(np.array(self.sets, dtype=np.int64)
                           .reshape(len(self.sets), self.set_size), axis=1)
        if (elements[:, 1:] == elements[:, :-1]).any():
            raise DomainError("every set must have exactly set_size elements")
        if ((elements < 0) | (elements >= self.ground_size)).any():
            raise DomainError("set elements must lie in the ground set")


def design_from_code(c) -> Design:
    """Sets = supports of the Boolean embeddings of the codewords of a Code."""
    # symbol s at coordinate i is element i * q + s, so each set is sorted
    supports = c.array() + c.q * np.arange(c.n)
    return Design(c.n * c.q, c.n, tuple(map(tuple, supports.tolist())))


def design_from_matrix(m: np.ndarray) -> Design:
    b = as_binary(m)
    sizes = np.unique(b.sum(axis=0))
    if len(sizes) != 1:
        raise DomainError("matrix columns have non-uniform support sizes")
    supports = np.nonzero(b.T)[1].reshape(b.shape[1], int(sizes[0]))
    return Design(b.shape[0], int(sizes[0]), tuple(map(tuple, supports.tolist())))


def matrix_from_design(d: Design) -> np.ndarray:
    """0/1 int64 matrix whose column i is the characteristic vector of set i."""
    m = np.zeros((d.ground_size, len(d.sets)), dtype=np.int64)
    elements = np.array(d.sets, dtype=np.intp).reshape(len(d.sets), d.set_size)
    m[elements, np.arange(len(d.sets))[:, None]] = 1
    return m


# ---------------------------------------------------------------- distances

def broadcast_pairwise_distances(a: np.ndarray) -> np.ndarray:
    """The |C| x |C| distance matrix from one |C| x |C| x n comparison."""
    return (a[:, None, :] != a[None, :, :]).sum(axis=2)


# ---------------------------------------------------------------- exact 0/1 counts

def agreements(xt: np.ndarray, yt: np.ndarray) -> np.ndarray:
    """Counts of the coordinates where column i of xt equals column j of yt,
    one coordinate (one row of each) at a time."""
    agree = np.zeros((xt.shape[1], yt.shape[1]), dtype=np.int64)
    for xk, yk in zip(xt, yt):
        agree += xk[:, None] == yk
    return agree


def int64_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 0/1 operands, as a non-BLAS int64 product."""
    return np.asarray(a).astype(np.int64) @ np.asarray(b).astype(np.int64)


def _lex_first_max_pair(counts: np.ndarray) -> tuple[int, tuple[int, int]]:
    """(largest count, lex-first pair i < j attaining it) of a full matrix."""
    upper = np.triu(np.ones(counts.shape, dtype=bool), k=1)
    best = counts[upper].max()
    i, j = np.argwhere(upper & (counts == best))[0]
    return int(best), (int(i), int(j))


def min_distance(c) -> DistanceReport:
    t = c.array().T
    most, witness = _lex_first_max_pair(agreements(t, t))
    return DistanceReport(c.n - most, Fraction(c.n - most, c.n), witness)


def verify_design(d) -> DesignReport:
    if d.matrix.shape[1] < 2:
        return DesignReport(d.ground_size, d.set_size, 0, None)
    return DesignReport(d.ground_size, d.set_size,
                        *_lex_first_max_pair(int64_counts(d.matrix.T, d.matrix)))


def gt_encode(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (int64_counts(np.asarray(x) != 0, as_binary(m).T) > 0).astype(np.int64)


def gt_decode_cover(m: np.ndarray, y: np.ndarray) -> np.ndarray:
    return (int64_counts(np.asarray(y) == 0, as_binary(m)) == 0).astype(np.int64)


# ---------------------------------------------------------------- bias and list sizes

# codeword pairs per block in code_bias
PAIR_BLOCK = 1 << 14


def code_bias(c) -> float:
    """Max bias of a codeword difference: pairs (i, j), i < j, indexed in lex
    order by hand, and each difference's symbol counts taken one symbol at a
    time, with the terms abs(k/n - 1.0/q) added in symbol order."""
    size = len(c)
    if size < 2:
        raise DomainError("code bias needs at least two codewords")
    q, n = c.q, c.n
    a = c.array().astype(np.min_scalar_type(2 * q))
    count_dtype = np.min_scalar_type(n)
    rows = np.arange(size, dtype=np.int64)
    # row i starts at first[i]
    first = rows * (size - 1) - rows * (rows - 1) // 2
    total = size * (size - 1) // 2
    uniform = 1.0 / q
    best = 0.0
    for p0 in range(0, total, PAIR_BLOCK):
        pair = np.arange(p0, min(p0 + PAIR_BLOCK, total), dtype=np.int64)
        i = np.searchsorted(first, pair, side="right") - 1
        j = pair - first[i] + i + 1
        diff = np.ascontiguousarray(((a[i] + q - a[j]) % q).T)
        sums = np.zeros(len(pair))
        for s in range(q):
            counts = np.add.reduce(diff == s, axis=0, dtype=count_dtype)
            sums += np.abs(counts / n - uniform)
        best = max(best, float((0.5 * sums).max()))
    return best


def distance_table(q: int, start: int, stop: int, part: np.ndarray,
                   dtype: np.dtype) -> np.ndarray:
    """Distances from half-centers start..stop-1 (base-q digits, most
    significant first) to the rows of `part`, one coordinate at a time."""
    k = part.shape[1]
    index = np.arange(start, stop, dtype=np.int64)
    table = np.zeros((len(part), stop - start), dtype=dtype)
    for j in range(k):
        digit = (index // q ** (k - 1 - j)) % q
        table += digit[None, :] != part[:, j, None]
    return table


def center_word(q: int, n: int, index: int) -> Word:
    """The center at position `index` of itertools.product(range(q), repeat=n)."""
    return Word(q, tuple((index // q ** (n - 1 - j)) % q for j in range(n)))


# ---------------------------------------------------------------- subset certifiers

# subsets per batched Gram/SVD call in rip2_profile and kernel_injectivity
SUBSET_BLOCK = 1 << 9


def subsets(n_items: int, size: int) -> np.ndarray:
    """Every size-subset of range(n_items), one per row, in combinations order."""
    count = math.comb(n_items, size)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(n_items), size)),
        dtype=np.int64,
        count=count * size,
    )
    return flat.reshape(count, size)


def rip2_profile(m: np.ndarray, L: int) -> list[RipReport]:
    m = as_matrix(m)
    n_cols = m.shape[1]
    reports: list[RipReport] = []
    best = -1.0
    best_witness: tuple[int, ...] = ()
    checked = 0
    for s in range(1, L + 1):
        idx = subsets(n_cols, s)
        for lo in range(0, len(idx), SUBSET_BLOCK):
            part = idx[lo:lo + SUBSET_BLOCK]
            cols = m[:, part]  # (n, K, s)
            gram = np.einsum("nks,nkt->kst", cols.conj(), cols)
            eigs = np.linalg.eigvalsh(gram)
            sv = np.sqrt(np.clip(eigs, 0.0, None))
            alphas = np.maximum(sv[:, -1] - 1.0, 1.0 - sv[:, 0])
            pos = int(np.argmax(alphas))
            if float(alphas[pos]) > best:
                best = float(alphas[pos])
                best_witness = tuple(int(i) for i in part[pos])
        checked += len(idx)
        reports.append(RipReport(s, best, best_witness, checked))
    return reports


def flat_rip_constant(m: np.ndarray, L0: int) -> FlatRipReport:
    m = as_matrix(m)
    n_cols = m.shape[1]
    best = -1.0
    witness = ((), ())
    checked = 0
    for s in range(1, L0 + 1):
        idx = subsets(n_cols, s)
        sums = m[:, idx].sum(axis=2).T  # (K, n)
        member = np.zeros((len(idx), n_cols), dtype=bool)
        member[np.arange(len(idx))[:, None], idx] = True
        disjoint = int64_counts(member, member.T) == 0
        vals = np.abs(sums.conj() @ sums.T) / s
        upper = np.triu(np.ones_like(disjoint), k=1)
        mask = disjoint & upper.astype(bool)
        if not mask.any():
            continue
        size_best = float(vals[mask].max())
        checked += int(mask.sum())
        if size_best > best:
            ties = np.argwhere(mask & (vals >= size_best))
            i, j = (int(ties[0][0]), int(ties[0][1]))
            best = size_best
            witness = (
                tuple(int(t) for t in idx[i]),
                tuple(int(t) for t in idx[j]),
            )
    return FlatRipReport(L0, best, witness, True, checked)


def kernel_injectivity(m: np.ndarray, L: int) -> KernelReport:
    m = as_matrix(m)
    n_rows, n_cols = m.shape
    s = min(2 * L, n_cols)
    if s > n_rows:
        return KernelReport(L, 0.0, False, tuple(range(s)), 1)
    idx = subsets(n_cols, s)
    worst = math.inf
    worst_witness: tuple[int, ...] | None = None
    for lo in range(0, len(idx), SUBSET_BLOCK):
        part = idx[lo:lo + SUBSET_BLOCK]
        cols = np.transpose(m[:, part], (1, 0, 2))  # (K, n, s)
        sv = np.linalg.svd(cols, compute_uv=False)
        mins = sv[:, -1]
        pos = int(np.argmin(mins))
        if float(mins[pos]) < worst:
            worst = float(mins[pos])
            worst_witness = tuple(int(i) for i in part[pos])
    injective = worst > RANK_TOL
    return KernelReport(
        L, worst, injective, None if injective else worst_witness, len(idx)
    )


def subset_totals(c, L: int) -> tuple[np.ndarray, np.ndarray]:
    """Total pairwise distance of every L-subset, in lex order."""
    d = broadcast_pairwise_distances(c.array())
    idx = subsets(len(c), L)
    totals = np.zeros(len(idx), dtype=np.int64)
    for a, b in combinations(range(L), 2):
        totals += d[idx[:, a], idx[:, b]]
    return totals, idx


def lwise_distance(c, L: int) -> DistanceReport:
    """The lex-first L-set of least total, and its exact ratio."""
    totals, idx = subset_totals(c, L)
    pos = int(np.argmin(totals))
    rel = Fraction(int(totals[pos]), c.n * math.comb(L, 2))
    return DistanceReport(float(rel) * c.n, rel, tuple(int(i) for i in idx[pos]))


def lwise_ratio(c, witness) -> Fraction:
    """The exact average relative pairwise distance of the L-set `witness`:
    its words' total pairwise distance, counted coordinate by coordinate,
    over n * C(L, 2)."""
    words = c.array()[list(witness)]
    total = int((words[:, None] != words[None]).sum()) // 2
    return Fraction(total, c.n * math.comb(len(witness), 2))


def lwise_bias(c, L: int) -> float:
    totals, _ = subset_totals(c, L)
    return float(np.abs(totals / (c.n * math.comb(L, 2)) - 0.5).max())


def cs_decode_exhaustive(m: np.ndarray, y: np.ndarray, L: int,
                         tol: float) -> RecoveryResult:
    m = np.asarray(m, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    n_cols = m.shape[1]
    accept = tol * (1.0 + float(np.linalg.norm(y)))
    tried = 0
    for size in range(0, L + 1):
        for support in combinations(range(n_cols), size):
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


def must_solve(m_y: np.ndarray, rows: np.ndarray, accept: float, beta: float,
               col_sq: np.ndarray) -> np.ndarray:
    """The decoder's filter for one measurement y, as it was before the
    decoder took a stack: False for each support of `rows` whose computed
    least-squares residual is proved above `accept` without a solve.  Row j
    of m_y is column j of m and its last row is y; beta = ||y||.

    Its proof is `recovery._must_solve`'s with step 1 read from one
    Householder QR of [A y] per support (Higham, Thm 19.4): it computes R' =
    [[R~, z], [0, rho']] with [A + dA, y + dy] = Q1 R' for an exactly
    unitary Q1, ||dA||_F <= eps a and ||dy|| <= eps beta, so for every c,
    ||(y + dy) - (A + dA) c|| >= |rho'|, and r~ = |rho'| as computed.  The
    margin 2^14 eps (beta + accept) and the conditioning test are the same.
    """
    k, s = rows.shape
    n = m_y.shape[1]
    keep = np.ones(k, dtype=bool)
    if not (1 <= s < n and n * s <= 2**20 and 2.0**-400 <= beta <= 2.0**400):
        return keep
    eps = _QR_MARGIN * n * s
    a2 = col_sq[rows].sum(axis=1)
    fit = np.flatnonzero((2.0**-800 <= a2) & (a2 <= 2.0**800))
    rows, a2 = rows[fit], a2[fit]
    # one QR of [A_S y] per support: (K, n, s + 1), y the last column
    r = np.linalg.qr(m_y[np.column_stack((rows, np.full(len(rows), -1)))]
                     .transpose(0, 2, 1), mode="r")
    resid = np.abs(r[:, s, s])
    tri = r[:, :s, :s]
    gram = np.ascontiguousarray((tri.conj().transpose(0, 2, 1) @ tri).transpose(1, 2, 0))
    diag = np.arange(s)
    gram[diag, diag] -= a2 * (_COND * _COND + _QR_MARGIN * s**3)
    margin = 2.0**14 * eps * (beta + accept)
    skip = _pivots_positive(gram, 0.0) & (resid > accept + margin) & np.isfinite(resid)
    keep[fit[skip]] = False
    return keep


def nodes_distinct(nodes: np.ndarray) -> bool:
    """No two of the finite nodes within NODE_GAP_TOL, read from the whole
    N x N array of their distances."""
    diffs = np.abs(nodes[:, None] - nodes[None, :])
    np.fill_diagonal(diffs, np.inf)
    return not diffs.min() <= NODE_GAP_TOL


def half_radius(c, epsilon: float) -> int:
    """The absolute radius floor((1/2 - eps) n), clamped at 0, for the
    decimal eps prints as."""
    return math.floor(max(Fraction(1, 2) - Fraction(str(epsilon)), 0) * c.n)


def johnson_check(c, epsilon: float) -> JohnsonReport:
    """Premise and list bound for the decimal eps prints as, judged exactly;
    the refusals are the library's."""
    if c.q != 2:
        raise DomainError("the Johnson-type check applies to binary codes")
    johnson_inverse_square(epsilon)
    exact = Fraction(str(epsilon))
    list_bound = math.floor(1 / exact**2)
    l_prime = list_bound + 1
    detail = {"L_prime": l_prime, "epsilon": epsilon}
    premise = conclusion = None
    if l_prime > len(c):
        verdict = "not-applicable"
    else:
        distance = codes.lwise_distance(c, l_prime).relative
        premise = float(distance)
        detail["radius"] = half_radius(c, epsilon)
        conclusion = float(list_sizes_at_radii(c, detail["radius"])[0])
        if distance < Fraction(1, 2) - exact**2:
            verdict = "vacuous"
        else:
            verdict = "pass" if conclusion <= list_bound else "fail"
    return JohnsonReport(premise, 0.5 - epsilon**2, conclusion, float(list_bound), verdict,
                         detail)


def converse_check(c, L: int, epsilon: float) -> ConverseReport:
    """The list size is taken before the L'-wise distance."""
    if c.q != 2:
        raise DomainError("the converse check applies to binary codes")
    if not (0.0 < epsilon <= 0.5):
        raise DomainError("need 0 < epsilon <= 1/2")
    if L < 1:
        raise DomainError(f"need L >= 1, got L={L}")
    if L > sys.float_info.max:
        raise DomainError(f"need L within the float range, L <= {sys.float_info.max}")
    if not math.isfinite(L / epsilon):
        raise DomainError(f"need L/epsilon to be a finite float, got epsilon={epsilon}")
    l_prime = math.ceil(L / epsilon)
    detail = {"L": L, "L_prime": l_prime, "epsilon": epsilon}
    premise = bound = conclusion = threshold = None
    if l_prime > len(c):
        verdict = "not-applicable"
    else:
        detail["radius"] = half_radius(c, epsilon)
        premise, bound = float(list_sizes_at_radii(c, detail["radius"])[0]), float(L)
        distance = codes.lwise_distance(c, l_prime).relative
        conclusion, threshold = float(distance), 0.5 - 2.0 * epsilon
        if premise >= L:
            verdict = "vacuous"
        else:
            exact = Fraction(str(epsilon))
            verdict = "pass" if distance >= Fraction(1, 2) - 2 * exact else "fail"
    return ConverseReport(premise, bound, conclusion, threshold, verdict, detail)


def random_supports(n_cols: int, L: int, trials: int, seed: int, batch: int):
    """`trials` seeded supports, one weight and one `rng.choice` per draw,
    yielded in batches of index rows, each sorted and padded with n_cols."""
    rng = np.random.default_rng(seed)
    for start in range(0, trials, batch):
        rows = np.full((min(batch, trials - start), L), n_cols)
        for row in rows:
            support = rng.choice(n_cols, size=int(rng.integers(0, L + 1)), replace=False)
            row[:len(support)] = support
        rows.sort(axis=1)
        yield rows
