"""Word-by-word reference implementations, kept as `==` oracles.

The library holds a code as one (N, n) array and builds, embeds and
measures it with array maps.  The scalar chain it replaced lives on here:
empirical distributions, statistical distance and word bias, Hamming
distance between two Words (and the mismatch error only these raise),
constant shifts and differences, and the Word-chain builders
(linear-code enumeration, Reed-Solomon, balance closure, quotient by the
all-ones word, spherical and Boolean embeddings, code files), and the
design as a tuple of int tuples with its conversions to and from 0/1
matrices.  No library code imports this module.  Builders return the sorted tuple of distinct
Words, the order the library's Code uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import numpy as np

from sparsecode.errors import DomainError, PreconditionError, SparseCodeError
from sparsecode.group_testing import as_binary
from sparsecode.words import Word

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
