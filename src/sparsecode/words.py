"""Finite-alphabet words and empirical distributions.

Symbols always live in the integer range [0, q).  The additive structure of
Z_q is used for constant shifts and codeword differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, DomainError

MASS_TOLERANCE = 1e-12


def is_prime(q: int) -> bool:
    if q < 2:
        return False
    for p in range(2, int(math.isqrt(q)) + 1):
        if q % p == 0:
            return False
    return True


@dataclass(frozen=True, order=True)
class Word:
    """A vector over Z_q, stored as a tuple of ints in [0, q)."""

    q: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        if self.q < 2:
            raise DomainError(f"alphabet size must be >= 2, got {self.q}")
        if len(self.symbols) == 0:
            raise DomainError("word must have positive length")
        if any(not (0 <= s < self.q) for s in self.symbols):
            raise DomainError(f"symbols must lie in [0, {self.q})")

    @property
    def n(self) -> int:
        return len(self.symbols)

    def shift(self, alpha: int) -> "Word":
        """Add alpha to every position, mod q."""
        return Word(self.q, tuple((s + alpha) % self.q for s in self.symbols))

    def diff(self, other: "Word") -> "Word":
        """Componentwise difference self - other, mod q."""
        _check_compatible(self, other)
        return Word(self.q, tuple((a - b) % self.q
                                  for a, b in zip(self.symbols, other.symbols)))


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


def hamming_distance(a: Word, b: Word) -> int:
    """Number of positions where a and b differ."""
    _check_compatible(a, b)
    return sum(x != y for x, y in zip(a.symbols, b.symbols))


def statistical_distance(p: Distribution, r: Distribution) -> float:
    """Half the l1 distance between two distributions on the same alphabet.

    The terms are added one at a time in symbol order (sum() compensates
    float rounding from Python 3.12 on), so the value is the same on every
    interpreter and codes.code_bias can reproduce it bit for bit.
    """
    if p.q != r.q:
        raise DimensionMismatchError(f"alphabet mismatch: {p.q} vs {r.q}")
    total = 0.0
    for x, y in zip(p.masses, r.masses):
        total += abs(x - y)
    return 0.5 * total


def empirical_distribution(c: Word) -> Distribution:
    """Fraction of positions of c holding each symbol.

    Frequencies are exact rationals; the float conversion is the only
    rounding that happens.
    """
    counts = [0] * c.q
    for s in c.symbols:
        counts[s] += 1
    return Distribution(c.q, tuple(float(Fraction(k, c.n)) for k in counts))


def bias_of_word(c: Word) -> float:
    """Statistical distance of the empirical symbol distribution to uniform.

    A word is eps-biased iff this value is at most eps.
    """
    return statistical_distance(empirical_distribution(c), Distribution.uniform(c.q))

