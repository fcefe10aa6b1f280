"""Words over Z_q: the scalar boundary type, and the primality test.

Symbols always live in the integer range [0, q).  A `Word` is what crosses
the library boundary one codeword at a time (list-decoding centers, a
column recovered from a spherical embedding, iteration over a `Code`);
codes themselves are arrays (see codes.Code).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError


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
