"""Enumeration caps guarding exhaustive certifiers, and the lex-order
enumerators they share.

Exceeding a cap is always an explicit error; there is no sampling fallback.
The SPARSECODE_CAP environment variable overrides the subset/center caps
globally (used by the CLI, honored everywhere); it must be an integer >= 1.
"""

from __future__ import annotations

import math
import os
from itertools import chain, combinations, islice

import numpy as np

from .errors import DomainError

DEFAULT_CODEWORD_CAP = 2**20
DEFAULT_SUBSET_CAP = 10**7
DEFAULT_CENTER_CAP = 2**22

_ENV_VAR = "SPARSECODE_CAP"


def _env_cap() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    message = f"{_ENV_VAR} must be an integer >= 1, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(message) from None
    if value < 1:
        raise DomainError(message)
    return value


def subset_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = _env_cap()
    return DEFAULT_SUBSET_CAP if env is None else env


def codeword_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = _env_cap()
    return DEFAULT_CODEWORD_CAP if env is None else env


def center_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = _env_cap()
    return DEFAULT_CENTER_CAP if env is None else env


def subsets(n_items: int, size: int) -> np.ndarray:
    """Every size-subset of range(n_items), one per row, in lexicographic order.

    Row order is itertools.combinations order, which every lex-first witness
    rests on.  Callers check their cap before asking for the rows.
    """
    count = math.comb(n_items, size)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(n_items), size)),
        dtype=np.int64,
        count=count * size,
    )
    return flat.reshape(count, size)


def subset_blocks(n_items: int, size: int, first: int, largest: int):
    """The rows of subsets(n_items, size) in consecutive blocks, built lazily.

    Yields (start, rows) with rows equal to subsets(n_items, size)[start:
    start + len(rows)].  Blocks hold `first` rows, then twice as many each
    time up to `largest`, so a caller that stops at an early witness builds
    only a few rows.
    """
    combos = combinations(range(n_items), size)
    total = math.comb(n_items, size)
    start, block = 0, first
    while start < total:
        count = min(block, total - start)
        flat = np.fromiter(chain.from_iterable(islice(combos, count)),
                           dtype=np.int64, count=count * size)
        yield start, flat.reshape(count, size)
        start += count
        block = min(2 * block, largest)


def lex_first_max_pair(scores, size: int, block: int) -> tuple[int, tuple[int, int]]:
    """Largest score over pairs i < j of range(size >= 2), at its lex-first pair.

    scores(i0, i1) returns a signed array of the scores of rows i0..i1-1
    against items i0..size-1, all >= 0; the caller may write to it.  Rows
    go in blocks of `block`, so memory is O(block * size).  Within a block
    the row-major argmax is the lex-first maximum, and a later block wins
    only on a strict >.
    """
    best, witness = -1, (0, 1)
    for i0 in range(0, size - 1, block):
        i1 = min(i0 + block, size - 1)
        s = scores(i0, i1)
        s[np.arange(i1 - i0)[:, None] >= np.arange(size - i0)] = -1  # j <= i
        r, c = divmod(int(np.argmax(s)), s.shape[1])
        if s[r, c] > best:
            best, witness = int(s[r, c]), (i0 + r, i0 + c)
    return best, witness
