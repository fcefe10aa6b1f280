"""Enumeration caps guarding exhaustive certifiers, and the enumeration
orders they rest on: the one lex-order subset walk and lex-first tie-break
they share, and the product order of messages and centers.

Exceeding a cap is always an explicit error; there is no sampling fallback.
The SPARSECODE_CAP environment variable overrides the subset/center caps
globally (used by the CLI, honored everywhere); it must be an integer >= 1.
"""

from __future__ import annotations

import math
import os
from itertools import chain, combinations, islice

import numpy as np

from .errors import DomainError, EnumerationCapError

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


def require(count: int, limit: int, what: str) -> None:
    """Refuse to enumerate `count` items of a kind when that exceeds its cap."""
    if count > limit:
        raise EnumerationCapError(f"{count} {what} exceed cap {limit}")


def product_rows(q: int, length: int, start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of itertools.product(range(q), repeat=length), as
    int64 digits: row x holds the base-q digits of x, most significant first."""
    powers = q ** np.arange(length - 1, -1, -1, dtype=np.int64)
    return np.arange(start, stop, dtype=np.int64)[:, None] // powers % q


def subset_blocks(n_items: int, size: int, first: int, largest: int):
    """Every size-subset of range(n_items) in lex (itertools.combinations)
    order, one per int64 row, which every lex-first witness rests on.

    Yields (start, rows) for consecutive blocks, built lazily: `first` rows,
    then twice as many each time up to `largest`.  Callers check their cap
    before they walk.
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


def subsets(n_items: int, size: int) -> np.ndarray:
    """Every size-subset of range(n_items), one per row: the walk in one block."""
    count = math.comb(n_items, size)
    for _, rows in subset_blocks(n_items, size, count, count):
        return rows
    return np.empty((0, size), dtype=np.int64)


def lex_first_max(score, n_items: int, size: int, block: int):
    """(largest score, lex-first subset attaining it) over the size-subsets of
    range(n_items), of which there must be one.

    score(rows) scores a block of `block` rows of subsets(n_items, size).
    Within a block argmax is the lex-first maximum, and a later block wins
    only on a strict >, so the block size never moves a witness.
    """
    best, witness = None, ()
    for _, rows in subset_blocks(n_items, size, block, block):
        s = score(rows)
        pos = int(np.argmax(s))
        if best is None or s[pos] > best:
            best, witness = s[pos].item(), tuple(rows[pos].tolist())
    return best, witness


def lex_first_max_pair(scores, size: int, block: int):
    """(largest score, lex-first pair attaining it) over pairs i < j of
    range(size >= 2).

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
        # only the first i1 - i0 columns hold pairs with j <= i
        s[:, :i1 - i0][np.tri(i1 - i0, dtype=bool)] = -1
        r, c = divmod(int(np.argmax(s)), s.shape[1])
        if s[r, c] > best:
            best, witness = s[r, c].item(), (i0 + r, i0 + c)
    return best, witness
