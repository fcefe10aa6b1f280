"""Enumeration caps guarding exhaustive certifiers, and the enumeration
orders they rest on: lex subset order, walked as rows or as prefixes that
carry pair sums, the one lex-first tie-break they share, and the product
order of messages and centers.

Every certifier counts its space and checks it against the cap of its kind
before it walks: 10^7 subsets, pairs, choices or supports, 2^20 codewords,
2^22 centers.  `supports` is the one walk over the supports of weight <= L,
which the exhaustive decoder and both group-testing round trips share; it
checks its own count when it is called.  Exceeding a cap is always an
explicit error; there is no sampling fallback.  The SPARSECODE_CAP
environment variable, an integer >= 1, is the one override: it replaces all
three caps for every walk, in the library and the CLI alike.  No function
takes a cap argument.
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


def _resolve(default: int) -> int:
    """SPARSECODE_CAP, which must be an integer >= 1, if it is set; else the default."""
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return default
    message = f"{_ENV_VAR} must be an integer >= 1, got {raw!r}"
    try:
        cap = int(raw)
    except ValueError:
        raise DomainError(message) from None
    if cap < 1:
        raise DomainError(message)
    return cap


def subset_cap() -> int:
    return _resolve(DEFAULT_SUBSET_CAP)


def codeword_cap() -> int:
    return _resolve(DEFAULT_CODEWORD_CAP)


def center_cap() -> int:
    return _resolve(DEFAULT_CENTER_CAP)


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


def supports(n_items: int, most: int, block: int):
    """Every support of size 0..most in range(n_items): size by size, each
    size in lex order, as row blocks of one size and at most `block` rows.

    The supports are counted against the subset cap here, at the call, so a
    refusal comes before any block; the walk itself is lazy.
    """
    require(sum(math.comb(n_items, s) for s in range(most + 1)), subset_cap(),
            "supports")
    return (rows for size in range(most + 1)
            for _, rows in subset_blocks(n_items, size, block, block))


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


def lex_first_max_pair_sum(d: np.ndarray, size: int, score, block: int):
    """(largest score, lex-first subset attaining it) over the size-subsets S
    of range(len(d)), 2 <= size <= len(d), scored by their pair sums.

    total(S) is the exact int64 sum of d[i, j] over the pairs i < j of S,
    for an integer matrix d, and score(totals) scores at most
    `block` totals of consecutive subsets.  The walk is the lex-order
    recursion: the size-s subsets are the size-(s-1) prefixes in lex order,
    each followed by each larger item that leaves room for the rest.  A
    prefix carries total(S), and R[S], the sum of the rows d[i] over i in S,
    is built for a chunk of prefixes only when it extends them:
    total(S + {j}) = total(S) + R[S, j] and R[S + {j}] = R[S] + d[j].  The
    last extension reads R[S, j] as R[parent, j] + d[last, j], so no rows are
    built for the largest level.  A prefix keeps only its last item and its
    parent, and the witness is traced back only when it changes.  No level
    emits more than `block` children at a time, so memory is
    O(size * block * len(d)).  Within a chunk argmax is the lex-first
    maximum, and a later chunk wins only on a strict >.
    """
    d = np.ascontiguousarray(d, dtype=np.int64)
    n, flat = len(d), d.reshape(-1)
    # the s-th item of a subset (s = 1..size) is at most tail + s - 1
    tail = n - size

    def firsts():
        """Chunks of the size-1 prefixes {0}, ..., {tail}: R of their parent is 0."""
        zero = np.zeros((1, n), dtype=np.int64)
        for a in range(0, tail + 1, block):
            last = np.arange(a, min(a + block, tail + 1))
            yield (1, last, np.zeros(len(last), dtype=np.intp),
                   np.zeros(len(last), dtype=np.int64), zero, None)

    def children(s, last, up, total, above, trail):
        """Chunks of the size-(s+1) extensions of a chunk of size-s prefixes:
        prefix k has last item last[k] and its parent's R in above[up[k]]."""
        top = tail + s  # the largest item a child may take
        counts = top - last
        ends = counts.cumsum()
        p0, taken = 0, 0
        while p0 < len(last):
            if int(ends[-1]) - taken <= block:
                p1 = len(last)
            else:  # as many prefixes as fit in a block, at least one
                p1 = max(int(ends.searchsorted(taken + block, "right")), p0 + 1)
            c, head, hops = counts[p0:p1], last[p0:p1], up[p0:p1]
            parent = np.arange(p1 - p0).repeat(c)
            # prefix k's children are last[k] + 1, ..., top in turn
            item = np.arange(int(ends[p1 - 1]) - taken)
            item += (top + 1 + taken - ends[p0:p1]).repeat(c)
            sums = total[p0:p1].repeat(c)
            if s + 1 == size:
                rows = None
                sums += above.reshape(-1)[(hops * n).repeat(c) + item]
                sums += flat[(head * n).repeat(c) + item]
            else:
                rows = above[hops] + d[head]
                sums += rows.reshape(-1)[parent * n + item]
            node = (head, hops, trail)
            for a in range(0, len(item), block):
                yield (s + 1, item[a:a + block], parent[a:a + block],
                       sums[a:a + block], rows, node)
            p0, taken = p1, int(ends[p1 - 1])

    best, witness = None, ()
    walks = [firsts()]
    while walks:
        chunk = next(walks[-1], None)
        if chunk is None:
            walks.pop()
        elif chunk[0] < size:
            walks.append(children(*chunk))
        else:
            _, last, up, total, _, trail = chunk
            scores = score(total)
            pos = int(np.argmax(scores))
            if best is None or scores[pos] > best:
                best, items, k = scores[pos].item(), [last[pos]], up[pos]
                for _ in range(size - 1):
                    prefix_last, prefix_up, trail = trail
                    items.append(prefix_last[k])
                    k = prefix_up[k]
                witness = tuple(int(i) for i in reversed(items))
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
