"""Enumeration caps guarding exhaustive certifiers, and the enumeration
orders they rest on: lex subset order, walked as rows or as prefixes that
carry pair sums, the one lex-first rule they share (`LexFirst`, which on a
0/1 score is the first-hit rule of the scans that name a first cover,
failure or bad entry), and the product order of list-decoding centers (a
linear code's words come from its span in `codes`).

The lex rows of each shape (n_items, size) form one read-only table per
process, grown only as far as a walk reaches and shared by every later
walk of that shape.  The tables together are bounded in bytes; a shape that
does not fit is built block by block and dropped, as if there were none.
Every walk owns its block size, so no caller passes one, and only `caps`
walks the lex blocks.  `lex_first_max` walks one schedule for every
caller (RIP-2, kernel injectivity, flat RIP's exact path and each target
of the disjunct scan): a small first block while its `LexFirst` has no
incumbent (no bound can act before one), a larger one when it has, then
doubling up to _SUBSET_BLOCK rows.  A walk of a 0/1 score stops at the
block of its first hit, which no later offer can replace.  A caller may
hand it a bound that marks rows proved strictly below the incumbent, and
the walk scores only the rest.  The pair walk's memory is
O(_PAIR_BLOCK * size), and the pair-sum walk starts from the empty prefix,
so that one step makes every level; a caller may hand it a cut that names
prefixes whose completions cannot hold the lex-first maximum, and the walk
extends only the rest.  These two walks are the only ones that prune, and
each states why its pruning moves no witness.  Both pair walks can
be anchored at item 0: they then walk only the pairs or subsets that
contain it, which come first in lex order (see `codes` for when that is
the whole answer).

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
import mmap
import os
import threading
from itertools import chain, combinations, islice

import numpy as np

from .errors import DomainError, EnumerationCapError

DEFAULT_CODEWORD_CAP = 2**20
DEFAULT_SUBSET_CAP = 10**7
DEFAULT_CENTER_CAP = 2**22

_ENV_VAR = "SPARSECODE_CAP"

# bytes of lex tables kept per process, over all shapes
_TABLE_BYTES = 32 << 20
# lex_first_max's block schedule: its first block without and with an
# incumbent, and the largest block
_FIRST_BLOCK = 1 << 6
_FIRST_BLOCK_LED = 1 << 9
_SUBSET_BLOCK = 1 << 11
# chunk size of lex_first_max_pair_sum (L-subsets); the fewest row entries
# that a walk must build for its `cut` to run, and the most items that a
# prefix the cut sees may still have to add
_LSET_BLOCK = 1 << 13
_CUT_ENTRIES = 75_000
_CUT_K = 3
# rows per block of lex_first_max_pair, and supports per block of supports
_PAIR_BLOCK = 1 << 7
_SUPPORT_BLOCK = 1 << 10


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


def _lex_rows(combos, size: int, count: int) -> np.ndarray:
    """The next `count` subsets of the lex iterator `combos`, one per
    read-only int64 row."""
    rows = np.fromiter(chain.from_iterable(islice(combos, count)),
                       dtype=np.int64, count=count * size).reshape(count, size)
    rows.flags.writeable = False
    return rows


class _LexTable:
    """The lex rows of one shape, built as far as walks have reached.

    The rows live in an anonymous memory map, outside the heap: only the
    pages of rows built become resident, and a kept table holds no freed
    heap memory in place.  Walks read a read-only view; a built row never
    changes.
    """

    def __init__(self, n_items: int, size: int, total: int):
        self._combos = combinations(range(n_items), size)
        self._built = 0
        self._rows = np.frombuffer(mmap.mmap(-1, total * size * 8),
                                   dtype=np.int64).reshape(total, size)
        self._view = self._rows.view()
        self._view.flags.writeable = False

    @property
    def nbytes(self) -> int:
        return self._rows.nbytes

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows start..stop-1, built first if no walk has reached them yet."""
        if self._built < stop:
            with _LOCK:
                if self._built < stop:
                    self._rows[self._built:stop] = _lex_rows(
                        self._combos, self._rows.shape[1], stop - self._built)
                    self._built = stop
        return self._view[start:stop]


# (n_items, size) -> its table, for every shape kept; _LOCK guards the dict
# and the growth of every table in it
_TABLES: dict[tuple[int, int], _LexTable] = {}
_LOCK = threading.Lock()


def _table(n_items: int, size: int, total: int) -> _LexTable | None:
    """The kept table of this shape, made if it fits the byte budget; else None."""
    with _LOCK:
        table = _TABLES.get((n_items, size))
        nbytes = total * size * 8
        if table is None and 0 < nbytes <= _TABLE_BYTES - sum(
                t.nbytes for t in _TABLES.values()):
            table = _TABLES[n_items, size] = _LexTable(n_items, size, total)
        return table


def _subset_blocks(n_items: int, size: int, first: int, largest: int):
    """Every size-subset of range(n_items) in lex (itertools.combinations)
    order, one per read-only int64 row, which every lex-first witness rests on.

    Yields consecutive blocks of rows, built lazily: `first` rows, then
    twice as many each time up to `largest`.  A kept table grows only
    as far as a walk reaches; a shape past the byte budget is built block by
    block from its own iterator and dropped.  Callers check their cap before
    they walk.
    """
    total = math.comb(n_items, size)
    table = _table(n_items, size, total)
    combos = combinations(range(n_items), size) if table is None else None
    start, block = 0, first
    while start < total:
        stop = min(start + block, total)
        yield (_lex_rows(combos, size, stop - start) if table is None
               else table.rows(start, stop))
        start, block = stop, min(2 * block, largest)


def supports(n_items: int, most: int):
    """Every support of size 0..most in range(n_items): size by size, each
    size in lex order, as row blocks of one size and <= _SUPPORT_BLOCK rows.

    The supports are counted against the subset cap here, at the call, so a
    refusal comes before any block; the walk itself is lazy.
    """
    require(sum(math.comb(n_items, s) for s in range(most + 1)), subset_cap(),
            "supports")
    return (rows for size in range(most + 1)
            for rows in _subset_blocks(n_items, size, _SUPPORT_BLOCK, _SUPPORT_BLOCK))


def subsets(n_items: int, size: int) -> np.ndarray:
    """Every size-subset of range(n_items), one per row: the walk in one block."""
    count = math.comb(n_items, size)
    for rows in _subset_blocks(n_items, size, count, count):
        return rows
    return np.empty((0, size), dtype=np.int64)


class LexFirst:
    """The one lex-first rule behind every witness: blocks of scores are
    offered in enumeration order, a block's first maximum (its argmax, in C
    order) is its candidate, and a candidate replaces the incumbent only at
    the first offer or on a strict >.  `best` is the incumbent's score, None
    before any offer, and `witness` what name(pos) built for it.

    A 0/1 score makes it the first-hit rule: `best` turns true at the first
    hit in enumeration order, whose position `witness` names, and no later
    offer replaces it, so a scan may stop there.  Until then a bool `best`
    is False and `witness` is (): name is called only for a hit.  Every
    first position the library reports, a maximum's or a hit's, is taken
    here."""

    def __init__(self):
        self.best, self.witness = None, ()

    def offer(self, scores: np.ndarray, name) -> None:
        pos = int(np.argmax(scores))
        if self.best is None or scores.flat[pos] > self.best:
            self.best = scores.flat[pos].item()
            # a bool block without a hit names nothing; a numeric 0 is a score
            self.witness = () if self.best is False else name(pos)


def lex_first_max(score, n_items: int, size: int, lead: LexFirst, below=None):
    """`lead`'s (best, witness) after it is offered every size-subset of
    range(n_items), of which there must be one, in lex order.

    score(rows) scores a block of rows of subsets(n_items, size), in order.
    below(rows, best), if given, is a bound: True for each row of a block
    whose score it proves strictly below `best`.  Once `lead` holds an
    incumbent, each block is offered -inf for the rows its bound marks
    against the incumbent, and score sees only the rest.  This is sound:
    the incumbent comes from rows before the block, a marked row is
    strictly below it, so it can neither tie nor beat it, and `LexFirst`
    takes the same offers as with every row scored.  Scores are floats
    where a bound is given.

    Every caller walks one schedule: while `lead` has no incumbent no bound
    can act, so the first block is small (_FIRST_BLOCK rows) and the lead
    soon holds a threshold; a walk that starts with one begins at
    _FIRST_BLOCK_LED rows.  Blocks then double up to _SUBSET_BLOCK rows,
    past which a bound's stacks outgrow the cache.  By `LexFirst`'s rule no
    block size moves a witness.

    A 0/1 score ends the walk at the block of its first hit: once `lead`'s
    best is True, no later offer can replace it (`LexFirst`), and no later
    block is built.  A numeric score, whatever its value, walks every block.
    """
    first = _FIRST_BLOCK if lead.best is None else _FIRST_BLOCK_LED
    for rows in _subset_blocks(n_items, size, first, _SUBSET_BLOCK):
        if below is None or lead.best is None:
            scores = score(rows)
        else:
            scores = np.full(len(rows), -np.inf)
            keep = ~below(rows, lead.best)
            scores[keep] = score(rows[keep])
        lead.offer(scores, lambda pos: tuple(rows[pos].tolist()))
        if lead.best is True:  # a 0/1 score's first hit: no later offer replaces it
            break
    return lead.best, lead.witness


def lex_first_max_pair_sum(d: np.ndarray, size: int, score, anchored: bool = False,
                           cut=None):
    """(largest score, lex-first subset attaining it) over the size-subsets S
    of range(len(d)), 2 <= size <= len(d), scored by their pair sums, or,
    `anchored`, over those that contain item 0.

    total(S) is the exact int64 sum of d[i, j] over the pairs i < j of S,
    for an integer matrix d, and score(totals) scores at most _LSET_BLOCK
    totals of consecutive subsets.  The walk is the lex-order recursion from
    the empty prefix: the size-s subsets are the size-(s-1) prefixes in lex
    order, each followed by each larger item that leaves room for the rest.
    A prefix carries total(S), and R[S], the sum of the rows d[i] over i in
    S, is built for a chunk of prefixes only when it extends them:
    total(S + {j}) = total(S) + R[S, j] and R[S + {j}] = R[S] + d[j].  The
    last extension reads R[S, j] as R[parent, j] + d[last, j], so no rows are
    built for the largest level.  A prefix keeps only its last item and its
    parent; each chunk is offered to one `LexFirst`, which traces the witness
    back only when it takes the lead.  No level emits more than _LSET_BLOCK
    children at a time, so memory is O(size * _LSET_BLOCK * len(d)).

    An anchored walk starts from the prefix {0} instead of the empty prefix,
    so it walks the C(len(d) - 1, size - 1) subsets that contain item 0:
    the first of them in lex order, since every subset that contains item 0
    precedes every subset that does not.  `codes` anchors only where every
    subset has a translate through item 0 with the same score.

    cut(total, rows, last, k, best), if given, prunes a walk that builds at
    least _CUT_ENTRIES row entries.  Given a piece of prefixes with k items
    still to add, 2 <= k <= _CUT_K, as their totals, their rows R and their
    last items, it is True for each prefix none of whose completions is the
    walk's lex-first maximum, knowing that `best`, unless it is None, is
    the score of a subset offered before every one of those completions.
    The walk calls it where a piece's rows are built, before any child is
    made, and a cut prefix gets no children.  Until its first offer an
    anchored walk extends one prefix at a time and cuts none, so that an
    incumbent comes soon: on a group, whose scores depend only on
    differences, many subsets through item 0 tie at the best score, and
    only an incumbent that precedes them can settle the ties.  This is
    sound: the walk offers subsets in lex order, so no completion of a
    piece has been offered when its rows are built, and a walk that skips
    only subsets other than the lex-first maximum ends with the same
    (best, witness).
    """
    # the walk's int64 copy of d ends in a zero row, the empty prefix's last item
    d = np.concatenate([d, np.zeros((1, len(d)), dtype=np.int64)], dtype=np.int64)
    n, flat = len(d) - 1, d.reshape(-1)
    # the s-th item of a subset (s = 1..size) is at most tail + s - 1
    tail, block = n - size, _LSET_BLOCK
    # a walk builds a row for each prefix that leaves room for the rest,
    # C(n, size - 1) of them (C(n - 1, size - 2) anchored)
    if cut is not None and n * math.comb(n - anchored, size - 1 - anchored) < _CUT_ENTRIES:
        cut = None

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
            dive = cut is not None and anchored and lead.best is None and s + 1 < size
            if dive:  # until the first offer, one prefix at a time
                p1 = p0 + 1
            width = int(ends[p1 - 1]) - taken
            c, head, hops, sums = counts[p0:p1], last[p0:p1], up[p0:p1], total[p0:p1]
            # prefix k's children are last[k] + 1, ..., top in turn: child i
            # of the piece is item i + shift[k]
            shift = top + 1 + taken - ends[p0:p1]
            p0, taken = p1, taken + width
            rows = None
            if s + 1 < size:
                rows = above[hops] + d[head]
                if cut is not None and not dive and size - s <= _CUT_K:
                    keep = ~cut(sums, rows, head, size - s, lead.best)
                    if not keep.any():
                        continue
                    c, head, hops, sums, rows = (
                        c[keep], head[keep], hops[keep], sums[keep], rows[keep])
                    stop = c.cumsum()
                    shift, width = top + 1 - stop, int(stop[-1])
            parent = np.arange(len(c)).repeat(c)
            item = np.arange(width)
            item += shift.repeat(c)
            sums = sums.repeat(c)
            if rows is None:
                sums += above.reshape(-1)[(hops * n).repeat(c) + item]
                sums += flat[(head * n).repeat(c) + item]
            else:
                sums += rows.reshape(-1)[parent * n + item]
            node = (head, hops, trail)
            for a in range(0, len(item), block):
                yield (s + 1, item[a:a + block], parent[a:a + block],
                       sums[a:a + block], rows, node)

    def witness(pos):
        """The subset of the current chunk's child pos, traced back."""
        items, k, node = [last[pos]], up[pos], trail
        for _ in range(size - 1):
            prefix_last, prefix_up, node = node
            items.append(prefix_last[k])
            k = prefix_up[k]
        return tuple(int(i) for i in reversed(items))

    lead = LexFirst()
    # the children of the empty prefix: last item -1, total 0, parent's R
    # zero; or of the prefix {0}, whose parent is that empty prefix
    zero = np.zeros(1, dtype=np.int64)
    if anchored:
        walks = [children(1, zero, zero, zero, d[-1:], (zero - 1, zero, None))]
    else:
        walks = [children(0, zero - 1, zero, zero, d[-1:], None)]
    while walks:
        chunk = next(walks[-1], None)
        if chunk is None:
            walks.pop()
        elif chunk[0] < size:
            walks.append(children(*chunk))
        else:
            _, last, up, total, _, trail = chunk
            lead.offer(score(total), witness)
    return lead.best, lead.witness


def lex_first_max_pair(scores, size: int, anchored: bool = False):
    """(largest score, lex-first pair attaining it) over pairs i < j of
    range(size >= 2), or, `anchored`, over the pairs (0, j).

    scores(i0, i1) returns a signed array of the scores of rows i0..i1-1
    against items i0..size-1, all >= 0; the caller may write to it.  Rows
    go in blocks of _PAIR_BLOCK, so memory is O(_PAIR_BLOCK * size), and
    each block is offered to one `LexFirst` in row-major order.  An anchored
    walk reads row 0 alone, scores(0, 1): the pairs that contain item 0
    come first in lex order.
    """
    lead = LexFirst()
    stop = 1 if anchored else size - 1
    for i0 in range(0, stop, _PAIR_BLOCK):
        i1 = min(i0 + _PAIR_BLOCK, stop)
        s = scores(i0, i1)
        # only the first i1 - i0 columns hold pairs with j <= i
        s[:, :i1 - i0][np.tri(i1 - i0, dtype=bool)] = -1
        lead.offer(s, lambda pos: tuple(i0 + k for k in divmod(pos, s.shape[1])))
        del s  # so that no two blocks of scores are alive at once
    return lead.best, lead.witness
