"""List-decodability certification and the distance <-> list-size lemmas.

All certification is exhaustive over center words: list_sizes_at_radii
finds, for every one of the q^n centers, the number of codewords in its
ball of one radius, by one of two paths that give the same bits.
The ball path adds the codewords' spheres of weights 0..r into one count
per center, so each count is exact once they are in, and a center no ball
reaches counts 0.  The split-sum sweep compares every center with every
codeword; it only groups the arithmetic into array blocks.  A radius
takes the ball path where its balls are small against the space and both
fit the memory bound, and the sweep elsewhere.  Radii are discretized as
floor(rho * n), taken exactly for the decimal that rho prints as; the
link's radius floors (1/2 - eps) n for the decimal that eps prints as.  The
Johnson-type implication and its weak converse are two readings of one
evaluation of the link (`_link`), encoded with the explicit constants
extracted from their proofs, and are required to hold with zero
counterexamples on every checkable code.  Each reading judges the link's
exact L'-wise distance against its exact threshold for that decimal eps,
with no slack, and reports floats.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from . import caps
from .codes import Code, Report, _counts, _decimal, _one_hot, lwise_distance
from .errors import DomainError
from .words import Word

# elements in one block of center-to-codeword distances (about 1 MB each for
# the distances and their radius mask)
_BLOCK_ELEMENTS = 1 << 20
_MIN_PREFIXES = 16
# the cost of one of the ball path's count increments, in the sweep's
# center-to-codeword distances: the break-even measured on x86-64 over
# codes with q in {2, 3, 4, 5, 7}, n = 6..20 and |C| = 5..189
_INCREMENT_COST = 13


@dataclass(frozen=True)
class ListDecodingReport(Report):
    _property = "list-decode"

    radius: float
    absolute_radius: int
    max_list_size: int
    worst_center: Word
    centers_checked: int


@dataclass(frozen=True)
class ImplicationReport(Report):
    """Premise/conclusion values of a certified implication.

    verdict is "pass" when premise and conclusion both hold, "vacuous" when
    the premise fails, "not-applicable" when the premise cannot even be
    evaluated at the requested parameters, and "fail" on a counterexample.
    `detail` is a read-only copy of the mapping it is built with; it is
    left out of the hash, as a mappingproxy has none, but not out of ==.
    """

    premise_value: float | None
    premise_threshold: float | None
    conclusion_value: float | None
    conclusion_threshold: float | None
    verdict: str
    detail: Mapping = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "detail", MappingProxyType(dict(self.detail)))


class JohnsonReport(ImplicationReport):
    _property = "johnson"


class ConverseReport(ImplicationReport):
    _property = "johnson-converse"


def list_sizes_at_radii(c: Code, r: int) -> tuple[int, Word]:
    """Max codeword count of any Hamming ball of radius r.

    Returns (max_list_size, first worst center) over all q^n centers.  The
    center cap is checked before anything is allocated.

    The radius, clipped to -1..n, takes one pass down the path that its
    element work picks; `_ball_list_sizes` and `_sweep_list_sizes` give the
    same bits.  The ball path makes |C| * V_q(n, r) count increments plus a
    pass over the q^n counts; the sweep makes |C| * q^n distance
    comparisons, each _INCREMENT_COST times cheaper than an increment.  The
    ball path also needs its q^n counts and its |C| * V_q(n, r) sphere
    positions to fit in the sweep's block of _BLOCK_ELEMENTS elements.
    """
    q, n = c.q, c.n
    caps.require(q**n, caps.center_cap(), "centers")
    size = len(c)
    r = min(max(r, -1), n)
    volume = sum(math.comb(n, t) * (q - 1) ** t for t in range(r + 1))
    ball = (max(q**n, size * volume) <= _BLOCK_ELEMENTS
            and _INCREMENT_COST * size * volume + q**n <= size * q**n)
    return (_ball_list_sizes if ball else _sweep_list_sizes)(c, r)


def _ball_list_sizes(c: Code, r: int) -> tuple[int, Word]:
    """list_sizes_at_radii at radius r by adding up the codewords' balls.

    counts[x] is the number of codewords within radius r of the center at
    position x of caps.product_rows(q, n, ...), the centers' enumeration
    order.  Each weight t = 0..r adds every codeword's sphere of radius t,
    one exact increment per (codeword, center at distance t) pair: no
    center is in two spheres of one codeword, and np.add.at adds once for
    every occurrence of a position, repeats included.  So counts[x] =
    |B(x, r) & C| for every one of the q^n centers, those no ball reaches
    included, and the first maximum that `caps.LexFirst` keeps is the
    lex-first worst center, as in the sweep.  A radius below 0 counts no
    codeword, and one of n counts them all.
    """
    q, n = c.q, c.n
    words = c.array()
    counts = np.zeros(q**n, dtype=np.min_scalar_type(len(words)))
    spheres = _spheres(q, words)
    for _ in range(r + 1):
        np.add.at(counts, next(spheres), counts.dtype.type(1))
    lead = caps.LexFirst()
    lead.offer(counts, lambda pos: pos)
    return lead.best, _center_word(q, n, lead.witness)


def _spheres(q: int, words: np.ndarray):
    """Every codeword's Hamming spheres of radius 0, 1, 2, ...: one flat
    array per radius of the positions, in caps.product_rows order, of the
    centers at that distance from each codeword.

    A center at distance t from codeword w differs from it on a support
    i_1 < ... < i_t, by a nonzero symbol a_j at each i_j.  Its position is
    w's plus the sum over j of step[i_j, a_j - 1, w], the change in position
    when w's symbol i moves up by a, mod q: ((w_i + a) mod q - w_i) q^(n-1-i).
    A layer holds one row per (support, symbols) pattern of one weight and
    one column per codeword.  The next layer extends each row by each
    coordinate past its support's last one and each nonzero symbol there,
    one add per new entry, so each pattern is built once, from its parent.
    The rows are ordered by their support's last coordinate, so the rows
    that coordinate i extends are the first starts[i] of the layer.
    Positions are below q^n, so the layer's dtype holds them and the steps.
    """
    n = words.shape[1]
    dtype = np.min_scalar_type(-(q**n))
    powers = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    moved = (words.T[:, None, :] + np.arange(1, q)[:, None]) % q
    step = ((moved - words.T[:, None, :]) * powers[:, None, None]).astype(dtype)
    layer = (words @ powers).astype(dtype)[None, :]
    # the empty support ends before every coordinate
    starts = np.ones(n, dtype=np.int64)
    while True:
        yield layer.reshape(-1)
        ends = starts.cumsum()
        # new row k extends row parent[k] by coordinate coord[k]
        parent = np.arange(ends[-1]) - np.repeat(ends - starts, starts)
        coord = np.repeat(np.arange(n), starts)
        grown = step[coord]
        grown += layer[parent][:, None, :]
        layer = grown.reshape(-1, len(words))
        starts = (q - 1) * (ends - starts)


def _sweep_list_sizes(c: Code, r: int) -> tuple[int, Word]:
    """list_sizes_at_radii at radius r by comparing every center with every
    codeword.

    Split-sum method: the n coordinates split into a high half of
    hi = n - n//2 and a low half of lo = n//2 coordinates.  Hamming distance
    is a sum over coordinates, so the distance from the center (x_hi, x_lo)
    to codeword w is D_hi[x_hi, w] + D_lo[x_lo, w], where the two tables hold
    the distances of every half-center to the matching half of every
    codeword.  High prefixes are swept in ascending blocks; one broadcast
    add gives a block's distances to a block of codewords, and the counts
    within radius r are exact small integers.

    Lex order: the center whose halves are rows x_hi and x_lo of
    caps.product_rows is row x_hi * q^lo + x_lo of it over all n
    coordinates, the centers' enumeration order.  The counts go block by
    block to one `caps.LexFirst`, so the worst center is the lex-first one.

    Memory: blocks cover both center prefixes and codewords, so the working
    set stays within a fixed number of elements (_BLOCK_ELEMENTS) whatever
    |C| and q^n are, up to q^n = _BLOCK_ELEMENTS^2, where one low-half table
    alone would fill a block.
    """
    q, n = c.q, c.n
    hi = n - n // 2
    lo_size, hi_size = q ** (n // 2), q**hi
    words = c.array()
    size = len(words)
    # distances never exceed n, so r + 1 <= n + 1 fits the dtype
    dist_dtype = np.min_scalar_type(n + 1)
    count_dtype = np.min_scalar_type(size)
    # codeword blocks leave room for at least _MIN_PREFIXES prefixes per
    # block, so recomputing the low table per block stays cheap
    word_block = min(size, max(1, _BLOCK_ELEMENTS // (_MIN_PREFIXES * lo_size)))
    prefix_block = min(hi_size, max(1, _BLOCK_ELEMENTS // (word_block * lo_size)))
    lo_table = None
    if word_block == size:
        lo_table = _distance_table(q, 0, lo_size, words[:, hi:], dist_dtype)
    lead = caps.LexFirst()
    for h0 in range(0, hi_size, prefix_block):
        h1 = min(h0 + prefix_block, hi_size)
        counts = np.zeros((h1 - h0) * lo_size, dtype=count_dtype)
        for w0 in range(0, size, word_block):
            block = words[w0:w0 + word_block]
            d_lo = lo_table
            if d_lo is None:
                d_lo = _distance_table(q, 0, lo_size, block[:, hi:], dist_dtype)
            d_hi = _distance_table(q, h0, h1, block[:, :hi], dist_dtype)
            # (words, prefixes, low halves): row-major order is center order
            dists = (d_hi[:, :, None] + d_lo[:, None, :]).reshape(len(block), -1)
            counts += np.add.reduce(dists < r + 1, axis=0, dtype=count_dtype)
        lead.offer(counts, lambda pos: h0 * lo_size + pos)
    return lead.best, _center_word(q, n, lead.witness)


def _distance_table(
    q: int, start: int, stop: int, part: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """Hamming distances between half-centers start..stop-1 and codeword halves.

    Half-center x is row x of caps.product_rows over the part.shape[1]
    coordinates of `part`; entry [w, x - start] is its distance to row w of
    `part`, the coordinate count minus their one-hot agreement count.  With
    no coordinates every distance is 0.
    """
    centers = _one_hot(q, caps.product_rows(q, part.shape[1], start, stop).T)
    agreements = _counts(_one_hot(q, part.T).T, centers)
    return (part.shape[1] - agreements).astype(dtype)


def _center_word(q: int, n: int, index: int) -> Word:
    """The center at position `index` of caps.product_rows(q, n, ...)."""
    return Word(q, tuple(caps.product_rows(q, n, index, index + 1)[0].tolist()))


def list_size_at_radius(c: Code, rho: float) -> ListDecodingReport:
    """Max |ball(x, floor(rho*n)) intersect C| over all centers x.

    rho*n is floored exactly, for the decimal that rho prints as.
    """
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"radius must lie in [0, 1], got {rho}")
    radius = math.floor(_decimal(rho) * c.n)
    size, center = list_sizes_at_radii(c, radius)
    return ListDecodingReport(rho, radius, size, center, c.q**c.n)


def johnson_inverse_square(epsilon: float) -> Fraction:
    """1/eps^2 for the Johnson-type check, exactly for the decimal that eps
    prints as, refusing an eps whose decimal lies outside 0 < eps^2 < 1/2 or
    whose float 1/eps^2 is not finite."""
    # 0 < eps < 1 first, so that NaN and inf, which print as no decimal, are refused
    if not (0 < epsilon < 1 and _decimal(epsilon) ** 2 < Fraction(1, 2)):
        raise DomainError("need 0 < epsilon with epsilon^2 < 1/2")
    inverse = 1.0 / epsilon**2 if epsilon**2 else math.inf
    if not math.isfinite(inverse):
        raise DomainError(f"need 1/epsilon^2 to be a finite float, got epsilon={epsilon}")
    return 1 / _decimal(epsilon) ** 2


def _link(c: Code, l_prime: int, epsilon: Fraction, detail: dict, premise, conclusion
          ) -> tuple[float | None, float | None, str]:
    """The distance <-> list-size link on binary code c, read one way, for
    the exact eps its caller takes.

    Returns (the relative L'-wise distance d, the max list size s at radius
    floor(max(1/2 - eps, 0) n), the verdict) as floats and records that
    radius in `detail`.  premise(d, s) and conclusion(d, s) are the
    reading's two predicates, on the exact d.  With fewer than L' codewords
    there is no L'-tuple to take a distance over: d and s are None and the
    verdict is "not-applicable".
    """
    if l_prime > len(c):
        return None, None, "not-applicable"
    distance = lwise_distance(c, l_prime).relative
    radius = math.floor(max(Fraction(1, 2) - epsilon, 0) * c.n)
    size = list_sizes_at_radii(c, radius)[0]
    detail["radius"] = radius
    verdict = ("vacuous" if not premise(distance, size)
               else "pass" if conclusion(distance, size) else "fail")
    return float(distance), float(size), verdict


def johnson_check(c: Code, epsilon: float) -> JohnsonReport:
    """Distance-to-list-decoding implication with the proof's constants.

    Premise: the L'-wise distance is at least 1/2 - eps^2 for
    L' = floor(1/eps^2) + 1 (monotonicity covers larger tuples).
    Conclusion: no ball of relative radius 1/2 - eps holds more than
    1/eps^2 codewords.  eps is the decimal it prints as, and both are
    judged exactly; the premise threshold printed is the float 1/2 - eps^2.
    """
    if c.q != 2:
        raise DomainError("the Johnson-type check applies to binary codes")
    list_bound = math.floor(johnson_inverse_square(epsilon))
    detail = {"L_prime": list_bound + 1, "epsilon": epsilon}
    exact = _decimal(epsilon)
    distance, size, verdict = _link(c, list_bound + 1, exact, detail,
                                    lambda d, s: d >= Fraction(1, 2) - exact**2,
                                    lambda d, s: s <= list_bound)
    return JohnsonReport(distance, 0.5 - epsilon**2, size, float(list_bound), verdict,
                         detail)


def converse_check(c: Code, L: int, epsilon: float) -> ConverseReport:
    """List-decoding-to-distance converse with the proof's constants.

    Premise: every ball of relative radius 1/2 - eps holds fewer than L
    codewords.  Conclusion: the ceil(L/eps)-wise distance is at least
    1/2 - 2*eps, judged exactly for the decimal that eps prints as; the
    threshold printed is the float 1/2 - 2*eps, and ceil(L/eps) is taken in
    floats.  Both thresholds are None when it is not applicable.
    """
    if c.q != 2:
        raise DomainError("the converse check applies to binary codes")
    if not (0.0 < epsilon <= 0.5):
        raise DomainError("need 0 < epsilon <= 1/2")
    if L < 1:
        raise DomainError(f"need L >= 1, got L={L}")
    if L > sys.float_info.max:  # L / epsilon would raise an OverflowError
        raise DomainError(f"need L within the float range, L <= {sys.float_info.max}")
    if not math.isfinite(L / epsilon):  # ceil() takes no infinity
        raise DomainError(f"need L/epsilon to be a finite float, got epsilon={epsilon}")
    l_prime = math.ceil(L / epsilon)
    detail = {"L": L, "L_prime": l_prime, "epsilon": epsilon}
    exact = _decimal(epsilon)
    distance, size, verdict = _link(c, l_prime, exact, detail, lambda d, s: s < L,
                                    lambda d, s: d >= Fraction(1, 2) - 2 * exact)
    if verdict == "not-applicable":
        return ConverseReport(None, None, None, None, verdict, detail)
    return ConverseReport(size, float(L), distance, 0.5 - 2.0 * epsilon, verdict, detail)
