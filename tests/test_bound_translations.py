"""The paper's bound translations as one-sided checks on the list sizes.

A printed list size that breaks a theorem proves its certifier wrong, on
any input and with no oracle.  Both checks run on both list-size paths,
the ball path and the split-sum sweep, called directly.

Averaging: the q^n balls of radius r hold |C| * V_q(n, r) (center,
codeword) pairs between them, so the largest holds at least the ceiling of
|C| * V_q(n, r) / q^n codewords.

The link from L-wise distance to list decoding: let T be the least total
pairwise distance of an L-set of codewords, which `lwise_distance`
certifies.  Take L codewords within r <= n/2 of one center, and let k be
the number of them that differ from the center at some coordinate.  Those
that differ from the center there, paired with those that do not, give
k(L - k) differing pairs; over q > 2 symbols, pairs among the k may differ
too, at most k(k - 1)/2 of them.  So the coordinate adds at most f(k) to
the L codewords' total, with f(k) = k(L - k) for q = 2 and
kL - k(k + 1)/2 for q > 2.  The k sum to at most Lr over the n coordinates,
f is concave and increasing up to L/2 >= Lr/n, so the total is at most
n f(Lr/n).  Hence T > n f(Lr/n) forces a max list size <= L - 1 at radius
r.  Both sides are exact: T in integers, n f(Lr/n) in `Fraction`.

Two bounds check `min_distance`, in integers, on group codes (which take
its walk from item 0) and on random codes (which mostly take the full
walk).  Singleton: deleting d - 1 coordinates keeps the codewords
distinct, so |C| <= q^(n - d + 1).  Plotkin, for binary codes with
2d > n: the sum of all pairwise distances is at least C(|C|, 2) d, and a
coordinate where k words hold 1 adds k(|C| - k) <= floor(|C|^2 / 4) to
it.  So |C| <= 2d/(2d - n) for even |C|, and |C| <= 2d/(2d - n) - 1 for
odd |C|; either way |C| <= 2 floor(d / (2d - n)).
References: MacWilliams & Sloane (1977), Ch. 1-2; Guruswami, *List
Decoding of Error-Correcting Codes*, LNCS 3282 (2004).
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_codes import group_codes, random_codes
from sparsecode import listdecode
from sparsecode.codes import Code, lwise_distance, min_distance

PATHS = pytest.mark.parametrize(
    "path", [listdecode._ball_list_sizes, listdecode._sweep_list_sizes],
    ids=["ball", "sweep"])

# largest n with q^n <= 4096, per alphabet
_MAX_LENGTH = {2: 12, 3: 7, 4: 6, 5: 5, 7: 4}


@st.composite
def _codes(draw, most):
    q = draw(st.sampled_from(sorted(_MAX_LENGTH)))
    n = draw(st.integers(1, _MAX_LENGTH[q]))
    words = st.tuples(*[st.integers(0, q - 1)] * n)
    return Code.from_array(q, draw(st.lists(words, min_size=1, max_size=most, unique=True)))


def _volume(q: int, n: int, r: int) -> int:
    """V_q(n, r): the words within distance r of one word."""
    return sum(math.comb(n, t) * (q - 1) ** t for t in range(r + 1))


def _pair_bound(q: int, L: int, k: Fraction) -> Fraction:
    """f(k): the most one coordinate adds to the total pairwise distance of
    L words, k of which differ from the center there."""
    return k * (L - k) if q == 2 else k * L - k * (k + 1) / 2


@PATHS
@settings(derandomize=True, max_examples=200, deadline=None)
@given(c=_codes(24))
def test_averaging_bound(path, c):
    radii = list(range(c.n + 1))
    for r, (size, _) in zip(radii, path(c, radii)):
        assert size >= -(-len(c) * _volume(c.q, c.n, r) // c.q**c.n)


@PATHS
@settings(derandomize=True, max_examples=200, deadline=None)
@given(c=_codes(9))
def test_lwise_distance_bounds_the_list_size(path, c):
    radii = list(range(c.n // 2 + 1))
    sizes = [size for size, _ in path(c, radii)]
    words = c.array()
    for L in range(2, len(c) + 1):
        report = lwise_distance(c, L)
        chosen = words[list(report.witness)]
        total = sum(int((chosen[i] != chosen[j]).sum())
                    for i in range(L) for j in range(i + 1, L))
        # T is the printed average distance times C(L, 2)
        assert math.isclose(report.absolute * math.comb(L, 2), total,
                            rel_tol=1e-12, abs_tol=1e-12)
        for r, size in zip(radii, sizes):
            if total > c.n * _pair_bound(c.q, L, Fraction(L * r, c.n)):
                assert size <= L - 1


# group codes take min_distance's anchored walk, random codes mostly the full one
KINDS = {"group": group_codes(), "random": random_codes(most=24, longest=10)}
BINARY_KINDS = {"group": group_codes(most=64, primes=(2,)),
                "random": random_codes(most=24, alphabets=(2,), longest=12)}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_singleton_bound(kind, data):
    c = data.draw(KINDS[kind])
    d = min_distance(c).absolute
    assert len(c) <= c.q ** (c.n - d + 1)


@pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_plotkin_bound(kind, data):
    c = data.draw(BINARY_KINDS[kind])
    d = min_distance(c).absolute
    if 2 * d > c.n:
        assert len(c) <= 2 * (d // (2 * d - c.n))
