"""Closed-form gates: Reed-Solomon and Kautz-Singleton values known exactly.

RS(q, k), q prime, evaluates every polynomial of degree < k over F_q at
every point: n = q and q^k words.  Two distinct words differ by a nonzero
polynomial of degree < k, so they agree on at most k - 1 points, and for
k - 1 distinct points a_i the word f + c (x - a_1)...(x - a_{k-1}), c != 0,
agrees with f on exactly those points.  So:
 - the min distance is d = q - k + 1;
 - the q words f + c (x - a_1)...(x - a_{k-1}), c in F_q, are pairwise at
   distance d, so for 2 <= L <= q the least average pairwise distance of
   an L-set is d, and the relative L-wise distance is exactly d / q;
 - the Kautz-Singleton matrix, the one-hot embedding of RS(q, k), is a
   design of q-sets whose sets meet in at most r = k - 1 points;
 - it is L-disjunct exactly when L (k - 1) < q: L other columns meet a
   column's q points in at most L (k - 1) of them, and when
   L (k - 1) >= q, one word per block of a partition of the q points into
   at most L blocks of at most k - 1 points covers f's column.
The families are built here with `Code.from_array`, not with the
library's constructors, and every order the caps admit is compared with
==.  References: MacWilliams & Sloane, *The Theory of Error-Correcting
Codes* (1977), Ch. 10; Kautz & Singleton, IEEE Trans. Inf. Theory 10 (1964).
"""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sparsecode import caps
from sparsecode.codes import Code, lwise_distance, min_distance
from sparsecode.group_testing import Design, verify_design, verify_disjunct

FAMILIES = [(q, k) for q in (3, 5, 7, 11, 13) for k in (2, 3)]


@functools.cache
def reed_solomon(q: int, k: int) -> Code:
    """Message m's word holds sum_e m_e x^e mod q at each point x."""
    messages = np.array(list(itertools.product(range(q), repeat=k)))
    powers = np.array([[pow(x, e, q) for x in range(q)] for e in range(k)])
    return Code.from_array(q, messages @ powers % q)


@functools.cache
def kautz_singleton(q: int, k: int) -> np.ndarray:
    """Column j is the one-hot embedding of word j: row i q + s is 1 where
    the word holds s at coordinate i."""
    words = reed_solomon(q, k).array()
    m = np.zeros((q * q, len(words)), dtype=np.int64)
    m[np.arange(q) * q + words, np.arange(len(words))[:, None]] = 1
    return m


@pytest.mark.parametrize("q, k", FAMILIES)
def test_min_distance(q, k):
    assert min_distance(reed_solomon(q, k)).absolute == q - k + 1


@pytest.mark.parametrize("q, k", FAMILIES)
def test_lwise_distance_is_the_min_distance(q, k):
    c = reed_solomon(q, k)
    orders = [L for L in range(2, q + 1) if math.comb(len(c), L) <= caps.subset_cap()]
    assert orders[0] == 2
    relative = [lwise_distance(c, L).relative for L in orders]
    assert relative == [Fraction(q - k + 1, q)] * len(orders)


@pytest.mark.parametrize("q, k", FAMILIES)
def test_design_intersection(q, k):
    assert verify_design(Design(kautz_singleton(q, k))).max_intersection == k - 1


@pytest.mark.parametrize("q, k", FAMILIES)
def test_disjunct_exactly_below_the_bound(q, k):
    m = kautz_singleton(q, k)
    n_cols = m.shape[1]
    orders = list(itertools.takewhile(
        lambda L: n_cols * math.comb(n_cols - 1, L) <= caps.subset_cap(), range(1, n_cols)))
    assert orders[0] == 1
    assert [verify_disjunct(m, L).disjunct for L in orders] == [
        L * (k - 1) < q for L in orders]
