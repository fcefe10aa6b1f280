"""The L-wise walk's cut (`codes._least_total_cut`) against the unbounded
walk, which stays its `==` oracle: reports, witnesses and float bits.

Each comparison forces the cut into every walk, however small, and onto
prefixes with any number of items still to add, by setting
`caps._CUT_ENTRIES` to 1 and `caps._CUT_K` past every L, and runs the
oracle with no cut at all.  The
codes are random, balanced, group (Reed-Solomon among them, whose walks
are anchored) and tie-heavy ones, whose distances take a few values, so
that lower bounds meet the least total exactly and ties decide witnesses.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_codes import group_codes, random_codes
from sparsecode import caps, codes
from sparsecode.codes import Code, lwise_distance, random_balanced_code, reed_solomon

# the largest walk each L of a hypothesis code may take
_WALK = 4000


def _key(report):
    return report, report.absolute.hex()


def _reports(c: Code, orders, cut_entries: int | None, cut_k: int = 1 << 30) -> list:
    """lwise_distance at each order, with caps._CUT_ENTRIES and _CUT_K set
    to `cut_entries` and `cut_k`, or, for None, with no cut."""
    with pytest.MonkeyPatch.context() as mp:
        if cut_entries is None:
            mp.setattr(codes, "_least_total_cut", lambda d, L, group: None)
        else:
            mp.setattr(caps, "_CUT_ENTRIES", cut_entries)
            mp.setattr(caps, "_CUT_K", cut_k)
        return [_key(lwise_distance(c, L)) for L in orders]


def _orders(c: Code) -> list[int]:
    """Every L from 2 to |C| whose walk is at most _WALK subsets."""
    return [L for L in range(2, len(c) + 1) if math.comb(len(c), L) <= _WALK]


@st.composite
def _balanced_codes(draw):
    q = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_balanced_code(q, n, draw(st.integers(1, max(1, 24 // q))), rng)


@st.composite
def _tie_heavy_codes(draw):
    """Distinct words of 1 to 3 symbols, each symbol repeated in 1 to 4
    coordinates: every distance is a multiple of the repeat, of at most
    four values."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    base = draw(st.integers(1, 3))
    words = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * base),
                          min_size=2, max_size=min(q**base, 16), unique=True))
    return Code.from_array(q, np.repeat(np.array(words), draw(st.integers(1, 4)), axis=1))


@settings(derandomize=True, max_examples=250, deadline=None)
@given(c=st.one_of(random_codes(most=16, alphabets=(2, 3, 5, 7)), _balanced_codes(),
                   group_codes(most=27), _tie_heavy_codes()))
def test_cut_walk_equals_unbounded_walk(c):
    orders = _orders(c)
    assert _reports(c, orders, 1) == _reports(c, orders, None)


def test_cut_constant_changes_no_report():
    rng = np.random.default_rng(12)
    cases = [(random_balanced_code(3, 9, 9, rng), (3, 4, 5)),
             (Code.from_array(2, rng.integers(0, 2, size=(24, 10))), (4, 5)),
             (reed_solomon(7, 2), (3, 4)), (reed_solomon(5, 2), (5, 6))]
    for c, orders in cases:
        unbounded = _reports(c, orders, None)
        for cut_entries in (1, 1 << 10, caps._CUT_ENTRIES, 1 << 40):
            for cut_k in (2, caps._CUT_K, 1 << 30):
                assert _reports(c, orders, cut_entries, cut_k) == unbounded


def _scored(c: Code, L: int) -> tuple[tuple, int]:
    """The cut walk's (best, witness) for lwise_distance(c, L), and the
    number of L-sets it scored."""
    d, group = codes._pairwise_distances(c), c._is_group()
    scored = []

    def score(totals):
        scored.append(len(totals))
        return np.negative(totals)

    best = caps.lex_first_max_pair_sum(d, L, score, group,
                                       codes._least_total_cut(d, L, group))
    return best, sum(scored)


def test_cut_spares_most_of_a_large_walk():
    c = Code.from_array(2, np.random.default_rng(8).integers(0, 2, size=(60, 16)))
    (least, witness), scored = _scored(c, 5)
    assert lwise_distance(c, 5).witness == witness
    assert scored < math.comb(60, 5) // 20


@pytest.mark.parametrize("q, k, L", [(11, 2, 4), (7, 2, 5)])
def test_walk_at_the_distance_floor_ends_after_its_first_offer(q, k, L):
    # items 0..L-1 of these Reed-Solomon codes are pairwise at the least
    # distance, so the first offer, the L-sets through items 0..L-3, reaches
    # the floor, and every later piece is cut whole
    c = reed_solomon(q, k)
    (least, witness), scored = _scored(c, L)
    assert witness == tuple(range(L))
    assert -least == math.comb(L, 2) * codes.min_distance(c).absolute
    assert scored == math.comb(len(c) - L + 2, 2)
