"""Group codes certified from item 0, against the full walks.

On a code that is a group under addition mod q, `min_distance`,
`code_bias`, `lwise_distance`, `lwise_bias` and `verify_design` walk only
the pairs or L-sets that contain item 0 (the lemma is in the `codes`
docstring).  Each test here forces the full walk by patching both group
tests to False, and compares: reports and witnesses with ==, floats by
`float.hex`.  Group codes (spans, Reed-Solomon codes, balance closures and
quotients) take the anchored path, and random codes mostly take the full
walk on both sides, so they check that the group test lets no non-group
code through.
"""

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
from group_codes import group_codes, random_codes
from sparsecode import caps, codes, group_testing
from sparsecode.codes import (
    Code,
    LinearCode,
    code_bias,
    enumerate_codewords,
    lwise_bias,
    lwise_distance,
    min_distance,
    reed_solomon,
)
from sparsecode.embeddings import bool_code
from sparsecode.group_testing import Design, design_from_code, kautz_singleton, verify_design
from sparsecode.words import is_prime


def _closed(c: Code) -> bool:
    """Whether the words are closed under addition mod q, pair by pair."""
    words = {tuple(w) for w in c.array().tolist()}
    return all(tuple((x + y) % c.q for x, y in zip(a, b)) in words
               for a in words for b in words)


def _certificates(c: Code, order: np.ndarray) -> dict:
    """Every anchored certifier's result on c, floats as their hex, and the
    design of c's embedding with its columns in `order`."""
    out = {
        "min_distance": min_distance(c),
        "code_bias": code_bias(c).hex(),
        "design": verify_design(design_from_code(c)),
        "permuted design": verify_design(Design(bool_code(c)[:, order])),
    }
    for L in range(2, min(len(c), 4) + 1):
        if math.comb(len(c), L) <= 20_000:
            out[f"lwise_distance {L}"] = lwise_distance(c, L)
            if c.q == 2:
                out[f"lwise_bias {L}"] = lwise_bias(c, L).hex()
    return out


def _full_walks(mp: pytest.MonkeyPatch) -> None:
    """Patch both group tests to False, so every certifier walks in full."""
    mp.setattr(Code, "_is_group", lambda self: False)
    mp.setattr(group_testing, "_embeds_group", lambda d: False)


def _anchored_and_full(c: Code, seed: int) -> tuple[dict, dict]:
    order = np.random.default_rng(seed).permutation(len(c))
    anchored = _certificates(c, order)
    with pytest.MonkeyPatch.context() as mp:
        _full_walks(mp)
        return anchored, _certificates(c, order)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(c=group_codes(), seed=st.integers(0, 2**32 - 1))
def test_group_codes_anchored_equal_full(c, seed):
    assert c._is_group()
    anchored, full = _anchored_and_full(c, seed)
    assert anchored == full


@settings(derandomize=True, max_examples=150, deadline=None)
@given(c=random_codes(), seed=st.integers(0, 2**32 - 1))
def test_random_codes_anchored_equal_full(c, seed):
    anchored, full = _anchored_and_full(c, seed)
    assert anchored == full


@settings(derandomize=True, max_examples=300, deadline=None)
@given(c=st.one_of(group_codes(), random_codes(most=9, longest=3)))
def test_group_test_is_closure_over_a_prime(c):
    assert c._is_group() == (is_prime(c.q) and _closed(c))
    assert group_testing._embeds_group(design_from_code(c)) == c._is_group()


def test_non_prime_groups_take_the_full_walk():
    # Z_4 and Z_2 x Z_2 inside Z_4^2: closed under addition, but q is not prime
    for rows in ([[0, 0], [1, 1], [2, 2], [3, 3]], [[0, 0], [0, 2], [2, 0], [2, 2]]):
        c = Code.from_array(4, rows)
        assert _closed(c) and not c._is_group()
        assert not group_testing._embeds_group(design_from_code(c))


def test_anchoring_a_non_group_code_changes_its_reports():
    """A wrong group flag shows: on {000000, 000111, 001111} the closest
    and most biased pair is (1, 2), which a walk from item 0 cannot see."""
    c = Code.from_array(2, [[0, 0, 0, 0, 0, 0], [0, 0, 0, 1, 1, 1], [0, 0, 1, 1, 1, 1]])
    assert not c._is_group()
    full = (min_distance(c), lwise_distance(c, 2), code_bias(c))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Code, "_is_group", lambda self: True)
        mp.setattr(group_testing, "_embeds_group", lambda d: True)
        forced = (min_distance(c), lwise_distance(c, 2), code_bias(c))
        design = verify_design(design_from_code(c))
    assert full[0].witness == full[1].witness == (1, 2)
    assert forced[0].witness == forced[1].witness == design.witness == (0, 1)
    assert forced[0] != full[0] and forced[1] != full[1] and forced[2] != full[2]


def test_a_design_off_the_blocks_takes_the_full_walk():
    """Sets of three among six points, in four columns, read block by block
    as symbols, give the words 110, 000, 100 and 010, a group; but set 0
    holds two points of block 0, so this is no embedding, and its largest
    intersection is at (1, 2), off item 0."""
    m = np.zeros((6, 4), dtype=bool)
    for j, points in enumerate([(0, 1, 3), (0, 2, 4), (1, 2, 4), (2, 3, 4)]):
        m[list(points), j] = True
    d = Design(m)
    assert not group_testing._embeds_group(d)
    assert verify_design(d) == oracle.verify_design(d)
    assert (verify_design(d).max_intersection, verify_design(d).witness) == (2, (1, 2))


def test_a_design_with_a_repeated_word_takes_the_full_walk():
    """The embeddings of 00, 01, 10 and 10 again: four words of rank 2 over
    F_2, but not distinct, so no group; the repeated pair (2, 3) meets in
    both points, off item 0."""
    d = Design(bool_code(Code.from_array(2, [[0, 0], [0, 1], [1, 0]]))[:, [0, 1, 2, 2]])
    assert not group_testing._embeds_group(d)
    assert verify_design(d) == oracle.verify_design(d)
    assert (verify_design(d).max_intersection, verify_design(d).witness) == (2, (2, 3))


@pytest.mark.parametrize("q, k", [(5, 2), (7, 2), (11, 2), (5, 3), (13, 2)])
def test_kautz_singleton_designs_anchored_equal_full(q, k):
    m, _ = kautz_singleton(q, k)
    designs = [Design(m), Design(m[:, np.random.default_rng(q * k).permutation(m.shape[1])])]
    assert all(group_testing._embeds_group(d) for d in designs)
    anchored = [verify_design(d) for d in designs]
    with pytest.MonkeyPatch.context() as mp:
        _full_walks(mp)
        assert anchored == [verify_design(d) for d in designs]
    assert anchored[0] == oracle.verify_design(designs[0])


@pytest.mark.parametrize("q, k", [(7, 3), (11, 2), (13, 2)])
def test_reed_solomon_anchored_equal_full(q, k):
    c = reed_solomon(q, k)
    assert c._group is True  # recorded by enumerate_codewords, not tested
    anchored = (min_distance(c), code_bias(c).hex(), lwise_distance(c, 3))
    with pytest.MonkeyPatch.context() as mp:
        _full_walks(mp)
        assert anchored == (min_distance(c), code_bias(c).hex(), lwise_distance(c, 3))


def test_read_back_span_is_decided_a_group():
    c = enumerate_codewords(LinearCode(3, 2, 5, [[1, 0, 1, 2, 0], [0, 1, 1, 1, 2]]))
    copy = Code.from_array(3, c.array())
    assert copy._group is None and copy._is_group() and copy._group is True


def test_full_walks_stay_blocked_on_a_large_group():
    """The full pair walks keep their memory bound, also where a group
    would have taken the anchored path."""
    c = reed_solomon(11, 3)
    with pytest.MonkeyPatch.context() as mp:
        _full_walks(mp)
        for measure, most in ((min_distance, 8), (code_bias, 16)):
            tracemalloc.start()
            try:
                measure(c)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < most * 2**20


def test_anchored_design_is_not_cast():
    """The anchored walk reads column 0's intersections as int sums over
    its support, with no float copy of the matrix: on KS(11, 3), 121 x 1331,
    verify_design peaks below the float32 copy that the full walk makes."""
    matrix, _ = kautz_singleton(11, 3)
    design = Design(matrix)
    assert group_testing._embeds_group(design)
    verify_design(design)  # the first call's imports and caches stay out
    tracemalloc.start()
    try:
        report = verify_design(design)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.max_intersection == 2 and report.witness == (0, 1)
    assert peak < matrix.size * np.dtype(np.float32).itemsize


@st.composite
def _matrices(draw):
    """An integer matrix over a prime field, with zero and repeated rows and
    columns mixed in, and a tall span now and then."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        generator = rng.integers(0, p, size=(draw(st.integers(1, 3)), draw(st.integers(1, 9))))
        return codes._span(p, generator).astype(np.int64), p
    m = rng.integers(0, p, size=(draw(st.integers(1, 12)), draw(st.integers(1, 12))))
    for _ in range(draw(st.integers(0, 3))):
        i, j = rng.integers(0, m.shape[0]), rng.integers(0, m.shape[1])
        kind = draw(st.sampled_from(["zero row", "zero column", "repeat row"]))
        if kind == "zero row":
            m[i] = 0
        elif kind == "zero column":
            m[:, j] = 0
        else:
            m[i] = m[rng.integers(0, m.shape[0])]
    return m, p


@settings(derandomize=True, max_examples=400, deadline=None)
@given(case=_matrices())
def test_rank_matches_the_row_loop(case):
    m, p = case
    assert codes._rank_mod_p(m, p) == oracle.rank_mod_p(m, p)


def test_anchored_walks_visit_only_the_sets_through_item_0():
    rng = np.random.default_rng(3)
    d = rng.integers(0, 4, size=(9, 9))
    d = d + d.T
    for size in (2, 3, 4):
        seen = []
        best = caps.lex_first_max_pair_sum(
            d, size, lambda t: seen.append(len(t)) or np.negative(t), True)
        through = [s for s in combinations(range(9), size) if s[0] == 0]
        totals = [-sum(d[i, j] for i, j in combinations(s, 2)) for s in through]
        top = max(totals)
        assert sum(seen) == math.comb(8, size - 1)
        assert best == (top, through[totals.index(top)])
    rows = []
    table = rng.integers(0, 5, size=(9, 9))
    best = caps.lex_first_max_pair(
        lambda i0, i1: rows.append((i0, i1)) or table[i0:i1, i0:].copy(), 9, True)
    top = int(table[0, 1:].max())
    assert rows == [(0, 1)]
    assert best == (top, (0, 1 + table[0, 1:].tolist().index(top)))
