from itertools import combinations

import numpy as np
import pytest

from sparsecode.caps import lex_first_max_pair, subset_blocks, subsets


@pytest.mark.parametrize("n_items, size", [(6, 1), (6, 3), (6, 6), (9, 4)])
def test_subsets_match_combinations_order(n_items, size):
    rows = subsets(n_items, size)
    assert rows.dtype == np.int64
    assert rows.shape == (len(list(combinations(range(n_items), size))), size)
    assert [tuple(r) for r in rows.tolist()] == list(combinations(range(n_items), size))


@pytest.mark.parametrize("n_items, size", [(6, 0), (6, 1), (6, 3), (6, 6), (9, 4)])
@pytest.mark.parametrize("first, largest", [(1, 1), (1, 7), (3, 5), (64, 1 << 13)])
def test_subset_blocks_concatenate_to_subsets(n_items, size, first, largest):
    blocks = list(subset_blocks(n_items, size, first, largest))
    starts = [start for start, _ in blocks]
    lengths = [len(rows) for _, rows in blocks]
    assert starts == [sum(lengths[:i]) for i in range(len(blocks))]
    assert lengths[0] == min(first, len(subsets(n_items, size)))
    assert all(n <= largest for n in lengths)
    assert np.array_equal(np.concatenate([rows for _, rows in blocks]),
                          subsets(n_items, size))


@pytest.mark.parametrize("block", [1, 2, 7, 100])
def test_lex_first_max_pair_matches_brute_force(block):
    rng = np.random.default_rng(5)
    for size in (2, 3, 8, 21):
        # few distinct values, so the maximum is tied across blocks
        table = rng.integers(0, 3, size=(size, size))
        table = table + table.T
        brute = max(combinations(range(size), 2),
                    key=lambda p: (table[p], -p[0], -p[1]))
        got = lex_first_max_pair(lambda i0, i1: table[i0:i1, i0:].copy(), size, block)
        assert got == (int(table[brute]), brute)
