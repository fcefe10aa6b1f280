from itertools import combinations

import numpy as np
import pytest

from sparsecode.caps import subsets


@pytest.mark.parametrize("n_items, size", [(6, 1), (6, 3), (6, 6), (9, 4)])
def test_subsets_match_combinations_order(n_items, size):
    rows = subsets(n_items, size)
    assert rows.dtype == np.int64
    assert rows.shape == (len(list(combinations(range(n_items), size))), size)
    assert [tuple(r) for r in rows.tolist()] == list(combinations(range(n_items), size))
