import ast
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sparsecode
from sparsecode.caps import (
    center_cap,
    codeword_cap,
    lex_first_max,
    lex_first_max_pair,
    lex_first_max_pair_sum,
    product_rows,
    subset_blocks,
    subset_cap,
    subsets,
    supports,
)
from sparsecode.errors import DomainError, EnumerationCapError
import scalar_oracles as oracle


@pytest.mark.parametrize("n_items, size", [(6, 1), (6, 3), (6, 6), (9, 4)])
def test_subsets_match_combinations_order(n_items, size):
    rows = subsets(n_items, size)
    assert rows.dtype == np.int64
    assert rows.shape == (len(list(combinations(range(n_items), size))), size)
    assert [tuple(r) for r in rows.tolist()] == list(combinations(range(n_items), size))
    assert np.array_equal(rows, oracle.subsets(n_items, size))


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


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_supports_match_combinations_size_by_size(monkeypatch, data):
    n_items = data.draw(st.integers(0, 10))
    most = data.draw(st.integers(0, n_items))
    want = [s for size in range(most + 1) for s in combinations(range(n_items), size)]
    monkeypatch.delenv("SPARSECODE_CAP", raising=False)
    for block in (1, 7, 1 << 30):
        blocks = list(supports(n_items, most, block))
        # each block is one size's rows, never empty and at most `block` of them
        assert all(rows.dtype == np.int64 and rows.ndim == 2 and 1 <= len(rows) <= block
                   for rows in blocks)
        assert [tuple(r) for rows in blocks for r in rows.tolist()] == want
    if len(want) > 1:
        cap = data.draw(st.integers(1, len(want) - 1))
        monkeypatch.setenv("SPARSECODE_CAP", str(cap))
        # refused at the call, before any block is asked for
        with pytest.raises(EnumerationCapError,
                           match=f"^{len(want)} supports exceed cap {cap}$"):
            supports(n_items, most, data.draw(st.sampled_from([1, 7, 1 << 30])))


@pytest.mark.parametrize("q, length", [(2, 0), (2, 1), (2, 5), (3, 4), (5, 3), (13, 2)])
def test_product_rows_match_product_order(q, length):
    full = [list(t) for t in product(range(q), repeat=length)]
    rows = product_rows(q, length, 0, len(full))
    assert rows.dtype == np.int64
    assert rows.shape == (len(full), length)
    assert rows.tolist() == full
    for start, stop in [(0, 0), (0, 1), (len(full) - 1, len(full)),
                        (len(full) // 3, len(full) // 2 + 1)]:
        part = product_rows(q, length, start, stop)
        assert part.shape == (stop - start, length)
        assert part.tolist() == full[start:stop]


@pytest.mark.parametrize("block", [1, 2, 7, 100])
@pytest.mark.parametrize("kind", [int, float])
def test_lex_first_max_matches_brute_force(block, kind):
    rng = np.random.default_rng(9)
    for n_items, size in [(1, 1), (5, 1), (6, 2), (7, 3), (9, 4), (8, 8), (12, 3)]:
        rows = oracle.subsets(n_items, size)
        rank = {row: k for k, row in enumerate(map(tuple, rows.tolist()))}
        tables = [
            # few distinct values, so the maximum is tied across block edges
            rng.integers(0, 3, size=len(rows)),
            np.full(len(rows), -2),  # every subset ties, and all are negative
        ]
        for table in tables:
            if kind is float:
                table = table / 3 - 0.25
            first = int(np.flatnonzero(table == table.max())[0])
            got = lex_first_max(
                lambda block_rows: table[[rank[r] for r in map(tuple, block_rows.tolist())]],
                n_items, size, block)
            assert got == (table[first].item(), tuple(rows[first].tolist()))
            assert type(got[0]) is kind


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
        assert type(got[0]) is int


@pytest.mark.parametrize("block", [1, 2, 7, 100])
def test_lex_first_max_pair_float_scores(block):
    rng = np.random.default_rng(6)
    for size in (2, 3, 8, 21):
        table = rng.integers(0, 3, size=(size, size)) / 7
        table = table + table.T
        brute = max(combinations(range(size), 2),
                    key=lambda p: (table[p], -p[0], -p[1]))
        got = lex_first_max_pair(lambda i0, i1: table[i0:i1, i0:].copy(), size, block)
        assert got == (table[brute].item(), brute)
        assert type(got[0]) is float


@st.composite
def _pair_sum_cases(draw):
    """A symmetric int64 matrix of few distinct values, so that maxima tie
    across chunk edges, sometimes scaled past int32, and a subset size."""
    n = draw(st.integers(2, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.integers(0, draw(st.integers(1, 3)) + 1, size=(n, n))
    d = np.triu(d, 1) + np.triu(d, 1).T
    if draw(st.booleans()):
        d = d << 33
    return d, draw(st.integers(2, n))


def _brute_pair_sums(d, size, scores):
    """The lex-first best subset under each score, by a scalar loop over
    combinations."""
    subsets = list(combinations(range(len(d)), size))
    totals = np.array([sum(int(d[i, j]) for i, j in combinations(subset, 2))
                       for subset in subsets], dtype=np.int64)
    found = []
    for score in scores:
        best, witness = None, None
        for subset, value in zip(subsets, score(totals).tolist()):
            if best is None or value > best:
                best, witness = value, subset
        found.append((best, witness))
    return found


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=_pair_sum_cases())
def test_lex_first_max_pair_sum_matches_brute_force(case):
    d, size = case
    scale = 7 * int(d.max() + 1)
    scores = (np.negative, lambda t: np.abs(t / scale - 0.5))
    for score, brute in zip(scores, _brute_pair_sums(d, size, scores)):
        for block in (1, 7, 1 << 30):
            chunks = []

            def counted(totals):
                chunks.append(len(totals))
                return score(totals)

            got = lex_first_max_pair_sum(d, size, counted, block)
            assert got == brute
            assert type(got[0]) is type(brute[0])
            assert max(chunks) <= block
            assert sum(chunks) == math.comb(len(d), size)


@pytest.mark.parametrize("resolve, default", [
    (subset_cap, 10**7), (codeword_cap, 2**20), (center_cap, 2**22)])
def test_env_cap_overrides_every_kind(resolve, default, monkeypatch):
    monkeypatch.delenv("SPARSECODE_CAP", raising=False)
    assert resolve() == default
    for good in ("1", "5", " 7 "):
        monkeypatch.setenv("SPARSECODE_CAP", good)
        assert resolve() == int(good)
    for bad in ("0", "-3", "abc", "1.5", ""):
        monkeypatch.setenv("SPARSECODE_CAP", bad)
        with pytest.raises(DomainError,
                           match=f"^SPARSECODE_CAP must be an integer >= 1, got {bad!r}$"):
            resolve()


def test_caps_is_the_only_cap_source():
    """A cap comes only from caps, read from SPARSECODE_CAP there: no function
    takes a cap parameter, and no other module reads the environment or
    names the variable."""
    offenders = []
    for path in sorted(Path(sparsecode.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.arg) and node.arg == "cap":
                offenders.append((path.name, node.lineno, "cap parameter"))
            if path.name == "caps.py":
                continue
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                offenders.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "os" and any(
                    alias.name in ("environ", "getenv", "*") for alias in node.names):
                offenders.append((path.name, node.lineno, "from os import"))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and "SPARSECODE_CAP" in node.value):
                offenders.append((path.name, node.lineno, "SPARSECODE_CAP"))
    assert offenders == []


def test_only_caps_imports_combinations():
    """Enumeration orders are caps' alone: the lex order of subsets and the
    product order of messages and centers.  No other module walks either."""
    orders = {"combinations", "product"}
    offenders = []
    for path in sorted(Path(sparsecode.__file__).parent.glob("*.py")):
        if path.name == "caps.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                names = {alias.name for alias in node.names}
                if names & (orders | {"*"}):
                    offenders.append(path.name)
            elif (isinstance(node, ast.Attribute) and node.attr in orders
                  and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
                offenders.append(path.name)
    assert offenders == []
