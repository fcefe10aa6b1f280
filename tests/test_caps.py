import ast
import math
import sys
import threading
from itertools import combinations, product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sparsecode
from sparsecode import caps, certify, group_testing, recovery
from sparsecode.caps import (
    LexFirst,
    center_cap,
    codeword_cap,
    lex_first_max,
    lex_first_max_pair,
    lex_first_max_pair_sum,
    product_rows,
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


@pytest.mark.parametrize("n_items, size", [(3, 5), (0, 1)])
def test_subsets_larger_than_the_items_are_none(n_items, size):
    rows = subsets(n_items, size)
    assert rows.dtype == np.int64
    assert rows.shape == (0, size)


@pytest.mark.parametrize("n_items, size", [(6, 0), (6, 1), (6, 3), (6, 6), (9, 4)])
@pytest.mark.parametrize("first, largest", [(1, 1), (1, 7), (3, 5), (64, 1 << 13)])
def test_subset_blocks_concatenate_to_subsets(n_items, size, first, largest):
    blocks = list(caps._subset_blocks(n_items, size, first, largest))
    lengths = [len(rows) for rows in blocks]
    assert lengths[0] == min(first, len(subsets(n_items, size)))
    assert all(n <= largest for n in lengths)
    assert np.array_equal(np.concatenate(blocks), subsets(n_items, size))


@pytest.fixture
def cold_tables(monkeypatch):
    """An empty table cache for this test; the process's own is left alone."""
    monkeypatch.setattr(caps, "_TABLES", {})
    return caps._TABLES


@pytest.fixture
def rows_built(monkeypatch):
    """A list that records the row count of every lex block built."""
    built = []
    lex_rows = caps._lex_rows

    def spy(combos, size, count):
        built.append(count)
        return lex_rows(combos, size, count)

    monkeypatch.setattr(caps, "_lex_rows", spy)
    return built


@pytest.mark.parametrize("first, largest", list(product((1, 7, 512), repeat=2)))
def test_tables_are_combinations_cold_and_warm(cold_tables, first, largest):
    for n_items in range(10):
        for size in range(n_items + 1):
            want = list(combinations(range(n_items), size))
            for _ in ("cold", "warm"):
                blocks = list(caps._subset_blocks(n_items, size, first, largest))
                assert all(rows.dtype == np.int64 for rows in blocks)
                assert [tuple(r) for rows in blocks for r in rows.tolist()] == want
    # every shape with a row of at least one item was kept
    assert len(cold_tables) == sum(n for n in range(10))


def test_blocks_are_read_only(cold_tables, monkeypatch):
    for budget in (caps._TABLE_BYTES, 0):
        monkeypatch.setattr(caps, "_TABLE_BYTES", budget)
        for rows in caps._subset_blocks(7, 3, 4, 8):
            assert not rows.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 99
        assert subsets(7, 3).tolist() == [list(c) for c in combinations(range(7), 3)]


def test_concurrent_walks_of_a_new_shape(cold_tables):
    """Threads that grow one table at once each read combinations' rows."""
    got, errors = [], []

    def walk(n_items, size, k):
        try:
            got.append(((n_items, size), np.concatenate(
                [rows.copy() for rows in caps._subset_blocks(n_items, size, 1 + k, 64 + k)])))
        except Exception as e:  # reported below, with the thread's shape
            errors.append((n_items, size, k, e))

    shapes = [(16, 4), (17, 3), (15, 5), (18, 2), (14, 6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for n_items, size in shapes:
            threads = [threading.Thread(target=walk, args=(n_items, size, k))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(got) == 6 * len(shapes)
    for (n_items, size), rows in got:
        assert rows.tolist() == [list(c) for c in combinations(range(n_items), size)]


def _hex_floats(obj):
    """obj with every float replaced by its float.hex, so == compares bits."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hex_floats(v) for v in obj]
    return obj


def _table_certificates():
    """One report of each certifier that walks caps._subset_blocks, as dicts."""
    rng = np.random.default_rng(41)
    m = rng.normal(size=(5, 10)) + 1j * rng.normal(size=(5, 10))
    m /= np.linalg.norm(m, axis=0)
    design = (rng.random((12, 14)) < 0.4).astype(np.int64)
    x = np.zeros(10, dtype=np.complex128)
    x[[2, 7]] = (1.5, -0.5j)
    decoded = recovery.cs_decode_exhaustive(m, recovery.cs_encode(m, x), 2)
    return [
        [r.to_dict() for r in certify.rip2_profile(m, 4)],
        certify.flat_rip_constant(m, 3).to_dict(),
        certify.kernel_injectivity(m, 2).to_dict(),
        group_testing.verify_disjunct(design, 1).to_dict(),
        group_testing.verify_disjunct(design, 2).to_dict(),
        # == on the result; its float by float.hex and its estimate by bytes
        [decoded, decoded.residual_norm, decoded.estimate.tobytes()],
    ]


def test_table_budget_changes_no_report(cold_tables, monkeypatch):
    default = _hex_floats(_table_certificates())
    assert cold_tables
    monkeypatch.setattr(caps, "_TABLES", {})
    monkeypatch.setattr(caps, "_TABLE_BYTES", 0)
    assert _hex_floats(_table_certificates()) == default
    # with no budget nothing is kept
    assert caps._TABLES == {}


def test_each_table_is_built_once(cold_tables, rows_built):
    m = np.random.default_rng(3).normal(size=(4, 12))
    first = certify.rip2_profile(m, 3)
    assert sum(rows_built) == sum(math.comb(12, s) for s in range(1, 4))
    rows_built.clear()
    assert certify.rip2_profile(m, 3) == first
    assert rows_built == []


def test_early_exit_builds_only_its_first_block(rows_built, monkeypatch):
    # column 1 covers every column, so target 0's first 2-set is a witness
    m = np.eye(30, 30, dtype=np.int64)
    m[:, 1] = 1
    for first in (1, 7, caps._FIRST_BLOCK):
        monkeypatch.setattr(caps, "_FIRST_BLOCK", first)
        monkeypatch.setattr(caps, "_TABLES", {})  # cold, so each walk builds its rows
        rows_built.clear()
        report = group_testing.verify_disjunct(m, 2)
        assert report.witness == (0, (1, 2)) and report.tuples_checked == 1
        assert rows_built == [first]


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_supports_match_combinations_size_by_size(monkeypatch, data):
    n_items = data.draw(st.integers(0, 10))
    most = data.draw(st.integers(0, n_items))
    want = [s for size in range(most + 1) for s in combinations(range(n_items), size)]
    monkeypatch.delenv("SPARSECODE_CAP", raising=False)
    for block in (1, 7, 1 << 30):
        monkeypatch.setattr(caps, "_SUPPORT_BLOCK", block)
        blocks = list(supports(n_items, most))
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
            monkeypatch.setattr(caps, "_SUPPORT_BLOCK",
                                data.draw(st.sampled_from([1, 7, 1 << 30])))
            supports(n_items, most)


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


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data())
def test_lex_first_offers_in_pieces_match_one_offer(data):
    """Scores with planted ties, cut at random points and offered in order,
    give the (best, witness) of one offer of them all: the first of any tie
    wins, and a witness is built only when its candidate takes the lead."""
    n = data.draw(st.integers(1, 60))
    dtype = data.draw(st.sampled_from([np.int8, np.int64, np.float64]))
    # few distinct values, so maxima tie within and across pieces
    scores = np.array(data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                      dtype=dtype)
    cuts = sorted(data.draw(st.sets(st.integers(1, n - 1)))) if n > 1 else []
    whole = LexFirst()
    whole.offer(scores, lambda pos: pos)
    first = int(np.flatnonzero(scores == scores.max())[0])
    assert (whole.best, whole.witness) == (scores[first].item(), first)
    assert type(whole.best) is type(scores[first].item())

    lead, named = LexFirst(), []
    assert (lead.best, lead.witness) == (None, ())
    for start, stop in zip([0, *cuts], [*cuts, n]):
        piece = scores[start:stop]
        if data.draw(st.booleans()) and len(piece) % 2 == 0:
            piece = piece.reshape(2, -1)  # a 2-d block is read in C order
        lead.offer(piece, lambda pos: named.append(start + pos) or start + pos)
    assert (lead.best, lead.witness) == (whole.best, whole.witness)
    assert type(lead.best) is type(whole.best)
    # each witness built took the lead with a strictly larger score
    assert named[-1] == first
    assert all(scores[a] < scores[b] for a, b in zip(named, named[1:]))


@pytest.mark.parametrize("block", [1, 2, 7, 100])
@pytest.mark.parametrize("kind", [int, float])
def test_lex_first_max_matches_brute_force(block, kind, monkeypatch):
    monkeypatch.setattr(caps, "_SUBSET_BLOCK", block)
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
            # the first block without an incumbent and with one: a lead that
            # holds a score below every subset's starts the walk led
            for first_block, first_led, led in product((1, 7, 1 << 30), (1, 7, 1 << 30),
                                                       (False, True)):
                monkeypatch.setattr(caps, "_FIRST_BLOCK", first_block)
                monkeypatch.setattr(caps, "_FIRST_BLOCK_LED", first_led)
                lead = LexFirst()
                if led:
                    lead.offer(np.array([table.min() - 1]), lambda pos: None)
                got = lex_first_max(
                    lambda block_rows: table[[rank[r] for r in map(tuple, block_rows.tolist())]],
                    n_items, size, lead)
                assert got == (table[first].item(), tuple(rows[first].tolist()))
                assert type(got[0]) is kind


@pytest.mark.parametrize("kind", [bool, int, float])
def test_lex_first_max_stops_only_at_a_first_hit(kind, monkeypatch):
    """A 0/1 score ends the walk at the block of its first hit; a numeric
    score walks every block, since a later one may beat any lead."""
    monkeypatch.setattr(caps, "_FIRST_BLOCK", 1)  # blocks of 1, 2, 4, ... rows
    rows = oracle.subsets(8, 3)
    rank = {row: k for k, row in enumerate(map(tuple, rows.tolist()))}
    table = np.zeros(len(rows), dtype=kind)
    table[5], table[20] = 1, 2  # a bool's 2 is True
    scored = []

    def score(block):
        ranks = [rank[r] for r in map(tuple, block.tolist())]
        scored.extend(ranks)
        return table[ranks]

    best, witness = lex_first_max(score, 8, 3, LexFirst())
    first = 5 if kind is bool else 20
    assert (best, witness) == (table[first].item(), tuple(rows[first].tolist()))
    assert type(best) is kind
    # row 5 is in the third block, rows 3..6
    assert scored == list(range(7 if kind is bool else len(rows)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_lex_first_max_prunes_only_rows_below_the_incumbent(data):
    # scores in [-1, 0.5] with ties, mostly negative like the kernel's, and
    # a lead that may already hold an incumbent when the walk starts
    n_items = data.draw(st.integers(1, 7))
    size = data.draw(st.integers(1, n_items))
    rows = oracle.subsets(n_items, size)
    rank = {row: k for k, row in enumerate(map(tuple, rows.tolist()))}
    table = np.array(data.draw(st.lists(st.integers(-4, 2), min_size=len(rows),
                                        max_size=len(rows)))) / 4
    led = data.draw(st.none() | st.integers(-5, 2).map(lambda v: v / 4))

    def scores_of(block):
        return table[[rank[r] for r in map(tuple, block.tolist())]]

    def walk(score=scores_of, below=None):
        lead = LexFirst()
        if led is not None:
            lead.offer(np.array([led]), lambda pos: None)
        return lex_first_max(score, n_items, size, lead, below)

    for schedule in product((1, 7, 1 << 30), repeat=3):
        with pytest.MonkeyPatch.context() as mp:
            for name, block in zip(("_FIRST_BLOCK", "_FIRST_BLOCK_LED", "_SUBSET_BLOCK"),
                                   schedule):
                mp.setattr(caps, name, block)
            scored, marked = [], []

            def score(block):
                ranks = [rank[r] for r in map(tuple, block.tolist())]
                scored.extend(ranks)
                return table[ranks]

            def below(block, best):
                start = rank[tuple(block[0].tolist())]
                earlier = table[:start].tolist() + ([] if led is None else [led])
                # never before the first offer, and always the best of every
                # offer before this block
                assert earlier
                assert best == max(earlier)
                out = table[start:start + len(block)] < best
                marked.extend((start + np.flatnonzero(out)).tolist())
                return out

            assert walk(score, below) == walk()
            # marked rows never reach score, and every other row does, once
            assert not set(marked) & set(scored)
            assert sorted(marked + scored) == list(range(len(rows)))


@pytest.mark.parametrize("block", [1, 2, 7, 100])
def test_lex_first_max_pair_matches_brute_force(block, monkeypatch):
    monkeypatch.setattr(caps, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(5)
    for size in (2, 3, 8, 21):
        # few distinct values, so the maximum is tied across blocks
        table = rng.integers(0, 3, size=(size, size))
        table = table + table.T
        brute = max(combinations(range(size), 2),
                    key=lambda p: (table[p], -p[0], -p[1]))
        got = lex_first_max_pair(lambda i0, i1: table[i0:i1, i0:].copy(), size)
        assert got == (int(table[brute]), brute)
        assert type(got[0]) is int


def test_lex_first_names_no_first_block_without_a_hit():
    def refuse(pos):
        raise AssertionError(f"named position {pos} of a block without a hit")

    lead = LexFirst()
    lead.offer(np.zeros((2, 3), dtype=bool), refuse)
    assert (lead.best, lead.witness) == (False, ())
    lead.offer(np.zeros(4, dtype=bool), refuse)
    assert (lead.best, lead.witness) == (False, ())
    lead.offer(np.array([False, True, True]), lambda pos: ("hit", pos))
    assert (lead.best, lead.witness) == (True, ("hit", 1))
    # a numeric score of 0 is still a maximum, and names its position
    zero = LexFirst()
    zero.offer(np.zeros(3), lambda pos: pos)
    assert (zero.best, zero.witness) == (0.0, 0)


@pytest.mark.parametrize("block", [1, 2, 7, 100])
def test_lex_first_max_pair_float_scores(block, monkeypatch):
    monkeypatch.setattr(caps, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(6)
    for size in (2, 3, 8, 21):
        table = rng.integers(0, 3, size=(size, size)) / 7
        table = table + table.T
        brute = max(combinations(range(size), 2),
                    key=lambda p: (table[p], -p[0], -p[1]))
        got = lex_first_max_pair(lambda i0, i1: table[i0:i1, i0:].copy(), size)
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

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(caps, "_LSET_BLOCK", block)
                got = lex_first_max_pair_sum(d, size, counted)
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


def test_lex_first_is_the_only_argmax():
    """Every first position the library reports is taken by `LexFirst.offer`:
    a lex-first maximum, or a first hit as the maximum of a 0/1 score.  No
    other scope names np.argmax, np.argmin or their nan forms, so a new
    walk or scan offers into a LexFirst."""
    firsts = ("argmax", "nanargmax", "argmin", "nanargmin")

    def scopes(node, scope):
        """The enclosing def and class names of each first position named under node."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from scopes(child, scope + (child.name,))
                continue
            if getattr(child, "attr", getattr(child, "id", None)) in firsts:
                yield ".".join(scope)
            yield from scopes(child, scope)

    found = [(path.name, scope)
             for path in sorted(Path(sparsecode.__file__).parent.glob("*.py"))
             for scope in scopes(ast.parse(path.read_text()), ())]
    assert found == [("caps.py", "LexFirst.offer")]


def test_only_caps_sets_a_block_schedule():
    """`_subset_blocks` takes a block schedule, and only `caps`' walks call
    it, each with its own schedule: no other module names it, so none pages
    lex blocks by hand."""
    blocks = {"subset_blocks", "_subset_blocks"}
    offenders = [
        (path.name, node.lineno)
        for path in sorted(Path(sparsecode.__file__).parent.glob("*.py"))
        if path.name != "caps.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if getattr(node, "attr", getattr(node, "id", None)) in blocks
        or isinstance(node, ast.alias) and node.name in blocks
    ]
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
