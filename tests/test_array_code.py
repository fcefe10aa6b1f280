"""The array-backed Code and its builders against the Word-chain oracles.

Every comparison is exact: the same Words in the same order, the same
matrix bytes, the same file bytes.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
import sparsecode
from sparsecode.codes import (
    Code,
    LinearCode,
    balance_closure,
    enumerate_codewords,
    is_balanced,
    quotient_by_ones,
    random_balanced_code,
    reed_solomon,
    write_code_file,
)
from sparsecode.embeddings import bool_code, sph_code
from sparsecode.errors import DomainError, PreconditionError
from sparsecode.words import Word

_ALPHABETS = [2, 3, 5, 7, 11]
_DIFFERENTIAL = settings(derandomize=True, max_examples=150, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _rows(draw, max_n=6, max_size=12):
    """(q, rows): 1..max_size rows of length 1..max_n, repeats allowed."""
    q = draw(st.sampled_from(_ALPHABETS))
    n = draw(st.integers(1, max_n))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return q, draw(st.lists(row, min_size=1, max_size=max_size))


def _words(q, rows):
    return [Word(q, tuple(r)) for r in rows]


def _same_matrix(got, want):
    """Equal shape, dtype, layout and bytes: real and imaginary bits alike."""
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


@given(_rows())
@example((2, [[0]]))
@example((11, [[10, 0, 3]]))
@example((3, [[2], [0], [2], [1]]))
@_DIFFERENTIAL
def test_code_from_words_equals_from_array(case):
    q, rows = case
    words = _words(q, rows)
    c = Code(words)
    assert c == Code.from_array(q, rows)
    assert c == Code.from_array(q, np.array(rows, dtype=np.uint8))
    assert tuple(c) == oracle.code_words(words)
    assert np.array_equal(c.array(), np.unique(np.array(rows), axis=0))
    a = c.array()
    assert a.dtype == np.int64 and not a.flags.writeable
    assert a is c.array()
    assert (c.q, c.n, len(c)) == (q, len(rows[0]), len(set(map(tuple, rows))))


@given(_rows())
@example((2, [[1]]))
@example((5, [[4, 4]]))
@_DIFFERENTIAL
def test_shift_maps_match_word_chain(case):
    q, rows = case
    c = Code.from_array(q, rows)
    words = tuple(c)
    assert is_balanced(c) == oracle.is_balanced(words)
    closed = balance_closure(c)
    assert tuple(closed) == oracle.balance_closure(words)
    assert is_balanced(closed) and oracle.is_balanced(tuple(closed))
    assert tuple(quotient_by_ones(closed)) == oracle.quotient_by_ones(tuple(closed))
    if not oracle.is_balanced(words):
        with pytest.raises(PreconditionError):
            quotient_by_ones(c)


@given(_rows())
@example((2, [[0]]))
@example((7, [[3]]))
@example((3, [[0, 1, 2, 1]]))
@_DIFFERENTIAL
def test_embeddings_match_word_chain(case):
    q, rows = case
    c = Code.from_array(q, rows)
    words = tuple(c)
    _same_matrix(sph_code(c), oracle.sph_code(words))
    _same_matrix(bool_code(c), oracle.bool_code(words).astype(bool))
    _same_matrix(bool_code(c, normalize=True), oracle.bool_code(words, normalize=True))


@given(_rows())
@example((2, [[1]]))
@example((11, [[10, 9, 8, 7, 6, 5]]))
@_DIFFERENTIAL
def test_code_file_bytes_match_word_chain(tmp_path, case):
    q, rows = case
    c = Code.from_array(q, rows)
    path = tmp_path / "c.code"
    write_code_file(c, path)
    assert path.read_bytes() == oracle.code_file_text(tuple(c)).encode()


@given(st.sampled_from(_ALPHABETS), st.integers(1, 6), st.integers(1, 5),
       st.integers(0, 2**32 - 1))
@example(2, 1, 1, 0)
@example(11, 1, 3, 5)
@_DIFFERENTIAL
def test_random_balanced_code_same_draws(q, n, classes, seed):
    got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = random_balanced_code(q, n, classes, got_rng)
    assert tuple(got) == oracle.random_balanced_code(q, n, classes, want_rng)
    # no draw added or dropped: both generators are at the same point
    assert got_rng.integers(0, 2**62) == want_rng.integers(0, 2**62)


@given(st.sampled_from(_ALPHABETS), st.integers(1, 6), st.data())
@_DIFFERENTIAL
def test_enumerate_codewords_matches_word_chain(q, n, data):
    k = data.draw(st.integers(1, n))
    while q**k > 1331:
        k -= 1
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    generator = data.draw(st.lists(row, min_size=k, max_size=k))
    try:
        lc = LinearCode(q, k, n, generator)
    except DomainError:  # rank deficient
        return
    want = oracle.enumerate_codewords(q, lc.generator)
    assert tuple(enumerate_codewords(lc)) == want


@pytest.mark.parametrize("q, k", [(q, k) for q in _ALPHABETS for k in (1, 2, 3)
                                  if k <= q])
def test_reed_solomon_matches_word_chain(q, k):
    c = reed_solomon(q, k)
    assert tuple(c) == oracle.reed_solomon(q, k)
    assert np.array_equal(c.array(), [w.symbols for w in oracle.reed_solomon(q, k)])


class TestFromArrayValidation:
    @pytest.mark.parametrize("q, rows, reason", [
        (1, [[0, 0]], "alphabet size must be >= 2, got 1"),
        (0, [[0]], "alphabet size must be >= 2, got 0"),
        (2, [], "a code needs at least one codeword"),
        (2, np.zeros((0, 3), dtype=np.int64), "a code needs at least one codeword"),
        (2, [[]], "word must have positive length"),
        (2, np.zeros((2, 0), dtype=np.int64), "word must have positive length"),
        (2, [[0, -1]], "symbols must lie in [0, 2)"),
        (3, [[0, 1], [3, 0]], "symbols must lie in [0, 3)"),
        (2, [[0, 1], [1]], "codewords must form an (N, n) integer array"),
        (2, [0, 1], "codewords must form an (N, n) integer array"),
        (2, [[0.0, 1.0]], "codewords must form an (N, n) integer array"),
    ])
    def test_rejects_with_reason(self, q, rows, reason):
        with pytest.raises(DomainError) as exc:
            Code.from_array(q, rows)
        assert str(exc.value) == reason

    def test_word_reasons_are_the_same(self):
        # the messages Word gives for the same faults
        for q, symbols, rows in [(1, (0,), [[0]]), (2, (), [[]]),
                                 (3, (0, -1), [[0, -1]])]:
            with pytest.raises(DomainError) as word_exc:
                Word(q, symbols)
            with pytest.raises(DomainError) as code_exc:
                Code.from_array(q, rows)
            assert str(word_exc.value) == str(code_exc.value)

    def test_mixed_words_rejected(self):
        with pytest.raises(DomainError):
            Code([Word(2, (0, 1)), Word(2, (0, 1, 1))])


def test_library_builds_codes_only_from_arrays():
    """Code(words) is the Word adapter for the benchmark and the tests: no
    library module calls it, so every code the library builds comes from
    Code.from_array."""
    offenders = []
    for path in sorted(Path(sparsecode.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "Code":
                offenders.append((path.name, node.lineno))
    assert offenders == []
