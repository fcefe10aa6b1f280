import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalar_oracles import hamming_distance
from sparsecode import listdecode

from sparsecode.codes import Code, balance_closure, enumerate_codewords, random_linear_code_gv
from sparsecode.embeddings import sph_code
from sparsecode.errors import DomainError, EnumerationCapError
from sparsecode.listdecode import (
    converse_check,
    johnson_check,
    list_size_at_radius,
    list_sizes_at_radii,
    pipeline_epsilon_floor,
    rip_to_listdecoding_report,
)
from sparsecode.words import Word


def _code(q, *rows):
    return Code(Word(q, row) for row in rows)


def _naive_list_size(c, radius):
    """Independent oracle: direct ball membership counts per center."""
    best = 0
    for center in product(range(c.q), repeat=c.n):
        x = Word(c.q, center)
        count = sum(hamming_distance(x, w) <= radius for w in c)
        best = max(best, count)
    return best


def _chunked_list_sizes(c, radii, chunk=4096):
    """Reference sweep: centers from itertools.product, compared in chunks."""
    words = c.array()
    best = [-1] * len(radii)
    witness = [None] * len(radii)
    centers = product(range(c.q), repeat=c.n)
    while True:
        block = []
        for _ in range(chunk):
            nxt = next(centers, None)
            if nxt is None:
                break
            block.append(nxt)
        if not block:
            break
        arr = np.array(block, dtype=np.int64)
        dists = (arr[:, None, :] != words[None, :, :]).sum(axis=2)
        for ri, r in enumerate(radii):
            counts = (dists <= r).sum(axis=1)
            pos = int(np.argmax(counts))
            if int(counts[pos]) > best[ri]:
                best[ri] = int(counts[pos])
                witness[ri] = Word(c.q, tuple(int(s) for s in arr[pos]))
    return [(best[i], witness[i]) for i in range(len(radii))]


# largest n with q^n <= 4096, per alphabet
_MAX_LENGTH = {2: 12, 3: 7, 4: 6, 5: 5, 7: 4}


@st.composite
def _small_codes(draw):
    q = draw(st.sampled_from(sorted(_MAX_LENGTH)))
    n = draw(st.integers(1, _MAX_LENGTH[q]))
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    rows = draw(st.lists(word, min_size=1, max_size=24))
    return _code(q, *rows)


class TestSplitSumSweep:
    """The split-sum sweep against the chunked itertools.product sweep."""

    @pytest.mark.parametrize("block_elements", [listdecode._BLOCK_ELEMENTS, 8])
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(c=_small_codes())
    def test_matches_chunked_sweep(self, c, block_elements):
        # every radius 0..n in one call, plus radii past n and below 0
        radii = list(range(-1, c.n + 3))
        with pytest.MonkeyPatch.context() as mp:
            # a tiny block budget puts the worst centers in later blocks
            mp.setattr(listdecode, "_BLOCK_ELEMENTS", block_elements)
            got = list_sizes_at_radii(c, radii)
        assert got == _chunked_list_sizes(c, radii)

    @pytest.mark.parametrize("q", [2, 3, 7])
    def test_length_one(self, q):
        c = _code(q, (q - 1,), (0,))
        radii = [0, 1, 2]
        assert list_sizes_at_radii(c, radii) == _chunked_list_sizes(c, radii)

    def test_single_codeword(self):
        c = _code(3, (2, 0, 1, 1, 2))
        radii = list(range(7))
        got = list_sizes_at_radii(c, radii)
        assert got == _chunked_list_sizes(c, radii)
        assert got[0] == (1, Word(3, (2, 0, 1, 1, 2)))

    @pytest.mark.parametrize("q, n", [(2, 12), (3, 6), (5, 4)])
    def test_full_space_code(self, q, n):
        c = Code(Word(q, t) for t in product(range(q), repeat=n))
        radii = list(range(n + 2))
        got = list_sizes_at_radii(c, radii)
        assert got == _chunked_list_sizes(c, radii)
        assert got[-1] == (q**n, Word(q, (0,) * n))

    def test_no_radii(self):
        assert list_sizes_at_radii(_code(2, (0, 1)), []) == []

    def test_cap_checked_first(self):
        c = _code(2, (0,) * 40, (1,) * 40)
        with pytest.raises(EnumerationCapError):
            list_sizes_at_radii(c, [3])

    @pytest.mark.parametrize("c", [
        Code(Word(2, tuple(int(s) for s in row))
             for row in np.random.default_rng(20).integers(0, 2, size=(16, 20))),
        Code(Word(2, t) for t in product(range(2), repeat=12)),
    ], ids=["n20-C16", "full-2^12"])
    def test_memory_is_bounded(self, c):
        # the blocks use ~2 MB; the 2^12 space unblocked would need ~32 MB
        tracemalloc.start()
        try:
            list_sizes_at_radii(c, [c.n // 4, c.n // 2])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestListSize:
    def test_radius_zero(self):
        c = _code(2, (0, 0, 1), (1, 1, 0), (0, 1, 1))
        rep = list_size_at_radius(c, 0.0)
        assert rep.max_list_size == 1

    def test_radius_one(self):
        c = _code(2, (0, 0, 1), (1, 1, 0), (0, 1, 1))
        assert list_size_at_radius(c, 1.0).max_list_size == 3

    def test_radius_below_half_on_two_words(self):
        c = _code(2, (0, 0), (1, 1))
        rep = list_size_at_radius(c, 0.49)
        assert rep.absolute_radius == 0
        assert rep.max_list_size == 1

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            rows = {tuple(int(s) for s in rng.integers(0, 2, size=n))
                    for _ in range(5)}
            c = _code(2, *rows)
            for rho in (0.0, 0.3, 0.6):
                radius = math.floor(rho * c.n + 1e-12)
                assert (
                    list_size_at_radius(c, rho).max_list_size
                    == _naive_list_size(c, radius)
                )

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(52)
        rows = {tuple(int(s) for s in rng.integers(0, 2, size=8))
                for _ in range(8)}
        c = _code(2, *rows)
        sizes = [list_size_at_radius(c, r / 8).max_list_size for r in range(9)]
        assert sizes == sorted(sizes)
        assert sizes[-1] == len(c)

    def test_worst_center_attains_size(self):
        rng = np.random.default_rng(53)
        rows = {tuple(int(s) for s in rng.integers(0, 2, size=7))
                for _ in range(7)}
        c = _code(2, *rows)
        rep = list_size_at_radius(c, 0.3)
        attained = sum(
            hamming_distance(rep.worst_center, w) <= rep.absolute_radius
            for w in c
        )
        assert attained == rep.max_list_size

    def test_radius_range(self):
        with pytest.raises(DomainError):
            list_size_at_radius(_code(2, (0, 0)), 1.5)

    def test_center_cap(self):
        c = _code(2, tuple([0] * 14), tuple([1] * 14))
        with pytest.raises(EnumerationCapError):
            list_size_at_radius(c, 0.5, cap=100)


class TestJohnson:
    def test_requires_binary(self):
        with pytest.raises(DomainError):
            johnson_check(_code(3, (0, 0), (1, 1)), 0.5)

    def test_degenerate_epsilon_rejected(self):
        c = _code(2, (0, 0, 0, 0), (1, 1, 1, 1))
        with pytest.raises(DomainError):
            johnson_check(c, 1.0 / math.sqrt(2))
        with pytest.raises(DomainError):
            johnson_check(c, 0.0)

    def test_small_code_not_applicable(self):
        rep = johnson_check(_code(2, (0, 0), (1, 1)), 0.25)
        assert rep.verdict == "not-applicable"

    def test_premise_violation_is_vacuous(self):
        # five words clustered at tiny mutual distance: 5-wise distance ~ 0
        rows = [(0,) * 8]
        for i in range(4):
            row = [0] * 8
            row[i] = 1
            rows.append(tuple(row))
        rep = johnson_check(_code(2, *rows), 0.5)
        assert rep.verdict == "vacuous"
        assert rep.premise_value < rep.premise_threshold

    def test_zero_counterexamples_on_corpus_slice(self, listdecode_corpus):
        verdicts = set()
        for code in listdecode_corpus[:120]:
            rep = johnson_check(code, 0.5)
            assert rep.verdict != "fail"
            verdicts.add(rep.verdict)
        assert "pass" in verdicts


class TestConverse:
    def test_requires_binary(self):
        with pytest.raises(DomainError):
            converse_check(_code(3, (0, 0), (1, 1)), 2, 0.25)

    def test_small_code_not_applicable(self):
        rep = converse_check(_code(2, (0, 0), (1, 1)), 2, 0.25)
        assert rep.verdict == "not-applicable"

    def test_list_decodability_failure_is_vacuous(self):
        # 8 words within radius 1 of zero: huge list at small radius
        rows = [(0,) * 8]
        for i in range(7):
            row = [0] * 8
            row[i] = 1
            rows.append(tuple(row))
        rep = converse_check(_code(2, *rows), 2, 0.25)
        assert rep.verdict == "vacuous"

    def test_zero_counterexamples_on_corpus_slice(self, listdecode_corpus):
        for code in listdecode_corpus[:80]:
            rep = converse_check(code, 2, 0.25)
            assert rep.verdict != "fail"

    def test_epsilon_range(self):
        with pytest.raises(DomainError):
            converse_check(_code(2, (0, 0), (1, 1)), 2, 0.6)


class TestEpsilonFloor:
    def test_values(self):
        eps, ok = pipeline_epsilon_floor(8)
        assert ok
        assert eps == pytest.approx(1.0 / math.sqrt(3))

    def test_unattainable_for_small_orders(self):
        assert pipeline_epsilon_floor(4) == (1.0, False)


class TestRipToListDecoding:
    def test_hadamard_like_columns(self):
        # orthonormal +-1/2 columns in dimension 4
        m = np.array(
            [
                [1, 1, 1, 1],
                [1, -1, 1, -1],
                [1, 1, -1, -1],
                [1, -1, -1, 1],
            ],
            dtype=float,
        ).T / 2.0
        report = rip_to_listdecoding_report(m, 4, alpha=0.0, epsilon=0.5)
        assert report["flat_ok"]
        assert all(stage["ok"] for stage in report["bias_stages"])
        assert report["johnson"]["verdict"] in ("pass", "vacuous", "not-applicable")

    def test_gv_embedding_end_to_end(self):
        lc = random_linear_code_gv(2, 12, 0.2, seed=3)
        code = balance_closure(enumerate_codewords(lc))
        m = sph_code(code)
        from sparsecode.certify import rip2_constant

        L = 6
        alpha = rip2_constant(m, L).alpha
        report = rip_to_listdecoding_report(m, L, alpha, epsilon=0.5)
        assert report["flat_ok"]
        assert all(stage["ok"] for stage in report["bias_stages"])
        assert report["johnson"]["verdict"] != "fail"
        assert report["epsilon_floor"] == pytest.approx(1.0 / math.sqrt(2))

    def test_rejects_non_embedding_matrix(self):
        m = np.ones((4, 3)) / 2.0
        m[0, 0] = 0.9
        from sparsecode.errors import NotAnEmbeddingError

        with pytest.raises(NotAnEmbeddingError):
            rip_to_listdecoding_report(m, 2, 0.1, 0.5)
