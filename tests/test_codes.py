import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from sparsecode import codes
from sparsecode.codes import (
    Code,
    LinearCode,
    balance_closure,
    code_bias,
    enumerate_codewords,
    is_balanced,
    lwise_bias,
    lwise_distance,
    min_distance,
    min_distance_epsilon,
    quotient_by_ones,
    random_linear_code_gv,
    read_code_file,
    reed_solomon,
    write_code_file,
)
from sparsecode.errors import (
    ConstructionFailedError,
    DomainError,
    EnumerationCapError,
    PreconditionError,
)
from scalar_oracles import (
    bias_of_word,
    broadcast_pairwise_distances,
    diff,
    hamming_distance,
    shift,
)
from sparsecode.words import Word


def _code(q, *rows):
    return Code(Word(q, row) for row in rows)


class TestCodeContainer:
    def test_sorted_and_deduplicated(self):
        c = Code([Word(2, (1, 0)), Word(2, (0, 1)), Word(2, (1, 0))])
        assert tuple(c) == (Word(2, (0, 1)), Word(2, (1, 0)))

    def test_mixed_alphabets_rejected(self):
        with pytest.raises(DomainError):
            Code([Word(2, (0, 1)), Word(3, (0, 1))])

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Code([])

    def test_array_row_order_matches_words(self):
        c = _code(3, (2, 0), (0, 1))
        assert np.array_equal(c.array(), [[0, 1], [2, 0]])


class TestLinearCodes:
    def test_repetition_code(self):
        lc = LinearCode(2, 1, 3, [[1, 1, 1]])
        words = tuple(enumerate_codewords(lc))
        assert words == (Word(2, (0, 0, 0)), Word(2, (1, 1, 1)))

    def test_full_space(self):
        lc = LinearCode(2, 2, 2, [[1, 0], [0, 1]])
        assert len(enumerate_codewords(lc)) == 4

    def test_ternary_scalar_multiples(self):
        lc = LinearCode(3, 1, 2, [[1, 2]])
        assert set(w.symbols for w in enumerate_codewords(lc)) == {
            (0, 0), (1, 2), (2, 1)
        }

    def test_rank_deficient_generator_rejected(self):
        with pytest.raises(DomainError):
            LinearCode(2, 2, 3, [[1, 1, 0], [1, 1, 0]])

    def test_non_prime_alphabet_rejected(self):
        with pytest.raises(DomainError):
            LinearCode(4, 1, 2, [[1, 1]])

    def test_codeword_cap(self):
        lc = LinearCode(2, 4, 6, np.eye(4, 6, dtype=int))
        with pytest.raises(EnumerationCapError):
            enumerate_codewords(lc, cap=8)


class TestMinDistance:
    def test_repetition_code(self):
        rep = min_distance(_code(2, (0, 0, 0), (1, 1, 1)))
        assert rep.absolute == 3
        assert rep.relative == 1.0
        assert rep.witness == (0, 1)

    def test_full_binary_square(self):
        c = _code(2, (0, 0), (0, 1), (1, 0), (1, 1))
        assert min_distance(c).absolute == 1

    def test_singleton_rejected(self):
        with pytest.raises(DomainError):
            min_distance(_code(2, (0, 0)))

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_matches_full_distance_matrix(self, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(codes, "_DISTANCE_BLOCK", block)
        rng = np.random.default_rng(17)
        cases = [reed_solomon(5, 2), reed_solomon(7, 2),
                 _code(2, (0, 0), (0, 1), (1, 0), (1, 1))]
        # agreement counts around the int8 limit
        for n in (127, 128, 300):
            cases.append(_code(2, (0,) * n, (0,) * (n - 1) + (1,), (1,) * n))
        for q in (2, 3, 5):
            for _ in range(6):
                n = int(rng.integers(1, 9))
                rows = {tuple(int(s) for s in rng.integers(0, q, size=n))
                        for _ in range(int(rng.integers(2, 40)))}
                if len(rows) > 1:
                    cases.append(_code(q, *rows))
        for c in cases:
            assert min_distance(c) == _full_min_distance(c)

    def test_memory_is_bounded(self):
        # 1331 codewords: the whole distance matrix would take ~34 MB
        c = reed_solomon(11, 3)
        tracemalloc.start()
        try:
            min_distance(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _full_min_distance(c):
    """The whole-matrix minimum distance, kept as the oracle."""
    a = c.array()
    d = (a[:, None, :] != a[None, :, :]).sum(axis=2)
    np.fill_diagonal(d, c.n + 1)
    i, j = np.unravel_index(int(np.argmin(d)), d.shape)
    i, j = (int(i), int(j)) if i < j else (int(j), int(i))
    best = int(d[i, j])
    return codes.DistanceReport(best, best / c.n, (i, j))


class TestLwiseDistance:
    def test_three_word_average(self):
        c = _code(2, (0, 0), (0, 1), (1, 1))
        rep = lwise_distance(c, 3)
        assert rep.relative == pytest.approx(2 / 3)
        assert rep.witness == (0, 1, 2)

    def test_l2_recovers_min_distance(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(4, 9))
            rows = {tuple(int(s) for s in rng.integers(0, 2, size=n))
                    for _ in range(6)}
            if len(rows) < 2:
                continue
            c = _code(2, *rows)
            assert lwise_distance(c, 2).relative == pytest.approx(
                min_distance(c).relative
            )

    def test_monotone_in_l_exhaustively(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n = int(rng.integers(4, 9))
            rows = {tuple(int(s) for s in rng.integers(0, 2, size=n))
                    for _ in range(10)}
            if len(rows) < 3:
                continue
            c = _code(2, *rows)
            vals = [lwise_distance(c, L).relative for L in range(2, len(c) + 1)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_range_validation(self):
        c = _code(2, (0, 0), (1, 1))
        with pytest.raises(DomainError):
            lwise_distance(c, 1)
        with pytest.raises(DomainError):
            lwise_distance(c, 3)

    def test_subset_cap(self):
        rng = np.random.default_rng(2)
        rows = {tuple(int(s) for s in rng.integers(0, 2, size=10))
                for _ in range(12)}
        c = _code(2, *rows)
        with pytest.raises(EnumerationCapError):
            lwise_distance(c, 4, cap=10)


class TestPairwiseDistances:
    def _codes(self):
        rng = np.random.default_rng(31)
        cases = [reed_solomon(5, 2), _code(2, (0,)), _code(3, (0, 1, 2), (2, 1, 0))]
        # distances around the int8 limit
        for n in (127, 128, 300):
            cases.append(_code(2, (0,) * n, (0,) * (n - 1) + (1,), (1,) * n))
        for q in (2, 3, 5):
            for _ in range(6):
                n = int(rng.integers(1, 12))
                cases.append(_code(q, *{tuple(int(s) for s in rng.integers(0, q, size=n))
                                        for _ in range(int(rng.integers(1, 16)))}))
        return cases

    def test_matches_broadcast_oracle(self):
        for c in self._codes():
            assert np.array_equal(codes._pairwise_distances(c),
                                  broadcast_pairwise_distances(c.array()))

    def test_lwise_reports_match_broadcast_oracle(self, monkeypatch):
        cases = [c for c in self._codes() if len(c) >= 3 and c.n < 100]
        got = [[lwise_distance(c, L) for L in (2, 3)] for c in cases]
        got_bias = [lwise_bias(c, 3) for c in cases if c.q == 2]
        monkeypatch.setattr(codes, "_pairwise_distances",
                            lambda c: broadcast_pairwise_distances(c.array()))
        assert got == [[lwise_distance(c, L) for L in (2, 3)] for c in cases]
        assert got_bias == [lwise_bias(c, 3) for c in cases if c.q == 2]
        assert len(got_bias) >= 5

    def test_memory_is_quadratic(self):
        # 512 codewords of length 200: the 512 x 512 x 200 comparison alone
        # would take ~52 MB, the int64 distance matrix takes 2 MB
        c = Code.from_array(2, np.random.default_rng(3).integers(0, 2, size=(512, 200)))
        tracemalloc.start()
        try:
            codes._pairwise_distances(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestLwiseBias:
    def test_single_pair_at_full_distance(self):
        assert lwise_bias(_code(2, (0, 0), (1, 1)), 2) == pytest.approx(0.5)

    def test_exactly_balanced_pairs(self):
        c = _code(2, (0, 0, 1, 1), (0, 1, 0, 1), (1, 0, 0, 1))
        assert lwise_bias(c, 2) == pytest.approx(0.0)

    def test_l2_collapses_to_extreme_pairwise_distances(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            rows = {tuple(int(s) for s in rng.integers(0, 2, size=8))
                    for _ in range(8)}
            if len(rows) < 2:
                continue
            c = _code(2, *rows)
            dists = [
                hamming_distance(a, b) / c.n
                for a, b in combinations(tuple(c), 2)
            ]
            expected = max(abs(min(dists) - 0.5), abs(max(dists) - 0.5))
            assert lwise_bias(c, 2) == pytest.approx(expected)

    def test_binary_only(self):
        with pytest.raises(DomainError):
            lwise_bias(_code(3, (0, 0), (1, 1)), 2)


class TestBalanceAndQuotient:
    def test_is_balanced_examples(self):
        assert is_balanced(_code(2, (0, 0), (1, 1)))
        assert not is_balanced(_code(2, (0, 0), (0, 1)))
        assert is_balanced(reed_solomon(5, 2))

    def test_balance_closure_binary(self):
        closed = balance_closure(_code(2, (0, 1)))
        assert set(w.symbols for w in closed) == {(0, 1), (1, 0)}

    def test_balance_closure_fixpoint(self):
        c = _code(2, (0, 0), (1, 1))
        assert balance_closure(c) == c

    def test_balance_closure_ternary(self):
        closed = balance_closure(_code(3, (0, 0, 1)))
        assert set(w.symbols for w in closed) == {(0, 0, 1), (1, 1, 2), (2, 2, 0)}

    def test_quotient_single_class(self):
        q = quotient_by_ones(_code(2, (0, 0), (1, 1)))
        assert tuple(q) == (Word(2, (0, 0)),)

    def test_quotient_lex_min_representatives(self):
        q = quotient_by_ones(_code(2, (0, 0), (0, 1), (1, 0), (1, 1)))
        assert set(w.symbols for w in q) == {(0, 0), (0, 1)}

    def test_quotient_of_reed_solomon(self):
        assert len(quotient_by_ones(reed_solomon(5, 2))) == 5

    def test_quotient_requires_balance(self):
        with pytest.raises(PreconditionError):
            quotient_by_ones(_code(2, (0, 0), (0, 1)))


def _pairwise_code_bias(c):
    """Reference code_bias: one Word difference and bias_of_word per pair."""
    return max(bias_of_word(diff(a, b)) for a, b in combinations(tuple(c), 2))


class TestCodeBias:
    def test_constant_difference(self):
        assert code_bias(_code(2, (0, 1), (1, 0))) == pytest.approx(0.5)

    def test_uniform_difference(self):
        assert code_bias(_code(2, (0, 0, 1, 1), (0, 1, 0, 1))) == pytest.approx(0.0)

    def test_matches_pairwise_maximum(self):
        rng = np.random.default_rng(9)
        rows = {tuple(int(s) for s in rng.integers(0, 3, size=6))
                for _ in range(6)}
        c = _code(3, *rows)
        assert code_bias(c) == _pairwise_code_bias(c)

    @pytest.mark.parametrize("q, k", [(5, 2), (7, 3), (11, 2)])
    def test_reed_solomon_bit_identical(self, q, k):
        c = reed_solomon(q, k)
        assert code_bias(c) == _pairwise_code_bias(c)

    # np.sum regroups the q terms pairwise from q = 9 on; q = 9, 13 catch it
    @pytest.mark.parametrize("q", [2, 3, 8, 9, 13])
    def test_random_codes_bit_identical(self, q):
        rng = np.random.default_rng(900 + q)
        for _ in range(6):
            n = int(rng.integers(1, 25))
            size = int(rng.integers(2, 60))
            rows = {tuple(int(s) for s in rng.integers(0, q, size=n))
                    for _ in range(size)}
            if len(rows) < 2:
                continue
            c = _code(q, *rows)
            assert code_bias(c) == _pairwise_code_bias(c)

    def test_two_codewords_bit_identical(self):
        c = _code(13, tuple(range(13)), tuple((3 * s) % 13 for s in range(13)))
        assert code_bias(c) == _pairwise_code_bias(c)

    def test_needs_two_codewords(self):
        with pytest.raises(DomainError):
            code_bias(_code(2, (0, 1)))

    def test_memory_is_bounded(self):
        # 885,115 pairs; the pair blocks use ~1 MB
        c = reed_solomon(11, 3)
        tracemalloc.start()
        try:
            code_bias(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestMinDistanceEpsilon:
    def test_threshold_inversion(self):
        c = _code(2, (0, 0, 0, 0), (1, 1, 1, 0))
        # relative distance 3/4: eps solves 3/4 = 1 - (1+eps)/2
        assert min_distance_epsilon(c) == pytest.approx(2 * (1 - 0.75) - 1)

    def test_premise_is_tight(self, balanced_corpus):
        for entry in balanced_corpus[:50]:
            code, eps = entry["code"], entry["epsilon"]
            delta = min_distance(code).relative
            assert delta >= 1 - (1 + eps) / code.q - 1e-12


class TestGvConstruction:
    def test_desk_scale_sample(self):
        lc = random_linear_code_gv(2, 20, 0.25, seed=1)
        assert lc.k >= 3
        code = enumerate_codewords(lc)
        assert min_distance(code).absolute >= 5

    def test_distance_zero_accepts_first_full_rank(self):
        lc = random_linear_code_gv(2, 10, 0.0, seed=0)
        assert lc.retries == 0

    def test_rate_target_below_one_dimension(self):
        with pytest.raises(ConstructionFailedError):
            random_linear_code_gv(2, 14, 0.5, seed=0)

    def test_same_seed_same_generator(self):
        a = random_linear_code_gv(2, 16, 0.25, seed=42)
        b = random_linear_code_gv(2, 16, 0.25, seed=42)
        assert np.array_equal(a.generator, b.generator)

    def test_delta_range(self):
        with pytest.raises(DomainError):
            random_linear_code_gv(2, 10, 0.6, seed=0)


class TestReedSolomon:
    def test_constant_polynomials(self):
        c = reed_solomon(3, 1)
        assert set(w.symbols for w in c) == {(0, 0, 0), (1, 1, 1), (2, 2, 2)}

    def test_full_space_for_k_equals_q(self):
        c = reed_solomon(2, 2)
        assert len(c) == 4
        assert min_distance(c).absolute == 1

    def test_singleton_distance(self):
        for q, k in [(5, 2), (5, 3), (7, 2)]:
            c = reed_solomon(q, k)
            assert len(c) == q**k
            assert min_distance(c).absolute == q - k + 1

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            reed_solomon(4, 2)
        with pytest.raises(DomainError):
            reed_solomon(5, 6)

    def test_codeword_cap(self, monkeypatch):
        monkeypatch.setenv("SPARSECODE_CAP", "100")
        assert len(reed_solomon(7, 2)) == 49
        with pytest.raises(EnumerationCapError, match="121 codewords exceed cap 100"):
            reed_solomon(11, 2)


class TestCodeFiles:
    def test_roundtrip(self, tmp_path):
        c = reed_solomon(5, 2)
        path = tmp_path / "rs.code"
        write_code_file(c, path)
        assert read_code_file(path) == c

    def test_header_line(self, tmp_path):
        path = tmp_path / "tiny.code"
        write_code_file(_code(3, (0, 1, 2)), path)
        assert path.read_text().splitlines()[0] == "3 3"

    def test_length_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.code"
        path.write_text("2 3\n0 1\n")
        with pytest.raises(DomainError):
            read_code_file(path)


def test_balanced_cross_complement_distance_identity(balanced_corpus):
    # for binary balanced codes, pairwise distances to the complement-shifted
    # set mirror the original ones, so the two L-set averages sum to one
    rng = np.random.default_rng(77)
    checked = 0
    for entry in balanced_corpus:
        code = entry["quotient"]
        if code.q != 2 or len(code) < 3:
            continue
        L = 3
        idx = rng.choice(len(code), size=L, replace=False)
        words = [tuple(code)[i] for i in idx]
        shifted = [shift(w, 1) for w in words]
        pairs = list(combinations(range(L), 2))
        direct = sum(hamming_distance(words[a], words[b]) for a, b in pairs)
        crossed = sum(hamming_distance(words[a], shifted[b]) for a, b in pairs)
        total = (direct + crossed) / (code.n * len(pairs))
        assert total == pytest.approx(1.0)
        checked += 1
        if checked >= 50:
            break
    assert checked == 50
