import copy
import math
import pickle
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecode import caps, codes
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
    SparseCodeError,
)
import scalar_oracles as oracle
from group_codes import group_codes, random_codes
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

    def test_dimension_past_the_length_rejected(self):
        with pytest.raises(DomainError, match=r"^need 1 <= k <= n$"):
            LinearCode(2, 3, 2, [[1, 0], [0, 1], [1, 1]])

    @pytest.mark.parametrize("generator", [[[1, 0, 1]], [[1, 0], [0, 1]], [1, 0, 1, 1]])
    def test_generator_of_another_shape_rejected(self, generator):
        with pytest.raises(DomainError, match=r"^generator shape must be \(k, n\)$"):
            LinearCode(2, 2, 3, generator)

    def test_equal_by_value_and_unhashable(self):
        lc = LinearCode(2, 2, 3, [[1, 0, 1], [0, 1, 1]])
        # the generator is kept mod q, so [1, 0, 3] is [1, 0, 1]
        assert lc == LinearCode(2, 2, 3, [[1, 0, 3], [0, 1, 1]])
        assert lc != LinearCode(2, 2, 3, [[1, 0, 1], [1, 1, 0]])
        assert lc != LinearCode(2, 2, 3, [[1, 0, 1], [0, 1, 1]], retries=1)
        assert lc != LinearCode(3, 2, 3, [[1, 0, 1], [0, 1, 1]])
        assert lc != lc.generator
        with pytest.raises(TypeError, match="unhashable"):
            hash(lc)

    def test_codeword_cap(self, monkeypatch):
        monkeypatch.setenv("SPARSECODE_CAP", "8")
        lc = LinearCode(2, 4, 6, np.eye(4, 6, dtype=int))
        with pytest.raises(EnumerationCapError, match="^16 codewords exceed cap 8$"):
            enumerate_codewords(lc)


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
            monkeypatch.setattr(caps, "_PAIR_BLOCK", block)
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
    return codes.DistanceReport(best, Fraction(best, c.n), (i, j))


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

    def test_subset_cap(self, monkeypatch):
        monkeypatch.setenv("SPARSECODE_CAP", "10")
        rng = np.random.default_rng(2)
        rows = {tuple(int(s) for s in rng.integers(0, 2, size=10))
                for _ in range(12)}
        c = _code(2, *rows)
        with pytest.raises(EnumerationCapError,
                           match=f"^{math.comb(len(c), 4)} subsets of size 4 exceed cap 10$"):
            lwise_distance(c, 4)


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

    def test_lwise_reports_match_loop_oracle(self):
        # every L up to |C| on the small codes; the last two span several
        # of the default blocks of L-sets
        cases = [c for c in self._codes() if len(c) >= 3 and c.n < 100]
        cases += [reed_solomon(3, 2), reed_solomon(5, 2), Code.from_array(
            2, np.random.default_rng(4).integers(0, 2, size=(24, 9)))]
        for c in cases:
            for L in range(2, len(c) + 1) if len(c) <= 12 else (2, 3, 5):
                assert lwise_distance(c, L) == oracle.lwise_distance(c, L)
                if c.q == 2:
                    assert lwise_bias(c, L).hex() == oracle.lwise_bias(c, L).hex()

    def test_lset_block_does_not_change_reports(self, monkeypatch):
        cases = [c for c in self._codes() if 3 <= len(c) <= 16 and c.n < 100]
        # many tied averages, so a later block must not take the witness
        cases.append(reed_solomon(3, 2))

        def reports():
            return [(lwise_distance(c, L), c.q == 2 and lwise_bias(c, L))
                    for c in cases for L in (2, 3, 4, 5) if L <= len(c)]

        default = reports()
        for block in (1, 7, 1 << 30):
            monkeypatch.setattr(caps, "_LSET_BLOCK", block)
            assert reports() == default

    def test_lset_walk_memory_is_chunked(self):
        # C(60, 5) = 5,461,512 L-sets: a walk that emitted a level whole
        # would hold hundreds of MB of prefix sums
        c = Code.from_array(2, np.random.default_rng(8).integers(0, 2, size=(60, 16)))
        assert len(c) == 60
        tracemalloc.start()
        try:
            lwise_distance(c, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_lwise_never_walks_subset_rows(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("L-wise walked caps._subset_blocks")

        monkeypatch.setattr(caps, "_subset_blocks", refuse)
        c = reed_solomon(3, 2)
        assert lwise_distance(c, 4) == oracle.lwise_distance(c, 4)
        binary = Code.from_array(2, np.random.default_rng(6).integers(0, 2, size=(12, 7)))
        assert lwise_bias(binary, 5) == oracle.lwise_bias(binary, 5)

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

    @pytest.mark.parametrize("q, k", [(7, 2), (11, 3), (13, 3), (31, 2)])
    def test_reed_solomon_matches_blocked_oracle(self, q, k):
        c = reed_solomon(q, k)
        assert code_bias(c).hex() == oracle.code_bias(c).hex()

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


@pytest.mark.parametrize("measure", [code_bias, min_distance])
def test_pair_cap(monkeypatch, measure):
    c = reed_solomon(5, 2)  # 25 codewords, 300 pairs
    monkeypatch.setenv("SPARSECODE_CAP", "300")
    measure(c)
    monkeypatch.setenv("SPARSECODE_CAP", "299")
    with pytest.raises(EnumerationCapError, match="300 pairs exceed cap 299"):
        measure(c)


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(c=st.one_of(group_codes(most=25), random_codes(most=13, longest=7)))
def test_lwise_ratio_is_the_witness_recount(c):
    """The relative L-wise distance is the walk's exact ratio: the
    witness's total pairwise distance, recounted from its words, over
    n * C(L, 2), as a `Fraction`; `absolute` is that ratio correctly
    rounded, times n."""
    for L in range(2, min(5, len(c)) + 1):
        rep = lwise_distance(c, L)
        exact = oracle.lwise_ratio(c, rep.witness)
        assert (type(rep.relative), rep.relative) == (Fraction, exact)
        assert rep.absolute.hex() == (float(exact) * c.n).hex()


def test_exact_values_survive_a_copy_and_a_pickle():
    """A distance report copies and pickles with its exact ratio."""
    rep = lwise_distance(reed_solomon(5, 2), 3)
    for twin in (copy.deepcopy(rep), pickle.loads(pickle.dumps(rep))):
        assert twin == rep
        assert (type(twin.relative), twin.relative) == (Fraction, Fraction(4, 5))


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

    # delta = 1 - 1/q is admitted so the zero-rate boundary is refused as a
    # construction failure: the q-ary entropy there is 1, so no dimension is left
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_zero_rate_boundary_leaves_no_dimension(self, q):
        delta = 1 - 1 / q
        with pytest.raises(ConstructionFailedError) as info:
            random_linear_code_gv(q, 10, delta, seed=0)
        assert str(info.value) == (
            f"rate target gives dimension 0 < 1 for q={q}, n=10, delta={delta}")

    def test_spent_retry_budget_is_refused(self, monkeypatch):
        # seed 6 draws 4 rank-deficient 9 x 10 generators before a full-rank
        # one.  No real input spends the 200 draws: a draw expects at most
        # half a word below the target, so the budget is cut to 4 here
        assert random_linear_code_gv(2, 10, 0.0, 6).retries == 4
        monkeypatch.setattr(codes, "_RETRY_BUDGET", 4)
        with pytest.raises(ConstructionFailedError,
                           match=r"^no generator met distance 0.0 within 4 tries$"):
            random_linear_code_gv(2, 10, 0.0, 6)

    @pytest.mark.parametrize("q, n, delta", [
        (2, 20, 0.200000000005), (2, 16, 0.25000000001), (2, 10, 0.3000000000001)])
    def test_distance_target_is_exact(self, q, n, delta):
        # delta * n lies within 1e-9 above an integer: a target of
        # delta * n - 1e-9 accepted a least weight of that integer, below
        # delta * n, at 8, 2 and 5 of these 40 seeds
        for seed in range(40):
            code = enumerate_codewords(random_linear_code_gv(q, n, delta, seed))
            assert min_distance(code).absolute >= Fraction(repr(delta)) * n

    def test_integer_target_admits_equality(self):
        # delta * n = 4 exactly: seed 2's first draw has least weight 4
        lc = random_linear_code_gv(2, 20, 0.2, 2)
        assert lc.retries == 0 and min_distance(enumerate_codewords(lc)).absolute == 4

    def test_largest_desk_draw_keeps_its_generator(self):
        # k = 18: two draws rejected, the third accepted, as by the message product
        lc = random_linear_code_gv(2, 20, 0, 3)
        rng = np.random.default_rng(3)
        draws = [rng.integers(0, 2, size=(18, 20)) for _ in range(3)]
        assert (lc.k, lc.retries) == (18, 2)
        assert np.array_equal(lc.generator, draws[2])


@pytest.mark.parametrize("q", [2, 3, 5, 7, 13, 131, 257])
def test_span_is_every_message_times_the_generator(q):
    # a sum of two symbols passes 255 at q >= 129, so 8 bits would wrap there
    rng = np.random.default_rng(q)
    for k in range(1, 13):
        if q**k > 1 << 12:
            break
        for n in (1, 2, 5):
            g = rng.integers(0, q, size=(k, n))
            g[:, 0] = q - 1  # the largest symbol, whose sums overflow first
            messages = np.array(list(product(range(q), repeat=k)), dtype=np.int64)
            assert codes._span(q, g).tolist() == ((messages @ g) % q).tolist()


def _gv_outcome(sample, *args):
    """(k, retries, generator bytes) of a sampled code, or (type, message)."""
    try:
        lc = sample(*args)
    except SparseCodeError as exc:
        return type(exc), str(exc)
    return lc.k, lc.retries, lc.generator.tobytes()


@pytest.mark.parametrize("cap", [None, "64"], ids=["default-cap", "cap-64"])
@pytest.mark.parametrize("q", [2, 3, 5])
def test_gv_sampler_matches_the_rank_then_weights_loop(q, cap, monkeypatch):
    """One weight test per draw accepts exactly the draws, and raises exactly
    the errors, of the rank test followed by the enumerated code's weights."""
    if cap is not None:
        monkeypatch.setenv("SPARSECODE_CAP", cap)
    cases = list(product([q], (4, 6, 8, 10, 12, 16, 20),
                         (0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6), range(6)))
    outcomes = [_gv_outcome(random_linear_code_gv, *case) for case in cases]
    assert outcomes == [_gv_outcome(oracle.random_linear_code_gv, *case)
                        for case in cases]
    kinds = {outcome[0] if isinstance(outcome[0], type) else int for outcome in outcomes}
    assert {int, ConstructionFailedError} <= kinds
    if cap is not None:
        assert EnumerationCapError in kinds


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
