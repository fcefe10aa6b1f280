import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
from scalar_oracles import hamming_distance
from sparsecode import codes, group_testing
from sparsecode.codes import min_distance, random_balanced_code, reed_solomon
from sparsecode.embeddings import bool_code
from sparsecode.errors import DomainError, EnumerationCapError
from sparsecode.group_testing import (
    Design,
    DesignReport,
    DisjunctReport,
    as_binary,
    design_from_code,
    gt_decode_cover,
    gt_encode,
    kautz_singleton,
    max_disjunct_order,
    verify_design,
    verify_disjunct,
)


def _loop_verify_disjunct(m, L):
    """The per-tuple big-int OR loop, kept as the oracle for verify_disjunct."""
    masks = []
    for j in range(m.shape[1]):
        mask = 0
        for i in np.flatnonzero(m[:, j]):
            mask |= 1 << int(i)
        masks.append(mask)
    checked = 0
    for target in range(m.shape[1]):
        others = [j for j in range(m.shape[1]) if j != target]
        for chosen in combinations(others, L):
            checked += 1
            union = 0
            for j in chosen:
                union |= masks[j]
            if masks[target] & ~union == 0:
                return DisjunctReport(L, False, (target, chosen), checked)
    return DisjunctReport(L, True, None, checked)


def _pairwise_verify_design(d):
    """The pairwise set-intersection loop, kept as the oracle for verify_design."""
    if len(d.sets) < 2:
        return DesignReport(d.ground_size, d.set_size, 0, None)
    best, witness = -1, (0, 1)
    frozen = [set(s) for s in d.sets]
    for i, j in combinations(range(len(frozen)), 2):
        inter = len(frozen[i] & frozen[j])
        if inter > best:
            best, witness = inter, (i, j)
    return DesignReport(d.ground_size, d.set_size, best, witness)


def _from_sets(ground_size, set_size, sets):
    """The design of the given sets, built through the tuple-of-tuples oracle."""
    return Design(oracle.matrix_from_design(oracle.Design(ground_size, set_size, sets)))


def _set_blocks(monkeypatch, size):
    for name in ("_TUPLE_BLOCK_FIRST", "_TUPLE_BLOCK_MAX"):
        monkeypatch.setattr(group_testing, name, size)
    monkeypatch.setattr(codes, "_COUNT_BLOCK", size)


@st.composite
def _matrices(draw):
    """0/1 matrices of 1-130 rows (up to three uint64 words per support),
    with zero and duplicate columns mixed in."""
    rows, cols = draw(st.integers(1, 130)), draw(st.integers(2, 8))
    p = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = (rng.random((rows, cols)) < p).astype(np.int64)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, cols - 1))
        m[:, j] = 0 if draw(st.booleans()) else m[:, draw(st.integers(0, cols - 1))]
    return m


class TestDesignFromCode:
    def test_reed_solomon_disjoint_sets(self):
        d = design_from_code(reed_solomon(3, 1))
        assert d.ground_size == 9
        assert d.set_size == 3
        assert verify_design(d).max_intersection == 0

    def test_intersection_equals_agreements(self):
        c = reed_solomon(5, 2)
        d = design_from_code(c)
        frozen = [set(s) for s in d.sets]
        words = tuple(c)
        for i, j in combinations(range(6), 2):
            dist = hamming_distance(words[i], words[j])
            assert len(frozen[i] & frozen[j]) == c.n - dist
        most = max(len(a & b) for a, b in combinations(frozen, 2))
        assert min_distance(c).absolute == c.n - most

    def test_max_intersection_bounded_by_distance(self):
        c = reed_solomon(5, 2)
        rep = verify_design(design_from_code(c))
        assert rep.max_intersection == c.n - min_distance(c).absolute


class TestVerifyDesign:
    def test_disjoint_sets(self):
        d = _from_sets(6, 2, ((0, 1), (2, 3), (4, 5)))
        rep = verify_design(d)
        assert rep.max_intersection == 0

    def test_identical_sets(self):
        d = _from_sets(4, 2, ((0, 1), (0, 1)))
        rep = verify_design(d)
        assert rep.max_intersection == 2
        assert rep.witness == (0, 1)

    def test_single_set(self):
        assert verify_design(_from_sets(3, 2, ((0, 1),))).max_intersection == 0

    def test_pair_cap(self, monkeypatch):
        d = design_from_code(reed_solomon(5, 2))  # 25 sets, 300 pairs
        monkeypatch.setenv("SPARSECODE_CAP", "300")
        assert verify_design(d).max_intersection == 1
        kautz_singleton(5, 2)
        monkeypatch.setenv("SPARSECODE_CAP", "299")
        with pytest.raises(EnumerationCapError, match="300 pairs exceed cap 299"):
            verify_design(d)
        # its provenance records the code's min distance
        with pytest.raises(EnumerationCapError, match="300 pairs exceed cap 299"):
            kautz_singleton(5, 2)


class TestVerifyDesignKernel:
    @settings(derandomize=True, max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), block=st.sampled_from([1, 7, 128]))
    def test_matches_pairwise_loop(self, monkeypatch, data, block):
        monkeypatch.setattr(codes, "_COUNT_BLOCK", block)
        ground = data.draw(st.integers(1, 12))
        size = data.draw(st.integers(0, ground))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sets = tuple(tuple(sorted(rng.choice(ground, size, replace=False).tolist()))
                     for _ in range(data.draw(st.integers(1, 40))))
        d = _from_sets(ground, size, sets)
        assert verify_design(d) == _pairwise_verify_design(d)

    def test_reed_solomon_matches_pairwise_loop(self):
        d = design_from_code(reed_solomon(7, 2))
        assert verify_design(d) == _pairwise_verify_design(d)

    def test_memory_is_bounded(self):
        # 1331 sets: the full Gram matrix alone would take ~14 MB
        d = design_from_code(reed_solomon(11, 3))
        tracemalloc.start()
        try:
            verify_design(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestDesignFromMatrix:
    def test_inverts_matrix_from_design(self):
        d = design_from_code(reed_solomon(5, 2))
        m = d.matrix.astype(np.int64)
        assert Design(m) == d
        assert np.array_equal(Design(m).matrix, m)

    def test_non_uniform_supports_rejected(self):
        with pytest.raises(DomainError, match="non-uniform"):
            Design(np.array([[1, 1], [0, 1]]))

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError, match="0 or 1"):
            Design(np.array([[1, 2], [2, 1]]))


class TestMatrixFromDesign:
    def test_block_structure(self):
        d = design_from_code(reed_solomon(3, 1))
        m = d.matrix
        assert m.shape == (9, 3)
        assert np.array_equal(m.sum(axis=0), [3, 3, 3])

    def test_single_set(self):
        m = _from_sets(4, 2, ((1, 3),)).matrix
        assert np.array_equal(m[:, 0], [0, 1, 0, 1])


_DIFFERENTIAL = settings(derandomize=True, max_examples=200, deadline=None)


@st.composite
def _incidence_matrices(draw):
    """0/1 matrices with equal column sums, 0-10 rows and 0-12 columns,
    sometimes with one entry flipped or set to 2, as int, bool or float."""
    rows = draw(st.integers(0, 10))
    size = draw(st.integers(0, rows))
    cols = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = np.zeros((rows, cols), dtype=np.int64)
    for j in range(cols):
        m[rng.permutation(rows)[:size], j] = 1
    if m.size and draw(st.booleans()):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        m[i, j] = draw(st.sampled_from([1 - m[i, j], 2]))
    return m.astype(draw(st.sampled_from([np.int64, bool, np.float64])))


def _outcome(build, *args):
    """A built design, or the message of the DomainError that rejected it."""
    try:
        return build(*args)
    except DomainError as exc:
        return str(exc)


def _assert_matches_oracle(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert (got.ground_size, got.set_size) == (want.ground_size, want.set_size)
    assert got.matrix.dtype == bool and got.sets.dtype == np.int64
    assert np.array_equal(got.matrix, oracle.matrix_from_design(want))
    assert got.sets.shape == (len(want.sets), want.set_size)
    assert got.sets.tolist() == [sorted(s) for s in want.sets]
    assert verify_design(got) == _pairwise_verify_design(want)


class TestArrayDesign:
    """The incidence-matrix Design against the tuple-of-tuples oracle."""

    @_DIFFERENTIAL
    @given(m=_incidence_matrices())
    @example(m=np.zeros((3, 0), dtype=np.int64))
    @example(m=np.ones((1, 1), dtype=np.int64))
    @example(m=np.zeros((1, 4), dtype=np.int64))
    @example(m=np.array([[1, 1], [0, 1]]))
    @example(m=np.array([[1, 2], [2, 1]]))
    def test_from_matrix(self, m):
        got = _outcome(Design, m)
        _assert_matches_oracle(got, _outcome(oracle.design_from_matrix, m))
        if not isinstance(got, str):
            assert got == _from_sets(got.ground_size, got.set_size,
                                     tuple(map(tuple, got.sets.tolist())))

    @_DIFFERENTIAL
    @given(q=st.sampled_from([2, 3, 5, 7]), n=st.integers(1, 6),
           classes=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_from_code(self, q, n, classes, seed):
        c = random_balanced_code(q, n, classes, np.random.default_rng(seed))
        got = design_from_code(c)
        assert np.array_equal(got.matrix, bool_code(c))
        _assert_matches_oracle(got, oracle.design_from_code(c))

    @pytest.mark.parametrize("q, k", [(5, 2), (7, 2), (11, 2), (11, 3)])
    def test_kautz_singleton_bytes_and_provenance(self, q, k):
        m, prov = kautz_singleton(q, k)
        want = oracle.matrix_from_design(oracle.design_from_code(reed_solomon(q, k)))
        assert m.dtype == want.dtype == np.int64
        assert m.tobytes() == want.tobytes()
        assert prov == {
            "construction": "kautz-singleton", "q": q, "k": k,
            "block_length": q, "min_distance": q - k + 1,
            "rows": q * q, "cols": q**k, "guaranteed_disjunct_order": (q - 1) // k,
        }

    def test_read_only_and_unaliased(self):
        m = np.eye(3, dtype=bool)
        d = Design(m)
        m[0, 1] = True
        assert d == _from_sets(3, 1, ((0,), (1,), (2,)))
        with pytest.raises(ValueError, match="read-only"):
            d.matrix[0, 0] = False
        with pytest.raises(ValueError, match="read-only"):
            d.sets[0, 0] = 1
        for name in ("matrix", "ground_size", "set_size", "sets"):
            with pytest.raises(AttributeError):
                setattr(d, name, getattr(d, name))


class TestVerifyDisjunct:
    def test_identity_matrix(self):
        for L in (1, 2, 3):
            assert verify_disjunct(np.eye(4, dtype=int), L).disjunct

    def test_zero_column(self):
        m = np.eye(4, dtype=int)
        m[:, 2] = 0
        rep = verify_disjunct(m, 1)
        assert not rep.disjunct
        assert rep.witness[0] == 2

    def test_witness_is_a_real_cover(self):
        m = np.array([[1, 1, 0], [0, 1, 1], [0, 0, 1]])
        rep = verify_disjunct(m, 2)
        if not rep.disjunct:
            target, covering = rep.witness
            union = m[:, list(covering)].max(axis=1)
            assert np.all(union >= m[:, target])

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("SPARSECODE_CAP", "100")
        with pytest.raises(EnumerationCapError, match="^232560 choices exceed cap 100$"):
            verify_disjunct(np.eye(20, dtype=int), 5)

    def test_order_range(self):
        with pytest.raises(DomainError):
            verify_disjunct(np.eye(3, dtype=int), 3)

    def test_negative_order(self):
        with pytest.raises(DomainError, match="^need 0 <= L, got L=-1$"):
            verify_disjunct(np.eye(3, dtype=int), -1)

    def test_non_binary_rejected(self):
        with pytest.raises(DomainError, match="0 or 1"):
            verify_disjunct(np.array([[0.5, 0.0], [0.0, 1.0]]), 1)


class TestVerifyDisjunctKernel:
    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(m=_matrices(), data=st.data(),
           first=st.sampled_from([1, 7, 64]), largest=st.sampled_from([1, 7, 1 << 13]))
    def test_matches_per_tuple_loop(self, monkeypatch, m, data, first, largest):
        monkeypatch.setattr(group_testing, "_TUPLE_BLOCK_FIRST", first)
        monkeypatch.setattr(group_testing, "_TUPLE_BLOCK_MAX", largest)
        L = data.draw(st.integers(1, m.shape[1] - 1))
        assert verify_disjunct(m, L) == _loop_verify_disjunct(m, L)

    @pytest.mark.parametrize("block", [1, 7, None])
    def test_witness_in_a_later_target_and_block(self, monkeypatch, block):
        if block is not None:
            _set_blocks(monkeypatch, block)
        # column j < 7 holds rows 2j, 2j + 1; column 7 holds rows 10 and 13,
        # so only column 7 is covered, by (5, 6): its 21st pair
        m = np.zeros((14, 8), dtype=np.int64)
        for j in range(7):
            m[[2 * j, 2 * j + 1], j] = 1
        m[[10, 13], 7] = 1
        rep = verify_disjunct(m, 2)
        assert rep == DisjunctReport(2, False, (7, (5, 6)), 7 * 21 + 21)
        assert rep == _loop_verify_disjunct(m, 2)

    def test_multi_word_supports(self):
        rng = np.random.default_rng(3)
        m = (rng.random((130, 7)) < 0.5).astype(np.int64)
        m[:, 6] = m[:, 2] | m[:, 4]
        for L in range(1, 7):
            assert verify_disjunct(m, L) == _loop_verify_disjunct(m, L)

    def test_zero_order(self):
        m = np.eye(4, dtype=np.int64)
        assert verify_disjunct(m, 0) == _loop_verify_disjunct(m, 0)
        m[:, 3] = 0
        assert verify_disjunct(m, 0) == _loop_verify_disjunct(m, 0)

    @pytest.mark.parametrize("block", [1, 7])
    def test_block_sizes_do_not_change_reports(self, monkeypatch, block):
        rng = np.random.default_rng(11)
        ks52, _ = kautz_singleton(5, 2)
        cases = [(ks52, 2), (ks52, 5), (kautz_singleton(3, 1)[0], 2)]
        cases += [((rng.random((48, 30)) < 0.5).astype(np.int64), 3) for _ in range(3)]
        designs = [design_from_code(reed_solomon(q, k)) for q, k in ((5, 2), (7, 2))]
        before = ([verify_disjunct(m, L) for m, L in cases],
                  [verify_design(d) for d in designs])
        _set_blocks(monkeypatch, block)
        after = ([verify_disjunct(m, L) for m, L in cases],
                 [verify_design(d) for d in designs])
        assert after == before


class TestMaxDisjunctOrder:
    def test_identity(self):
        assert max_disjunct_order(np.eye(5, dtype=int)) == 4

    def test_duplicate_columns(self):
        m = np.eye(3, dtype=int)[:, [0, 0, 1]]
        assert max_disjunct_order(m) == 0

    def test_not_a_matrix(self):
        with pytest.raises(DomainError, match="must be 2-D"):
            max_disjunct_order(np.zeros(5))


class TestEncodeDecode:
    def test_zero_input(self):
        m = np.eye(3, dtype=int)
        assert np.array_equal(gt_encode(m, np.zeros(3, dtype=int)), [0, 0, 0])

    def test_singleton_is_column(self):
        m, _ = kautz_singleton(3, 1)
        x = np.zeros(3, dtype=int)
        x[1] = 1
        assert np.array_equal(gt_encode(m, x), m[:, 1])

    def test_pair_is_or_of_columns(self):
        m, _ = kautz_singleton(5, 2)
        x = np.zeros(25, dtype=int)
        x[[1, 2]] = 1
        assert np.array_equal(gt_encode(m, x), (m[:, 1] | m[:, 2]))

    def test_decode_zero_measurement(self):
        m = np.eye(4, dtype=int)
        assert np.array_equal(gt_decode_cover(m, np.zeros(4, dtype=int)), [0] * 4)

    def test_decode_always_covers_support(self):
        rng = np.random.default_rng(41)
        m = (rng.random((8, 10)) < 0.4).astype(int)
        for _ in range(20):
            x = (rng.random(10) < 0.3).astype(int)
            got = gt_decode_cover(m, gt_encode(m, x))
            assert np.all(got >= x)

    def test_singleton_roundtrip(self):
        m, _ = kautz_singleton(5, 2)
        for j in range(25):
            x = np.zeros(25, dtype=int)
            x[j] = 1
            assert np.array_equal(gt_decode_cover(m, gt_encode(m, x)), x)


    def test_batches_match_single_inputs(self):
        rng = np.random.default_rng(8)
        m = (rng.random((9, 12)) < 0.4).astype(np.int64)
        x = (rng.random((20, 12)) < 0.3).astype(np.int64)
        y = gt_encode(m, x)
        assert y.shape == (20, 9)
        assert np.array_equal(y, [gt_encode(m, row) for row in x])
        decoded = gt_decode_cover(m, y)
        assert np.array_equal(decoded, [gt_decode_cover(m, row) for row in y])

    def test_shape_checked(self):
        m = np.eye(3, dtype=int)
        with pytest.raises(DomainError):
            gt_encode(m, np.zeros((2, 4)))
        with pytest.raises(DomainError):
            gt_decode_cover(m, np.zeros((2, 2, 3)))

    def test_non_binary_matrix_rejected(self):
        with pytest.raises(DomainError, match="0 or 1"):
            gt_encode(np.eye(3) * 2, np.ones(3))
        with pytest.raises(DomainError, match="0 or 1"):
            gt_decode_cover(np.full((2, 2), np.nan), np.ones(2))

    def test_non_binary_input_rejected(self):
        m = np.eye(3, dtype=int)
        with pytest.raises(DomainError, match="x entries must be 0 or 1"):
            gt_encode(m, [np.nan, 0.5, -2])
        with pytest.raises(DomainError, match="y entries must be 0 or 1"):
            gt_decode_cover(m, [np.nan, 7, 0])

    def test_as_binary(self):
        assert as_binary(np.array([[0.0, 1.0]])).dtype == bool
        with pytest.raises(DomainError):
            as_binary(np.ones(3))


class TestKautzSingleton:
    def test_small_disjoint_instance(self):
        m, prov = kautz_singleton(3, 1)
        assert m.shape == (9, 3)
        assert verify_disjunct(m, 2).disjunct
        assert prov["guaranteed_disjunct_order"] == 2

    def test_main_instance(self):
        m, prov = kautz_singleton(5, 2)
        assert m.shape == (25, 25)
        assert prov["min_distance"] == 4
        assert prov["guaranteed_disjunct_order"] == 2
        assert verify_disjunct(m, 2).disjunct

    def test_weight_two_roundtrip_exhaustive(self):
        m, _ = kautz_singleton(5, 2)
        cases = 0
        for w in range(3):
            for support in combinations(range(25), w):
                x = np.zeros(25, dtype=int)
                x[list(support)] = 1
                assert np.array_equal(gt_decode_cover(m, gt_encode(m, x)), x)
                cases += 1
        assert cases == 1 + 25 + 300

    def test_larger_alphabet_guarantee(self):
        m, prov = kautz_singleton(7, 2)
        assert m.shape == (49, 49)
        assert prov["guaranteed_disjunct_order"] == 3
        assert verify_disjunct(m, 3).disjunct
