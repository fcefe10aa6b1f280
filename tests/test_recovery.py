import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
from sparsecode import caps, cli, recovery
from sparsecode.certify import kernel_injectivity
from sparsecode.errors import DomainError, EnumerationCapError
from sparsecode.matrixio import write_matrix
from sparsecode.recovery import (
    cs_decode_exhaustive,
    cs_encode,
    unit_circle_nodes,
    vandermonde_matrix,
)


def _decode_at(m, y, L, tol):
    """The decoder with its acceptance DECODE_TOL set to tol for this call."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(recovery, "DECODE_TOL", tol)
        return cs_decode_exhaustive(m, y, L)


class TestVandermonde:
    def test_dft_case(self):
        nodes = unit_circle_nodes(4)
        m = vandermonde_matrix(nodes, 4)
        # N-th roots of unity with n = N give a scaled unitary matrix
        assert np.allclose(m.conj().T @ m, 4.0 * np.eye(4), atol=1e-12)

    def test_small_real_nodes(self):
        m = vandermonde_matrix(np.array([1.0, 2.0, 3.0]), 2)
        assert np.allclose(m, [[1, 1, 1], [1, 2, 3]])

    def test_rejects_coincident_nodes(self):
        # nodes within NODE_GAP_TOL of each other, the gap itself included
        for nodes in ([1.0, 1.0 + 1e-12], [0.0, recovery.NODE_GAP_TOL]):
            with pytest.raises(DomainError, match="pairwise distinct"):
                vandermonde_matrix(np.array(nodes), 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_rejects_non_finite_nodes(self, bad):
        # a NaN node once slipped past the gap check into a NaN matrix
        with pytest.raises(DomainError, match="finite"):
            vandermonde_matrix(np.array([0, bad, 1]), 2)

    def test_rejects_overflowing_powers(self):
        # finite nodes whose powers overflow once built a matrix holding inf,
        # with only a RuntimeWarning, which tier-1 turns into an error
        with pytest.raises(DomainError, match="finite"):
            vandermonde_matrix(np.array([1e200, 1.0, 2.0]), 3)

    def test_rejects_a_node_array_that_is_no_vector(self):
        with pytest.raises(DomainError, match="^nodes must be a vector$"):
            vandermonde_matrix(unit_circle_nodes(4).reshape(2, 2), 2)

    @pytest.mark.parametrize("nodes, rows, got", [
        (unit_circle_nodes(4), 0, "4 nodes and 0 rows"),
        (unit_circle_nodes(4), -2, "4 nodes and -2 rows"),
        (unit_circle_nodes(0), 3, "0 nodes and 3 rows"),
        (np.zeros(0), 0, "0 nodes and 0 rows"),
    ])
    def test_rejects_sizes_that_make_no_matrix(self, nodes, rows, got):
        # rows < 1 once built an empty matrix that read_matrix refuses, and no
        # nodes an internal ValueError from the gap check
        with pytest.raises(DomainError,
                           match=f"^need at least one node and one row, got {got}$"):
            vandermonde_matrix(nodes, rows)

    def test_node_pairs_are_capped_before_the_gap_check(self, monkeypatch):
        # the gap check once allocated an N x N array whatever N was
        monkeypatch.setenv("SPARSECODE_CAP", "14")
        with pytest.raises(EnumerationCapError, match="^15 node pairs exceed cap 14$"):
            vandermonde_matrix(unit_circle_nodes(6), 2)
        monkeypatch.setenv("SPARSECODE_CAP", "15")
        assert vandermonde_matrix(unit_circle_nodes(6), 2).shape == (2, 6)

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_gap_check_matches_dense_oracle(self, monkeypatch, block):
        monkeypatch.setattr(caps, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(block)
        for _ in range(200):
            N = int(rng.integers(1, 40))
            nodes = rng.normal(size=N) + 1j * rng.normal(size=N) * rng.integers(0, 2)
            if rng.integers(0, 2):  # a pair near the tolerance, either side of it
                i, j = rng.choice(N, size=2) if N > 1 else (0, 0)
                gap = recovery.NODE_GAP_TOL * rng.choice([0.0, 0.5, 1.0, 1.5, 2.0])
                nodes[j] = nodes[i] + gap * np.exp(1j * rng.uniform(0, 2 * np.pi))
            try:
                vandermonde_matrix(nodes, 2)
                distinct = True
            except DomainError as exc:
                assert str(exc) == "nodes must be pairwise distinct"
                distinct = False
            assert distinct == oracle.nodes_distinct(nodes)

    def test_unit_circle_nodes_are_distinct_and_unimodular(self):
        nodes = unit_circle_nodes(8)
        assert np.allclose(np.abs(nodes), 1.0)
        assert len(set(np.round(nodes, 9))) == 8


class TestEncode:
    def test_zero_vector(self):
        m = vandermonde_matrix(unit_circle_nodes(6), 4)
        assert np.allclose(cs_encode(m, np.zeros(6)), 0.0)

    def test_standard_basis(self):
        m = vandermonde_matrix(unit_circle_nodes(6), 4)
        e2 = np.zeros(6)
        e2[2] = 1.0
        assert np.allclose(cs_encode(m, e2), m[:, 2])

    def test_linearity(self):
        rng = np.random.default_rng(61)
        m = vandermonde_matrix(unit_circle_nodes(5), 3)
        x1, x2 = rng.normal(size=5), rng.normal(size=5)
        lhs = cs_encode(m, x1 + x2)
        rhs = cs_encode(m, x1) + cs_encode(m, x2)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shape_validation(self):
        m = vandermonde_matrix(unit_circle_nodes(5), 3)
        with pytest.raises(DomainError):
            cs_encode(m, np.zeros(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(1, np.nan)])
    def test_rejects_non_finite_input(self, bad):
        # once returned [nan+nanj, ...] for a NaN in x
        m = vandermonde_matrix(np.array([0.0, 1.0, 2.0]), 2)
        with pytest.raises(DomainError, match="finite"):
            cs_encode(m, np.array([bad, 0, 0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_matrix(self, bad):
        # an inf in m once raised a bare RuntimeWarning from the product
        m = vandermonde_matrix(np.array([0.0, 1.0, 2.0]), 2)
        m[1, 2] = bad
        with pytest.raises(DomainError, match="finite"):
            cs_encode(m, np.array([1.0, 0.0, 0.0]))

    def test_rejects_overflowing_product(self):
        # once returned [inf+nanj, inf+nanj] with two RuntimeWarnings
        with pytest.raises(DomainError, match="^measurement entries must be finite$"):
            cs_encode(np.full((2, 2), 1e308), [10, 0])

    def test_refuses_what_the_decoder_refuses(self):
        # finite entries, 1.5e308 each, whose norm 3e308 is past the float
        # range: the decoder's refusal, now the encoder's too
        with pytest.raises(DomainError, match="^measurement norm overflows$"):
            cs_encode(np.full((4, 5), 1.5e308), np.eye(5)[0])

    def test_keeps_a_finite_norm_whose_squares_overflow(self):
        # the plain norm squares 1e200 past the float range; the norm is 1e200
        y = cs_encode([[1e200, 0], [0, 1]], [1, 0])
        assert np.array_equal(y, [1e200, 0])
        assert cs_decode_exhaustive(np.eye(2), y, 1).success


class TestDecode:
    def test_zero_measurement(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        result = cs_decode_exhaustive(m, np.zeros(4), 2)
        assert result.success
        assert result.support_found == ()
        assert np.allclose(result.estimate, 0.0)

    def test_constructed_two_sparse_instance(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        x = np.zeros(8, dtype=complex)
        x[2], x[5] = 1.0, -2.0
        result = cs_decode_exhaustive(m, cs_encode(m, x), 2)
        assert result.success
        assert result.support_found == (2, 5)
        assert np.abs(result.estimate - x).max() <= 1e-9

    @pytest.mark.parametrize("ys", [np.zeros((1, 5)), np.zeros((2, 3)), np.zeros(4)],
                             ids=["long", "short", "1-d"])
    def test_measurement_of_the_wrong_length_refused(self, ys):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        with pytest.raises(DomainError, match="^y must have length 4$"):
            recovery.cs_decode_batch(m, ys, 1)

    def test_inconsistent_measurement_fails_cleanly(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        rng = np.random.default_rng(62)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        result = _decode_at(m, y, 1, 1e-12)
        assert not result.success
        assert result.support_found == ()

    def test_results_are_equal_by_value_and_unhashable(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        y = cs_encode(m, np.eye(8)[3])
        result = cs_decode_exhaustive(m, y, 2)
        assert result == cs_decode_exhaustive(m, y.copy(), 2)
        twice = cs_decode_exhaustive(m, 2 * y, 2)
        assert twice.support_found == result.support_found
        assert twice != result
        assert cs_decode_exhaustive(m, cs_encode(m, np.eye(8)[5]), 2) != result
        assert result != result.estimate
        with pytest.raises(TypeError, match="unhashable"):
            hash(result)

    def test_cap(self, monkeypatch):
        # built first: its 190 node pairs are over the cap too
        m = vandermonde_matrix(unit_circle_nodes(20), 8)
        monkeypatch.setenv("SPARSECODE_CAP", "100")
        with pytest.raises(EnumerationCapError, match="^6196 supports exceed cap 100$"):
            cs_decode_exhaustive(m, np.zeros(8, dtype=complex), 4)

    def test_order_range(self):
        m = vandermonde_matrix(unit_circle_nodes(4), 2)
        with pytest.raises(DomainError):
            cs_decode_exhaustive(m, np.zeros(2, dtype=complex), 5)


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
    def test_no_verdict_on_non_finite_measurements(self, bad):
        # inf once gave success on the empty support, NaN a failure
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        y = np.ones(4, dtype=complex)
        y[1] = bad
        with pytest.raises(DomainError, match="finite"):
            cs_decode_exhaustive(m, y, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_no_verdict_on_non_finite_matrix(self, bad):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        m[2, 3] = bad
        with pytest.raises(DomainError, match="finite"):
            cs_decode_exhaustive(m, np.zeros(4, dtype=complex), 2)

    def test_refuses_overflowing_measurement_norm(self):
        # once returned success on the empty support with residual inf:
        # every residual passed the accept test DECODE_TOL * (1 + inf)
        with pytest.raises(DomainError, match="^measurement norm overflows$"):
            cs_decode_exhaustive(np.eye(3), [1.5e308, 1.5e308, 0], 1)

    def test_decodes_measurement_whose_squares_overflow(self):
        # the plain norm squares 1e200 past the float range; the norm is 1e200
        got = cs_decode_exhaustive([[1, 0], [0, 1]], [1e200, 0], 1)
        assert got.success and got.support_found == (0,)
        assert math.isfinite(got.residual_norm)
        assert np.array_equal(got.estimate, [1e200, 0])
        # norm 1.4e308 is finite: no fit, a finite residual, no refusal
        miss = cs_decode_exhaustive(np.eye(3), [1e308, 1e308, 0], 1)
        assert not miss.success
        assert miss.residual_norm == pytest.approx(1e308 * math.sqrt(2), rel=1e-15)

    def test_matches_itertools_oracle(self):
        rng = np.random.default_rng(63)
        m = vandermonde_matrix(unit_circle_nodes(12), 6)
        x = np.zeros(12, dtype=complex)
        x[[9, 10, 11]] = 1.0, -2.0, 0.5j  # late in the walk: past several blocks
        cases = [
            (m, cs_encode(m, x), 3, 1e-8),
            (m, cs_encode(m, np.eye(12)[4]), 3, 1e-8),
            (m, np.zeros(6, dtype=complex), 2, 1e-8),
            # fits nothing: the whole walk is tried
            (m, rng.normal(size=6) + 1j * rng.normal(size=6), 3, 1e-12),
            # repeated columns: several supports fit, the lex-first one wins
            (np.eye(3)[:, [0, 1, 1, 2, 2]], np.array([0, 1.0, 1.0]), 3, 1e-8),
        ]
        for mat, y, L, tol in cases:
            got = _decode_at(mat, y, L, tol)
            want = oracle.cs_decode_exhaustive(mat, y, L, tol)
            assert got == want
            if tol == recovery.DECODE_TOL:
                assert cs_decode_exhaustive(mat, y, L) == want
            assert got.estimate.tobytes() == want.estimate.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_block_size_changes_no_report(self, monkeypatch, block):
        # the filter decides per block of supports
        monkeypatch.setattr(caps, "_SUPPORT_BLOCK", block)
        self.test_matches_itertools_oracle()


def _matrix(kind: str, n: int, N: int, rng) -> np.ndarray:
    if kind == "real":
        return rng.normal(size=(n, N))
    if kind == "vandermonde":
        return vandermonde_matrix(unit_circle_nodes(N), n)
    m = rng.normal(size=(n, N)) + 1j * rng.normal(size=(n, N))
    j = int(rng.integers(N))
    if kind == "repeated":
        m[:, j] = m[:, int(rng.integers(N))]
    elif kind == "near-duplicate":
        m[:, j] = m[:, int(rng.integers(N))] * (1 + 1e-9 * rng.normal())
    elif kind == "rank-deficient":
        m[:, j] = m[:, int(rng.integers(N))] - 2.0 * m[:, int(rng.integers(N))]
    elif kind == "ill-conditioned":
        m *= 10.0 ** rng.integers(-8, 9, size=N)
    elif kind == "zero-column":
        m[:, j] = 0
    return m


@st.composite
def _decode_cases(draw):
    n, N = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["real", "complex", "vandermonde", "repeated",
                                 "near-duplicate", "rank-deficient", "ill-conditioned"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = _matrix(kind, n, N, rng)
    L = draw(st.integers(0, N))
    tol = draw(st.sampled_from([1e-8, 0.0, 1e-12, 1e-3]))
    support = sorted(rng.choice(N, size=draw(st.integers(0, min(L, n))), replace=False))
    a = m[:, support]
    y = a @ (rng.normal(size=len(support)) + 1j * rng.normal(size=len(support)))
    measure = draw(st.sampled_from(["exact", "noisy", "near-accept"]))
    if measure == "noisy":
        y = y + 1e-6 * rng.normal(size=n)
    elif measure == "near-accept" and len(support) < n:
        # add an off-span part of norm within a few ulps of accept
        w = np.linalg.qr(np.column_stack((a, rng.normal(size=n))))[0][:, -1]
        t = tol
        for _ in range(5):
            t = tol * (1.0 + np.hypot(np.linalg.norm(y), t))
        y = y + t * (1 + draw(st.integers(-4, 4)) * 2.0**-52) * w
    return m, y, L, tol


def _measurement(kind: str, m: np.ndarray, L: int, earlier: list, rng) -> np.ndarray:
    """One measurement for a stack: zero, a repeat of an earlier one, a miss
    (a random y, which fits no support of size < n), or one of an L-sparse x,
    as is or scaled to a norm outside [2^-400, 2^400]."""
    n, N = m.shape
    if kind == "zero":
        return np.zeros(n, dtype=np.complex128)
    if kind == "repeat" and earlier:
        return earlier[int(rng.integers(len(earlier)))].copy()
    if kind == "miss":
        return rng.normal(size=n) + 1j * rng.normal(size=n)
    support = rng.choice(N, size=int(rng.integers(0, min(L, n) + 1)), replace=False)
    y = m[:, support] @ (rng.normal(size=len(support)) + 1j * rng.normal(size=len(support)))
    return y * {"tiny": 2.0**-450, "huge": 2.0**450}.get(kind, 1.0)


@st.composite
def _batch_cases(draw):
    """(m, ys, L, tol, cut, budget): a stack of 1-40 measurements of mixed
    kinds, a place to cut it in two, and a slice budget that keeps the
    filter on for every support size up to L."""
    n, N = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["real", "complex", "vandermonde", "repeated",
                                 "rank-deficient", "ill-conditioned", "zero-column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = _matrix(kind, n, N, rng)
    L = draw(st.integers(0, N))
    ys = []
    for measure in draw(st.lists(st.sampled_from(["zero", "repeat", "miss", "sparse",
                                                  "tiny", "huge"]), min_size=1, max_size=40)):
        ys.append(_measurement(measure, m, L, ys, rng))
    tol = draw(st.sampled_from([1e-8, 0.0, 1e-12, 1e-3]))
    cut = draw(st.integers(0, len(ys)))
    budget = n * max(L, 1) * draw(st.integers(1, 3))
    return m, np.array(ys), L, tol, cut, budget


def _vandermonde_measurements(rows: int, count: int, most: int, seed: int):
    """Vandermonde rows x 12 and `count` complex128 measurements of random
    inputs of weight <= most."""
    m = vandermonde_matrix(unit_circle_nodes(12), rows)
    rng = np.random.default_rng(seed)
    xs = np.zeros((count, 12), dtype=np.complex128)
    for x in xs:
        support = rng.choice(12, size=int(rng.integers(0, most + 1)), replace=False)
        x[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return m, xs @ m.T


def _same(got, want) -> bool:
    """Equal results, the residual by its hex and the estimate by its bytes."""
    return (got.support_found == want.support_found
            and got.candidates_tried == want.candidates_tried
            and got.success == want.success
            and got.residual_norm.hex() == want.residual_norm.hex()
            and got.estimate.tobytes() == want.estimate.tobytes())


def _filter_residual(a: np.ndarray, y: np.ndarray) -> float:
    """r~ = ||y - Q~ (Q~^H y)|| for the reduced QR Q~ of a, the residual the
    filter reads."""
    q = np.linalg.qr(a)[0]
    return float(np.linalg.norm(y - q @ (q.conj().T @ y)))


def _fitted_tol(a: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """(lstsq's residual rho, ||y||, the least tol whose accept covers rho)."""
    coef = np.linalg.lstsq(a, y, rcond=None)[0]
    rho = float(np.linalg.norm(y - a @ coef))
    beta = float(np.linalg.norm(y))
    tol = rho / (1.0 + beta)
    while tol * (1.0 + beta) < rho:
        tol = float(np.nextafter(tol, np.inf))
    return rho, beta, tol


def _near_threshold(seed: int):
    """(m, y, tol) whose support (0, 1, 2) fits through lstsq, while r~ sits
    above accept (by more than the few ulps in which two computations of r~
    may differ) and far inside the margin; None if the seed gives no such y."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 5)) + 1j * rng.normal(size=(6, 5))
    a = m[:, [0, 1, 2]]
    w = np.linalg.qr(np.column_stack((a, rng.normal(size=6))))[0][:, 3]
    y = a @ (rng.normal(size=3) + 1j * rng.normal(size=3)) + 1e-9 * w
    _, beta, tol = _fitted_tol(a, y)
    return (m, y, tol) if tol * (1.0 + beta) * (1 + 2.0**-30) < _filter_residual(a, y) else None


def _ill_conditioned(seed: int):
    """(m, y, tol) whose support (0, 1), two nearly parallel columns, fits
    through lstsq, while r~ sits above accept by more than the filter's
    margin; None if the seed gives no such y."""
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    m[:, 1] = m[:, 0] + 1e-12 * m[:, 1]
    a = m[:, [0, 1]]
    y = a @ np.array([1e12, -1e12])
    rho, _, tol = _fitted_tol(a, y)
    # the margin is ~1e-7 ||y||, rho ~1e-4 ||y||
    return (m, y, tol) if _filter_residual(a, y) > 1.01 * rho else None


class TestResidualFilter:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_decode_cases())
    def test_filtered_equals_unfiltered(self, case):
        m, y, L, tol = case
        got = _decode_at(m, y, L, tol)
        want = oracle.cs_decode_exhaustive(m, y, L, tol)
        assert got.support_found == want.support_found
        assert got.candidates_tried == want.candidates_tried
        assert got.success == want.success
        assert got.residual_norm.hex() == want.residual_norm.hex()
        assert got.estimate.tobytes() == want.estimate.tobytes()

    # near-threshold: r~ > accept >= lstsq's residual, so a filter without its
    # margin skips the support that fits; ill-conditioned: lstsq's rounding
    # puts the residual far below r~, so one without its conditioning test does.
    # A filter that projects on an unnormalised basis of range(A_S) skips both
    @pytest.mark.parametrize("build, seeds, L, support", [
        (_near_threshold, 60, 3, (0, 1, 2)),
        (_ill_conditioned, 100, 2, (0, 1)),
    ], ids=["near-threshold", "ill-conditioned"])
    def test_keeps_supports_it_cannot_rule_out(self, build, seeds, L, support):
        cases = [c for c in map(build, range(seeds)) if c is not None]
        assert len(cases) >= 3
        for m, y, tol in cases:
            got = _decode_at(m, y, L, tol)
            want = oracle.cs_decode_exhaustive(m, y, L, tol)
            assert want.support_found == support
            assert got == want
            assert got.estimate.tobytes() == want.estimate.tobytes()

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(_batch_cases())
    def test_batch_equals_unfiltered_row_by_row(self, case):
        m, ys, L, tol, cut, budget = case
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recovery, "DECODE_TOL", tol)
            got = recovery.cs_decode_batch(m, ys, L)
            halves = (recovery.cs_decode_batch(m, ys[:cut], L)
                      + recovery.cs_decode_batch(m, ys[cut:], L))
            backwards = recovery.cs_decode_batch(m, ys[::-1], L)[::-1]
            alone = [recovery.cs_decode_batch(m, y[None], L)[0] for y in ys]
            mp.setattr(recovery, "_RESIDUAL_ENTRIES", budget)
            mp.setattr(caps, "_SUPPORT_BLOCK", 3)
            sliced = recovery.cs_decode_batch(m, ys, L)
        assert len(got) == len(ys)
        for row, y in enumerate(ys):
            want = oracle.cs_decode_exhaustive(m, y, L, tol)
            assert _same(got[row], want)
            for other in (halves, backwards, alone, sliced):
                assert _same(other[row], want)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(_batch_cases())
    def test_every_skipped_pair_fails_its_solve(self, case):
        # the filter's claim, pair by pair: a skipped support's lstsq
        # residual for that measurement is above its accept
        m, ys, L, tol, _, _ = case
        m = m.astype(np.complex128)
        beta = np.array([recovery._norm(y) for y in ys])
        accept = tol * (1.0 + beta)
        col_sq = (np.abs(m) ** 2).sum(axis=0)
        live = np.arange(len(ys))
        for rows in caps.supports(m.shape[1], L):
            keep = recovery._must_solve(m.T.copy(), rows, ys, live, beta, accept, col_sq)
            for k, t in zip(*np.nonzero(~keep)):
                sub = m[:, rows[k]]
                coef = np.linalg.lstsq(sub, ys[t], rcond=None)[0]
                assert recovery._norm(ys[t] - sub @ coef) > accept[t]

    def test_skips_what_the_per_measurement_filter_skipped(self):
        # on the CLI's Vandermonde round trips the shared QR rules out the
        # same (support, measurement) pairs as one QR of [A_S y] per pair did,
        # which is most of them: a zero y (the draws' weight 0) and the
        # supports that hold a y's own support are all that stay
        m = vandermonde_matrix(unit_circle_nodes(12), 6)
        col_sq = (np.abs(m) ** 2).sum(axis=0)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            xs = np.zeros((50, 12), dtype=np.complex128)
            for x in xs:
                for pos in sorted(cli._draw_support(rng, 12, 3)):
                    x[pos] = complex(rng.normal(), rng.normal())
            ys = np.array([cs_encode(m, x) for x in xs])
            beta = np.array([recovery._norm(y) for y in ys])
            accept = recovery.DECODE_TOL * (1.0 + beta)
            skipped = 0
            for rows in caps.supports(12, 3):
                keep = recovery._must_solve(m.T.copy(), rows, ys, np.arange(50), beta,
                                            accept, col_sq)
                for t, y in enumerate(ys):
                    want = oracle.must_solve(np.vstack((m.T, y)), rows, accept[t],
                                             beta[t], col_sq)
                    assert np.array_equal(keep[:, t], want)
                skipped += int((~keep).sum())
            assert skipped > 50 * 299 // 2

    def test_memory_stays_within_the_slice_budget(self):
        # 1024 measurements on a tall matrix: one unsliced residual product
        # of the 66 two-column supports would hold 66 * 1024 * 512 entries
        m, ys = _vandermonde_measurements(512, 1024, 2, 72)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            results = recovery.cs_decode_batch(m, ys, 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert all(r.success for r in results)
        # beyond m's transposed copy: a few slices of the budget, plus a
        # constant for the 1024 results; complex128 ys is not copied
        budget = 16 * recovery._RESIDUAL_ENTRIES
        assert peak <= m.nbytes + 4 * budget + 2**20

    def test_views_decode_as_their_contiguous_copies(self, spread):
        # m and ys go into the decoder as they are, strides and all, and
        # every result is the one of their contiguous copies
        m, ys = _vandermonde_measurements(6, 40, 3, 74)
        ys[::2] += 1e-3 * np.arange(6) ** 2  # half of them fit no support
        want = recovery.cs_decode_batch(m, ys, 3)
        for got in (recovery.cs_decode_batch(spread(m), ys, 3),
                    recovery.cs_decode_batch(m, spread(ys), 3),
                    recovery.cs_decode_batch(spread(m), spread(ys), 3)):
            assert got == want
            assert [r.residual_norm.hex() for r in got] == [r.residual_norm.hex() for r in want]

    def test_spares_lstsq_on_the_vandermonde_roundtrip(self, monkeypatch, tmp_path, capsys):
        write_matrix(vandermonde_matrix(unit_circle_nodes(12), 6), tmp_path / "v.json")
        solved, tried = [], []
        lstsq, decode = np.linalg.lstsq, recovery.cs_decode_batch

        def counted_decode(*args):
            results = decode(*args)
            tried.extend(result.candidates_tried for result in results)
            return results

        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *a, **k: solved.append(1) or lstsq(*a, **k))
        monkeypatch.setattr(recovery, "cs_decode_batch", counted_decode)
        argv = ["cs-roundtrip", "--matrix", str(tmp_path / "v.json"), "--L", "3",
                "--seed", "7"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        # at most one solve per decode, for the support it returns
        assert len(tried) == 50
        assert len(solved) <= 50
        assert 50 * len(solved) < sum(tried)

    # each guard of the filter, at its boundary and one float past it: the
    # filter acts at the boundary and spares lstsq, and past it keeps every
    # support it guards.  The lower ||y|| guard, 2^-400, has no such test:
    # a y that small fits the empty support, before any filter runs.
    @staticmethod
    def _solves(m, y, L):
        """(lstsq calls, result) of decoding y."""
        solved, lstsq = [], np.linalg.lstsq
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "lstsq",
                       lambda *a, **k: solved.append(1) or lstsq(*a, **k))
            result = cs_decode_exhaustive(m, y, L)
        return len(solved), result

    @pytest.mark.parametrize("beta, solves", [(2.0**400, 0),
                                              (np.nextafter(2.0**400, np.inf), 78)])
    def test_measurement_norm_guard_boundary(self, beta, solves):
        m = vandermonde_matrix(unit_circle_nodes(12), 6)
        y = np.zeros(6, dtype=np.complex128)
        y[0] = beta  # ||y|| = beta exactly, fit by no support of size <= 2
        assert recovery._norm(y) == beta
        got, result = self._solves(m, y, 2)
        assert (got, result.success, result.candidates_tried) == (solves, False, 79)

    @pytest.mark.parametrize("top, solves", [
        (2.0**400, 0), (np.nextafter(2.0**400, np.inf), 1),
        (2.0**-400, 0), (np.nextafter(2.0**-400, 0), 1)])
    def test_column_norm_guard_boundary(self, top, solves):
        # column 0 is top e_0, so its squared norm is top^2: exactly 2^800 or
        # 2^-800, or past them; only support (0,) leaves the filter's range
        m = vandermonde_matrix(unit_circle_nodes(12), 6)
        y = m[:, 5] + 1.0
        m[:, 0] = 0.0
        m[0, 0] = top
        got, result = self._solves(m, y, 1)
        assert (got, result.success, result.candidates_tried) == (solves, False, 13)

    @pytest.mark.parametrize("n, solves", [(2**14, 1), (2**14 + 1, 5)])
    def test_stack_size_guard_boundary(self, n, solves):
        # n s = 2^16 = _RESIDUAL_ENTRIES exactly at s = 4 for n = 2^14: the
        # filter skips the four 4-supports before the lex-last, which y fits
        rng = np.random.default_rng(20)
        m = rng.normal(size=(n, 5)) + 1j * rng.normal(size=(n, 5))
        got, result = self._solves(m, m @ [0, 1, -2, 0.5j, 1.5], 4)
        assert (got, result.support_found, result.candidates_tried) == (solves, (1, 2, 3, 4), 31)


class TestStackedLapack:
    """The filter's QR reads a (K, n, s) stack; these pin that LAPACK solves
    each member of a stack as it would alone, bytes and all (SVD for the
    same filter in front of kernel_injectivity)."""

    @staticmethod
    def _stacks():
        rng = np.random.default_rng(64)
        for _ in range(60):
            k, n = int(rng.integers(1, 30)), int(rng.integers(1, 9))
            s = int(rng.integers(1, n + 1))
            a = rng.normal(size=(k, n, s)) + 1j * rng.normal(size=(k, n, s))
            if s >= 2:  # some members near rank deficient
                near = rng.random(k) < 0.3
                a[near, :, -1] = a[near, :, 0] * (1 + 1e-13 * rng.normal())
            yield a

    def test_qr_solves_one_matrix_at_a_time(self):
        for a in self._stacks():
            assert (np.linalg.qr(a, mode="r").tobytes()
                    == np.stack([np.linalg.qr(x, mode="r") for x in a]).tobytes())
            q, r = np.linalg.qr(a)
            alone = [np.linalg.qr(x) for x in a]
            assert q.tobytes() == np.stack([f.Q for f in alone]).tobytes()
            assert r.tobytes() == np.stack([f.R for f in alone]).tobytes()

    def test_svd_solves_one_matrix_at_a_time(self):
        for a in self._stacks():
            assert (np.linalg.svd(a, compute_uv=False).tobytes()
                    == np.stack([np.linalg.svd(x, compute_uv=False) for x in a]).tobytes())


class TestUniqueness:
    def test_vandermonde_is_identifiable(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        assert kernel_injectivity(m, 2).injective

    def test_too_few_rows(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 3)
        assert not kernel_injectivity(m, 2).injective
