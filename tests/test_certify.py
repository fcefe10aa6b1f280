import json
import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from sparsecode import caps, certify
from sparsecode.cli import main
from sparsecode.certify import (
    FLAT_FROM_RIP_FACTOR,
    bias_factor_from_flat,
    coherence,
    flat_rip_constant,
    kernel_injectivity,
    rip2_constant,
    rip2_profile,
)
from eigen import singular_values
import scalar_oracles as oracle
from sparsecode.codes import random_balanced_code
from sparsecode.embeddings import bool_code, sph_code
from sparsecode.errors import DomainError, EnumerationCapError, PreconditionError
from sparsecode.matrixio import write_matrix
from sparsecode.recovery import unit_circle_nodes, vandermonde_matrix


# lex_first_max's block schedule: the first block without and with an
# incumbent, and the largest; 1 << 30 rows puts every size in one block
_SCHEDULE = ("_FIRST_BLOCK", "_FIRST_BLOCK_LED", "_SUBSET_BLOCK")
_BLOCKS = (1, 7, 1 << 30)


def _set_schedule(mp, first, first_led, largest):
    for name, rows in zip(_SCHEDULE, (first, first_led, largest)):
        mp.setattr(caps, name, rows)


def _random_unit_columns(rng, n, N, complex_entries=True):
    m = rng.normal(size=(n, N))
    if complex_entries:
        m = m + 1j * rng.normal(size=(n, N))
    return m / np.linalg.norm(m, axis=0)


def _naive_rip2(m, L):
    """Independent oracle: per-subset extreme singular values via the
    in-house Jacobi solver."""
    best = 0.0
    for size in range(1, L + 1):
        for subset in combinations(range(m.shape[1]), size):
            sv = singular_values(m[:, subset])
            best = max(best, float(sv[-1]) - 1.0, 1.0 - float(sv[0]))
    return best


def _naive_flat(m, L0):
    best = 0.0
    for s in range(1, L0 + 1):
        for s1 in combinations(range(m.shape[1]), s):
            for s2 in combinations(range(m.shape[1]), s):
                if s2 <= s1 or set(s1) & set(s2):
                    continue
                v1 = m[:, s1].sum(axis=1)
                v2 = m[:, s2].sum(axis=1)
                best = max(best, abs(np.vdot(v1, v2)) / s)
    return best


class TestCoherence:
    def test_orthonormal_columns(self):
        rep = coherence(np.eye(4))
        assert rep.value == pytest.approx(0.0)
        assert rep.max_norm_deviation == pytest.approx(0.0)

    def test_repeated_column(self):
        m = np.eye(3)[:, [0, 0, 1]]
        rep = coherence(m)
        assert rep.value == pytest.approx(1.0)
        assert rep.witness == (0, 1)

    def test_witness_attains_value(self):
        rng = np.random.default_rng(21)
        m = _random_unit_columns(rng, 5, 8)
        rep = coherence(m)
        i, j = rep.witness
        assert abs(np.vdot(m[:, i], m[:, j])) == pytest.approx(rep.value)
        assert rep.pairs_checked == 28

    def test_requires_two_columns(self):
        with pytest.raises(DomainError):
            coherence(np.ones((3, 1)))

    def test_ties_break_on_the_full_gram(self):
        # |M^H M| from one product is not bitwise Hermitian.  Here its largest
        # entry is (5, 0), one ulp above its mirror (0, 5), and the report
        # carries the lower triangle's bits: a walk over the pairs i < j
        # alone would report 0x1.0186f06a1097cp+3.
        rng = np.random.default_rng(8)
        m = rng.normal(size=(4, 6)) + 1j * rng.normal(size=(4, 6))
        moduli = np.abs(m.conj().T @ m)
        assert moduli[5, 0].hex() == "0x1.0186f06a1097dp+3"
        assert moduli[0, 5].hex() == "0x1.0186f06a1097cp+3"
        rep = coherence(m)
        assert (rep.value.hex(), rep.witness) == ("0x1.0186f06a1097dp+3", (0, 5))


class TestRip2:
    def test_orthonormal_columns(self):
        for L in (1, 2, 3):
            assert rip2_constant(np.eye(5), L).alpha == pytest.approx(0.0)

    def test_matches_jacobi_oracle(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            m = _random_unit_columns(rng, 4, 7)
            rep = rip2_constant(m, 3)
            assert rep.alpha == pytest.approx(_naive_rip2(m, 3), abs=1e-8)

    def test_profile_is_monotone_and_consistent(self):
        rng = np.random.default_rng(24)
        m = _random_unit_columns(rng, 5, 9)
        profile = rip2_profile(m, 4)
        alphas = [r.alpha for r in profile]
        assert alphas == sorted(alphas)
        for order, report in enumerate(profile, start=1):
            assert report.order == order
            assert report.alpha == pytest.approx(
                rip2_constant(m, order).alpha
            )

    def test_witness_attains_constant(self):
        rng = np.random.default_rng(25)
        m = _random_unit_columns(rng, 4, 8)
        rep = rip2_constant(m, 3)
        sv = np.linalg.svd(m[:, list(rep.witness_subset)], compute_uv=False)
        attained = max(sv.max() - 1.0, 1.0 - sv.min())
        assert attained == pytest.approx(rep.alpha)

    def test_block_size_does_not_change_reports(self, monkeypatch):
        rng = np.random.default_rng(26)
        # Boolean and repeated columns tie exactly, so a later block must not
        # take a witness from an earlier one
        mats = [
            _random_unit_columns(rng, 7, 9),
            bool_code(random_balanced_code(3, 4, 3, rng), normalize=True),
            np.eye(5)[:, [0, 0, 1, 1, 2, 2, 3, 4, 4]],
        ]

        def reports():
            return [(rip2_profile(m, 3), kernel_injectivity(m, 2)) for m in mats]

        default = reports()
        assert default[2][1].witness == (0, 1, 2, 3)
        # no constant of the schedule moves a witness
        for schedule in product(_BLOCKS, repeat=3):
            _set_schedule(monkeypatch, *schedule)
            assert reports() == default

    def test_order_range(self):
        with pytest.raises(DomainError):
            rip2_constant(np.eye(3), 4)

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("SPARSECODE_CAP", "20")
        with pytest.raises(EnumerationCapError,
                           match="^637 subsets up to size 5 exceed cap 20$"):
            rip2_constant(np.eye(10), 5)


_DIFFERENTIAL = settings(derandomize=True, max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _rip_matrices(draw):
    """Every kind of matrix RIP-2 meets, exact ties included: real, complex,
    0/1, embedded balanced codes, repeated and zero columns, and Vandermonde
    columns, which are not unit norm."""
    kind = draw(st.sampled_from(["real", "complex", "boolean", "sph", "bool",
                                 "ties", "vandermonde"]))
    n, cols = draw(st.integers(1, 8)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("real", "complex"):
        return _random_unit_columns(rng, n, cols, kind == "complex")
    if kind == "boolean":
        return rng.integers(0, 2, size=(n, cols))
    if kind in ("sph", "bool"):
        code = random_balanced_code(draw(st.sampled_from([2, 3])), n + 2,
                                    draw(st.integers(1, 3)), rng)
        return sph_code(code) if kind == "sph" else \
            bool_code(code, normalize=draw(st.booleans()))
    if kind == "ties":
        m = np.eye(n)[:, rng.integers(0, n, size=cols)]
        m[:, rng.integers(0, cols, size=draw(st.integers(0, 2)))] = 0
        return m
    return vandermonde_matrix(rng.normal(size=cols) + 1j * rng.normal(size=cols), n)


@st.composite
def _exact_flat_matrices(draw):
    """(m, L0) on flat RIP's exact path, ties planted: +-2^-k signs over 4^k
    rows, normalised 0/1 columns of weight 1, 4 or 16, permuted and signed
    identity columns (every score 0), each with repeated and negated
    columns mixed in, and L0 up to N/2."""
    kind = draw(st.sampled_from(["signs", "zero-one", "identity"]))
    cols = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "signs":
        n = 4 ** draw(st.integers(0, 2))
        m = rng.choice([-1.0, 1.0], size=(n, cols)) / math.sqrt(n)
    elif kind == "zero-one":
        n = draw(st.integers(1, 20))
        m = np.zeros((n, cols))
        for j in range(cols):
            weight = int(rng.choice([w for w in (1, 4, 16) if w <= n]))
            m[rng.choice(n, size=weight, replace=False), j] = 1.0 / math.sqrt(weight)
    else:
        n = cols + draw(st.integers(0, 3))
        m = np.eye(n)[:, rng.permutation(n)[:cols]] * rng.choice([-1.0, 1.0], size=cols)
    if kind != "identity" and draw(st.booleans()):
        for j in range(1, cols):
            if rng.random() < 0.4:
                m[:, j] = m[:, rng.integers(0, j)] * rng.choice([-1.0, 1.0])
    L0 = cols // 2 if draw(st.booleans()) else draw(st.integers(1, cols // 2))
    return m, L0


def _rip_key(profile):
    return [(r.order, r.alpha.hex(), r.witness_subset, r.subsets_checked)
            for r in profile]


def _gram(m):
    """rip2_profile's one Gram of `m`, and the bound on its moduli."""
    a = certify.as_matrix(m)
    gram = np.einsum("nk,nl->kl", a.conj(), a)
    return gram, float(np.abs(gram).max())


def _distortions(grams):
    """rip2_profile's distortion of each (K, s, s) Gram, by eigvalsh."""
    sv = np.sqrt(np.clip(np.linalg.eigvalsh(grams), 0.0, None))
    return np.maximum(sv[:, -1] - 1.0, 1.0 - sv[:, 0])


def _bool_36x27():
    """A fixed 36 x 27 Boolean embedding: nine shift classes of three words."""
    rng = np.random.default_rng(20261018)
    while True:
        m = bool_code(random_balanced_code(3, 12, 9, rng), normalize=True)
        if m.shape[1] == 27:
            return m


class TestThresholdFilter:
    """rip2_profile's LDL^H filter changes no report and spares eigvalsh."""

    @pytest.mark.parametrize("block", _BLOCKS)
    @_DIFFERENTIAL
    @given(m=_rip_matrices(), L=st.integers(1, 5),
           first=st.sampled_from(_BLOCKS), first_led=st.sampled_from(_BLOCKS))
    def test_profile_equals_unfiltered_oracle(self, m, L, block, first, first_led):
        L = min(L, m.shape[1])
        with pytest.MonkeyPatch.context() as mp:
            _set_schedule(mp, first, first_led, block)
            assert _rip_key(rip2_profile(m, L)) == _rip_key(oracle.rip2_profile(m, L))

    @_DIFFERENTIAL
    @given(m=_rip_matrices(), L=st.integers(1, 4),
           layout=st.sampled_from(["C", "F", "column-sliced"]))
    def test_gathered_grams_are_per_subset_einsums(self, m, L, layout):
        m = np.asarray(m, dtype=np.complex128)
        if layout == "F":
            m = np.asfortranarray(m)
        elif layout == "column-sliced":
            wide = np.zeros((m.shape[0], 2 * m.shape[1]), dtype=np.complex128)
            wide[:, 1::2] = m
            m = wide[:, 1::2]
        L = min(L, m.shape[1])
        seen = []
        eigvalsh = np.linalg.eigvalsh
        with pytest.MonkeyPatch.context() as mp:
            # every subset reaches eigvalsh, which records what it is given
            mp.setattr(certify, "_distortion_below", lambda g, rows, t, scale:
                       np.zeros(len(rows), dtype=bool))
            mp.setattr(np.linalg, "eigvalsh",
                       lambda a: seen.append(a.copy()) or eigvalsh(a))
            rip2_profile(m, L)
        a = certify.as_matrix(m)
        for s in range(1, L + 1):
            rows = caps.subsets(m.shape[1], s)
            gathered = np.concatenate([g for g in seen if g.shape[1] == s])
            cols = a[:, rows]
            per_subset = np.einsum("nks,nkt->kst", cols.conj(), cols)
            assert gathered.tobytes() == per_subset.tobytes()

    def test_filter_spares_eigvalsh(self):
        m = _bool_36x27()
        total = sum(math.comb(27, s) for s in range(1, 5))
        solved = []
        eigvalsh = np.linalg.eigvalsh
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "eigvalsh",
                       lambda a: solved.append(len(a)) or eigvalsh(a))
            profile = rip2_profile(m, 4)
        # the space certified is still all of it
        assert profile[-1].subsets_checked == total
        assert sum(solved) < 0.15 * total
        assert _rip_key(profile) == _rip_key(oracle.rip2_profile(m, 4))

    def test_incumbent_is_best_of_earlier_blocks(self, monkeypatch):
        # the threshold a block is filtered against comes from subsets that
        # all precede it, never from the block itself
        m = _bool_36x27()
        thresholds = []
        distortion_below = certify._distortion_below

        def spy(gram, rows, t, scale):
            thresholds.append((len(rows), t.hex()))
            return distortion_below(gram, rows, t, scale)

        monkeypatch.setattr(certify, "_distortion_below", spy)
        rip2_profile(m, 4)
        gram, _ = _gram(m)
        expected, best = [], -math.inf
        for s in range(1, 5):
            # lex_first_max's schedule: size 1 starts with no incumbent
            first = caps._FIRST_BLOCK if s == 1 else caps._FIRST_BLOCK_LED
            for rows in caps._subset_blocks(27, s, first, caps._SUBSET_BLOCK):
                if best >= 0:
                    expected.append((len(rows), best.hex()))
                grams = gram[rows[:, :, None], rows[:, None, :]]
                best = max(best, _distortions(grams).max().item())
        # the order-4 walk alone spans several blocks of the growing schedule
        assert len({k for k, _ in expected}) >= 3
        assert thresholds == expected

    @pytest.mark.parametrize("which", ["complex", "real", "bool", "sph"])
    def test_rows_at_or_above_the_threshold_survive(self, which):
        rng = np.random.default_rng(33)
        m = {
            "complex": lambda: _random_unit_columns(rng, 4, 10),
            "real": lambda: _random_unit_columns(rng, 3, 10, complex_entries=False),
            # unnormalized, with each column twice: exact ties, distortions > 1
            "bool": lambda: np.repeat(bool_code(random_balanced_code(2, 5, 4, rng)),
                                      2, axis=1)[:, :10],
            "sph": lambda: sph_code(random_balanced_code(3, 5, 3, rng)),
        }[which]()
        gram, scale = _gram(m)
        removed = 0
        for s in range(1, 5):
            rows = caps.subsets(m.shape[1], s)
            d = _distortions(gram[rows[:, :, None], rows[:, None, :]])
            for t in np.unique(d):
                t = float(t)
                drop = certify._distortion_below(gram, rows, t, scale)
                assert not drop[d >= t].any()
                if not gram.imag.any():
                    # real arithmetic decides as complex arithmetic does
                    assert np.array_equal(
                        certify._distortion_below(gram.real.copy(), rows, t, scale), drop)
                removed += int(drop.sum())
        assert removed > 0

    def test_pivots_positive_needs_every_pivot_above_zero(self):
        stack = np.array([
            [[2.0, 1.0], [1.0, 2.0]],      # positive definite
            [[1.0, 1.0], [1.0, 1.0]],      # singular: last pivot exactly 0
            [[0.0, 0.0], [0.0, 1.0]],      # first pivot exactly 0
            [[1.0, 2.0], [2.0, 1.0]],      # indefinite
            [[np.nan, 0.0], [0.0, 1.0]],
        ], dtype=np.complex128)
        # the stack is indexed (row, column, matrix)
        ok = certify._pivots_positive(np.ascontiguousarray(stack.transpose(1, 2, 0)), 0.0)
        assert ok.tolist() == [True, False, False, False, False]

    @pytest.mark.parametrize("certifier", [
        coherence, lambda m: rip2_profile(m, 2)], ids=["coherence", "rip2_profile"])
    def test_gram_overflow_rejected(self, certifier):
        # finite entries whose Gram overflows would certify inf
        with pytest.raises(DomainError, match="overflows"):
            certifier(np.array([[1e200, 1.0], [1.0, 1.0]]))


class TestFlatRip:
    def test_orthonormal_columns(self):
        assert flat_rip_constant(np.eye(6), 3).constant == pytest.approx(0.0)

    def test_requires_unit_norm(self):
        with pytest.raises(PreconditionError):
            flat_rip_constant(2.0 * np.eye(6), 2)

    def test_overflowing_norm_is_not_unit(self):
        # once gave a RuntimeWarning from np.linalg.norm before the refusal
        with pytest.raises(PreconditionError, match="^flat RIP requires unit-norm columns$"):
            flat_rip_constant(np.array([[1e200, 1.0], [1.0, 1.0]]), 1)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(27)
        for _ in range(10):
            m = _random_unit_columns(rng, 4, 7)
            rep = flat_rip_constant(m, 3)
            assert rep.constant == pytest.approx(_naive_flat(m, 3), abs=1e-10)

    def test_witness_attains_constant(self):
        rng = np.random.default_rng(28)
        m = _random_unit_columns(rng, 4, 8)
        rep = flat_rip_constant(m, 3)
        s1, s2 = rep.witness
        v1 = m[:, list(s1)].sum(axis=1)
        v2 = m[:, list(s2)].sum(axis=1)
        assert abs(np.vdot(v1, v2)) / len(s1) == pytest.approx(rep.constant)

    def test_bounded_by_twice_rip_of_doubled_order(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            complex_entries = bool(rng.integers(0, 2))
            m = _random_unit_columns(rng, 4, 8, complex_entries)
            flat = flat_rip_constant(m, 2).constant
            rip = rip2_constant(m, 4).alpha
            # polarization: flat <= ((1+a)^2 - max(1-a,0)^2)/2, which is the
            # pinned 2*a whenever the RIP constant a stays below 1
            bound = ((1.0 + rip) ** 2 - max(1.0 - rip, 0.0) ** 2) / 2.0
            if rip <= 1.0:
                assert bound == pytest.approx(FLAT_FROM_RIP_FACTOR * rip)
            assert flat <= bound + 1e-9

    def test_order_range(self):
        with pytest.raises(DomainError):
            flat_rip_constant(np.eye(4), 3)

    def test_no_dense_modulus_matrix(self):
        # the K x K complex product is the float path's one K x K array; the
        # moduli and the overlap mask go by row block (+-1/sqrt(15) is not
        # dyadic, so this is the float path)
        rng = np.random.default_rng(30)
        m = rng.choice([-1.0, 1.0], size=(15, 20)) / math.sqrt(15)
        k = math.comb(20, 3)
        tracemalloc.start()
        try:
            flat_rip_constant(m, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * 16 * k * k

    def test_exact_path_builds_no_k_by_k_array(self):
        # K = C(32, 3) = 4960 sets, whose K x K complex product alone is
        # 394 MB.  The exact path holds one block of sets at a time, each
        # with its column sums and its row r_A of N partner scores, and then
        # the witness's one row: O(block (n + N)) floats, far below this
        # bound of 16 bytes per K x _PAIR_BLOCK scores, kept from the row-
        # blocked pair scan it replaced.
        rng = np.random.default_rng(30)
        m = rng.choice([-1.0, 1.0], size=(16, 32)) / 4.0
        k = math.comb(32, 3)
        tracemalloc.start()
        try:
            flat_rip_constant(m, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * caps._PAIR_BLOCK * k

    _SIGNS = np.random.default_rng(33).choice([-1.0, 1.0], size=(16, 20))

    @pytest.mark.parametrize("m, L0, exact", [
        (_SIGNS / 4.0, 3, True),
        (_SIGNS[1:] / math.sqrt(15), 3, False),
        (1j * _SIGNS / 4.0, 3, False),
        (np.eye(20)[:, np.random.default_rng(33).permutation(20)], 3, True),
        (_random_unit_columns(np.random.default_rng(33), 6, 20, complex_entries=False),
         3, False),
        (_random_unit_columns(np.random.default_rng(33), 6, 20), 3, False),
        # dyadic, but with entries (1 +- 2^38) / 2^40: B_1 > 16 * 4^38 > 2^52
        (_SIGNS / 4.0 + 2.0**-40, 3, False),
        # Y = m 2^25 has max|Y| = 2^25 over 4 rows: B_1 = 4 (2^25)^2 = 2^52
        # exactly, the largest bound the exact path takes
        (np.array([[1.0, 1.0 - 2.0**-25], [0.0, 2.0**-12], [0.0, 0.0], [0.0, 0.0]]),
         1, True),
    ], ids=["sign", "non-dyadic", "imaginary", "0/1", "gaussian", "complex",
            "past-2^52", "at-2^52"])
    def test_only_dyadic_real_input_takes_the_exact_path(self, monkeypatch, m, L0, exact):
        products, counts = [], certify._counts

        def spy(a, b, bound=None):
            products.append((bound, b.shape))
            return counts(a, b, bound)

        monkeypatch.setattr(certify, "_counts", spy)
        k = math.comb(m.shape[1], L0)
        tracemalloc.start()
        try:
            rep = flat_rip_constant(m, L0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep == oracle.flat_rip_constant(m, L0)
        # every product of the exact path passes its bound B_s and is taken
        # against Y itself, for a block of sets or for the witness's row; every
        # product of the float path counts overlaps without a bound
        assert products
        assert all((b is not None and shape == m.shape) if exact else b is None
                   for b, shape in products)
        # and builds the one K x K complex product, which shows in the peak
        # where K is large
        if k > 1000:
            assert (peak >= 16 * k * k) != exact

    def test_scaled_integers_stop_below_2_to_the_53(self):
        # [1, 2^-52] scales by 2^52 to [2^52, 1], every |Y| below 2^53; [1,
        # 2^-53] would scale to 2^53, which a float64 integer need not hold
        e, y = certify._scaled_integers(np.array([[1.0, 2.0**-52]]))
        assert (e, np.abs(y).max()) == (52, 2.0**52)
        assert certify._scaled_integers(np.array([[1.0, 2.0**-53]])) is None

    @staticmethod
    def _hex_report(rep):
        # JSON text prints each float round-trip exact, and -0.0 as such
        return rep.constant.hex(), json.dumps(rep.to_dict())

    @_DIFFERENTIAL
    @given(case=_exact_flat_matrices())
    # signed, permuted identity columns at L0 = N/2: every score is 0, so the
    # witness is ((0,), (1,)) with constant +0.0
    @example(case=(np.eye(8)[:, ::-1] * np.tile([1.0, -1.0], 4), 4))
    def test_exact_path_equals_the_pair_scan(self, case):
        m, L0 = case
        products, counts = [], certify._counts

        def spy(a, b, bound=None):
            products.append(bound)
            return counts(a, b, bound)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certify, "_counts", spy)
            rep = flat_rip_constant(m, L0)
        assert products and None not in products  # the exact path, every size
        assert self._hex_report(rep) == self._hex_report(oracle.flat_rip_constant(m, L0))

    def test_cap_counts_the_set_pairs(self, monkeypatch, tmp_path, capsys):
        # C(8, 1) C(7, 1) / 2 + C(8, 2) C(6, 2) / 2 = 28 + 210 set pairs, on
        # the exact path, which scores far fewer of them
        m = np.random.default_rng(35).choice([-1.0, 1.0], size=(4, 8)) / 2.0
        path = str(tmp_path / "signs.json")
        write_matrix(m, path)
        argv = ["verify", "flat-rip", "--input", path, "--L", "2"]
        monkeypatch.setenv("SPARSECODE_CAP", "238")
        rep = flat_rip_constant(m, 2)
        assert rep.pairs_checked == 238
        assert rep == oracle.flat_rip_constant(m, 2)
        assert main(argv) in (0, 1)
        assert json.loads(capsys.readouterr().out)["subsets_checked"] == 238
        monkeypatch.setenv("SPARSECODE_CAP", "237")
        with pytest.raises(EnumerationCapError, match="^238 set pairs exceed cap 237$"):
            flat_rip_constant(m, 2)
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: 238 set pairs exceed cap 237\n")

    def test_reach_past_a_hundred_million_pairs(self, monkeypatch):
        # 16 x 48 +-1/4 signs at L0 = 3: 123.3M set pairs, 122.7M of them of
        # size 3, which a pair scan took 1.3 s to score on a 2-vCPU x86-64
        # box.  The exact path computes one row of N scores per set and one
        # for the witness.
        m = np.random.default_rng(48).choice([-1.0, 1.0], size=(16, 48)) / 4.0
        total = sum(math.comb(48, s) * math.comb(48 - s, s) // 2 for s in (1, 2, 3))
        monkeypatch.setenv("SPARSECODE_CAP", str(total))
        scored, counts = [], certify._counts

        def spy(a, b, bound=None):
            out = counts(a, b, bound)
            scored.append(out.size)
            return out

        monkeypatch.setattr(certify, "_counts", spy)
        rep = flat_rip_constant(m, 3)
        assert rep.pairs_checked == total
        assert sum(scored) == sum((math.comb(48, s) + 1) * 48 for s in (1, 2, 3))
        # the witness re-derives its constant from its integer column sums
        a, b = rep.witness
        assert len(a) == len(b) == 3 and not set(a) & set(b)
        y = (4 * m).astype(np.int64)
        p = int(y[:, list(a)].sum(axis=1) @ y[:, list(b)].sum(axis=1))
        assert rep.constant == abs(p) / 16 / 3


class TestBiasFactor:
    def test_even_orders(self):
        assert bias_factor_from_flat(2) == 1.0
        assert bias_factor_from_flat(4) == 1.0

    def test_odd_orders(self):
        assert bias_factor_from_flat(3) == pytest.approx(1.5)
        assert bias_factor_from_flat(5) == pytest.approx(1.25)

    def test_range(self):
        with pytest.raises(DomainError):
            bias_factor_from_flat(1)


class TestKernelInjectivity:
    def test_wide_flat_matrix(self):
        rep = kernel_injectivity(np.ones((2, 6)), 2)
        assert not rep.injective
        assert rep.min_singular_value == 0.0
        assert rep.witness == (0, 1, 2, 3)
        assert rep.subsets_checked == 1

    def test_repeated_column(self):
        m = np.eye(4)[:, [0, 0, 1, 2]]
        rep = kernel_injectivity(m, 1)
        assert not rep.injective
        assert rep.witness == (0, 1)

    def test_generic_tall_matrix(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(6, 8)) + 1j * rng.normal(size=(6, 8))
        rep = kernel_injectivity(m, 3)
        assert rep.injective
        assert rep.witness is None
        assert rep.subsets_checked == math.comb(8, 6)

    def test_sigma_min_at_the_rank_tolerance_is_a_kernel(self):
        rep = kernel_injectivity(np.array([[1.0, 0.0], [0.0, certify.RANK_TOL]]), 1)
        assert rep.min_singular_value == certify.RANK_TOL
        assert not rep.injective
        assert rep.witness == (0, 1)

    def test_order_range(self):
        with pytest.raises(DomainError):
            kernel_injectivity(np.eye(3), 0)

    def test_no_columns(self):
        # the walk's one empty subset once reached an IndexError
        with pytest.raises(DomainError, match="^kernel injectivity needs at least one column$"):
            kernel_injectivity(np.zeros((3, 0)), 1)


def _kernel_key(report):
    return (report.order, report.min_singular_value.hex(), report.injective,
            report.witness, report.subsets_checked)


def _equispaced(n, cols):
    """The n x cols Vandermonde matrix on equispaced unit-circle nodes: a
    translate S + r (mod cols) of a subset S scales A_S's rows by unit
    phases, so sigma_min ties across translates in exact arithmetic and
    differs in the last bits in floats."""
    return vandermonde_matrix(unit_circle_nodes(cols), n)


@st.composite
def _kernel_matrices(draw):
    """(m, L) for kernel_injectivity: every kind RIP-2 meets (real, complex,
    0/1, repeated and zero columns), rank-deficient products, and
    Vandermonde matrices on equispaced nodes, whose sigma_min near-ties."""
    kind = draw(st.sampled_from(["rip", "rank-deficient", "equispaced"]))
    if kind == "rip":
        m = np.asarray(draw(_rip_matrices()))
    elif kind == "rank-deficient":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n, cols, rank = draw(st.integers(2, 8)), draw(st.integers(2, 10)), draw(st.integers(1, 3))
        imag = 1j if draw(st.booleans()) else 0  # complex factors or real ones
        left, right = (p[0] + imag * p[1] for p in (rng.normal(size=(2, n, rank)),
                                                    rng.normal(size=(2, rank, cols))))
        m = left @ right
    else:
        cols = draw(st.integers(2, 14))
        m = _equispaced(draw(st.integers(1, cols)), cols)
    return m, draw(st.integers(1, max(1, m.shape[0] // 2)))


class TestKernelFilter:
    """kernel_injectivity's sigma_min filter changes no report and spares
    the SVD."""

    @pytest.mark.parametrize("block", _BLOCKS)
    @_DIFFERENTIAL
    @given(case=_kernel_matrices(), first=st.sampled_from(_BLOCKS),
           first_led=st.sampled_from(_BLOCKS))
    def test_equals_unfiltered_oracle(self, case, block, first, first_led):
        m, L = case
        with pytest.MonkeyPatch.context() as mp:
            _set_schedule(mp, first, first_led, block)
            assert _kernel_key(kernel_injectivity(m, L)) == \
                _kernel_key(oracle.kernel_injectivity(m, L))

    # each of these goes red with the margins at 2^-18 of the proof's
    @pytest.mark.parametrize("n, cols, L", [(3, 4, 1), (2, 5, 1), (6, 6, 2), (4, 9, 2),
                                            (5, 10, 2), (4, 14, 2)])
    def test_equispaced_translates_near_tie(self, n, cols, L):
        # every translate of the lex-first smallest subset ties it in exact
        # arithmetic; the filter must keep each one that computes below the
        # incumbent, however few bits it wins by
        m = _equispaced(n, cols)
        above, asked = certify._sigma_min_above, []
        with pytest.MonkeyPatch.context() as mp:
            _set_schedule(mp, 1, 1, 1)
            mp.setattr(certify, "_sigma_min_above",
                       lambda *args: asked.append(1) or above(*args))
            report = kernel_injectivity(m, L)
        assert _kernel_key(report) == _kernel_key(oracle.kernel_injectivity(m, L))
        # one block per subset: every subset after the first is filtered
        assert len(asked) == math.comb(cols, 2 * L) - 1

    def test_filter_spares_the_svd(self):
        m = _equispaced(6, 12)
        svd, solved = np.linalg.svd, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "svd",
                       lambda a, compute_uv: solved.append(len(a)) or svd(a, compute_uv=False))
            report = kernel_injectivity(m, 3)
        # the space certified is still all of it
        assert report.subsets_checked == 924
        # the first block, with no incumbent, and few others
        assert solved[0] == caps._FIRST_BLOCK
        assert sum(solved) < caps._FIRST_BLOCK + 0.1 * 924
        assert _kernel_key(report) == _kernel_key(oracle.kernel_injectivity(m, 3))

    def test_incumbent_is_best_of_earlier_blocks(self, monkeypatch):
        # the sigma_min a block is filtered against is the smallest of all
        # the subsets before it, never one of the block itself
        m = _equispaced(6, 14)
        incumbents = []
        above = certify._sigma_min_above

        def spy(gram, rows, sigma, scale, n):
            incumbents.append((len(rows), sigma.hex()))
            return above(gram, rows, sigma, scale, n)

        monkeypatch.setattr(certify, "_sigma_min_above", spy)
        kernel_injectivity(m, 3)
        expected, least = [], math.inf
        # kernel_injectivity's walk starts with no incumbent
        for rows in caps._subset_blocks(14, 6, caps._FIRST_BLOCK, caps._SUBSET_BLOCK):
            if least < math.inf:
                expected.append((len(rows), least.hex()))
            cols = np.transpose(m[:, rows], (1, 0, 2))
            least = min(least, np.linalg.svd(cols, compute_uv=False)[:, -1].min().item())
        assert len(expected) >= 4
        assert incumbents == expected

    @pytest.mark.parametrize("m", [
        [[1e200, 1.0], [1.0, 1.0]],
        # several subsets and small blocks, so the filter would be asked
        [[1e200, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0], [0.0, 2.0, 1.0, 1.0]],
        # every Gram entry underflows to zero
        [[1e-200, 0.0, 1e-200], [0.0, 1e-200, 1e-200]],
    ], ids=["overflow", "overflow-blocks", "underflow"])
    def test_gram_out_of_range_keeps_every_subset(self, m, monkeypatch):
        # the verdict reads only the SVDs, so a Gram out of the filter's
        # range is no refusal: the filter keeps every subset
        _set_schedule(monkeypatch, 1, 1, 1)
        monkeypatch.setattr(certify, "_sigma_min_above", None)
        assert _kernel_key(kernel_injectivity(m, 1)) == \
            _kernel_key(oracle.kernel_injectivity(m, 1))


class TestAgainstLoopOracles:
    """The certifiers equal, with ==, the per-size loops they replaced."""

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(32)
        return [
            _random_unit_columns(rng, 7, 9),
            _random_unit_columns(rng, 5, 8, complex_entries=False),
            sph_code(random_balanced_code(3, 5, 3, rng)),
            # 14 columns: the order-4 space spans blocks, with exact ties
            bool_code(random_balanced_code(2, 5, 7, rng), normalize=True),
            np.eye(7)[:, np.repeat(np.arange(7), 2)],
        ]

    def test_rip2_profile(self):
        for m in self._matrices():
            assert rip2_profile(m, 4) == oracle.rip2_profile(m, 4)

    def test_kernel_injectivity(self):
        for m in self._matrices():
            for L in (1, 2):
                assert kernel_injectivity(m, L) == oracle.kernel_injectivity(m, L)

    def test_flat_rip_constant(self):
        for m in self._matrices():
            L0 = min(3, m.shape[1] // 2)
            assert flat_rip_constant(m, L0) == oracle.flat_rip_constant(m, L0)

    def test_overlap_block_does_not_change_reports(self, monkeypatch):
        rng = np.random.default_rng(34)
        # exact-path matrices: +-1/4 signs with a repeated column, for ties,
        # and a Boolean embedding of length 4
        signs = rng.choice([-1.0, 1.0], size=(16, 10)) / 4.0
        exact = [signs[:, [0, 1, 2, 3, 4, 5, 6, 7, 8, 0]],
                 bool_code(random_balanced_code(2, 4, 5, rng), normalize=True)]

        def reports():
            return [(r.constant.hex(), r) for r in
                    (flat_rip_constant(m, min(3, m.shape[1] // 2))
                     for m in self._matrices() + exact)]

        default = reports()
        # the float path's pair rows go in blocks of _PAIR_BLOCK and the
        # exact path's sets in lex_first_max's schedule.  1 << 30: every
        # size in one block; 1: the products are BLAS gemv, and must not
        # change either
        for block in _BLOCKS:
            monkeypatch.setattr(caps, "_PAIR_BLOCK", block)
            for schedule in product(_BLOCKS, repeat=3):
                _set_schedule(monkeypatch, *schedule)
                assert reports() == default


_NON_FINITE = [
    [[np.nan, 1, 0.5], [0, 1, 0.5]],
    [[np.inf, 1, 0.5], [0, 1, 0.5]],
    [[1, 0, 0.5], [0, -np.inf, 0.5]],
    np.array([[1, 0, 0.5], [0, complex(1, np.nan), 0.5]]),
]


@pytest.mark.parametrize("m", [np.ones(3), np.ones((2, 2, 2)), 1.0], ids=["1-d", "3-d", "0-d"])
def test_as_matrix_refuses_other_dimensions(m):
    with pytest.raises(DomainError, match="^expected a 2-d matrix$"):
        certify.as_matrix(m)


def test_views_certify_as_their_contiguous_copies(spread):
    # a complex128 matrix is read as it is, strides and all, and every
    # report is the one of its contiguous copy
    m = _random_unit_columns(np.random.default_rng(5), 6, 10)
    view = spread(m)
    assert certify.as_matrix(view) is view

    def reports(a):
        # JSON text prints each float round-trip exact, so == compares bits
        return json.dumps([coherence(a).to_dict(),
                           [r.to_dict() for r in rip2_profile(a, 3)],
                           flat_rip_constant(a, 2).to_dict(),
                           kernel_injectivity(a, 2).to_dict()])

    assert reports(view) == reports(m)


@pytest.mark.parametrize("certifier", [
    coherence,
    lambda m: rip2_constant(m, 2),
    lambda m: rip2_profile(m, 2),
    lambda m: flat_rip_constant(m, 1),
    lambda m: kernel_injectivity(m, 1),
], ids=["coherence", "rip2_constant", "rip2_profile", "flat_rip_constant",
        "kernel_injectivity"])
@pytest.mark.parametrize("m", _NON_FINITE, ids=["nan", "inf", "-inf", "complex-nan"])
def test_non_finite_entries_rejected(certifier, m):
    # a verdict on NaN or inf entries would certify garbage
    with pytest.raises(DomainError, match="finite"):
        certifier(m)
