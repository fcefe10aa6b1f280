import math
from itertools import combinations

import numpy as np
import pytest

from sparsecode import certify
from sparsecode.certify import (
    FLAT_FROM_RIP_FACTOR,
    bias_factor_from_flat,
    coherence,
    flat_rip_constant,
    kernel_injectivity,
    rip2_constant,
    rip2_profile,
    translate_flat_to_rip,
)
from eigen import singular_values
from sparsecode.codes import random_balanced_code
from sparsecode.embeddings import bool_code
from sparsecode.errors import DomainError, EnumerationCapError, PreconditionError


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
        for block in (1, 7):
            monkeypatch.setattr(certify, "_SUBSET_BLOCK", block)
            assert reports() == default

    def test_order_range(self):
        with pytest.raises(DomainError):
            rip2_constant(np.eye(3), 4)

    def test_cap(self):
        with pytest.raises(EnumerationCapError):
            rip2_constant(np.eye(10), 5, cap=20)


class TestFlatRip:
    def test_orthonormal_columns(self):
        assert flat_rip_constant(np.eye(6), 3).constant == pytest.approx(0.0)

    def test_requires_unit_norm(self):
        with pytest.raises(PreconditionError):
            flat_rip_constant(2.0 * np.eye(6), 2)

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

    def test_order_range(self):
        with pytest.raises(DomainError):
            kernel_injectivity(np.eye(3), 0)


class TestFlatTranslation:
    def test_large_order(self):
        t = translate_flat_to_rip(0.01, 2**10)
        assert t.rip_constant == pytest.approx(4.4)
        assert t.order_precondition_met

    def test_small_order_flagged(self):
        t = translate_flat_to_rip(0.5, 2)
        assert t.rip_constant == pytest.approx(22.0)
        assert not t.order_precondition_met

    def test_zero_alpha(self):
        assert translate_flat_to_rip(0.0, 16).rip_constant == 0.0

    def test_range(self):
        with pytest.raises(DomainError):
            translate_flat_to_rip(-0.1, 4)
        with pytest.raises(DomainError):
            translate_flat_to_rip(0.1, 1)


_NON_FINITE = [
    [[np.nan, 1, 0.5], [0, 1, 0.5]],
    [[np.inf, 1, 0.5], [0, 1, 0.5]],
    [[1, 0, 0.5], [0, -np.inf, 0.5]],
    np.array([[1, 0, 0.5], [0, complex(1, np.nan), 0.5]]),
]


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
