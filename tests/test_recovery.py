import numpy as np
import pytest

import scalar_oracles as oracle
from sparsecode.errors import DomainError, EnumerationCapError
from sparsecode.recovery import (
    cs_decode_exhaustive,
    cs_encode,
    unit_circle_nodes,
    uniqueness_certificate,
    vandermonde_matrix,
)


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
        with pytest.raises(DomainError):
            vandermonde_matrix(np.array([1.0, 1.0 + 1e-12]), 2)

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

    def test_inconsistent_measurement_fails_cleanly(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        rng = np.random.default_rng(62)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        result = cs_decode_exhaustive(m, y, 1, tol=1e-12)
        assert not result.success
        assert result.support_found == ()

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("SPARSECODE_CAP", "100")
        m = vandermonde_matrix(unit_circle_nodes(20), 8)
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
            got = cs_decode_exhaustive(mat, y, L, tol=tol)
            want = oracle.cs_decode_exhaustive(mat, y, L, tol)
            assert got.to_dict() == want.to_dict()
            assert got.estimate.tobytes() == want.estimate.tobytes()


class TestUniqueness:
    def test_vandermonde_is_identifiable(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 4)
        assert uniqueness_certificate(m, 2)

    def test_too_few_rows(self):
        m = vandermonde_matrix(unit_circle_nodes(8), 3)
        assert not uniqueness_certificate(m, 2)
