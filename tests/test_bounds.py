import math

import numpy as np
import pytest

from sparsecode.bounds import (
    coherence_lower_indicator,
    gv_critical_expansion,
    gv_rate,
    mrrw_rate_bound,
    q_ary_entropy,
    rip_rows_indicator,
    row_bound_indicators,
)
from sparsecode.errors import DomainError


class TestEntropy:
    def test_binary_maximum(self):
        assert q_ary_entropy(2, 0.5) == 1.0

    def test_uniform_point(self):
        for q in (2, 3, 5):
            assert q_ary_entropy(q, 1 - 1 / q) == pytest.approx(1.0)

    def test_endpoints_by_continuity(self):
        assert q_ary_entropy(2, 0.0) == 0.0
        assert q_ary_entropy(2, 1.0) == 0.0
        assert q_ary_entropy(3, 1.0) == pytest.approx(math.log(2) / math.log(3))

    def test_known_value(self):
        assert q_ary_entropy(2, 0.11) == pytest.approx(0.4999, abs=5e-4)

    def test_range(self):
        with pytest.raises(DomainError):
            q_ary_entropy(2, 1.2)
        with pytest.raises(DomainError):
            q_ary_entropy(1, 0.5)


class TestGvRate:
    def test_zero_distance(self):
        assert gv_rate(2, 0.0) == 1.0

    def test_half_rate_point(self):
        assert gv_rate(2, 0.11) == pytest.approx(0.5, abs=5e-4)

    def test_vanishes_toward_plotkin(self):
        assert gv_rate(2, 0.4999) < 1e-4

    def test_range(self):
        with pytest.raises(DomainError):
            gv_rate(2, 0.5)


class TestCriticalExpansion:
    def test_binary_cubic_term_vanishes(self):
        eps = 0.07
        assert gv_critical_expansion(2, eps) == pytest.approx(
            eps**2 / (2 * math.log(2))
        )

    def test_zero_epsilon(self):
        assert gv_critical_expansion(2, 0.0) == 0.0

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("eps", [0.1, 0.05, 0.02])
    def test_fourth_order_agreement(self, q, eps):
        exact = 1.0 - q_ary_entropy(q, 1.0 - (1.0 + eps) / q)
        assert abs(gv_critical_expansion(q, eps) - exact) <= 5.0 * eps**4


class TestMrrw:
    def test_plotkin_point(self):
        assert mrrw_rate_bound(2, 0.5) == pytest.approx(0.0)

    def test_zero_distance(self):
        assert mrrw_rate_bound(2, 0.0) == pytest.approx(1.0)

    def test_sandwiched_between_gv_and_one(self):
        v = mrrw_rate_bound(2, 0.11)
        assert gv_rate(2, 0.11) < v < 1.0

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_dominates_gv_on_grid(self, q):
        top = 1.0 - 1.0 / q
        for i in range(100):
            delta = top * i / 100.0
            assert mrrw_rate_bound(q, delta) >= gv_rate(q, delta) - 1e-12

    def test_range(self):
        with pytest.raises(DomainError):
            mrrw_rate_bound(2, 0.6)


class TestCoherenceIndicator:
    def test_known_value(self):
        v = coherence_lower_indicator(1000, 10**6)
        ln_n = math.log(10**6)
        assert v == pytest.approx(ln_n / (1000 * math.log(1000 / ln_n)))
        assert v == pytest.approx(3.2e-3, rel=0.05)

    def test_monotone_decreasing_in_n(self):
        vals = [coherence_lower_indicator(n, 10**6) for n in (100, 200, 400, 800)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_range(self):
        with pytest.raises(DomainError):
            coherence_lower_indicator(10, 5)
        with pytest.raises(DomainError):
            coherence_lower_indicator(3, 10**6)


class TestRowIndicators:
    def test_disjunct_upper(self):
        out = row_bound_indicators(2, 25)
        assert out["disjunct_upper"] == pytest.approx(4 * math.log(25))
        assert out["disjunct_upper"] == pytest.approx(12.9, abs=0.05)

    def test_lower_vs_upper_ratio(self):
        out = row_bound_indicators(4, 1000)
        assert out["disjunct_lower"] == pytest.approx(
            out["disjunct_upper"] / math.log(4)
        )

    def test_design_rows_with_r_equal_set_size(self):
        out = row_bound_indicators(2, 64, r=4, n_prime=4)
        assert out["design_rows"] == pytest.approx(16 * 64**0.25 / 4)

    def test_log_additivity(self):
        base = row_bound_indicators(3, 500)["rip_rows"]
        doubled = row_bound_indicators(3, 1000)["rip_rows"]
        assert doubled - base == pytest.approx(9 * math.log(2))

    def test_rip_rows_indicator(self):
        assert rip_rows_indicator(2, 100, 2, 0.5) == pytest.approx(
            4 * math.log(100) * 2 / 0.25
        )
        with pytest.raises(DomainError):
            rip_rows_indicator(2, 100, 2, 0.0)

    def test_range(self):
        with pytest.raises(DomainError):
            row_bound_indicators(1, 10)

    @pytest.mark.parametrize("N, r, n_prime, reason", [
        (0, None, None, "need N >= 2, got N=0"),
        (1, None, None, "need N >= 2, got N=1"),
        (10, 0, 5, "need r >= 1 and n_prime >= 1, got r=0, n_prime=5"),
        (10, -1, 5, "need r >= 1 and n_prime >= 1, got r=-1, n_prime=5"),
        (10, 2, 0, "need r >= 1 and n_prime >= 1, got r=2, n_prime=0"),
    ])
    def test_degenerate_sizes(self, N, r, n_prime, reason):
        with pytest.raises(DomainError, match=f"^{reason}$"):
            row_bound_indicators(3, N, r, n_prime)


class TestAlphabetSize:
    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_calculators_reject_small_alphabets(self, q):
        for call in (lambda: q_ary_entropy(q, 0.5), lambda: gv_rate(q, 0.1),
                     lambda: gv_critical_expansion(q, 0.1),
                     lambda: mrrw_rate_bound(q, 0.1),
                     lambda: rip_rows_indicator(3, 100, q, 0.5)):
            with pytest.raises(DomainError, match="alphabet size"):
                call()


class TestFiniteValues:
    """A value past the float range is no value: each of these once returned
    inf or raised a bare OverflowError or ZeroDivisionError."""

    @pytest.mark.parametrize("name, call", [
        ("rip_rows_indicator", lambda: rip_rows_indicator(2, 10, 2, 1e-160)),
        # alpha**2 underflows to 0
        ("rip_rows_indicator", lambda: rip_rows_indicator(2, 10, 2, 1e-200)),
        ("gv_critical_expansion", lambda: gv_critical_expansion(2, 1e200)),
        ("gv_critical_expansion", lambda: gv_critical_expansion(10**200, 0.5)),
        ("row_bound_indicators", lambda: row_bound_indicators(10**200, 10)),
        ("row_bound_indicators", lambda: row_bound_indicators(2, 10, r=1, n_prime=10**160)),
        ("coherence_lower_indicator", lambda: coherence_lower_indicator(10**400, 10**401)),
    ])
    def test_refused_naming_the_quantity(self, name, call):
        with pytest.raises(DomainError, match=f"^{name} is not a finite float$"):
            call()

    def test_large_but_finite_values_pass(self):
        assert rip_rows_indicator(2, 10, 2, 1e-150) == 4 * math.log(10) * 2 / 1e-150**2
        assert q_ary_entropy(10**400, 0.5) == pytest.approx(0.5, abs=1e-2)

    def test_huge_q_gv_rate_is_one_minus_entropy(self):
        # the domain guard 1 / q is int division, which no q overflows
        assert gv_rate(10**400, 0.5) == 1.0 - q_ary_entropy(10**400, 0.5)
        assert gv_rate(10**400, 0.5) == 0.4992474250108401
        # and it draws the same line as 1.0 / q wherever q is a float
        for q in (2, 3, 7, 2**52 + 1):
            edge = 1.0 - 1.0 / q
            assert gv_rate(q, math.nextafter(edge, 0.0)) >= 0.0
            with pytest.raises(DomainError, match="^need 0 <= delta < 1 - 1/q"):
                gv_rate(q, edge)

    @pytest.mark.parametrize("calculator", [mrrw_rate_bound, gv_critical_expansion],
                             ids=lambda f: f.__name__)
    def test_huge_q_refused_naming_q(self, calculator):
        # both take q as a float; past the float range that is no q
        name = calculator.__name__
        with pytest.raises(DomainError, match=rf"^{name} needs q within the float range, "
                                              rf"q <= 1\.7976931348623157e\+308$"):
            calculator(10**400, 0.5)

    def test_largest_float_q_passes_the_guard(self):
        q = int(np.finfo(float).max)
        assert 0.0 <= mrrw_rate_bound(q, 0.5) <= 1.0
        # here the series itself overflows, and is refused for that
        with pytest.raises(DomainError, match="^gv_critical_expansion is not a finite float$"):
            gv_critical_expansion(q, 0.5)
