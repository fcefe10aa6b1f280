"""Closed-form rate / coherence / row-count calculators.

Asymptotic expressions are evaluated with their hidden constant set to 1 and
labeled "indicator" in CLI output: they guide parameter planning and are
never used as pass/fail certificates.  Each returns finite floats or raises
DomainError naming itself: a value past the float range is no value.  The
entropy and the GV rate take any integer q; the MRRW bound and the GV
critical expansion take q as a float and refuse a q past the float range.
"""

from __future__ import annotations

import functools
import math
import sys

from .errors import DomainError


def _finite(calculator):
    """`calculator`, raising DomainError where its value (each value, for a
    dict) is not a finite float: Python float arithmetic overflows to inf or
    raises OverflowError, and an underflowed divisor raises ZeroDivisionError."""
    @functools.wraps(calculator)
    def checked(*args, **kwargs):
        try:
            value = calculator(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            value = math.inf
        values = value.values() if isinstance(value, dict) else (value,)
        if not all(math.isfinite(v) for v in values):
            raise DomainError(f"{calculator.__name__} is not a finite float")
        return value
    return checked


def _check_alphabet(q: int) -> None:
    if q < 2:
        raise DomainError(f"alphabet size must be >= 2, got {q}")


def _check_float_alphabet(q: int, name: str) -> None:
    """`q` must be >= 2 and, for a calculator whose arithmetic takes q as a
    float, within the float range."""
    _check_alphabet(q)
    if q > sys.float_info.max:
        raise DomainError(f"{name} needs q within the float range, "
                          f"q <= {sys.float_info.max!r}")


@_finite
def q_ary_entropy(q: int, delta: float) -> float:
    """h_q(delta), with h_q(0) = 0 and h_q(1) = log_q(q-1) by continuity."""
    _check_alphabet(q)
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta}")
    lq = math.log(q)
    out = delta * math.log(q - 1) / lq if q > 2 else 0.0
    if 0.0 < delta:
        out -= delta * math.log(delta) / lq
    if delta < 1.0:
        out -= (1.0 - delta) * math.log(1.0 - delta) / lq
    return out


@_finite
def gv_rate(q: int, delta: float) -> float:
    """Achievable rate 1 - h_q(delta) at relative distance delta."""
    _check_alphabet(q)
    if not (0.0 <= delta < 1.0 - 1 / q):
        raise DomainError(f"need 0 <= delta < 1 - 1/q, got {delta}")
    return 1.0 - q_ary_entropy(q, delta)


@_finite
def gv_critical_expansion(q: int, epsilon: float) -> float:
    """Two-term series for 1 - h_q(1 - (1+eps)/q) at small eps."""
    _check_float_alphabet(q, "gv_critical_expansion")
    lq = math.log(q)
    return (epsilon**2 / (2 * (q - 1) * lq)
            - epsilon**3 * (q - 2) / (6 * (q - 1) ** 2 * lq))


@_finite
def mrrw_rate_bound(q: int, delta: float) -> float:
    """Linear-programming impossibility ceiling on rate at distance delta."""
    _check_float_alphabet(q, "mrrw_rate_bound")
    if not (0.0 <= delta <= 1.0 - 1.0 / q):
        raise DomainError(f"need 0 <= delta <= 1 - 1/q, got {delta}")
    arg = (q - 1 - (q - 2) * delta
           - 2.0 * math.sqrt((q - 1) * delta * (1.0 - delta))) / q
    arg = min(max(arg, 0.0), 1.0)  # clamp endpoint rounding only
    return q_ary_entropy(q, arg)


@_finite
def coherence_lower_indicator(n: int, N: int) -> float:
    """Order-of-magnitude floor on squared coherence of an N-point code in C^n."""
    if not (N > n >= 2):
        raise DomainError(f"need N > n >= 2, got n={n}, N={N}")
    ln_n = math.log(N)
    if ln_n >= n:
        raise DomainError("need log N < n")
    return ln_n / (n * math.log(n / ln_n))


@_finite
def row_bound_indicators(
    L: int, N: int, r: int | None = None, n_prime: int | None = None
) -> dict[str, float]:
    """Row-count planning expressions, each with constant 1, side by side."""
    if L < 2:
        raise DomainError("need L >= 2")
    if N < 2:
        raise DomainError(f"need N >= 2, got N={N}")
    out = {
        "disjunct_upper": L**2 * math.log(N),
        "disjunct_lower": L**2 * math.log(N) / math.log(L),
        "rip_rows": L**2 * math.log(N),
    }
    if r is not None and n_prime is not None:
        if r < 1 or n_prime < 1:
            raise DomainError(f"need r >= 1 and n_prime >= 1, got r={r}, n_prime={n_prime}")
        out["design_rows"] = n_prime**2 * N ** (1.0 / r) / r
    return out


@_finite
def rip_rows_indicator(L: int, N: int, q: int, alpha: float) -> float:
    """Rows needed for an RIP-2 matrix from a spherical code embedding."""
    _check_alphabet(q)
    if alpha <= 0:
        raise DomainError("need alpha > 0")
    return L**2 * math.log(N) * q / alpha**2
