"""Exhaustive certifiers: coherence, RIP-2, flat RIP, kernel injectivity.

Every certifier enumerates its subset space completely (guarded by caps,
never sampled) and reports the exact extremal constant together with a
witness.  Witness selection is deterministic: enumeration runs in size-
ascending, then lexicographic order, and the first subset attaining the
extremum wins, independent of the block size the subsets are batched in.

Extreme singular values are computed from batched Gram eigen-decompositions
(LAPACK); an in-house Jacobi solver in the test suite re-derives them as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import caps
from .codes import _counts
from .errors import DomainError, PreconditionError

UNIT_NORM_TOL = 1e-9
RANK_TOL = 1e-9

# subsets per batched Gram/SVD call in rip2_profile and kernel_injectivity
_SUBSET_BLOCK = 1 << 9
# rip2_profile's filter shifts its thresholds by _PD_MARGIN * s^2 * B, where
# 2^-43 = 1024 u (u = 2^-53, the unit roundoff); the proof is in _may_reach
_PD_MARGIN = 2.0**-43
# set rows per block of flat_rip_constant's overlap check
_OVERLAP_BLOCK = 1 << 8

# Pinned by the pre-build polarization oracle: for unit-column matrices the
# flat constant at order L0 never exceeds twice the RIP-2 constant at order
# 2*L0 (polarization over the +-1 and +-i coefficient patterns; observed
# worst ratio 1.86 over random real/complex instances, supremum 2 in the
# two-column limit).
FLAT_FROM_RIP_FACTOR = 2.0


def bias_factor_from_flat(L: int) -> float:
    """c_L such that L-wise bias <= c_L * flat_alpha / L for +-1/sqrt(n) columns.

    Derived from the half-split averaging bound: even L splits into exact
    halves (c_L = 1); odd L leaves one element out of each split, costing a
    factor L/(L-1).  Confirmed empirically by the brute-force oracle, where
    both constants are attained.
    """
    if L < 2:
        raise DomainError("need L >= 2")
    return 1.0 if L % 2 == 0 else L / (L - 1)


@dataclass(frozen=True)
class CoherenceReport:
    value: float
    witness: tuple[int, int]
    max_norm_deviation: float
    pairs_checked: int

    def to_dict(self) -> dict:
        return {
            "property": "coherence",
            "constant": self.value,
            "witness": list(self.witness),
            "max_norm_deviation": self.max_norm_deviation,
            "subsets_checked": self.pairs_checked,
        }


@dataclass(frozen=True)
class RipReport:
    order: int
    alpha: float
    witness_subset: tuple[int, ...]
    subsets_checked: int

    def to_dict(self) -> dict:
        return {
            "property": "rip2",
            "order": self.order,
            "constant": self.alpha,
            "witness": list(self.witness_subset),
            "subsets_checked": self.subsets_checked,
        }


@dataclass(frozen=True)
class FlatRipReport:
    order: int
    constant: float
    witness: tuple[tuple[int, ...], tuple[int, ...]]
    unit_norm_ok: bool
    pairs_checked: int

    def to_dict(self) -> dict:
        return {
            "property": "flat-rip",
            "order": self.order,
            "constant": self.constant,
            "witness": [list(self.witness[0]), list(self.witness[1])],
            "unit_norm_ok": self.unit_norm_ok,
            "subsets_checked": self.pairs_checked,
        }


@dataclass(frozen=True)
class KernelReport:
    injective: bool
    order: int
    min_singular_value: float
    witness: tuple[int, ...] | None
    subsets_checked: int

    def to_dict(self) -> dict:
        return {
            "property": "kernel",
            "order": self.order,
            "constant": self.min_singular_value,
            "injective": self.injective,
            "witness": None if self.witness is None else list(self.witness),
            "subsets_checked": self.subsets_checked,
        }


@dataclass(frozen=True)
class FlatTranslation:
    rip_constant: float
    order_precondition_met: bool

    def to_dict(self) -> dict:
        return {
            "property": "flat-to-rip2",
            "constant": self.rip_constant,
            "order_precondition_met": self.order_precondition_met,
        }


def as_finite(a, what: str) -> np.ndarray:
    """`a` as a complex128 array, refused unless every entry is finite."""
    a = np.asarray(a).astype(np.complex128)
    if not np.isfinite(a).all():
        raise DomainError(f"{what} entries must be finite")
    return a


def as_matrix(m: np.ndarray) -> np.ndarray:
    if np.ndim(m) != 2:
        raise DomainError("expected a 2-d matrix")
    return as_finite(m, "matrix")


def _require_finite_gram(moduli) -> None:
    """A Gram of finite entries can still overflow; no verdict rests on it."""
    if not np.isfinite(moduli).all():
        raise DomainError("Gram matrix overflows: column norms too large")


def coherence(m: np.ndarray) -> CoherenceReport:
    """Max |<c_i, c_j>| over distinct column pairs, plus norm deviation."""
    m = as_matrix(m)
    n_cols = m.shape[1]
    if n_cols < 2:
        raise DomainError("coherence needs at least two columns")
    caps.require(math.comb(n_cols, 2), caps.subset_cap(), "pairs")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.abs(m.conj().T @ m)
    _require_finite_gram(vals)
    norms = np.sqrt(np.diag(vals))
    dev = float(np.abs(norms - 1.0).max())
    np.fill_diagonal(vals, -1.0)
    best = float(vals.max())
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    i, j = (int(i), int(j)) if i < j else (int(j), int(i))
    return CoherenceReport(best, (i, j), dev, n_cols * (n_cols - 1) // 2)


def _pivots_positive(a: np.ndarray) -> np.ndarray:
    """Per matrix of the Hermitian stack `a`, indexed (row, column, matrix),
    which this reads from its lower triangle and the real part of its
    diagonal and overwrites: True iff every pivot of its LDL^H factorisation
    without pivoting is > 0.  A NaN pivot is not > 0."""
    size = a.shape[0]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for j in range(size - 1):
            col = a[j + 1:, j]
            a[j + 1:, j + 1:] -= (col * (1.0 / a[j, j].real))[:, None] * col.conj()
    diag = np.arange(size)
    return (a[diag, diag].real > 0).all(axis=0)


def _may_reach(gram: np.ndarray, rows: np.ndarray, t: float, scale: float) -> np.ndarray:
    """False for each subset of `rows` whose computed distortion is proved
    below t >= 0 without eigvalsh; `scale` bounds |gram|, which may be real.

    The proof.  Write u = 2^-53, let H be the Hermitian matrix eigvalsh reads
    (G_S's lower triangle and real diagonal), so ||H|| <= s * scale, and let
    B = (1+t)^2 + s * scale >= 1 and delta = _PD_MARGIN * s^2 * B =
    1024 s^2 u B.
     - Upper side: the LDL^H of A = ((1+t)^2 - delta) I - H has all pivots
       > 0 (an overflowing or NaN pivot fails).  Then A + dA is positive
       definite, where the LDL^H backward error (Higham, Accuracy and
       Stability of Numerical Algorithms, 2nd ed., Thms 9.3 and 10.3, with
       complex arithmetic's constants) and the rounding of A's diagonal give
       ||dA|| <= 9 s^2 u B; with the rounding of the shift, lambda_max(H) <
       (1+t)^2 - delta + 14 s^2 u B.  eigvalsh is backward stable, so by
       Weyl's inequality its value is within 256 s^2 u ||H|| of lambda_max(H),
       a bound many times LAPACK's.  So the computed lambda_max <= (1+t)^2
       (1 - 754 u), its rounded sqrt is <= (1+t)(1 - 376 u), and sqrt - 1
       rounds to below t.
     - Lower side, tested when t <= 1: the LDL^H of H - ((1-t)^2 + delta) I
       has all pivots > 0.  In the same way the computed lambda_min >=
       (1-t)^2 + 754 u, its rounded sqrt is >= (1-t) + 374 u, and 1 - sqrt
       rounds to below t.  When t > 1 the lower side, 1 - sqrt(max(lambda,
       0)), is at most 1 < t untested.
    On a real Gram, real arithmetic computes the same pivots as complex
    arithmetic on zero imaginary parts.
    """
    k, s = rows.shape
    delta = _PD_MARGIN * s * s * ((1 + t) * (1 + t) + s * scale)
    cols = np.ascontiguousarray(rows.T)
    grams = gram[cols[:, None], cols[None, :]]  # (s, s, K), K innermost
    diag = np.arange(s)
    lower_too = t <= 1
    # the upper test on the first K matrices, the lower one on the rest
    tests = np.concatenate((-grams, grams), axis=2) if lower_too else -grams
    with np.errstate(over="ignore", invalid="ignore"):
        tests[diag, diag, :k] += (1 + t) * (1 + t) - delta
        tests[diag, diag, k:] -= (1 - t) * (1 - t) + delta
    below = _pivots_positive(tests)
    return ~(below[:k] & below[k:]) if lower_too else ~below


def rip2_profile(m: np.ndarray, L: int) -> list[RipReport]:
    """RIP-2 reports for every order 1..L in one enumeration pass.

    The order-L constant is the running maximum of the per-size extremal
    distortions, since subsets of size < L are subsets of the order-L search
    space.  A threshold filter (`_may_reach`) spares eigvalsh every subset
    proved below the best distortion computed so far.
    """
    m = as_matrix(m)
    n_cols = m.shape[1]
    if not (1 <= L <= n_cols):
        raise DomainError(f"need 1 <= L <= N, got L={L}, N={n_cols}")
    caps.require(sum(math.comb(n_cols, s) for s in range(1, L + 1)),
                 caps.subset_cap(), f"subsets up to size {L}")
    # every subset Gram is a principal submatrix of this one; this einsum
    # gives the same bits as a per-subset einsum, where a BLAS product need not
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.einsum("nk,nl->kl", m.conj(), m)
        scale = float(np.abs(gram).max())
    _require_finite_gram(scale)
    # on a real Gram the filter decides the same in faster real arithmetic
    filter_gram = gram if gram.imag.any() else gram.real.copy()
    # the largest distortion computed so far, over earlier sizes and earlier
    # blocks: every subset it came from precedes the block being scored
    incumbent = -math.inf

    # A removed row is below the incumbent, so the rows that tie or beat it
    # all survive: the lex-first maximum of a block, a later block's win on a
    # strict > in caps.lex_first_max and a later size's win on a strict >
    # below are the same as without the filter.  numpy's eigvalsh solves a
    # stack one matrix at a time, so the survivors' bits do not change.
    def distortions(rows: np.ndarray) -> np.ndarray:
        nonlocal incumbent
        out = np.full(len(rows), -np.inf)
        keep = (_may_reach(filter_gram, rows, incumbent, scale) if incumbent >= 0
                else np.ones(len(rows), dtype=bool))
        kept = rows[keep]
        grams = gram[kept[:, :, None], kept[:, None, :]]
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(grams), 0.0, None))
        out[keep] = np.maximum(sv[:, -1] - 1.0, 1.0 - sv[:, 0])
        incumbent = max(incumbent, out.max().item())
        return out

    reports: list[RipReport] = []
    best, best_witness, checked = -1.0, (), 0
    for s in range(1, L + 1):
        size_best, witness = caps.lex_first_max(distortions, n_cols, s, _SUBSET_BLOCK)
        if size_best > best:
            best, best_witness = size_best, witness
        checked += math.comb(n_cols, s)
        reports.append(RipReport(s, best, best_witness, checked))
    return reports


def rip2_constant(m: np.ndarray, L: int) -> RipReport:
    """Exact RIP-2 constant of order L over all column subsets of size <= L."""
    return rip2_profile(m, L)[-1]


def flat_rip_constant(m: np.ndarray, L0: int) -> FlatRipReport:
    """Smallest flat-RIP constant over disjoint equal-size set pairs up to L0."""
    m = as_matrix(m)
    n_cols = m.shape[1]
    if not (1 <= L0 <= n_cols // 2):
        raise DomainError(f"need 1 <= L0 <= N/2, got L0={L0}, N={n_cols}")
    norms = np.linalg.norm(m, axis=0)
    if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
        raise PreconditionError("flat RIP requires unit-norm columns")
    total_pairs = sum(
        math.comb(n_cols, s) * math.comb(n_cols - s, s) // 2
        for s in range(1, L0 + 1)
    )
    caps.require(total_pairs, caps.subset_cap(), "set pairs")
    best, witness = -1.0, ((), ())
    for s in range(1, L0 + 1):
        idx = caps.subsets(n_cols, s)
        sums = m[:, idx].sum(axis=2).T  # (K, n)
        member = np.zeros((len(idx), n_cols), dtype=bool)
        member[np.arange(len(idx))[:, None], idx] = True
        # the scores are rows of this one K x K product, whose last bits a
        # row-blocked product need not reproduce
        vals = np.abs(sums.conj() @ sums.T) / s

        def disjoint_scores(i0: int, i1: int) -> np.ndarray:
            overlap = _counts(member[i0:i1], member[i0:].T) > 0
            return np.where(overlap, -1.0, vals[i0:i1, i0:])

        size_best, (i, j) = caps.lex_first_max_pair(disjoint_scores, len(idx),
                                                    _OVERLAP_BLOCK)
        if size_best > best:
            best, witness = size_best, (tuple(idx[i].tolist()), tuple(idx[j].tolist()))
    return FlatRipReport(L0, best, witness, True, total_pairs)


def kernel_injectivity(m: np.ndarray, L: int) -> KernelReport:
    """True iff every 2L-column submatrix has trivial right kernel."""
    m = as_matrix(m)
    n_rows, n_cols = m.shape
    if L < 1:
        raise DomainError("need L >= 1")
    s = min(2 * L, n_cols)
    caps.require(math.comb(n_cols, s), caps.subset_cap(), "subsets")
    if s > n_rows:
        # more columns than rows: rank deficiency is certain
        return KernelReport(False, L, 0.0, tuple(range(s)), 1)

    def negated_sigma_min(rows: np.ndarray) -> np.ndarray:
        cols = np.transpose(m[:, rows], (1, 0, 2))  # (K, n, s)
        # the lex-first largest -sigma_min is the lex-first smallest sigma_min
        return -np.linalg.svd(cols, compute_uv=False)[:, -1]

    least, witness = caps.lex_first_max(negated_sigma_min, n_cols, s, _SUBSET_BLOCK)
    worst = -least
    injective = worst > RANK_TOL
    return KernelReport(
        injective, L, worst, None if injective else witness, math.comb(n_cols, s)
    )


def translate_flat_to_rip(alpha: float, L: int) -> FlatTranslation:
    """RIP-2 constant implied by a flat-RIP constant: 44 * alpha * log2(L).

    Pure calculator; the flag records whether the translation's stated
    order precondition L >= 2^10 holds.
    """
    if alpha < 0:
        raise DomainError("need alpha >= 0")
    if L < 2:
        raise DomainError("need L >= 2")
    return FlatTranslation(44.0 * alpha * math.log2(L), L >= 2**10)
