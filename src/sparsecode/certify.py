"""Exhaustive certifiers: coherence, RIP-2, flat RIP, kernel injectivity.

Every certifier enumerates its subset space completely (guarded by caps,
never sampled) and reports the exact extremal constant together with a
witness.  Witness selection is deterministic: enumeration runs in size-
ascending, then lexicographic order, and `caps.LexFirst` picks the first
subset attaining the extremum, independent of the block size the subsets
are batched in.

RIP-2 and kernel injectivity each hand `caps.lex_first_max` a score and a
bound (`_distortion_below`, `_sigma_min_above`), which proves a subset's
score strictly below the incumbent from an LDL^H of its shifted Gram; the
walk skips those subsets, and `_pivots_positive` holds the LDL^H and the
lemma both proofs cite.

Extreme singular values are computed from batched Gram eigen-decompositions
(LAPACK); an in-house Jacobi solver in the test suite re-derives them as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import caps
from .codes import Report, _counts
from .errors import DomainError, PreconditionError

UNIT_NORM_TOL = 1e-9
RANK_TOL = 1e-9

# the LDL^H bounds' margins are multiples of _PD_MARGIN = 2^-43 = 1024 u
# (u = 2^-53, the unit roundoff): rip2_profile's shifts its thresholds by
# _PD_MARGIN * s^2 * B (the proof is in _distortion_below), and
# kernel_injectivity's widens its incumbent (the proof is in _sigma_min_above)
_PD_MARGIN = 2.0**-43
# kernel_injectivity's filter runs only where the largest modulus of m's Gram
# lies in [1 / _GRAM_RANGE, _GRAM_RANGE]
_GRAM_RANGE = 2.0**400

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
class CoherenceReport(Report):
    _property = "coherence"
    _keys = {"value": "constant", "pairs_checked": "subsets_checked"}

    value: float
    witness: tuple[int, int]
    max_norm_deviation: float
    pairs_checked: int


@dataclass(frozen=True)
class RipReport(Report):
    _property = "rip2"
    _keys = {"alpha": "constant", "witness_subset": "witness"}

    order: int
    alpha: float
    witness_subset: tuple[int, ...]
    subsets_checked: int


@dataclass(frozen=True)
class FlatRipReport(Report):
    _property = "flat-rip"
    _keys = {"pairs_checked": "subsets_checked"}

    order: int
    constant: float
    witness: tuple[tuple[int, ...], tuple[int, ...]]
    # always True, as a report exists only for unit-norm columns; the key
    # stays until the bench references are re-recorded
    unit_norm_ok: bool
    pairs_checked: int


@dataclass(frozen=True)
class KernelReport(Report):
    _property = "kernel"
    _keys = {"min_singular_value": "constant"}

    order: int
    min_singular_value: float
    injective: bool
    witness: tuple[int, ...] | None
    subsets_checked: int


def as_finite(a, what: str) -> np.ndarray:
    """`a` as a complex128 array, `a` itself if it is one (no caller writes
    to it), refused unless every entry is finite."""
    a = np.asarray(a).astype(np.complex128, copy=False)
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
    lead = caps.LexFirst()
    lead.offer(vals, lambda pos: tuple(sorted(divmod(pos, n_cols))))
    return CoherenceReport(lead.best, lead.witness, dev, n_cols * (n_cols - 1) // 2)


def _pivots_positive(a: np.ndarray, shift) -> np.ndarray:
    """Per matrix X of the Hermitian stack `a`, indexed (row, column,
    matrix), which this reads from its lower triangle and the real part of
    its diagonal and overwrites: True iff every pivot of the LDL^H
    factorisation without pivoting of X - shift I is > 0, where `shift` is
    a float or one float per matrix, subtracted from the diagonal here.  A
    NaN pivot is not > 0.

    The lemma every LDL^H bound cites.  Write u = 2^-53 and let X be s x s
    with ||X|| + |shift| <= B.  If every pivot is > 0, then X - shift I +
    dX is positive definite, where the LDL^H backward error (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., Thms 9.3 and
    10.3, with complex arithmetic's constants) and the rounding of the
    shifted diagonal give ||dX|| <= 9 s^2 u B.  So lambda_min(X) > shift -
    9 s^2 u B.  The rounding of `shift` itself is the caller's.  On a real
    stack, real arithmetic computes the same pivots as complex arithmetic
    on zero imaginary parts.
    """
    size = a.shape[0]
    diag = np.arange(size)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a[diag, diag] -= shift
        for j in range(size - 1):
            col = a[j + 1:, j]
            a[j + 1:, j + 1:] -= (col * (1.0 / a[j, j].real))[:, None] * col.conj()
    return (a[diag, diag].real > 0).all(axis=0)


def _grams(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """m's one einsum Gram, the same Gram for the LDL^H filters and the
    largest of its moduli, which may be inf or NaN.

    Every subset Gram is gathered from the one Gram, so its bits are those
    of a principal submatrix, whatever the block.  The filters read its real
    part where its imaginary part is zero (see `_pivots_positive`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.einsum("nk,nl->kl", m.conj(), m)
        scale = float(np.abs(gram).max())
    return gram, gram if gram.imag.any() else gram.real.copy(), scale


def _subset_grams(gram: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The (s, s, K) stack of the Grams of the K subsets `rows`, K innermost,
    gathered at flat indices i N + j; a fresh array the caller may write."""
    cols = np.ascontiguousarray(rows.T)
    return gram.reshape(-1).take((cols * gram.shape[1])[:, None] + cols[None, :])


def _distortion_below(gram: np.ndarray, rows: np.ndarray, t: float,
                      scale: float) -> np.ndarray:
    """True for each subset of `rows` whose computed distortion is proved
    below t >= 0 without eigvalsh; `scale` bounds |gram|, which may be real.

    The proof.  Write u = 2^-53, let H be the Hermitian matrix eigvalsh reads
    (G_S's lower triangle and real diagonal), so ||H|| <= s * scale, and let
    B = (1+t)^2 + s * scale >= 1 and delta = _PD_MARGIN * s^2 * B =
    1024 s^2 u B.
     - Upper side: the LDL^H of -H shifted by -((1+t)^2 - delta) has all
       pivots > 0 (an overflowing or NaN pivot fails).  By
       `_pivots_positive`'s lemma, with ||H|| + (1+t)^2 <= B, and with the
       rounding of the shift, lambda_max(H) < (1+t)^2 - delta + 14 s^2 u B.
       eigvalsh is backward stable, so by Weyl's inequality its value is
       within 256 s^2 u ||H|| of lambda_max(H), a bound many times LAPACK's.
       So the computed lambda_max <= (1+t)^2 (1 - 754 u), its rounded sqrt
       is <= (1+t)(1 - 376 u), and sqrt - 1 rounds to below t.
     - Lower side, tested when t <= 1: the LDL^H of H shifted by (1-t)^2 +
       delta has all pivots > 0.  In the same way the computed lambda_min >=
       (1-t)^2 + 754 u, its rounded sqrt is >= (1-t) + 374 u, and 1 - sqrt
       rounds to below t.  When t > 1 the lower side, 1 - sqrt(max(lambda,
       0)), is at most 1 < t untested.
    """
    k, s = rows.shape
    delta = _PD_MARGIN * s * s * ((1 + t) * (1 + t) + s * scale)
    grams = _subset_grams(gram, rows)
    upper = -((1 + t) * (1 + t) - delta)
    if t > 1:
        return _pivots_positive(np.negative(grams, out=grams), upper)
    # the upper test on the first K matrices, the lower one on the rest
    tests = np.empty((s, s, 2 * k), dtype=gram.dtype)
    np.negative(grams, out=tests[:, :, :k])
    tests[:, :, k:] = grams
    proved = _pivots_positive(tests, np.repeat([upper, (1 - t) * (1 - t) + delta], k))
    return proved[:k] & proved[k:]


def rip2_profile(m: np.ndarray, L: int) -> list[RipReport]:
    """RIP-2 reports for every order 1..L in one enumeration pass.

    The order-L constant is the largest distortion over the subsets of
    size <= L, so one `LexFirst`, offered every size in turn, holds every
    order's constant and witness.  Its bound (`_distortion_below`) spares
    eigvalsh every subset proved below its `best`, the largest distortion
    computed so far; numpy's eigvalsh solves a stack one matrix at a time,
    so the survivors' bits do not change.
    """
    m = as_matrix(m)
    n_cols = m.shape[1]
    if not (1 <= L <= n_cols):
        raise DomainError(f"need 1 <= L <= N, got L={L}, N={n_cols}")
    caps.require(sum(math.comb(n_cols, s) for s in range(1, L + 1)),
                 caps.subset_cap(), f"subsets up to size {L}")
    gram, filter_gram, scale = _grams(m)
    _require_finite_gram(scale)
    lead = caps.LexFirst()

    def distortions(rows: np.ndarray) -> np.ndarray:
        grams = _subset_grams(gram, rows).transpose(2, 0, 1)
        sv = np.sqrt(np.clip(np.linalg.eigvalsh(grams), 0.0, None))
        return np.maximum(sv[:, -1] - 1.0, 1.0 - sv[:, 0])

    def below(rows: np.ndarray, best: float) -> np.ndarray:
        return _distortion_below(filter_gram, rows, best, scale)

    reports: list[RipReport] = []
    checked = 0
    for s in range(1, L + 1):
        best, witness = caps.lex_first_max(distortions, n_cols, s, lead, below)
        checked += math.comb(n_cols, s)
        reports.append(RipReport(s, best, witness, checked))
    return reports


def rip2_constant(m: np.ndarray, L: int) -> RipReport:
    """Exact RIP-2 constant of order L over all column subsets of size <= L."""
    return rip2_profile(m, L)[-1]


def _scaled_integers(m: np.ndarray) -> tuple[int, np.ndarray] | None:
    """(e, Y) for the least e such that Y = m 2^e is a real integer matrix,
    read from the floats' bits; None when m has a nonzero imaginary part or
    when some |Y| may reach 2^53."""
    if m.imag.any():
        return None
    x = m.real
    mant, exp = np.frexp(x)
    # x = M 2^(exp - 53) for the integer M = mant 2^53, whose lowest set bit
    # M & -M is 2^(low - 1), so x 2^e is an integer iff e >= 54 - exp - low
    bits = np.ldexp(mant, 53).astype(np.int64)
    low = np.frexp((bits & -bits).astype(np.float64))[1]
    e = int((54 - exp - low)[bits != 0].max())
    # |x| < 2^exp, so |Y| < 2^(exp + e)
    if int(exp.max()) + e > 53:
        return None
    return e, np.ldexp(x, e)


def flat_rip_constant(m: np.ndarray, L0: int) -> FlatRipReport:
    """Smallest flat-RIP constant over disjoint equal-size set pairs up to L0."""
    m = as_matrix(m)
    n_rows, n_cols = m.shape
    if not (1 <= L0 <= n_cols // 2):
        raise DomainError(f"need 1 <= L0 <= N/2, got L0={L0}, N={n_cols}")
    with np.errstate(over="ignore"):  # an overflowing norm is just not 1
        norms = np.linalg.norm(m, axis=0)
    if np.abs(norms - 1.0).max() > UNIT_NORM_TOL:
        raise PreconditionError("flat RIP requires unit-norm columns")
    total_pairs = sum(
        math.comb(n_cols, s) * math.comb(n_cols - s, s) // 2
        for s in range(1, L0 + 1)
    )
    caps.require(total_pairs, caps.subset_cap(), "set pairs")
    scaled = _scaled_integers(m)
    if scaled is not None:
        e, y = scaled
        top = int(np.abs(y).max())
        unit = math.ldexp(1.0, -2 * e)
    lead = caps.LexFirst()
    for s in range(1, L0 + 1):
        # B_s bounds every integer column sum Z, product and partial sum below
        bound = n_rows * (s * top) ** 2 if scaled is not None else None
        if bound is not None and bound <= 1 << 52:
            # The exact path, for real m = Y 2^-e with B_s = n (s max|Y|)^2
            # <= 2^52.  It ranks the integers |P| of P = Z Z^T and scales only
            # the winner, and prints the float path's bits (steps 1-4); it
            # finds the lex-first pair from one sorted row per set (5-6):
            #  1. Every column sum of the float path is Z 2^-e, every product
            #     and every partial sum of its accumulation an integer times
            #     2^-2e, all of magnitude <= B_s 2^-2e, so each is exact, in
            #     any order and under any blocking, with or without FMA.
            #  2. So prod[i, j] = P[i, j] 2^-2e exactly, and its imaginary
            #     part, a sum of products with the zero imaginary parts, is
            #     +-0; np.abs gives |P| 2^-2e exactly, as hypot(x, +-0) = |x|.
            #     (A unit column has an entry of about 1/sqrt(n) or more, and
            #     max|Y| <= 2^26 / sqrt(n), so 2^-2e >= about 2^-52: no
            #     score is subnormal.)
            #  3. Scaling by 2^-2e commutes with rounding, so the float path's
            #     score is fl(|P| / s) 2^-2e, the one rounding that scaling
            #     the winner below makes.
            #  4. For integers 0 <= a < b <= 2^52, fl(a / s) < fl(b / s).
            #     Rounding is monotone, so suppose both round to f.  Then
            #     b/s - a/s is at most half the float spacing below f plus
            #     half the spacing above it, so at most the spacing above f,
            #     also where f is a power of two and the spacing above is
            #     twice the one below.  But a <= 2^52 - 1 gives
            #     f <= (2^52 - 1)(1 + 2^-53) / s < 2^52 / s, so the spacing
            #     above f, at most 2^-52 f (or the least subnormal at f = 0),
            #     is below 1/s <= b/s - a/s.
            # So equal integers give equal scores and distinct ones keep their
            # order, and the lex-first maximum disjoint pair, its score and the
            # constant are those of the integers |P|.
            #  5. r_A = Y^T Z_A holds r_A[b] = P[A, {b}], so P[A, B] is the
            #     sum of r_A over B; every entry and partial sum is an integer
            #     of magnitude <= B_s, so exact.  A sum over an s-set B of the
            #     N - s >= s items outside A lies between the sums of their s
            #     smallest and of their s largest r_A, and both are attained,
            #     so the larger modulus of those two is A's best |P[A, B]|.
            #  6. Let M be the largest of these and A the first set attaining
            #     it.  No set before A reaches M with any partner, and A's
            #     partner B with |P[A, B]| = M does not come before A either,
            #     since |P| is symmetric and B's own best would then be M.  So
            #     the lex-first maximum pair is A and the first set disjoint
            #     from A that reaches M, found on the one row r_A.
            # Sets go in lex_first_max's blocks, and no K x K array is built.
            def best_partner(rows: np.ndarray) -> np.ndarray:
                r = _counts(y[:, rows].sum(axis=2).T, y, bound)  # r_A per row
                r[np.arange(len(rows))[:, None], rows] = np.inf
                r.sort(axis=1)  # A's own s items last
                return np.maximum(np.abs(r[:, :s].sum(axis=1)),
                                  np.abs(r[:, n_cols - 2 * s:n_cols - s].sum(axis=1)))

            most, a = caps.lex_first_max(best_partner, n_cols, s, caps.LexFirst())
            r_a = _counts(y[:, list(a)].sum(axis=1), y, bound)
            own = np.zeros(n_cols, dtype=bool)
            own[list(a)] = True

            def against_a(rows: np.ndarray) -> np.ndarray:
                vals = np.abs(r_a[rows].sum(axis=1))
                np.copyto(vals, -1.0, where=own[rows].any(axis=1))
                return vals

            _, b = caps.lex_first_max(against_a, n_cols, s, caps.LexFirst())
            size_best, witness = most * unit / s, (a, b)
        else:
            idx = caps.subsets(n_cols, s)
            member = np.zeros((len(idx), n_cols), dtype=bool)
            member[np.arange(len(idx))[:, None], idx] = True
            sums = m[:, idx].sum(axis=2).T  # (K, n)
            # the scores are rows of this one K x K product, whose last bits a
            # row-blocked product need not reproduce; their moduli go by row block
            prod = sums.conj() @ sums.T

            def disjoint_scores(i0: int, i1: int) -> np.ndarray:
                overlap = _counts(member[i0:i1], member[i0:].T) > 0
                vals = np.abs(prod[i0:i1, i0:])
                vals /= s
                np.copyto(vals, -1.0, where=overlap)
                return vals

            size_best, (i, j) = caps.lex_first_max_pair(disjoint_scores, len(idx))
            witness = (tuple(idx[i].tolist()), tuple(idx[j].tolist()))
        lead.offer(np.float64(size_best), lambda _: witness)
    return FlatRipReport(L0, lead.best, lead.witness, True, total_pairs)


def _sigma_min_above(gram: np.ndarray, rows: np.ndarray, sigma: float, scale: float,
                     n: int) -> np.ndarray:
    """True for each subset S of `rows` whose computed sigma_min, the least
    value np.linalg.svd gives for the n x s matrix A = m[:, S], is proved
    above sigma >= 0 without an SVD.  `gram` is m's one Gram (see `_grams`),
    and `scale`, the largest of its moduli, lies in [1 / _GRAM_RANGE,
    _GRAM_RANGE].

    The proof.  Write u = 2^-53, G = A^H A exactly, H the Hermitian matrix
    the LDL^H reads (G_S's computed lower triangle and real diagonal) and a
    = ||A||_F.  Every bound below is many times the one its reference
    proves, which covers the roundings of eta, c0 and delta themselves.
     1. The Gram.  Each computed entry is a complex inner product of length
        n, within 2 (n + 2) u ||a_i|| ||a_j|| of the exact one (Higham,
        Accuracy and Stability of Numerical Algorithms, 2nd ed., Lemma 3.5,
        with complex arithmetic's constants); gradual underflow adds at most
        n 2^-1074, below u scale as scale >= 2^-400.  So every exact norm^2
        is <= 2 scale, a^2 <= 2 s scale, and ||H - G|| <= ||H - G||_F <=
        2 (n + 2) u s a^2 + s^2 u scale <= 8 (n + 2) s^2 u scale.
     2. The SVD.  np.linalg.svd is LAPACK's gesdd: it reduces A + E to
        bidiagonal form with ||E|| a small multiple of u ||A||, and computes
        the bidiagonal's singular values to high relative accuracy (LAPACK
        Users' Guide, 3rd ed., sec. 4.9).  By Weyl's inequality for singular
        values its sigma~ >= sigma_min(A) - eta, where eta = _PD_MARGIN n
        s^2 sqrt(2 scale) >= 1024 n s u a.
     3. The LDL^H.  With c0 = (sigma + eta)^2, delta = _PD_MARGIN s^2 ((n +
        s + 2) scale + c0) = 1024 s^2 u (...) and c = c0 + delta, the filter
        factors X = H - c I, with ||X|| <= B = s scale + c.  If every pivot
        is > 0 (an overflowing or NaN pivot fails), then by
        `_pivots_positive`'s lemma and the roundings of c0, delta and c,
        lambda_min(H) > c0 + delta - 19 s^2 u B.
    By 1, lambda_min(G) >= lambda_min(H) - ||H - G|| > c0 + delta - 19 s^2
    u B - 8 (n + 2) s^2 u scale >= c0: m holds at least s^2 entries, so s
    < 2^20 and 19 s^2 u < 1/2, and delta (1 - 19 s^2 u) >= 512 s^2 u ((n + s
    + 2) scale + c0) covers both terms.  So sigma_min(A) > sigma + eta, and
    by 2 sigma~ > sigma: the subset neither beats nor ties an incumbent of
    sigma.  The incumbent, an earlier subset's computed sigma_min, is at
    most 2 sqrt(scale), so within [2^-400, 2^400] no step overflows, and
    every underflow errs by far less than these bounds.
    """
    s = rows.shape[1]
    eta = _PD_MARGIN * n * s * s * math.sqrt(2 * scale)
    c0 = (sigma + eta) * (sigma + eta)
    delta = _PD_MARGIN * s * s * ((n + s + 2) * scale + c0)
    return _pivots_positive(_subset_grams(gram, rows), c0 + delta)


def kernel_injectivity(m: np.ndarray, L: int) -> KernelReport:
    """True iff every 2L-column submatrix has trivial right kernel: then the
    exhaustive decoder recovers every L-sparse vector from its exact
    measurements.

    The lex-first smallest sigma_min comes from one batched SVD per block.
    Its bound (`_sigma_min_above`) spares the SVD every subset proved above
    the incumbent, the smallest sigma_min of the subsets before its block;
    it runs only where m's Gram is finite and of moderate scale.  numpy's
    SVD solves a stack one matrix at a time, so the survivors' bits do not
    change.
    """
    m = as_matrix(m)
    n_rows, n_cols = m.shape
    if L < 1:
        raise DomainError("need L >= 1")
    if n_cols == 0:
        raise DomainError("kernel injectivity needs at least one column")
    s = min(2 * L, n_cols)
    caps.require(math.comb(n_cols, s), caps.subset_cap(), "subsets")
    if s > n_rows:
        # more columns than rows: rank deficiency is certain
        return KernelReport(L, 0.0, False, tuple(range(s)), 1)
    _, filter_gram, scale = _grams(m)

    def negated_sigma_min(rows: np.ndarray) -> np.ndarray:
        cols = np.transpose(m[:, rows], (1, 0, 2))  # (K, n, s)
        # the lex-first largest -sigma_min is the lex-first smallest sigma_min
        return -np.linalg.svd(cols, compute_uv=False)[:, -1]

    def below(rows: np.ndarray, best: float) -> np.ndarray:
        return _sigma_min_above(filter_gram, rows, -best, scale, n_rows)

    # False on an inf or NaN scale too
    filtered = 1 / _GRAM_RANGE <= scale <= _GRAM_RANGE
    least, witness = caps.lex_first_max(negated_sigma_min, n_cols, s, caps.LexFirst(),
                                        below if filtered else None)
    worst = -least
    injective = worst > RANK_TOL
    return KernelReport(
        L, worst, injective, None if injective else witness, math.comb(n_cols, s)
    )
