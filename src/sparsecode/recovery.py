"""Desk-scale compressed sensing with exhaustive-support decoding.

Measurement matrices are Vandermonde by default (unit-circle nodes keep
them well conditioned); decoding tries every support of size up to L in
canonical order and accepts the first least-squares fit whose residual is
at most DECODE_TOL * (1 + ||y||).
`cs_decode_batch` decodes a stack of measurements in one walk of the
supports, and `cs_decode_exhaustive` is its one-row call.  A certified
filter goes first: per block of supports, one batched QR of the A_S, shared
by every measurement not yet decoded, proves most (support, measurement)
pairs unable to fit (`_must_solve`) and skips them; every other pair, in
order, takes the least-squares solve and the acceptance test that decide
the result, and a measurement leaves the walk at its first fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import caps
from .certify import _pivots_positive, as_finite, as_matrix
from .errors import DomainError

DECODE_TOL = 1e-8
NODE_GAP_TOL = 1e-9
# the decoder's filter (_must_solve) bounds rounding errors in units of
# eps = _QR_MARGIN * n * s = 8192 n s u (u = 2^-53) for n rows and supports
# of size s, and skips a support only when its residual is over accept by
# 2^14 eps (||y|| + accept) and its sigma_min is proved >= _COND * ||A_S||_F
_QR_MARGIN = 2.0**-40
_COND = 2.0**-10
# the filter slices its stacks of supports and measurements so that none
# holds more than this many complex entries (1 MiB); it runs only where one
# support's n x s stack fits
_RESIDUAL_ENTRIES = 2**16


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    estimate: np.ndarray
    residual_norm: float
    support_found: tuple[int, ...]
    candidates_tried: int
    success: bool

    def __eq__(self, other) -> bool:
        # every field by value, arrays by np.array_equal; unhashable
        return isinstance(other, RecoveryResult) and all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))


def unit_circle_nodes(N: int) -> np.ndarray:
    """N equispaced points on the complex unit circle."""
    angles = 2.0 * np.pi * np.arange(N) / N
    return np.cos(angles) + 1j * np.sin(angles)


def vandermonde_matrix(nodes: np.ndarray, rows: int) -> np.ndarray:
    """M[i, j] = nodes[j]**i for i in [0, rows).

    The C(N, 2) node pairs are counted against the subset cap, then checked
    for a gap within NODE_GAP_TOL a block of rows at a time.
    """
    nodes = as_finite(nodes, "node")
    if nodes.ndim != 1:
        raise DomainError("nodes must be a vector")
    if nodes.size == 0 or rows < 1:
        raise DomainError("need at least one node and one row, "
                          f"got {nodes.size} nodes and {rows} rows")
    caps.require(math.comb(nodes.size, 2), caps.subset_cap(), "node pairs")

    def close(i0: int, i1: int) -> np.ndarray:
        return (np.abs(nodes[i0:i1, None] - nodes[None, i0:]) <= NODE_GAP_TOL).astype(np.int8)

    if nodes.size > 1 and caps.lex_first_max_pair(close, nodes.size)[0]:
        raise DomainError("nodes must be pairwise distinct")
    with np.errstate(over="ignore", invalid="ignore"):
        powers = nodes[None, :] ** np.arange(rows)[:, None]
    return as_finite(powers, "Vandermonde")


def cs_encode(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Linear measurement y = M x, refused unless the decoder admits it:
    finite entries and a norm within the float range."""
    m = as_matrix(m)
    x = as_finite(x, "x")
    if x.shape != (m.shape[1],):
        raise DomainError(f"x must have length {m.shape[1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        y = m @ x
    _measurement_norms(as_finite(y, "measurement")[None])
    return y


def _norm(v: np.ndarray) -> float:
    """||v||: np.linalg.norm's bits, unless its squares overflow a vector
    of finite entries; then s ||v / s|| with s = max |v|, which is inf only
    where the norm itself is past the float range."""
    with np.errstate(over="ignore"):
        plain = float(np.linalg.norm(v))
        if math.isinf(plain) and np.isfinite(v).all():
            scale = float(np.abs(v).max())
            if math.isfinite(scale):
                return scale * float(np.linalg.norm(v / scale))
    return plain


def _measurement_norms(ys: np.ndarray) -> np.ndarray:
    """||y|| of each row of finite measurements ys, refused where it
    overflows: the rule for an admissible measurement, which the encoder and
    the decoder share (an inf accept would pass every support)."""
    beta = [_norm(y) for y in ys]
    if not all(map(math.isfinite, beta)):
        raise DomainError("measurement norm overflows")
    return np.array(beta)


def _must_solve(m_t: np.ndarray, rows: np.ndarray, ys: np.ndarray, live: np.ndarray,
                beta: np.ndarray, accept: np.ndarray, col_sq: np.ndarray) -> np.ndarray:
    """(K, T) bools over the K supports of `rows` and the T measurements
    ys[live]: False where the support's computed least-squares residual for
    that measurement is proved above its accept without a solve.  m_t is m
    transposed, beta and accept are per measurement of ys[live], col_sq
    holds the squared column norms of m, all as computed.

    The proof.  Take a support S of size s, 1 <= s < n = len(y), with A =
    m[:, S] and a^2 = sum of col_sq over S (so a = ||A||_F up to rounding),
    and a measurement y with beta = ||y||; let u = 2^-53 and eps = _QR_MARGIN
    * n * s = 8192 n s u.  The filter runs only where n s <= 2^16 =
    _RESIDUAL_ENTRIES, so eps <= 2^-24 and s < 2^8, and where beta and a
    lie in [2^-400, 2^400]: no step below overflows, and with gradual
    underflow every underflow errs by < 2^-1000 absolutely, or < 2^-500
    inside a norm, far below each bound here.  Every bound below is many
    times the one its reference proves, as in `certify._distortion_below`.
     1. Householder QR of A (Higham, Accuracy and Stability of Numerical
        Algorithms, 2nd ed., Thm 19.4 and the bound on the explicitly
        formed factor that follows it, with complex arithmetic's constants)
        computes R~ with A + dA = Q1 R~ for Q1 the first s columns of an
        exactly unitary matrix, where ||dA||_F <= eps a, and Q~ = Q1 + dQ
        whose columns are each within eps of Q1's, so ||dQ|| <= sqrt(s) eps
        <= 2^4 eps.  Let d = ||y - Q1 Q1^H y||, the distance from
        y to range(Q1), which holds range(A + dA); so for every c, ||y -
        (A + dA) c|| >= d.  The filter computes r~ = ||y - Q~ (Q~^H y)||
        with two products, a subtraction and a norm.  Q~ Q~^H is within 3
        ||dQ|| of Q1 Q1^H, each product errs by at most (n + 2) u sqrt(2s)
        (1 + ||dQ||) times its vector's norm (Higham, Lemma 3.5, with
        Cauchy-Schwarz), which is <= eps beta, and the subtraction and the
        norm lose a factor >= 1 - eps each on a vector of norm <= 3 beta.
        So |r~ - d| <= (3 * 2^4 + 8) eps beta <= 2^6 eps beta.
     2. The conditioning test: with tau^2 = _COND^2 a^2 and delta = 2^-40
        s^3 a^2, the LDL^H of fl(R~^H R~) - (tau^2 + delta) I has all pivots
        > 0.  delta covers the product's rounding and, by
        `certify._pivots_positive`'s lemma, the LDL^H backward error and the
        roundings of the shifted diagonal and of the shift, so
        lambda_min(R~^H R~) > tau^2 and sigma_min(A + dA) = sigma_min(R~) >
        tau.  By Weyl, sigma_min(A) > (2^-10 - 2^-24) a.
     3. np.linalg.lstsq is LAPACK's gelsd with rcond = 2^-52 max(n, s).  Its
        computed c^ is the minimum-norm least-squares solution of a nearby
        (A + E, y + f), ||E|| <= eps a and ||f|| <= eps beta, once the
        singular values of A + E at most rcond times the largest are cut
        (LAPACK Users' Guide, 3rd ed., sec. 4.5).  By 2, every singular value
        of A + E is above 2^-11 a, far above that cut (the largest is at most
        2a): none is cut, and ||c^|| <= (1 + eps) beta / sigma_min(A + E) <=
        C = 2^11 beta / a.  This is what needs 2: without it c^ is not
        bounded, and lstsq's rounding of A c^ is not either.
     4. For every c, ||y - A c|| >= ||y - (A + dA) c|| - ||dA|| ||c||, so by
        1 and 3, ||y - A c^|| >= d - 2^11 eps beta >= r~ - (2^11 + 2^6) eps
        beta.
     5. lstsq's residual is rho = fl||fl(y - fl(A c^))||.  The product errs
        by <= (s + 2) u a C <= eps beta (Higham, Lemma 3.5), and the
        subtraction and the norm lose a factor >= 1 - eps each, so rho >=
        (1 - 2 eps)(r~ - (2^11 + 2^6 + 1) eps beta) >= r~ - 2^12 eps beta,
        as r~ <= d + 2^6 eps beta <= 2 beta.
    So a support whose r~ exceeds the computed accept + margin, with margin
    = 2^14 eps (beta + accept), has rho > accept: the 2^14 against the 2^12
    covers the roundings of that sum.  Any other support, or one whose r~
    is NaN, is kept.  The QR and the conditioning test depend on S alone,
    so each runs once per support, for every measurement.
    """
    k, s = rows.shape
    n = m_t.shape[1]
    keep = np.ones((k, len(live)), dtype=bool)
    if not (1 <= s < n and n * s <= _RESIDUAL_ENTRIES):
        return keep
    cols = np.flatnonzero((2.0**-400 <= beta) & (beta <= 2.0**400))
    a2 = col_sq[rows].sum(axis=1)
    fit = np.flatnonzero((2.0**-800 <= a2) & (a2 <= 2.0**800))
    eps = _QR_MARGIN * n * s
    bound = accept[cols] + 2.0**14 * eps * (beta[cols] + accept[cols])
    # slices of supports and measurements: no stack below holds more than
    # _RESIDUAL_ENTRIES complex entries
    t_step = max(1, min(len(cols), _RESIDUAL_ENTRIES // n))
    k_step = _RESIDUAL_ENTRIES // (n * max(s, t_step))
    for k0 in range(0, len(fit) if len(cols) else 0, k_step):
        sup = fit[k0:k0 + k_step]
        # one reduced QR of A_S per support: Q~ (k, n, s) and R~ (k, s, s)
        q, tri = np.linalg.qr(m_t[rows[sup]].transpose(0, 2, 1))
        gram = np.ascontiguousarray((tri.conj().transpose(0, 2, 1) @ tri).transpose(1, 2, 0))
        well = _pivots_positive(gram, a2[sup] * (_COND * _COND + _QR_MARGIN * s**3))
        if not well.any():
            continue
        sup, q = sup[well], q[well]
        qt, qc = q.transpose(0, 2, 1), q.conj()
        for t0 in range(0, len(cols), t_step):
            part = cols[t0:t0 + t_step]
            y = ys[live[part]]  # (t, n): residuals run along rows
            resid = (y @ qc) @ qt
            np.subtract(y, resid, out=resid)
            sq = resid.view(np.float64)  # real and imaginary parts, interleaved
            np.square(sq, out=sq)
            keep[np.ix_(sup, part)] = ~(np.sqrt(sq.sum(axis=2)) > bound[t0:t0 + t_step])
    return keep


def cs_decode_batch(m: np.ndarray, ys: np.ndarray, L: int) -> list[RecoveryResult]:
    """`cs_decode_exhaustive` of each row y of `ys`, from one walk of the
    supports shared by every row not yet decoded.

    Each block of supports takes one filter pass (`_must_solve`) for all
    those rows; each row then tries its surviving supports in order with
    the least-squares solve and acceptance test, and leaves the walk at its
    first fit.  A row's result depends on that row alone, bit for bit.
    Beyond its inputs, m's transposed copy and its results, the decoder
    holds a few arrays of at most _RESIDUAL_ENTRIES complex entries each.
    """
    m = as_matrix(m)
    ys = as_finite(ys, "measurement")
    n_rows, n_cols = m.shape
    if ys.ndim != 2 or ys.shape[1] != n_rows:
        raise DomainError(f"y must have length {n_rows}")
    if not (0 <= L <= n_cols):
        raise DomainError(f"need 0 <= L <= N, got L={L}")
    beta = _measurement_norms(ys)
    with np.errstate(over="ignore"):
        col_sq = (m.real**2 + m.imag**2).sum(axis=0)
    accept = DECODE_TOL * (1.0 + beta)
    m_t = m.T.copy()  # row j is column j of m
    results: list[RecoveryResult | None] = [None] * len(ys)
    live = np.arange(len(ys))
    tried = 0
    for rows in caps.supports(n_cols, L):
        if not live.size:
            break
        keep = _must_solve(m_t, rows, ys, live, beta[live], accept[live], col_sq)
        for t, k in zip(*np.nonzero(keep.T)):
            i = int(live[t])
            if results[i] is not None:
                continue
            support = tuple(rows[k].tolist())
            if support:
                sub = m[:, support]
                coef, _, _, _ = np.linalg.lstsq(sub, ys[i], rcond=None)
                residual = _norm(ys[i] - sub @ coef)
            else:  # the empty support fits with no solve
                residual = float(beta[i])
                coef = np.zeros(0, dtype=np.complex128)
            if residual <= accept[i]:
                estimate = np.zeros(n_cols, dtype=np.complex128)
                for pos, val in zip(support, coef):
                    estimate[pos] = val
                results[i] = RecoveryResult(estimate, residual, support,
                                            tried + int(k) + 1, True)
        live = live[[results[i] is None for i in live]]
        tried += len(rows)
    return [RecoveryResult(np.zeros(n_cols, dtype=np.complex128), float(beta[i]), (),
                           tried, False) if r is None else r
            for i, r in enumerate(results)]


def cs_decode_exhaustive(m: np.ndarray, y: np.ndarray, L: int) -> RecoveryResult:
    """First support of size <= L whose least-squares fit explains y.

    Supports are scanned in order of increasing size, then lexicographic,
    which pins the answer whenever several supports fit at tolerance.  A
    miss is reported as an unsuccessful result, not an exception.  The
    filter `_must_solve` skips only supports proved not to fit, so every
    result is the unfiltered walk's, bit for bit.  This is the one-row call
    of `cs_decode_batch`.
    """
    return cs_decode_batch(m, np.asarray(y)[None], L)[0]
