"""List-decodability certification and the distance <-> list-size lemmas.

All certification is exhaustive over center words: the split-sum sweep in
list_sizes_at_radii counts every codeword in the ball around every one of
the q^n centers, it only groups the arithmetic into array blocks.  Radii
are discretized as floor(rho * n).  The Johnson-type implication and its
weak converse are encoded with the explicit constants extracted from their
proofs and are required to hold with zero counterexamples on every
checkable code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import caps
from .certify import (
    as_matrix, bias_factor_from_flat, flat_rip_constant, FLAT_FROM_RIP_FACTOR,
)
from .codes import Code, _counts, _one_hot, lwise_bias, lwise_distance
from .embeddings import sph_inverse_binary
from .errors import DomainError
from .words import Word

# elements in one block of center-to-codeword distances (about 1 MB each for
# the distances and their radius mask)
_BLOCK_ELEMENTS = 1 << 20
_MIN_PREFIXES = 16


@dataclass(frozen=True)
class ListDecodingReport:
    radius: float
    absolute_radius: int
    max_list_size: int
    worst_center: Word
    centers_checked: int

    def to_dict(self) -> dict:
        return {
            "property": "list-decode",
            "radius": self.radius,
            "absolute_radius": self.absolute_radius,
            "max_list_size": self.max_list_size,
            "worst_center": list(self.worst_center.symbols),
            "centers_checked": self.centers_checked,
        }


@dataclass(frozen=True)
class ImplicationReport:
    """Premise/conclusion values of a certified implication.

    verdict is "pass" when premise and conclusion both hold, "vacuous" when
    the premise fails, "not-applicable" when the premise cannot even be
    evaluated at the requested parameters, and "fail" on a counterexample.
    """

    name: str
    premise_value: float | None
    premise_threshold: float | None
    conclusion_value: float | None
    conclusion_threshold: float | None
    verdict: str
    detail: dict

    def to_dict(self) -> dict:
        return {
            "property": self.name,
            "premise_value": self.premise_value,
            "premise_threshold": self.premise_threshold,
            "conclusion_value": self.conclusion_value,
            "conclusion_threshold": self.conclusion_threshold,
            "verdict": self.verdict,
            **self.detail,
        }


def list_sizes_at_radii(c: Code, radii: list[int]) -> list[tuple[int, Word]]:
    """Max codeword count of any Hamming ball, for several radii in one sweep.

    Returns (max_list_size, first worst center) per radius, enumerating all
    q^n centers exhaustively.

    Split-sum method: the n coordinates split into a high half of
    hi = n - n//2 and a low half of lo = n//2 coordinates.  Hamming distance
    is a sum over coordinates, so the distance from the center (x_hi, x_lo)
    to codeword w is D_hi[x_hi, w] + D_lo[x_lo, w], where the two tables hold
    the distances of every half-center to the matching half of every
    codeword.  High prefixes are swept in ascending blocks; one broadcast
    add gives a block's distances to a block of codewords, and the counts
    within each radius are exact small integers.

    Lex order: the center whose halves are rows x_hi and x_lo of
    caps.product_rows is row x_hi * q^lo + x_lo of it over all n
    coordinates, the centers' enumeration order.  argmax returns the first
    maximum of a block and a later block replaces the incumbent only on a
    strict >, so each worst center is the lex-first one.

    Memory: blocks cover both center prefixes and codewords, so the working
    set stays within a fixed number of elements (_BLOCK_ELEMENTS) whatever
    |C| and q^n are, up to q^n = _BLOCK_ELEMENTS^2, where one low-half table
    alone would fill a block.  The center cap is checked before anything is
    allocated.
    """
    q, n = c.q, c.n
    caps.require(q**n, caps.center_cap(), "centers")
    hi = n - n // 2
    lo_size, hi_size = q ** (n // 2), q**hi
    words = c.array()
    size = len(words)
    # distances never exceed n, so thresholds up to n + 1 fit the dtype
    dist_dtype = np.min_scalar_type(n + 1)
    count_dtype = np.min_scalar_type(size)
    thresholds = [min(max(r + 1, 0), n + 1) for r in radii]
    # codeword blocks leave room for at least _MIN_PREFIXES prefixes per
    # block, so recomputing the low table per block stays cheap
    word_block = min(size, max(1, _BLOCK_ELEMENTS // (_MIN_PREFIXES * lo_size)))
    prefix_block = min(hi_size, max(1, _BLOCK_ELEMENTS // (word_block * lo_size)))
    lo_table = None
    if word_block == size:
        lo_table = _distance_table(q, 0, lo_size, words[:, hi:], dist_dtype)
    best = [-1] * len(radii)
    best_index = [0] * len(radii)
    for h0 in range(0, hi_size, prefix_block):
        h1 = min(h0 + prefix_block, hi_size)
        counts = np.zeros((len(radii), (h1 - h0) * lo_size), dtype=count_dtype)
        for w0 in range(0, size, word_block):
            block = words[w0:w0 + word_block]
            d_lo = lo_table
            if d_lo is None:
                d_lo = _distance_table(q, 0, lo_size, block[:, hi:], dist_dtype)
            d_hi = _distance_table(q, h0, h1, block[:, :hi], dist_dtype)
            # (words, prefixes, low halves): row-major order is center order
            dists = (d_hi[:, :, None] + d_lo[:, None, :]).reshape(len(block), -1)
            for ri, t in enumerate(thresholds):
                counts[ri] += np.add.reduce(dists < t, axis=0, dtype=count_dtype)
        for ri in range(len(radii)):
            pos = int(np.argmax(counts[ri]))
            if int(counts[ri, pos]) > best[ri]:
                best[ri] = int(counts[ri, pos])
                best_index[ri] = h0 * lo_size + pos
    return [(best[i], _center_word(q, n, best_index[i])) for i in range(len(radii))]


def _distance_table(
    q: int, start: int, stop: int, part: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """Hamming distances between half-centers start..stop-1 and codeword halves.

    Half-center x is row x of caps.product_rows over the part.shape[1]
    coordinates of `part`; entry [w, x - start] is its distance to row w of
    `part`, the coordinate count minus their one-hot agreement count.  With
    no coordinates every distance is 0.
    """
    centers = _one_hot(q, caps.product_rows(q, part.shape[1], start, stop).T)
    agreements = _counts(_one_hot(q, part.T).T, centers)
    return (part.shape[1] - agreements).astype(dtype)


def _center_word(q: int, n: int, index: int) -> Word:
    """The center at position `index` of caps.product_rows(q, n, ...)."""
    return Word(q, tuple(caps.product_rows(q, n, index, index + 1)[0].tolist()))


def list_size_at_radius(c: Code, rho: float) -> ListDecodingReport:
    """Max |ball(x, floor(rho*n)) intersect C| over all centers x."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError(f"radius must lie in [0, 1], got {rho}")
    radius = math.floor(rho * c.n + 1e-12)
    (size, center), = list_sizes_at_radii(c, [radius])
    return ListDecodingReport(rho, radius, size, center, c.q**c.n)


def johnson_check(c: Code, epsilon: float) -> ImplicationReport:
    """Distance-to-list-decoding implication with the proof's constants.

    Premise: the L'-wise distance is at least 1/2 - eps^2 for
    L' = floor(1/eps^2) + 1 (monotonicity covers larger tuples).
    Conclusion: no ball of relative radius 1/2 - eps holds more than
    1/eps^2 codewords.
    """
    if c.q != 2:
        raise DomainError("the Johnson-type check applies to binary codes")
    if not (0.0 < epsilon < 1.0 / math.sqrt(2.0)):
        raise DomainError("need 0 < epsilon with epsilon^2 < 1/2")
    l_prime = math.floor(1.0 / epsilon**2) + 1
    list_bound = math.floor(1.0 / epsilon**2)
    threshold = 0.5 - epsilon**2
    detail = {"L_prime": l_prime, "epsilon": epsilon}
    premise = conclusion = None
    if l_prime > len(c):
        # fewer codewords than the premise tuple size: the list bound
        # already dominates the code size, record as not-applicable
        verdict = "not-applicable"
    else:
        premise = lwise_distance(c, l_prime).relative
        report = list_size_at_radius(c, max(0.5 - epsilon, 0.0))
        conclusion = float(report.max_list_size)
        detail["radius"] = report.absolute_radius
        if premise < threshold - 1e-12:
            verdict = "vacuous"
        else:
            verdict = "pass" if conclusion <= list_bound else "fail"
    return ImplicationReport("johnson", premise, threshold, conclusion,
                             float(list_bound), verdict, detail)


def converse_check(c: Code, L: int, epsilon: float) -> ImplicationReport:
    """List-decoding-to-distance converse with the proof's constants.

    Premise: every ball of relative radius 1/2 - eps holds fewer than L
    codewords.  Conclusion: the ceil(L/eps)-wise distance is at least
    1/2 - 2*eps.
    """
    if c.q != 2:
        raise DomainError("the converse check applies to binary codes")
    if not (0.0 < epsilon <= 0.5):
        raise DomainError("need 0 < epsilon <= 1/2")
    l_prime = math.ceil(L / epsilon)
    detail = {"L": L, "L_prime": l_prime, "epsilon": epsilon}
    premise = bound = conclusion = threshold = None
    if l_prime > len(c):
        verdict = "not-applicable"
    else:
        report = list_size_at_radius(c, max(0.5 - epsilon, 0.0))
        premise, bound = float(report.max_list_size), float(L)
        detail["radius"] = report.absolute_radius
        conclusion = lwise_distance(c, l_prime).relative
        threshold = 0.5 - 2.0 * epsilon
        if premise >= L:
            verdict = "vacuous"
        else:
            verdict = "pass" if conclusion >= threshold - 1e-12 else "fail"
    return ImplicationReport("johnson-converse", premise, bound, conclusion,
                             threshold, verdict, detail)


def pipeline_epsilon_floor(L: int) -> tuple[float, bool]:
    """Smallest certified radius parameter for the RIP -> list-decoding chain.

    The chain certifies bias only up to tuples of size floor(L/2), so the
    Johnson step needs floor(1/eps^2) + 1 <= floor(L/2), i.e.
    eps >= 1/sqrt(floor(L/2) - 1).  Returns (eps_0, attainable).
    """
    half = L // 2
    if half < 2:
        return 1.0, False
    eps = 1.0 / math.sqrt(half - 1)
    # the Johnson step additionally needs eps^2 < 1/2
    return eps, eps < 1.0 / math.sqrt(2.0)


def rip_to_listdecoding_report(
    m: np.ndarray, L: int, alpha: float, epsilon: float
) -> dict:
    """Run the full RIP -> flat RIP -> bias -> list-decoding pipeline.

    Recovers the binary code behind a +-1/sqrt(n) matrix, measures each
    intermediate constant, and reports it next to the bound the previous
    stage predicts for it.
    """
    m = as_matrix(m)
    code = Code(sph_inverse_binary(m[:, j]) for j in range(m.shape[1]))
    if len(code) != m.shape[1]:
        raise DomainError("matrix has duplicate columns")
    l0 = max(L // 2, 1)
    l0 = min(l0, m.shape[1] // 2)
    if l0 < 1:
        raise DomainError("matrix has too few columns for the pipeline")
    flat = flat_rip_constant(m, l0)
    flat_bound = FLAT_FROM_RIP_FACTOR * alpha
    bias_stages = []
    for l_bias in range(2, l0 + 1):
        measured = lwise_bias(code, l_bias)
        predicted = bias_factor_from_flat(l_bias) * flat.constant / l_bias
        bias_stages.append(
            {
                "L": l_bias,
                "measured_bias": measured,
                "predicted_bound": predicted,
                "ok": measured <= predicted + 1e-9,
            }
        )
    eps0, attainable = pipeline_epsilon_floor(L)
    johnson = johnson_check(code, epsilon)
    return {
        "property": "rip-to-list-decoding",
        "order": L,
        "claimed_rip_constant": alpha,
        "flat_constant": flat.constant,
        "flat_predicted_bound": flat_bound,
        "flat_ok": flat.constant <= flat_bound + 1e-9,
        "bias_stages": bias_stages,
        "epsilon": epsilon,
        "epsilon_floor": eps0,
        "epsilon_floor_attainable": attainable,
        "epsilon_above_floor": attainable and epsilon >= eps0 - 1e-12,
        "johnson": johnson.to_dict(),
    }
