"""Acceptance gate: twelve desk-scale criteria, one pass/fail line each.

Every criterion is verified by exhaustive computation at the stated
tolerances; corpus-wide criteria admit zero violations.  The summary line
for each criterion is written straight to the terminal so it survives
pytest's output capture.
"""

import json
from itertools import combinations

import numpy as np
import pytest

from scalar_oracles import hamming_distance
from sparsecode.bounds import gv_critical_expansion, gv_rate, mrrw_rate_bound, q_ary_entropy
from sparsecode.certify import (
    FLAT_FROM_RIP_FACTOR,
    bias_factor_from_flat,
    coherence,
    flat_rip_constant,
    kernel_injectivity,
    rip2_constant,
    rip2_profile,
)
from sparsecode.cli import main as cli_main
from sparsecode.codes import (
    code_bias,
    lwise_bias,
    lwise_distance,
    min_distance,
    reed_solomon,
)
from sparsecode.embeddings import bool_code, bool_word, sph_code, sph_word
from sparsecode.group_testing import (
    design_from_code,
    gt_decode_cover,
    gt_encode,
    kautz_singleton,
    verify_design,
    verify_disjunct,
)
from sparsecode.listdecode import converse_check, johnson_check
from sparsecode.recovery import (
    cs_decode_exhaustive,
    cs_encode,
    unit_circle_nodes,
    vandermonde_matrix,
)
from sparsecode.words import Word

SLACK = 1e-9

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_output(capfd):
    """Let the per-criterion summary lines bypass output capture."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _conclude(num: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:02d} [{status}] {description}"
    with _CAPTURE.disabled():
        print(line, flush=True)
    assert not failures, f"criterion {num}: {failures[:3]} (+{max(len(failures) - 3, 0)} more)"


def test_criterion_01_worked_example_fidelity():
    failures = []
    b = bool_word(Word(2, (0, 1, 1, 0)))
    if not np.array_equal(b, [1, 0, 0, 1, 0, 1, 1, 0]):
        failures.append(f"bool_word gave {b.tolist()}")
    s = sph_word(Word(2, (0, 1, 1, 0)))
    expected = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0 + 0j
    if not np.array_equal(s, expected):
        failures.append(f"sph_word gave {s.tolist()}")
    _conclude(1, "worked-example embeddings are exact", failures)


def test_criterion_02_bias_chain(balanced_corpus):
    failures = []
    for i, entry in enumerate(balanced_corpus):
        eps = entry["epsilon"]
        bias = code_bias(entry["quotient"])
        if bias > eps + SLACK:
            failures.append(f"corpus[{i}]: bias {bias} > eps {eps}")
    _conclude(2, f"quotient bias <= eps on {len(balanced_corpus)} balanced codes",
              failures)


def test_criterion_03_coherence_chain(balanced_corpus):
    failures = []
    for i, entry in enumerate(balanced_corpus):
        eps = entry["epsilon"]
        m = sph_code(entry["quotient"])
        coh = coherence(m).value
        if coh > 2.0 * eps + SLACK:
            failures.append(f"corpus[{i}]: coherence {coh} > 2*eps {2 * eps}")
        top = min(4, m.shape[1])
        profile = rip2_profile(m, top)
        for L in range(2, top + 1):
            alpha = profile[L - 1].alpha
            if alpha > L * coh + SLACK:
                failures.append(
                    f"corpus[{i}]: rip2({L}) {alpha} > L*coherence {L * coh}"
                )
    _conclude(3, "coherence <= 2*eps and rip2 <= L*coherence on the corpus",
              failures)


def test_criterion_04_rip_corollaries(balanced_corpus):
    failures = []
    for i, entry in enumerate(balanced_corpus):
        eps = entry["epsilon"]
        code, quotient = entry["code"], entry["quotient"]
        sph = sph_code(quotient)
        sph_profile = rip2_profile(sph, min(4, sph.shape[1]))
        boolean = bool_code(code, normalize=True)
        bool_profile = rip2_profile(boolean, min(4, boolean.shape[1]))
        for L in (2, 3, 4):
            if L <= sph.shape[1]:
                alpha = sph_profile[L - 1].alpha
                if alpha > 2.0 * L * eps + SLACK:
                    failures.append(
                        f"corpus[{i}]: sph rip2({L}) {alpha} > 2L*eps {2 * L * eps}"
                    )
            if L <= boolean.shape[1]:
                alpha = bool_profile[L - 1].alpha
                bound = (1.0 + eps) * L / code.q
                if alpha > bound + SLACK:
                    failures.append(
                        f"corpus[{i}]: bool rip2({L}) {alpha} > (1+eps)L/q {bound}"
                    )
    _conclude(4, "spherical and Boolean RIP corollary bounds hold corpus-wide",
              failures)


def test_criterion_05_flat_rip_equivalences(binary_flat_corpus):
    failures = []
    L0 = 3
    for i, code in enumerate(binary_flat_corpus):
        m = sph_code(code)
        flat = flat_rip_constant(m, L0).constant
        # (a) flat constant against the RIP constant at doubled order
        rip = rip2_constant(m, 2 * L0).alpha
        if flat > FLAT_FROM_RIP_FACTOR * rip + SLACK:
            failures.append(
                f"corpus[{i}]: flat {flat} > {FLAT_FROM_RIP_FACTOR}*rip2(2L0) {rip}"
            )
        # (b) L-wise (alpha/L)-biased for all L <= 2*L0 gives flat <= 4*alpha
        biases = {L: lwise_bias(code, L) for L in range(2, 2 * L0 + 1)}
        alpha_b = max(L * b for L, b in biases.items())
        if flat > 4.0 * alpha_b + SLACK:
            failures.append(
                f"corpus[{i}]: flat {flat} > 4*alpha_bias {4 * alpha_b}"
            )
        # (c) flat constant controls every L-wise bias up to 2*L0
        for L, bias in biases.items():
            bound = bias_factor_from_flat(L) * flat / L
            if bias > bound + SLACK:
                failures.append(
                    f"corpus[{i}]: {L}-wise bias {bias} > c_L*flat/L {bound}"
                )
    _conclude(5, f"flat-RIP equivalences (a)-(c) on {len(binary_flat_corpus)} "
              "binary codes", failures)


def test_criterion_06_kautz_singleton_end_to_end():
    failures = []
    m, _ = kautz_singleton(5, 2)
    if m.shape != (25, 25):
        failures.append(f"shape {m.shape} != (25, 25)")
    if not verify_disjunct(m, 2).disjunct:
        failures.append("matrix is not 2-disjunct")
    roundtrip_failures = 0
    cases = 0
    for w in range(3):
        for support in combinations(range(25), w):
            x = np.zeros(25, dtype=np.int64)
            x[list(support)] = 1
            if not np.array_equal(gt_decode_cover(m, gt_encode(m, x)), x):
                roundtrip_failures += 1
            cases += 1
    if cases != 326 or roundtrip_failures:
        failures.append(f"roundtrip: {roundtrip_failures} failures over {cases}")
    q, k = 5, 2
    design = design_from_code(reed_solomon(q, k))
    r = verify_design(design).max_intersection
    # two distinct degree-<k polynomials differ by a nonzero polynomial of
    # degree < k, which has at most k - 1 roots in Z_q, so they agree in at
    # most k - 1 points; x and 2x agree at 0 alone, so the exact r is k - 1,
    # within the bound k that the disjunctness guarantee rests on
    if r > k:
        failures.append(f"verify_design r = {r} exceeds the bound k = {k}")
    elif r != k - 1:
        failures.append(f"verify_design r = {r} != exact k - 1 = {k - 1}")
    _conclude(6, "kautz_singleton(5,2): shape, r, disjunctness, 326 round trips",
              failures)


def test_criterion_07_design_parameters(balanced_corpus):
    failures = []
    for i, entry in enumerate(balanced_corpus):
        code = entry["code"]
        report = verify_design(design_from_code(code))
        pairwise = [
            code.n - hamming_distance(a, b)
            for a, b in combinations(tuple(code), 2)
        ]
        expected = max(pairwise)
        d = min_distance(code).absolute
        if report.max_intersection != expected:
            failures.append(
                f"corpus[{i}]: r {report.max_intersection} != max n'-delta {expected}"
            )
        if report.max_intersection > code.n - d:
            failures.append(f"corpus[{i}]: r exceeds n'-d {code.n - d}")
    _conclude(7, "design r equals max pairwise agreement and respects n'-d",
              failures)


def test_criterion_08_vandermonde_identifiability():
    failures = []
    m = vandermonde_matrix(unit_circle_nodes(8), 4)
    if not kernel_injectivity(m, 2).injective:
        failures.append("uniqueness certificate false")
    rng = np.random.default_rng(808)
    supports = [()]
    supports += [(j,) for j in range(8)]
    supports += list(combinations(range(8), 2))
    worst = 0.0
    for support in supports:
        for _ in range(10):
            x = np.zeros(8, dtype=np.complex128)
            for pos in support:
                x[pos] = complex(rng.normal(), rng.normal())
            result = cs_decode_exhaustive(m, cs_encode(m, x), 2)
            if not result.success:
                failures.append(f"support {support}: decode failed")
                continue
            worst = max(worst, float(np.abs(result.estimate - x).max()))
    if worst > 1e-6:
        failures.append(f"worst per-entry error {worst} > 1e-6")
    _conclude(8, f"Vandermonde n=4 N=8: unique and {len(supports)}x10 round "
              "trips exact", failures)


def test_criterion_09_list_decoding_lemmas(listdecode_corpus):
    failures = []
    counts = {"pass": 0, "vacuous": 0, "not-applicable": 0, "fail": 0}
    for i, code in enumerate(listdecode_corpus):
        for eps in (0.25, 1.0 / 3.0, 0.5):
            j = johnson_check(code, eps)
            c = converse_check(code, 2, eps)
            for name, rep in (("johnson", j), ("converse", c)):
                counts[rep.verdict] += 1
                if rep.verdict == "fail":
                    failures.append(f"corpus[{i}] eps={eps}: {name} counterexample")
    if counts["pass"] == 0:
        failures.append(f"all outcomes vacuous/not-applicable: {counts}")
    _conclude(9, f"Johnson lemma and converse: {counts['pass']} non-vacuous "
              f"passes, 0 counterexamples over {len(listdecode_corpus)} codes",
              failures)


def test_criterion_10_monotonicity_and_degeneracy(balanced_corpus):
    failures = []
    for i, entry in enumerate(balanced_corpus):
        code = entry["code"]
        top = min(5, len(code))
        values = [lwise_distance(code, L).relative for L in range(2, top + 1)]
        if any(a > b + 1e-12 for a, b in zip(values, values[1:])):
            failures.append(f"corpus[{i}]: non-monotone {values}")
        if abs(values[0] - min_distance(code).relative) > 1e-12:
            failures.append(f"corpus[{i}]: L=2 degeneracy broken")
    _conclude(10, "L-wise distance monotone in L with L=2 = min distance",
              failures)


def test_criterion_11_bounds_calculators():
    failures = []
    if q_ary_entropy(2, 0.5) != 1.0:
        failures.append("h_2(1/2) != 1")
    for q in (2, 3, 5):
        for i in range(1, 101):
            eps = 0.001 * i
            exact = 1.0 - q_ary_entropy(q, 1.0 - (1.0 + eps) / q)
            if abs(gv_critical_expansion(q, eps) - exact) > 5.0 * eps**4:
                failures.append(f"expansion off at q={q}, eps={eps}")
        top = 1.0 - 1.0 / q
        for i in range(100):
            delta = top * i / 100.0
            if mrrw_rate_bound(q, delta) < gv_rate(q, delta) - 1e-12:
                failures.append(f"mrrw < gv at q={q}, delta={delta}")
    _conclude(11, "entropy exactness, expansion within 5*eps^4, mrrw >= gv",
              failures)


def test_criterion_12_determinism(capfd, tmp_path):
    failures = []

    def run(argv):
        code = cli_main(argv)
        out = capfd.readouterr().out
        report = json.loads(out)
        report.pop("elapsed_ms", None)
        return code, json.dumps(report, sort_keys=True)

    gv = ["pipeline", "gv-rip", "--q", "2", "--n", "12", "--delta", "0.25",
          "--seed", "11", "--L", "3"]
    ks = ["pipeline", "ks-gt", "--q", "5", "--k", "2"]
    for base in (gv, ks):
        outputs = set()
        codes = set()
        for _ in range(4):
            code, payload = run(base)
            outputs.add(payload)
            codes.add(code)
        if len(outputs) != 1:
            failures.append(f"{base[1]}: outputs diverge across runs")
    _conclude(12, "pipelines byte-identical across repeats", failures)
