"""The verdict rule of tools/bench_pairs.py, on synthetic paired runs."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# ten parent runs: median 100, quartiles 98 and 102 by the inclusive method
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]


def judged(change, better="higher", bound=0.25, parent=PARENT, failures=(0, 0)):
    return bench_pairs.verdict(parent, change, better, bound, failures)


def test_quartiles_and_summary():
    assert bench_pairs.quartiles(PARENT) == (98.25, 101.75)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0)
    assert bench_pairs.summary(PARENT) == {"median": 100.0, "q1": 98.25, "q3": 101.75,
                                           "min": 96.0, "max": 104.0}


def test_a_gain_wins_nine_pairs_and_clears_the_iqr():
    change = [p + 10 for p in PARENT]
    assert judged(change) == {"pairs_won": 10, "pairs": 10, "verdict": "gain"}
    # one pair lost of ten is still a gain
    change[0] = PARENT[0] - 1
    assert judged(change)["verdict"] == "gain"
    # two lost is not
    change[1] = PARENT[1] - 1
    assert judged(change) == {"pairs_won": 8, "pairs": 10, "verdict": "parity"}


def test_a_gain_needs_a_median_gap_above_the_iqr():
    # every pair won, but the median moves by 3.5, the parent's IQR
    assert judged([p + 3.5 for p in PARENT])["verdict"] == "parity"
    assert judged([p + 3.6 for p in PARENT])["verdict"] == "gain"


def test_a_gain_fails_no_more_than_the_parent():
    change = [p + 10 for p in PARENT]
    assert judged(change, failures=(3, 3))["verdict"] == "gain"
    assert judged(change, failures=(3, 2))["verdict"] == "gain"
    assert judged(change, failures=(0, 1)) == {"pairs_won": 10, "pairs": 10, "verdict": "parity"}


def test_lower_is_better_turns_the_sign():
    assert judged([p - 10 for p in PARENT], better="lower")["verdict"] == "gain"
    assert judged([p + 10 for p in PARENT], better="lower")["verdict"] == "parity"
    assert judged([p + 26 for p in PARENT], better="lower")["verdict"] == "regression"


@pytest.mark.parametrize("better, worse", [("higher", -1), ("lower", 1)])
def test_a_regression_is_judged_against_the_bound(better, worse):
    # the bound is a share of the parent's median, 100
    assert judged([p + worse * 25 for p in PARENT], better)["verdict"] == "parity"
    assert judged([p + worse * 25.5 for p in PARENT], better)["verdict"] == "regression"
    assert judged([p + worse * 10 for p in PARENT], better, bound=0.1)["verdict"] == "parity"
    assert judged([p + worse * 11 for p in PARENT], better, bound=0.1)["verdict"] == "regression"


def test_a_ratio_at_one_holds_parity():
    assert judged([1.0] * 5, parent=[1.0] * 5, bound=0.001) == {
        "pairs_won": 0, "pairs": 5, "verdict": "parity"}
    assert judged([0.99] * 5, parent=[1.0] * 5, bound=0.001)["verdict"] == "regression"


@pytest.mark.parametrize("better, sign", [("higher", 1), ("lower", -1)])
def test_a_spread_wider_than_the_bound_is_unresolved(better, sign):
    # the parent's IQR, 20, is wider than 0.1 of its median, 100
    parent = [80.0, 90.0, 100.0, 110.0, 120.0]
    change = [p + sign * 5 for p in parent]
    assert judged(change, better, bound=0.1, parent=parent) == {
        "pairs_won": 5, "pairs": 5, "verdict": "unresolved"}
    # unless every change run is better than every parent run: a parent
    # IQR of 41 that a median gap of 3 does not clear, but no run overlaps
    parent = [100 + sign * d for d in (-50, -40, 0, 1, 2)]
    change = [100 + sign * 3] * 5
    assert judged(change, better, bound=0.1, parent=parent) == {
        "pairs_won": 5, "pairs": 5, "verdict": "parity"}
    change[-1] = 100 + sign * 1
    assert judged(change, better, bound=0.1, parent=parent)["verdict"] == "unresolved"
