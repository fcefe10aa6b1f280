"""Tests of the benchmark itself: inputs, reference gate, tracer, caps.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture
def build(tmp_path):
    """build(workload, seed) -> ops, with input files under a fresh tmp dir."""
    made = []

    def _build(workload: str, seed: int):
        tmp = tmp_path / f"{workload}-{seed}-{len(made)}"
        made.append(tmp)
        return run.import_library(workload, seed, tmp), tmp

    yield _build
    for tmp in made:
        shutil.rmtree(tmp, ignore_errors=True)


def _fingerprint(ops, tmp: Path) -> list:
    out = []
    for op in ops:
        parts = [op.name, op.kind]
        for item in op.inputs:
            if isinstance(item, np.ndarray):
                parts.append((item.shape, item.tobytes()))
            else:
                parts.append(tuple(w.symbols for w in item))
        out.append(parts)
    files = sorted((p.name, p.read_bytes()) for p in tmp.iterdir())
    return [out, files]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_generators_are_deterministic_per_seed(build, workload):
    ops_a, tmp_a = build(workload, 7)
    ops_b, tmp_b = build(workload, 7)
    ops_c, tmp_c = build(workload, 8)
    assert _fingerprint(ops_a, tmp_a) == _fingerprint(ops_b, tmp_b)
    assert _fingerprint(ops_a, tmp_a) != _fingerprint(ops_c, tmp_c)


def test_reference_gate_fails_a_tampered_witness(build):
    ops, _ = build("gt", 0)
    op = next(o for o in ops if o.kind == "bernoulli")
    report = op.report(op.run())
    reference = gate.load_reference("gt", 0)
    assert reference is not None
    assert gate.check(op, report, reference) == []
    tampered = copy.deepcopy(report)
    target, chosen = tampered["witness"]
    tampered["witness"] = [target, [c + 1 for c in chosen]]
    assert gate.check(op, tampered, reference)
    # without a reference the cover invariant still rejects it
    assert gate.check(op, tampered, None)


def test_compare_uses_the_float_slack_and_exact_counts():
    ref = {"constant": 0.5, "subsets_checked": 10, "witness": [1, 2]}
    assert gate.compare(ref, {**ref, "constant": 0.5 + 0.5e-9}) == []
    assert gate.compare(ref, {**ref, "constant": 0.5 + 2e-9})
    assert gate.compare(ref, {**ref, "subsets_checked": 9})
    assert gate.compare(ref, {**ref, "witness": [1, 3]})


def test_tracing_leaves_outputs_and_modules_unchanged(build):
    from tracer import Tracer

    import sparsecode
    from sparsecode import codes, listdecode

    ops, _ = build("corpus", 3)
    sample = [op for op in ops if op.kind in ("balanced", "flat")][:4]
    sample.append(next(op for op in ops if op.kind == "listdecode"))
    before = (codes.lwise_distance, listdecode.lwise_distance,
              sparsecode.code_bias, codes.Code.__init__)
    plain = [op.report(op.run()) for op in sample]
    tracer = Tracer(memory=True)
    with tracer:
        assert listdecode.lwise_distance is codes.lwise_distance
        assert listdecode.lwise_distance is not before[1]
        traced = [op.report(op.run()) for op in sample]
    assert traced == plain
    assert (codes.lwise_distance, listdecode.lwise_distance,
            sparsecode.code_bias, codes.Code.__init__) == before
    # johnson_check calls lwise_distance through its listdecode alias
    johnson = tracer.names.index("listdecode.johnson_check")
    lwise = tracer.names.index("codes.lwise_distance")
    assert any(fn == lwise and parent >= 0 and tracer.span_fn[parent] == johnson
               for fn, parent in zip(tracer.span_fn, tracer.span_parent))
    assert tracer.snapshot()["certify.rip2_profile"]["peak_mb"] > 0


def test_tracer_self_time_excludes_children():
    from tracer import Tracer

    from sparsecode import codes

    code = codes.reed_solomon(5, 2)
    with Tracer() as tracer:
        codes.code_bias(code)
    stats = tracer.snapshot()
    bias = stats["codes.code_bias"]
    words = stats["words.bias_of_word"]
    assert words["calls"] == bias["units"] == 300
    assert bias["self_ms"] == pytest.approx(bias["incl_ms"] - words["incl_ms"], abs=1e-6)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_runs_inside_default_caps(build, monkeypatch, workload):
    from sparsecode import caps

    monkeypatch.delenv("SPARSECODE_CAP", raising=False)
    seen = []
    for name in ("subset_cap", "codeword_cap", "center_cap"):
        original = getattr(caps, name)

        def spy(cap=None, _original=original, _name=name):
            seen.append((_name, cap))
            return _original(cap)

        monkeypatch.setattr(caps, name, spy)
    ops, _ = build(workload, 0)
    messages = []
    result = run.run_pass(ops, gate.load_reference(workload, 0), messages.append)
    assert result.failed == 0, messages
    assert seen and all(cap is None for _, cap in seen)


def test_benchmark_json_matches_run_py():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert run.parse_args(["--workload", "gt", "--seed", "0"]).seconds == spec["run_seconds"]


def test_tail_has_ten_samples_above_it():
    latencies = [float(i) for i in range(100)]
    value = sorted(latencies)[run.tail_index(len(latencies))]
    assert sum(1 for x in latencies if x > value) == 10
    assert run.tail_index(5) == 4


def test_scaling_follows_nearby_calibrations_and_ignores_one_spike():
    ref = run.CAL_REF_S
    steady = run.Pass()
    steady.latencies, steady.segment = [0.5, 0.5, 1.0], [0, 1, 2]
    steady.cal = [2 * ref] * 4
    assert steady.scaled() == pytest.approx([0.25, 0.25, 0.5])
    spiked = run.Pass()
    spiked.latencies, spiked.segment = [0.5, 0.5, 1.0], [0, 1, 2]
    spiked.cal = [2 * ref, 2 * ref, 9 * ref, 2 * ref, 2 * ref]
    assert spiked.scaled() == pytest.approx([0.25, 0.25, 0.5])
