"""The one exact 0/1 counting kernel (`codes._counts`), against the
per-coordinate agreement count, the int64 products and the hand-indexed
code bias it replaced."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import scalar_oracles as oracle
import sparsecode
from sparsecode import codes
from sparsecode.certify import flat_rip_constant
from sparsecode.codes import Code, code_bias, min_distance, reed_solomon
from sparsecode.embeddings import bool_code, sph_code
from sparsecode.group_testing import (
    Design,
    design_from_code,
    gt_decode_cover,
    gt_encode,
    verify_design,
)

_DIFFERENTIAL = settings(derandomize=True, max_examples=100, deadline=None,
                         suppress_health_check=[HealthCheck.function_scoped_fixture])


@st.composite
def _codes(draw, most=40, alphabets=(2, 3, 5), longest=12):
    """Random codes over q in `alphabets` with at least two codewords."""
    q = draw(st.sampled_from(alphabets))
    n = draw(st.integers(1, longest))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.integers(0, q, size=(draw(st.integers(2, most)), n))
    rows[1] = (rows[0] + 1) % q  # a second distinct codeword
    return Code.from_array(q, rows)


@st.composite
def _binary(draw, uniform=False):
    """Random 0/1 matrices of 1-130 rows, with zero and duplicate columns
    mixed in, or with every column of one weight when `uniform`."""
    rows, cols = draw(st.integers(1, 130)), draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if uniform:
        weight = draw(st.integers(0, rows))
        m = np.zeros((rows, cols), dtype=np.int64)
        for j in range(cols):
            m[rng.choice(rows, weight, replace=False), j] = 1
        return m
    m = (rng.random((rows, cols)) < draw(st.sampled_from([0.1, 0.5, 0.9]))).astype(np.int64)
    for _ in range(draw(st.integers(0, 2))):
        j = draw(st.integers(0, cols - 1))
        m[:, j] = 0 if draw(st.booleans()) else m[:, draw(st.integers(0, cols - 1))]
    return m


def _unit_columns(m):
    m = np.asarray(m, dtype=np.complex128)
    return m / np.linalg.norm(m, axis=0)


def _flat_key(rep):
    # the constant by its bits, the rest by value
    return rep.constant.hex(), rep


class TestAgainstIntegerOracles:
    @_DIFFERENTIAL
    @given(c=_codes())
    def test_min_distance(self, c):
        rep = min_distance(c)
        assert rep == oracle.min_distance(c)
        assert type(rep.absolute) is int

    @_DIFFERENTIAL
    @given(c=_codes())
    def test_pairwise_distances(self, c):
        t = c.array().T
        got = codes._pairwise_distances(c)
        assert got.dtype == np.int64
        assert np.array_equal(got, c.n - oracle.agreements(t, t))

    @_DIFFERENTIAL
    @given(m=_binary(uniform=True))
    def test_verify_design(self, m):
        d = Design(m)
        assert verify_design(d) == oracle.verify_design(d)

    @_DIFFERENTIAL
    @given(m=_binary(), data=st.data())
    def test_or_channel(self, m, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = (rng.random((4, m.shape[1])) < 0.2).astype(np.int64)
        y = (rng.random((4, m.shape[0])) < 0.7).astype(np.int64)
        for xs, ys in ((x, y), (x[0], y[0])):
            assert np.array_equal(gt_encode(m, xs), oracle.gt_encode(m, xs))
            assert np.array_equal(gt_decode_cover(m, ys), oracle.gt_decode_cover(m, ys))
            encoded = gt_encode(m, xs)
            assert np.array_equal(gt_decode_cover(m, encoded),
                                  oracle.gt_decode_cover(m, encoded))

    # q >= 9 is where a pairwise sum would regroup the q bias terms
    @pytest.mark.parametrize("block", [1, 7, 2**30])
    @_DIFFERENTIAL
    @given(c=_codes(alphabets=range(2, 14), longest=24))
    def test_code_bias(self, c, block):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "_COUNT_BLOCK", block)
            assert code_bias(c).hex() == oracle.code_bias(c).hex()

    @_DIFFERENTIAL
    @given(c=_codes(most=14), L0=st.integers(1, 3))
    def test_flat_rip_constant_of_a_code(self, c, L0):
        m = sph_code(c)
        L0 = min(L0, m.shape[1] // 2)
        if L0 >= 1:
            assert _flat_key(flat_rip_constant(m, L0)) == \
                _flat_key(oracle.flat_rip_constant(m, L0))

    @_DIFFERENTIAL
    @given(m=_binary(), L0=st.integers(1, 3))
    def test_flat_rip_constant_of_a_binary_matrix(self, m, L0):
        m = _unit_columns(m[:, m.any(axis=0)][:, :14])
        L0 = min(L0, m.shape[1] // 2)
        if L0 >= 1:
            assert _flat_key(flat_rip_constant(m, L0)) == \
                _flat_key(oracle.flat_rip_constant(m, L0))


def test_forcing_float64_changes_no_report(monkeypatch):
    rng = np.random.default_rng(9)
    cases = [reed_solomon(5, 2), reed_solomon(7, 2)]
    cases += [Code.from_array(q, rng.integers(0, q, size=(20, 7))) for q in (2, 3, 5)]
    m = (rng.random((40, 12)) < 0.4).astype(np.int64)
    x = (rng.random((3, 12)) < 0.3).astype(np.int64)

    def reports():
        return ([(min_distance(c), codes._pairwise_distances(c).tolist(),
                  verify_design(design_from_code(c))) for c in cases],
                [_flat_key(flat_rip_constant(sph_code(c), 2)) for c in cases[:3]],
                _flat_key(flat_rip_constant(bool_code(cases[0], normalize=True), 2)),
                gt_encode(m, x).tolist(), gt_decode_cover(m, gt_encode(m, x)).tolist())

    assert codes._counts(np.ones((2, 3)), np.ones((3, 2))).dtype == np.float32
    default = reports()
    monkeypatch.setattr(codes, "_FLOAT32_TERMS", 0)
    assert codes._counts(np.ones((2, 3)), np.ones((3, 2))).dtype == np.float64
    assert reports() == default


@pytest.mark.parametrize("terms", [1, 2**24, 2**24 + 1])
def test_count_dtype_keeps_every_count_exact(terms):
    # float32 holds every integer up to 2**24 exactly, and no further
    dtype = codes._count_dtype(terms)
    assert int(dtype(terms)) == terms
    assert dtype is (np.float32 if terms <= 2**24 else np.float64)


def test_only_codes_decides_exact_counts():
    """No module but codes names float32 or casts an operand of @, so the
    rule that keeps a BLAS count exact lives in one place."""
    offenders = []
    for path in sorted(Path(sparsecode.__file__).parent.glob("*.py")):
        if path.name == "codes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "float32":
                offenders.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and any(
                    alias.name == "float32" for alias in node.names):
                offenders.append((path.name, node.lineno))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                casts = [n for side in (node.left, node.right) for n in ast.walk(side)
                         if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                         and n.func.attr == "astype"]
                if casts:
                    offenders.append((path.name, node.lineno))
    assert offenders == []
