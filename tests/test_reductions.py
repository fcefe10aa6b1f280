"""The paper's reductions as identities between independent certifiers.

A code's design has one set per codeword, the support of its Boolean
embedding, and two sets meet in the coordinates where their codewords
agree.  So the design's largest intersection is n minus the code's minimum
distance, attained by the same lex-first pair; the min-distance walk over
the code and the intersection walk over the design must agree on both.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsecode import caps
from sparsecode.codes import Code, min_distance, reed_solomon
from sparsecode.group_testing import Design, design_from_code, kautz_singleton, verify_design

# every Kautz-Singleton matrix whose C(q^k, 2) column pairs fit the default cap
KS_CASES = [(q, k) for q in (2, 3, 5, 7, 11, 13) for k in range(1, q + 1)
            if math.comb(q**k, 2) <= caps.DEFAULT_SUBSET_CAP]


@pytest.mark.parametrize("q, k", KS_CASES)
def test_kautz_singleton_distance_is_its_design_intersection(q, k):
    m, prov = kautz_singleton(q, k)
    design = verify_design(Design(m))
    assert prov["min_distance"] == prov["block_length"] - design.max_intersection
    assert min_distance(reed_solomon(q, k)).witness == design.witness


@st.composite
def _codes(draw):
    """Codes of two or more words, over small alphabets and lengths, so that
    closest pairs tie often."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7]))
    n = draw(st.integers(1, 6))
    words = st.tuples(*[st.integers(0, q - 1)] * n)
    return Code.from_array(q, draw(st.lists(words, min_size=2, max_size=30, unique=True)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_codes())
def test_min_distance_is_n_minus_design_intersection(c):
    distance = min_distance(c)
    design = verify_design(design_from_code(c))
    assert distance.absolute == c.n - design.max_intersection
    assert distance.witness == design.witness
