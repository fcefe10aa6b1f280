"""The paper's reductions as identities between independent certifiers.

A code's design has one set per codeword, the support of its Boolean
embedding, and two sets meet in the coordinates where their codewords
agree.  So the design's largest intersection is n minus the code's minimum
distance, attained by the same lex-first pair; the min-distance walk over
the code and the intersection walk over the design must agree on both.

A binary code's pairwise distances fix several other certifiers exactly.
The 2-wise distance is the minimum distance, on the same pair, and a ball of
radius floor((d_min - 1)/2) holds one codeword at most.  With
mu = max |1 - 2d/n| over distinct pairs: the spherical embedding's columns
meet in (n - 2d)/n, so its coherence is mu and its RIP-2 constant of order 2
is 1 - sqrt(1 - mu), and the bias of a - b is |d/n - 1/2|, so the code's
bias is mu/2.  These float sides agree within a few ulps.

Over any alphabet, the normalised Boolean embedding's columns meet in the
agreements over n, so its coherence is (n - d_min)/n, with d_min from
`min_distance`: on group codes from its walk from item 0, and on random
codes mostly from the full walk.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from group_codes import group_codes, random_codes
from sparsecode import caps
from sparsecode.certify import coherence, rip2_profile
from sparsecode.codes import Code, code_bias, lwise_distance, min_distance, reed_solomon
from sparsecode.embeddings import bool_code, sph_code
from sparsecode.group_testing import Design, design_from_code, kautz_singleton, verify_design
from sparsecode.listdecode import list_sizes_at_radii

# the float identities hold within 4 ulps of 1; over 600 random codes the
# worst errors were 1.5, 1.5 and 0.25 ulps
FOUR_ULPS = 4 * 2.0**-52

# every Kautz-Singleton matrix whose C(q^k, 2) column pairs fit the default cap
KS_CASES = [(q, k) for q in (2, 3, 5, 7, 11, 13) for k in range(1, q + 1)
            if math.comb(q**k, 2) <= caps.DEFAULT_SUBSET_CAP]


@pytest.mark.parametrize("q, k", KS_CASES)
def test_kautz_singleton_distance_is_its_design_intersection(q, k):
    m, prov = kautz_singleton(q, k)
    design = verify_design(Design(m))
    assert prov["min_distance"] == prov["block_length"] - design.max_intersection
    distance = min_distance(reed_solomon(q, k))
    assert prov["min_distance"] == distance.absolute
    assert distance.witness == design.witness


# codes of two or more words, over small alphabets and lengths, so that
# closest pairs tie often
@settings(derandomize=True, max_examples=200, deadline=None)
@given(random_codes())
def test_min_distance_is_n_minus_design_intersection(c):
    distance = min_distance(c)
    design = verify_design(design_from_code(c))
    assert distance.absolute == c.n - design.max_intersection
    assert distance.witness == design.witness


@st.composite
def _binary_codes(draw):
    """Binary codes of 2 to 24 words of length 3 to 12."""
    n = draw(st.integers(3, 12))
    words = st.tuples(*[st.integers(0, 1)] * n)
    return Code.from_array(2, draw(st.lists(words, min_size=2, max_size=24, unique=True)))


def _coherence_of_distances(c: Code) -> float:
    """mu = max |1 - 2d/n| over the distances d of distinct codeword pairs."""
    a = c.array()
    d = (a[:, None] != a[None]).sum(axis=2)[np.triu_indices(len(a), 1)]
    return max(abs(1 - 2 * x / c.n) for x in d.tolist())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_binary_codes())
def test_two_wise_distance_is_min_distance(c):
    pairwise, two_wise = min_distance(c), lwise_distance(c, 2)
    assert (two_wise.relative, two_wise.witness) == (pairwise.relative, pairwise.witness)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_binary_codes())
def test_unique_decoding_radius_holds_one_codeword(c):
    radius = (min_distance(c).absolute - 1) // 2
    assert list_sizes_at_radii(c, radius)[0] == 1


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_binary_codes())
def test_sph_coherence_rip2_and_bias_follow_from_the_distances(c):
    mu = _coherence_of_distances(c)
    m = sph_code(c)
    assert abs(coherence(m).value - mu) <= FOUR_ULPS
    assert abs(rip2_profile(m, 2)[-1].alpha - (1 - math.sqrt(1 - mu))) <= FOUR_ULPS
    assert abs(code_bias(c) - mu / 2) <= FOUR_ULPS


# group codes take min_distance's anchored walk, random codes mostly the full one
KINDS = {"group": group_codes(), "random": random_codes()}


@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_normalised_bool_coherence_is_the_least_distance(kind, data):
    c = data.draw(KINDS[kind])
    value = coherence(bool_code(c, normalize=True)).value
    assert abs(value - (c.n - min_distance(c).absolute) / c.n) <= FOUR_ULPS
