"""Hypothesis strategies for codes that are groups under addition mod q,
and for codes that mostly are not, shared by the tests that compare the
anchored certifiers with their full walks and by the bound checks.

Group codes come in four kinds: the span of a random generator over a
prime q in {2, 3, 5, 7} (rank-deficient draws included, whose spans are
groups too), a Reed-Solomon code, and the balance closure of a span and
its quotient by the all-ones word.  A span and a closure are built with
`Code.from_array`, so the group test decides them; Reed-Solomon codes come
from `enumerate_codewords`, which records the answer.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from sparsecode import codes
from sparsecode.codes import Code, balance_closure, quotient_by_ones, reed_solomon

# the prime alphabets of the group codes drawn here
PRIMES = (2, 3, 5, 7)


def _dimension(q: int, most: int) -> int:
    """The largest k >= 1 with q^k <= most, or 1."""
    k = 1
    while q ** (k + 1) <= most:
        k += 1
    return k


@st.composite
def group_codes(draw, most: int = 49, primes=PRIMES):
    """A group code over q in `primes` of 2 to `most` words (q words at
    least, when q > most).  The closure of a one-dimensional span can hold
    q^2 words, so a closure is drawn only over the q with q^2 <= most, and
    not at all when there is none."""
    kinds = ["span", "reed-solomon", "closure", "quotient"]
    if all(q * q > most for q in primes):
        kinds.remove("closure")
    kind = draw(st.sampled_from(kinds))
    q = draw(st.sampled_from([q for q in primes if kind != "closure" or q * q <= most]))
    if kind == "reed-solomon":
        return reed_solomon(q, draw(st.integers(1, min(q, _dimension(q, most)))))
    n = draw(st.integers(1, 8))
    # a closure holds up to q times as many words as the span it closes
    k = draw(st.integers(1, _dimension(q, most if kind == "span" else most // q)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    span = Code.from_array(q, codes._span(q, rng.integers(0, q, size=(k, n))))
    code = span if kind == "span" else balance_closure(span)
    if kind == "quotient":
        code = quotient_by_ones(code)
    if len(code) < 2:  # the zero span, or one class: the span of e_0 instead
        code = Code.from_array(q, codes._span(q, np.eye(1, n, dtype=np.int64)))
    return code


@st.composite
def random_codes(draw, most: int = 30, alphabets=(2, 3, 4, 5, 7), longest: int = 6):
    """A code of 2 to `most` distinct random words over q in `alphabets`."""
    q = draw(st.sampled_from(alphabets))
    n = draw(st.integers(1, longest))
    words = st.tuples(*[st.integers(0, q - 1)] * n)
    return Code.from_array(q, draw(st.lists(words, min_size=2, max_size=most, unique=True)))
