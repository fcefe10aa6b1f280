"""Shared seeded corpora for the property-based certification tests, and
the non-contiguous layouts that inputs are read in.

All corpora are generated from fixed seeds so every run enumerates exactly
the same codes; sizes are capped so each exhaustive certifier stays well
inside its runtime budget.
"""

from __future__ import annotations

import numpy as np
import pytest

from sparsecode.codes import (
    Code,
    min_distance_epsilon,
    quotient_by_ones,
    random_balanced_code,
)
from sparsecode.words import Word

BALANCED_CORPUS_SEED = 20260824
BINARY_CORPUS_SEED = 715
LISTDECODE_CORPUS_SEED = 31337


def _random_code(q: int, n: int, size: int, rng: np.random.Generator) -> Code:
    words = {
        Word(q, tuple(int(s) for s in rng.integers(0, q, size=n)))
        for _ in range(size)
    }
    return Code(words)


@pytest.fixture(scope="session")
def balanced_corpus():
    """>= 500 balanced codes over q in {2, 3}, n <= 12, |C| <= 27.

    Each entry carries the code, its quotient by the all-ones word, and the
    smallest eps for which the min-distance premise of the bias reduction
    holds.  Quotients with at least 4 classes are kept so RIP orders up to 4
    are meaningful.
    """
    rng = np.random.default_rng(BALANCED_CORPUS_SEED)
    corpus = []
    while len(corpus) < 500:
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(6, 13))
        classes = int(rng.integers(4, 10))
        code = random_balanced_code(q, n, classes, rng)
        quotient = quotient_by_ones(code)
        if len(quotient) < 4 or len(code) > 27:
            continue
        corpus.append(
            {
                "code": code,
                "quotient": quotient,
                "epsilon": min_distance_epsilon(code),
            }
        )
    return corpus


@pytest.fixture(scope="session")
def binary_flat_corpus():
    """Binary codes with n <= 14 and 8 <= |C| <= 12 for flat-RIP checks."""
    rng = np.random.default_rng(BINARY_CORPUS_SEED)
    corpus = []
    while len(corpus) < 120:
        n = int(rng.integers(6, 15))
        size = int(rng.integers(8, 13))
        code = _random_code(2, n, size, rng)
        if len(code) < 8:
            continue
        corpus.append(code)
    return corpus


@pytest.fixture(scope="session")
def listdecode_corpus():
    """>= 1000 binary codes with n <= 14 and |C| <= 16.

    A slice of the corpus is balanced by construction (shift closures), so
    the distance premises of the Johnson-type implication are met on a
    non-trivial fraction of instances rather than only vacuously.
    """
    rng = np.random.default_rng(LISTDECODE_CORPUS_SEED)
    corpus = []
    while len(corpus) < 900:
        n = int(rng.integers(8, 15))
        size = int(rng.integers(5, 17))
        code = _random_code(2, n, size, rng)
        if len(code) < 5:
            continue
        corpus.append(code)
    while len(corpus) < 1000:
        n = int(rng.integers(8, 15))
        classes = int(rng.integers(3, 9))
        code = random_balanced_code(2, n, classes, rng)
        if not (5 <= len(code) <= 16):
            continue
        corpus.append(code)
    return corpus


# views of a (2h, 2w) array that have shape (h, w) and are not C-contiguous
_VIEWS = {
    "strided": lambda b: b[::2, ::2],
    "reversed-rows": lambda b: b[::-2, :b.shape[1] // 2],
    "reversed-columns": lambda b: b[:b.shape[0] // 2, ::-2],
    "reversed": lambda b: b[::-2, ::-2],
    "corner": lambda b: b[:b.shape[0] // 2, :b.shape[1] // 2],
    "fortran": lambda b: b.reshape(-1)[:b.size // 4].reshape(
        b.shape[1] // 2, b.shape[0] // 2).T,
}


@pytest.fixture(params=list(_VIEWS.values()), ids=list(_VIEWS))
def spread(request):
    """A function that returns a copy of its 2-d array laid out as one view
    of a zero array of twice its shape, one layout per parameter."""
    def to_view(a):
        view = request.param(np.zeros((2 * a.shape[0], 2 * a.shape[1]), dtype=a.dtype))
        view[...] = a
        assert np.array_equal(view, a) and not view.flags.c_contiguous
        return view
    return to_view
