"""Enumeration caps guarding exhaustive certifiers, and the subset enumerator
they share.

Exceeding a cap is always an explicit error; there is no sampling fallback.
The SPARSECODE_CAP environment variable overrides the subset/center caps
globally (used by the CLI, honored everywhere); it must be an integer >= 1.
"""

from __future__ import annotations

import math
import os
from itertools import chain, combinations

import numpy as np

from .errors import DomainError

DEFAULT_CODEWORD_CAP = 2**20
DEFAULT_SUBSET_CAP = 10**7
DEFAULT_CENTER_CAP = 2**22

_ENV_VAR = "SPARSECODE_CAP"


def _env_cap() -> int | None:
    raw = os.environ.get(_ENV_VAR)
    if raw is None:
        return None
    message = f"{_ENV_VAR} must be an integer >= 1, got {raw!r}"
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(message) from None
    if value < 1:
        raise DomainError(message)
    return value


def subset_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = _env_cap()
    return DEFAULT_SUBSET_CAP if env is None else env


def codeword_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = _env_cap()
    return DEFAULT_CODEWORD_CAP if env is None else env


def center_cap(cap: int | None = None) -> int:
    if cap is not None:
        return cap
    env = _env_cap()
    return DEFAULT_CENTER_CAP if env is None else env


def subsets(n_items: int, size: int) -> np.ndarray:
    """Every size-subset of range(n_items), one per row, in lexicographic order.

    Row order is itertools.combinations order, which every lex-first witness
    rests on.  Callers check their cap before asking for the rows.
    """
    count = math.comb(n_items, size)
    flat = np.fromiter(
        chain.from_iterable(combinations(range(n_items), size)),
        dtype=np.int64,
        count=count * size,
    )
    return flat.reshape(count, size)
