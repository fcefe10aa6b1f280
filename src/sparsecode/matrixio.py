"""Matrix file formats shared by the CLI and the certifiers.

Complex matrices: {"kind": "complex", "n": rows, "N": cols,
"entries": row-major [re, im] pairs}.  Binary matrices:
{"kind": "binary", "rows": ["0101", ...]}.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import DomainError

# binary rows are ASCII "0"/"1": an entry is its byte minus ord("0")
_ZERO = ord("0")


def write_matrix(m: np.ndarray, path: str | Path) -> None:
    m = np.asarray(m)
    if np.isrealobj(m) and ((m == 0) | (m == 1)).all():
        text = (m.astype(np.uint8) + _ZERO).tobytes().decode("ascii")
        width = m.shape[1]
        payload = {
            "kind": "binary",
            "rows": [text[i * width:(i + 1) * width] for i in range(m.shape[0])],
        }
    else:
        cm = m.astype(np.complex128)
        payload = {
            "kind": "complex",
            "n": int(cm.shape[0]),
            "N": int(cm.shape[1]),
            "entries": cm.ravel().view(np.float64).reshape(-1, 2).tolist(),
        }
    Path(path).write_text(json.dumps(payload) + "\n")


def read_matrix(path: str | Path) -> np.ndarray:
    """A binary file's matrix as bools (cast before `@` for integer
    products), a complex file's as complex128; a malformed file is refused."""
    text = Path(path).read_text()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed matrix file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise DomainError(f"matrix file {path} must hold a JSON object")
    kind = payload.get("kind")
    if kind == "binary":
        rows = payload.get("rows")
        if not rows or not isinstance(rows, list):
            raise DomainError("binary matrix file needs a non-empty list of rows")
        if not all(isinstance(row, str) for row in rows):
            raise DomainError("binary matrix rows must be strings")
        if len({len(row) for row in rows}) != 1:
            raise DomainError("binary matrix rows differ in length")
        if not rows[0]:
            raise DomainError("binary matrix rows must not be empty")
        # a non-ASCII character becomes one "?", so the shape still holds
        data = "".join(rows).encode("ascii", errors="replace")
        m = (np.frombuffer(data, dtype=np.uint8) - _ZERO).reshape(len(rows), len(rows[0]))
        if (m > 1).any():  # below "0" wraps around to > 1
            raise DomainError("binary matrix entries must be 0 or 1")
        return m == 1
    if kind == "complex":
        n, cols = payload.get("n"), payload.get("N")
        # type(...) is int: a JSON true or false is a bool, which isinstance takes as int
        if not (type(n) is int and type(cols) is int and n > 0 and cols > 0):
            raise DomainError('complex matrix file needs integers "n", "N" >= 1')
        try:
            flat = np.array(payload.get("entries"))
        except ValueError as exc:  # ragged nesting
            raise DomainError(f"malformed matrix entries: {exc}") from exc
        # np.array reads a JSON true or false beside numbers as a number, so the
        # entries of a text that holds either literal are checked one by one
        if (flat.ndim != 2 or flat.shape[1] != 2 or flat.dtype.kind not in "iuf"
                or ("true" in text or "false" in text) and any(
                    type(re) is bool or type(im) is bool for re, im in payload["entries"])):
            raise DomainError("complex matrix entries must be [re, im] number pairs")
        if len(flat) != n * cols:
            raise DomainError("entry count does not match declared shape")
        flat = flat.astype(np.float64)
        if not np.isfinite(flat).all():
            raise DomainError("matrix entries must be finite")
        # each C-ordered [re, im] row is exactly one complex128
        return flat.view(np.complex128).reshape(n, cols)
    raise DomainError(f"unknown matrix kind {kind!r}")
