"""CSV persistence for matrices.

Matrices go to headerless CSV (one row per line, '.' decimal).  Floats
are written with shortest round-trip precision so write-then-read is
exact.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InputError
from .linalg import as_matrix


def _fmt(value: float) -> str:
    return repr(float(value))


def matrix_to_csv(a, path) -> None:
    arr = as_matrix(a)
    lines = [",".join(_fmt(v) for v in row) for row in arr]
    Path(path).write_text("\n".join(lines) + "\n")


def matrix_from_csv(path) -> np.ndarray:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read matrix from {path}: {exc}") from exc
    try:
        rows = [[float(v) for v in line.split(",")]
                for line in text.splitlines() if line.strip()]
    except ValueError as exc:
        raise InputError(f"non-numeric entry in {path}: {exc}") from exc
    if not rows:
        raise InputError(f"no matrix rows found in {path}")
    if len({len(row) for row in rows}) > 1:
        raise InputError(f"rows of {path} differ in length")
    return as_matrix(rows)
