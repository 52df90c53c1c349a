"""File interchange: MatrixMarket matrices, plain-text vectors, partitions.

Matrices travel as MatrixMarket coordinate (real, general) files; vectors as
one value per line in shortest round-trip decimal; partitions as one block
per line of space-separated indices.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.io import mmread, mmwrite

from .sparse import SparseMatrix, as_vector
from .splitting import Partition


def write_matrix_market(path, a: SparseMatrix) -> None:
    mmwrite(str(path), a.to_scipy(), field="real", symmetry="general")


def read_matrix_market(path) -> SparseMatrix:
    m = mmread(str(path))
    return SparseMatrix.from_scipy(m.tocsr())


def write_vector(path, v) -> None:
    v = as_vector(v, name="vector")
    with open(path, "w") as fh:
        for entry in v:
            fh.write(repr(float(entry)) + "\n")


def _parse(path, lineno: int, token: str, kind):
    """``kind(token)``, int or finite float; a bad token names the file and
    line."""
    try:
        value = kind(token)
    except ValueError:
        raise ValueError(f"{path}, line {lineno}: {token!r} is not " + (
            "an integer" if kind is int else "a number")) from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"{path}, line {lineno}: {token!r} is not finite")
    return value


def read_vector(path) -> np.ndarray:
    with open(path) as fh:
        entries = [_parse(path, lineno, line.strip(), float)
                   for lineno, line in enumerate(fh, 1) if line.strip()]
    return as_vector(entries, name="vector file")


def read_partition(path, n: int) -> Partition:
    """The partition in ``path``; a bad token or an invalid block names the
    file and the line."""
    blocks, lines = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            blocks.append([_parse(path, lineno, tok, int)
                           for tok in line.split()])
            lines.append(lineno)
    if not blocks:
        raise ValueError(f"partition file {path} contains no blocks")
    try:
        return Partition(n, len(blocks), tuple(np.asarray(b, dtype=np.int64)
                                               for b in blocks))
    except ValueError as exc:
        if not hasattr(exc, "block"):
            raise
        raise ValueError(f"{path}, line {lines[exc.block]}: {exc}") from None
