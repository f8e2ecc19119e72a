"""Matrix file I/O: Matrix Market (array and coordinate) and headerless CSV.

Values are written with enough decimal digits that reading a file back
reproduces the float64 entries bit for bit.
"""

from __future__ import annotations

import os

import numpy as np

from .core import as_matrix

__all__ = [
    "read_matrix",
    "write_matrix",
    "read_matrix_market",
    "write_matrix_market",
    "read_csv",
    "write_csv",
]

# 17 significant decimal digits round-trip any float64 exactly.
_MM_PRECISION = 17


def write_matrix_market(path, M, fmt: str = "array") -> None:
    """Write M in Matrix Market format, either dense ``array`` layout or the
    sparse ``coordinate`` layout (zeros omitted)."""
    # scipy is imported here, not at module level: only Matrix Market I/O
    # needs it, and it makes up most of the package's import time
    import scipy.io
    import scipy.sparse

    M = as_matrix(M)
    if fmt == "coordinate":
        M = scipy.sparse.coo_matrix(M)
    elif fmt != "array":
        raise ValueError(f"unknown Matrix Market layout {fmt!r}")
    # pass a handle so scipy does not append its own .mtx suffix
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, M, precision=_MM_PRECISION)


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file (array or coordinate) as a dense matrix."""
    import scipy.io
    import scipy.sparse

    M = scipy.io.mmread(path)
    if scipy.sparse.issparse(M):
        M = M.toarray()
    return as_matrix(M, name=str(path))


def write_csv(path, M) -> None:
    """Write M as comma-separated rows, one matrix row per line, no header."""
    M = as_matrix(M)
    with open(path, "w") as fh:
        for row in M:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def read_csv(path) -> np.ndarray:
    """Read a headerless comma-separated matrix file."""
    rows = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append([float(tok) for tok in line.split(",")])
    if not rows:
        raise ValueError(f"{path}: no rows found")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ValueError(f"{path}: ragged rows")
    return as_matrix(rows, name=str(path))


def read_matrix(path) -> np.ndarray:
    """Read a matrix file, dispatching on extension (.mtx/.mm vs .csv).

    Unknown extensions are sniffed: a MatrixMarket banner selects the MM
    reader, anything else falls back to CSV.
    """
    ext = os.path.splitext(str(path))[1].lower()
    if ext in (".mtx", ".mm"):
        return read_matrix_market(path)
    if ext == ".csv":
        return read_csv(path)
    with open(path) as fh:
        first = fh.readline()
    if first.startswith("%%MatrixMarket"):
        return read_matrix_market(path)
    return read_csv(path)


def write_matrix(path, M) -> None:
    """Write a matrix file, dispatching on extension (default Matrix Market)."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".csv":
        write_csv(path, M)
    else:
        write_matrix_market(path, M)
