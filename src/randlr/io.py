"""Matrix file I/O: Matrix Market and headerless CSV.

Matrix Market files are written in the dense ``array`` layout and read in
either the ``array`` or the sparse ``coordinate`` layout.  Values are
written with the fewest decimal digits that read back as the same float64,
so a file reproduces its entries bit for bit, except that scipy's reader
reads ``-0`` as ``+0.0``.  CSV keeps the sign of zero.  A malformed file
is a ValueError, and a failed write an OSError, whose message starts with
the file's path.
"""

from __future__ import annotations

import contextlib
import os
import threading

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

# Guards scipy's module-global Matrix Market thread count while a call
# has it changed, so concurrent callers always restore the caller's value.
_MM_THREADS_LOCK = threading.Lock()


@contextlib.contextmanager
def _mm_threads():
    """Run scipy's Matrix Market reader or writer on one thread.

    scipy's default (``PARALLELISM = 0``) starts one thread per CPU of the
    machine, ignoring the affinity mask.  A second thread only pays on large
    reads on an unpinned host (on two CPUs of an x86-64 host, from about 24
    MB up; writes of 2.5 MB gained nothing), and on two or more threads fmm
    dies of SIGFPE reading an ``array`` file with zero rows.
    """
    import scipy.io._fast_matrix_market as fmm

    with _MM_THREADS_LOCK:
        saved = fmm.PARALLELISM
        fmm.PARALLELISM = 1
        try:
            yield
        finally:
            fmm.PARALLELISM = saved


@contextlib.contextmanager
def _writing(path, mode, **kwargs):
    """``open(path, mode, **kwargs)`` whose write and close errors name the
    file, as open's own errors do."""
    fh = open(path, mode, **kwargs)
    try:
        with fh:
            yield fh
    except OSError as exc:
        raise OSError(f"{path}: {exc}") from exc


def write_matrix_market(path, M) -> None:
    """Write M in Matrix Market format, dense ``array`` layout, to exactly ``path``.

    Each value is scipy's shortest decimal that reads back as the same
    float64 (``1E-1``, ``1.4991458051130726``, ``5E-324``, ``0``).
    """
    # scipy is imported here, not at module level: only Matrix Market I/O
    # needs it, and it makes up most of the package's import time
    import scipy.io

    M = as_matrix(M)
    # A handle, not the path: given a path, scipy appends .mtx to any other
    # name and returns normally when its writes fail.  scipy writes 1 KiB at
    # a time; the 1 MiB buffer turns that into a few system calls.
    with _writing(path, "wb", buffering=1 << 20) as fh, _mm_threads():
        scipy.io.mmwrite(fh, M)


def read_matrix_market(path) -> np.ndarray:
    """Read a Matrix Market file (array or coordinate) as a dense matrix."""
    import scipy.io
    import scipy.sparse

    with _mm_threads():
        try:
            M = scipy.io.mmread(path)
        except (ValueError, OverflowError) as exc:  # scipy's parse errors do not name the file
            raise ValueError(f"{path}: {exc}") from exc
    if scipy.sparse.issparse(M):
        M = M.toarray()
    return as_matrix(M, name=str(path))


def write_csv(path, M) -> None:
    """Write M as comma-separated rows, one matrix row per line, no header."""
    M = as_matrix(M)
    with _writing(path, "w") as fh:
        for row in M:
            fh.write(",".join(repr(float(x)) for x in row))
            fh.write("\n")


def read_csv(path) -> np.ndarray:
    """Read a headerless comma-separated matrix file."""
    rows = []
    with open(path) as fh:
        try:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(tok) for tok in line.split(",")])
        except ValueError as exc:  # a non-numeric value or non-UTF-8 bytes
            raise ValueError(f"{path}: {exc}") from exc
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
    with open(path, "rb") as fh:  # bytes: read_csv reports a bad encoding
        first = fh.readline()
    if first.startswith(b"%%MatrixMarket"):
        return read_matrix_market(path)
    return read_csv(path)


def write_matrix(path, M) -> None:
    """Write a matrix file, dispatching on extension (default Matrix Market)."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".csv":
        write_csv(path, M)
    else:
        write_matrix_market(path, M)
