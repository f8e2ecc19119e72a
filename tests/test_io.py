"""File round-trip tests: Matrix Market (array writes, reads of both layouts) and CSV."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from randlr.io import (
    read_csv,
    read_matrix,
    read_matrix_market,
    write_csv,
    write_matrix,
    write_matrix_market,
)


@pytest.fixture
def awkward_matrix():
    """Values that expose precision loss: tiny, huge, negative, non-dyadic."""
    rng = np.random.default_rng(66)
    M = rng.standard_normal((7, 5))
    M[0, 0] = 1.0 / 3.0
    M[1, 1] = -1e-300
    M[2, 2] = 1e300
    M[3, 3] = 0.1
    M[4, 4] = 0.0
    return M


def test_matrix_market_array_roundtrip(tmp_path, awkward_matrix):
    path = tmp_path / "m.mtx"
    write_matrix_market(path, awkward_matrix)
    back = read_matrix_market(path)
    assert np.array_equal(back, awkward_matrix)


# The extremes of float64: subnormals, the normal boundary and the one
# below it, the largest value, and decimals that 17 digits would misprint.
EDGE_VALUES = [
    5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1.0 / 3.0, 0.1, 1e23,
]


def test_matrix_market_shortest_digits_round_trip_every_bit(tmp_path):
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 2**64, size=110_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values) & (bits != 1 << 63)][:100_000]  # -0.0: see below
    M = np.concatenate([values, EDGE_VALUES]).reshape(-1, 10)
    path = tmp_path / "bits.mtx"
    write_matrix_market(path, M)
    assert np.array_equal(read_matrix_market(path).view(np.uint64), M.view(np.uint64))


def test_matrix_market_reads_negative_zero_as_positive_zero(tmp_path):
    # scipy writes -0.0 as "-0" and its reader drops the sign; at 17 digits
    # it wrote "-0.0000000000000000e+00" and dropped it too.  CSV keeps it.
    M = np.array([[-0.0, 1.0]])
    path = tmp_path / "z.mtx"
    write_matrix_market(path, M)
    assert path.read_text().splitlines()[-2] == "-0"
    back = read_matrix_market(path)
    assert back[0, 0] == 0.0 and not np.signbit(back[0, 0])
    write_csv(tmp_path / "z.csv", M)
    assert np.signbit(read_csv(tmp_path / "z.csv")[0, 0])


def test_matrix_market_formatting_is_frozen(tmp_path):
    # scipy's shortest round-trip format; a scipy that changes it fails here
    # before any written file changes unnoticed.
    path = tmp_path / "f.mtx"
    write_matrix_market(path, np.array([[0.1, 1.4991458051130726, 5e-324, 0.0, -1.7976931348623157e308]]).T)
    assert path.read_text() == (
        "%%MatrixMarket matrix array real general\n%\n5 1\n"
        "1E-1\n1.4991458051130726\n5E-324\n0\n-1.7976931348623157E308\n"
    )


def test_matrix_market_written_under_exactly_the_name_given(tmp_path, awkward_matrix):
    names = ["a.mtx", "b.mm", "c"]
    for name in names:
        write_matrix_market(tmp_path / name, awkward_matrix)
    assert sorted(os.listdir(tmp_path)) == names
    contents = {(tmp_path / name).read_bytes() for name in names}
    assert len(contents) == 1


def test_matrix_market_coordinate_roundtrip(tmp_path, awkward_matrix):
    import scipy.io
    import scipy.sparse

    path = tmp_path / "m.mtx"
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, scipy.sparse.coo_matrix(awkward_matrix), precision=17)
    assert "coordinate" in path.read_text().splitlines()[0]
    back = read_matrix_market(path)
    assert np.array_equal(back, awkward_matrix)


def test_matrix_market_banner_present(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix_market(path, np.eye(3))
    assert path.read_text().startswith("%%MatrixMarket")


def test_csv_roundtrip(tmp_path, awkward_matrix):
    path = tmp_path / "m.csv"
    write_csv(path, awkward_matrix)
    assert np.array_equal(read_csv(path), awkward_matrix)


def test_csv_shape_and_layout(tmp_path):
    path = tmp_path / "m.csv"
    write_csv(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 2
    assert [float(v) for v in lines[0].split(",")] == [1.0, 2.0]


def test_csv_rejects_ragged(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        read_csv(path)


def test_read_matrix_dispatch(tmp_path, awkward_matrix):
    mm = tmp_path / "a.mtx"
    csv = tmp_path / "a.csv"
    write_matrix(mm, awkward_matrix)
    write_matrix(csv, awkward_matrix)
    assert np.array_equal(read_matrix(mm), awkward_matrix)
    assert np.array_equal(read_matrix(csv), awkward_matrix)


def test_read_matrix_sniffs_unknown_extension(tmp_path, awkward_matrix):
    path = tmp_path / "matrix.dat"
    write_matrix_market(path, awkward_matrix)
    assert np.array_equal(read_matrix(path), awkward_matrix)
    path2 = tmp_path / "matrix2.dat"
    write_csv(path2, awkward_matrix)
    assert np.array_equal(read_matrix(path2), awkward_matrix)


def test_write_rejects_non_finite(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "x.csv", np.array([[np.nan]]))
    with pytest.raises(ValueError):
        write_matrix_market(tmp_path / "x.mtx", np.array([[np.inf]]))


def test_import_randlr_does_not_load_scipy():
    # Only Matrix Market I/O needs scipy, and importing it would double the import time.
    # The trial engine stays numpy-only too: scipy.linalg would add ~8 MB of peak RSS.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    script = (
        "import sys, numpy as np, randlr\n"
        "print('scipy' in sys.modules)\n"
        "F = np.random.default_rng(0).standard_normal((40, 12))\n"
        "randlr.monte_carlo(F, 2, 3, 4, master_seed=1, workers=2)\n"
        "print('scipy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nFalse\n"


_ARRAY = "%%MatrixMarket matrix array real general\n"

# name: (file name, contents, the message after "error: <path>", or None
# where scipy's parser words it)
MALFORMED_FILES = {
    "empty": ("m.mtx", "", None),
    "banner-only": ("m.mtx", _ARRAY, None),
    "array-0x3": ("m.mtx", _ARRAY + "0 3\n", " must have positive dimensions, got (0, 3)"),
    "array-0x0": ("m.mtx", _ARRAY + "0 0\n", " must have positive dimensions, got (0, 0)"),
    "coordinate-0x0": (
        "m.mtx", "%%MatrixMarket matrix coordinate real general\n0 0 0\n",
        " must have positive dimensions, got (0, 0)",
    ),
    # past 16 MiB: reads of files this size once ran on one thread per CPU
    "array-0x3-padded": (
        "m.mtx", _ARRAY + ("%" * 1023 + "\n") * (17 << 10) + "0 3\n",
        " must have positive dimensions, got (0, 3)",
    ),
    "complex": (
        "m.mtx", "%%MatrixMarket matrix array complex general\n2 2\n1 2\n3 0\n0.5 1\n2 -1\n",
        " has complex entries; randlr handles real matrices only",
    ),
    "truncated": ("m.mtx", _ARRAY + "2 3\n1\n2\n", None),
    "index-out-of-range": ("m.mtx", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", None),
    "non-numeric": ("m.mtx", _ARRAY + "2 1\nabc\n1\n", None),
    "csv-non-utf8": ("m.csv", b"1,2\n\xff\xfe,3\n", None),
    "csv-ragged": ("m.csv", "1,2\n3\n", ": ragged rows"),
    "csv-nan": ("m.csv", "1,2\nnan,3\n", " contains non-finite entries"),
}


@pytest.mark.parametrize("name", list(MALFORMED_FILES))
def test_malformed_matrix_file_is_one_error_line(tmp_path, name):
    # A subprocess, because only it sees a signal.  scipy's reader dies of SIGFPE on a
    # zero-row array file when it runs two or more threads; the padded file caught that
    # only where the process may use two or more CPUs, and cannot fail on a 1-CPU host.
    filename, content, message = MALFORMED_FILES[name]
    path = tmp_path / filename
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "randlr.cli", "spectrum", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith(f"error: {path}") and proc.stderr.count("\n") == 1
    if message is not None:
        assert proc.stderr == f"error: {path}{message}\n"


def _fmm():
    import scipy.io._fast_matrix_market as fmm
    return fmm


def _spy_threads(monkeypatch, name):
    """Record scipy's Matrix Market thread count during each scipy.io.<name> call."""
    import scipy.io

    seen = []
    real = getattr(scipy.io, name)

    def spy(*args, **kwargs):
        seen.append(_fmm().PARALLELISM)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.io, name, spy)
    return seen


@pytest.mark.parametrize("callers", [0, 3])
def test_matrix_market_runs_one_thread_and_restores_callers_value(
    tmp_path, monkeypatch, awkward_matrix, callers
):
    # scipy's 0 means one thread per machine CPU; 3 is a limit a caller such as threadpoolctl set
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(_fmm(), "PARALLELISM", callers)
    reads, writes = _spy_threads(monkeypatch, "mmread"), _spy_threads(monkeypatch, "mmwrite")
    path = tmp_path / "m.mtx"
    write_matrix_market(path, awkward_matrix)
    assert np.array_equal(read_matrix_market(path), awkward_matrix)
    assert writes == [1] and reads == [1]
    assert _fmm().PARALLELISM == callers


def test_matrix_market_threads_restored_after_failed_read(tmp_path, monkeypatch):
    monkeypatch.setattr(_fmm(), "PARALLELISM", 0)
    reads = _spy_threads(monkeypatch, "mmread")
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\nnot-a-number\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)
    assert reads == [1]
    assert _fmm().PARALLELISM == 0


def test_matrix_market_threads_restored_under_concurrent_calls(tmp_path, monkeypatch):
    # Without the lock, one call can save another's value and restore it last.
    monkeypatch.setattr(_fmm(), "PARALLELISM", 0)
    reads, writes = _spy_threads(monkeypatch, "mmread"), _spy_threads(monkeypatch, "mmwrite")
    M = np.arange(12.0).reshape(4, 3)
    errors = []

    def work(i):
        try:
            for j in range(20):
                path = tmp_path / f"m{i}_{j}.mtx"
                write_matrix_market(path, M)
                if not np.array_equal(read_matrix_market(path), M):
                    errors.append(f"thread {i} call {j} read back wrong values")
        except Exception as exc:  # reported below; a raising thread would otherwise pass silently
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert reads == [1] * 120 and writes == [1] * 120
    assert _fmm().PARALLELISM == 0
