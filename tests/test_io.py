"""File round-trip tests: Matrix Market (both layouts) and CSV."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import randlr.io
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
    write_matrix_market(path, awkward_matrix, fmt="array")
    back = read_matrix_market(path)
    assert np.array_equal(back, awkward_matrix)


def test_matrix_market_coordinate_roundtrip(tmp_path, awkward_matrix):
    path = tmp_path / "m.mtx"
    write_matrix_market(path, awkward_matrix, fmt="coordinate")
    back = read_matrix_market(path)
    assert np.array_equal(back, awkward_matrix)


def test_matrix_market_banner_present(tmp_path):
    path = tmp_path / "m.mtx"
    write_matrix_market(path, np.eye(3))
    assert path.read_text().startswith("%%MatrixMarket")


def test_matrix_market_bad_layout(tmp_path):
    with pytest.raises(ValueError):
        write_matrix_market(tmp_path / "m.mtx", np.eye(2), fmt="banded")


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


@pytest.mark.parametrize("size_line", ["0 3", "0 0"])
def test_zero_row_matrix_market_file_is_one_error_line(tmp_path, size_line):
    # scipy's reader dies of SIGFPE on such a file when it runs two or more threads,
    # which only a subprocess can see; a file this small is read on one thread
    path = tmp_path / "zero.mtx"
    path.write_text(f"%%MatrixMarket matrix array real general\n{size_line}\n")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "randlr.cli", "spectrum", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    dims = size_line.replace(" ", ", ")
    assert proc.stderr == f"error: {path} must have positive dimensions, got ({dims})\n"


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


def test_matrix_market_threads_follow_affinity(tmp_path, monkeypatch, awkward_matrix):
    # scipy's default starts one thread per machine CPU; a process pinned to one CPU gets one
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_fmm(), "PARALLELISM", 0)
    reads, writes = _spy_threads(monkeypatch, "mmread"), _spy_threads(monkeypatch, "mmwrite")
    path = tmp_path / "m.mtx"
    write_matrix_market(path, awkward_matrix)
    assert np.array_equal(read_matrix_market(path), awkward_matrix)
    assert writes == [1] and reads == [1]
    assert _fmm().PARALLELISM == 0


def test_matrix_market_threads_keep_callers_lower_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(_fmm(), "PARALLELISM", 2)
    writes = _spy_threads(monkeypatch, "mmwrite")
    write_matrix_market(tmp_path / "m.mtx", np.eye(3))
    assert writes == [2]
    assert _fmm().PARALLELISM == 2


def test_matrix_market_threads_restored_after_failed_read(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(_fmm(), "PARALLELISM", 0)
    reads = _spy_threads(monkeypatch, "mmread")
    path = tmp_path / "bad.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\nnot-a-number\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)
    assert reads == [1]
    assert _fmm().PARALLELISM == 0


def test_matrix_market_small_reads_use_one_thread(tmp_path, monkeypatch):
    # one thread reads a small file faster even with CPUs to spare; writes still split
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(_fmm(), "PARALLELISM", 0)
    reads, writes = _spy_threads(monkeypatch, "mmread"), _spy_threads(monkeypatch, "mmwrite")
    path = tmp_path / "m.mtx"
    write_matrix_market(path, np.eye(3))
    size = path.stat().st_size
    read_matrix_market(path)
    monkeypatch.setattr(randlr.io, "_MM_READ_SPLIT_BYTES", size)  # at the cutoff the read splits
    read_matrix_market(path)
    assert writes == [4] and reads == [1, 4]
    assert _fmm().PARALLELISM == 0


def test_matrix_market_output_independent_of_threads(tmp_path, monkeypatch):
    monkeypatch.setattr(randlr.io, "_MM_READ_SPLIT_BYTES", 0)  # let reads split too
    M = np.random.default_rng(5).standard_normal((3000, 40))
    paths = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        writes = _spy_threads(monkeypatch, "mmwrite")
        path = tmp_path / f"m{len(cpus)}.mtx"
        write_matrix_market(path, M)
        assert writes == [len(cpus)]
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        reads = _spy_threads(monkeypatch, "mmread")
        assert np.array_equal(read_matrix_market(paths[0]), M)
        assert reads == [len(cpus)]


def test_matrix_market_threads_restored_under_concurrent_calls(tmp_path, monkeypatch):
    # Without the lock, one call can save another's value and restore it last.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
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
