"""CLI surface tests: subcommands, JSON contracts, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from randlr import cli
from randlr.cli import main
from randlr.core import thin_qr
from randlr.experiments import CHUNK_ENTRIES, KIND_PRESCRIBED, KIND_SIGNAL_NOISE, GeneratorSpec, generate
from randlr.io import read_matrix, write_csv, write_matrix_market
from randlr.rangefinder import load_factored


@pytest.fixture
def diag_csv(tmp_path):
    path = tmp_path / "diag.csv"
    write_csv(path, np.diag([3.0, 2.0, 1.0]))
    return str(path)


@pytest.fixture
def bench_matrix(tmp_path):
    rng = np.random.default_rng(123)
    path = tmp_path / "bench.mtx"
    write_matrix_market(path, rng.standard_normal((20, 16)))
    return str(path)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_command(capsys, diag_csv):
    code, out, _ = run_cli(capsys, ["spectrum", diag_csv])
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["source_dims"] == [3, 3]
    assert data["values"] == pytest.approx([3.0, 2.0, 1.0], abs=1e-12)


def test_plan_from_matrix_file(capsys, diag_csv):
    code, out, _ = run_cli(capsys, ["plan", diag_csv, "--rank", "1", "--epsilon", "20"])
    assert code == 0
    data = json.loads(out)
    assert data["feasible"] is True
    assert data["s"] == 2
    assert data["tau"] == pytest.approx(5.0, rel=1e-10)
    assert data["bound"] == pytest.approx(10.0, rel=1e-10)


def test_plan_from_spectrum_json(capsys, tmp_path, diag_csv):
    code, out, _ = run_cli(capsys, ["spectrum", diag_csv])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(out)
    code, out, _ = run_cli(capsys, ["plan", str(spec_path), "--rank", "1", "--epsilon", "20"])
    assert code == 0
    assert json.loads(out)["s"] == 2


@pytest.mark.parametrize(
    "content",
    [
        '{"values": [2.0, 1.0]}',
        "[2.0, 1.0]",
        '{"values": [2.0, 1.0], "source_dims": 3}',
        '{"values": [2.0, 1.0], "source_dims": [3]}',
        '{"values": [1%s], "source_dims": [3, 3]}' % ("0" * 400),  # past float64: OverflowError
        '{"values": [2.0, 1.0], "source_dims": [2.7, 3]}',  # int() would truncate it to 2
        '{"values": [2.0], "source_dims": [true, 3]}',  # int() would read it as 1
        '{"values": ["2", "1"], "source_dims": [3, 3]}',  # asarray would read them as 2.0 and 1.0
        '{"values": [true, false], "source_dims": [3, 3]}',  # asarray would read them as 1.0 and 0.0
    ],
    ids=["no-source-dims", "json-list", "scalar-dims", "one-dim", "huge-int", "float-dim", "bool-dim",
         "string-values", "bool-values"],
)
def test_plan_from_malformed_spectrum_is_one_error_line(capsys, tmp_path, content):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(content)
    code, out, err = run_cli(capsys, ["plan", str(spec_path), "--rank", "1", "--epsilon", "20"])
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(spec_path) in err


def test_plan_infeasible_exit_code(capsys, diag_csv):
    code, out, _ = run_cli(capsys, ["plan", diag_csv, "--rank", "1", "--epsilon", "1.0"])
    assert code == 2
    data = json.loads(out)
    assert data["feasible"] is False
    assert data["s"] is None


def test_approx_writes_factors(capsys, tmp_path, bench_matrix):
    prefix = str(tmp_path / "out" / "fa")
    (tmp_path / "out").mkdir()
    code, out, _ = run_cli(
        capsys,
        ["approx", bench_matrix, "--rank", "3", "--oversample", "2", "--seed", "7",
         "--out-prefix", prefix],
    )
    assert code == 0
    data = json.loads(out)
    assert data["written"] == [prefix + "_H.mtx", prefix + "_T.mtx", prefix + ".json"]
    fa = load_factored(prefix)
    assert fa.basis.shape == (20, 5)
    assert fa.coeffs.shape == (5, 16)
    assert fa.seed == 7 and fa.target_rank == 3 and fa.oversampling == 2
    sidecar = json.loads(Path(prefix + ".json").read_text())
    assert sidecar == {
        "schema_version": 1,
        "target_rank": 3,
        "oversampling": 2,
        "seed": 7,
        "method": "randomized",
    }


def test_bench_deterministic_output(capsys, bench_matrix):
    argv = ["bench", bench_matrix, "--rank", "3", "--oversample", "3",
            "--trials", "40", "--seed", "99"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["schema_version"] == 1
    assert len(data["per_trial_errors"]) == 40
    assert data["verdict"] in ("bound-satisfied", "bound-violated")
    assert data["epsilon"] is None and data["fraction_below_epsilon"] is None  # bench has no budget


def test_bench_parallel_identical(capsys, bench_matrix):
    # 20x16 input: b*(r+s) = 96 entries per trial, so 700 trials make three chunks and a pool
    assert math.ceil(700 / (CHUNK_ENTRIES // (16 * (2 + 4)))) == 3
    base = ["bench", bench_matrix, "--rank", "2", "--oversample", "4",
            "--trials", "700", "--seed", "5"]
    _, serial, _ = run_cli(capsys, base + ["--workers", "1"])
    _, threaded, _ = run_cli(capsys, base + ["--workers", "4"])
    assert serial == threaded


@pytest.mark.parametrize("argv", [
    ["approx", "{m}", "--rank", "2", "--oversample", "3", "--out-prefix", "{d}/fa"],
    ["bench", "{m}", "--rank", "2", "--oversample", "3", "--trials", "4"],
    ["beat", "{m}", "--rank", "2", "--baseline", "colsel", "--trials", "4"],
    ["gen", "spectrum", "--dims", "6", "5", "--values", "1", "--out", "{d}/g.mtx"],
    ["gen", "signal-noise", "--dims", "6", "5", "--signal-rank", "1", "--noise-level", "0.1",
     "--out", "{d}/g.mtx"],
    ["moment", "--r", "2", "--s", "3", "--trials", "10"],
], ids=["approx", "bench", "beat", "gen-spectrum", "gen-signal-noise", "moment"])
def test_negative_seed_is_one_error_line(capsys, tmp_path, bench_matrix, argv):
    argv = [a.format(m=bench_matrix, d=tmp_path) for a in argv] + ["--seed", "-1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err == "error: seed must be a non-negative integer, got -1\n"
    assert not list(tmp_path.glob("g.mtx")) and not list(tmp_path.glob("fa*"))


def test_bench_trials_past_one_spawn_word_is_one_error_line(capsys, bench_matrix):
    argv = ["bench", bench_matrix, "--rank", "2", "--oversample", "3", "--trials", str(2**32 + 1),
            "--seed", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: trials must be at most 2**32") and err.count("\n") == 1


def test_approx_seed_past_64_bits_keeps_numpys_stream(capsys, tmp_path, bench_matrix):
    prefix = str(tmp_path / "big")
    argv = ["approx", bench_matrix, "--rank", "2", "--oversample", "3", "--seed", str(2**70),
            "--out-prefix", prefix]
    assert run_cli(capsys, argv)[0] == 0
    # the sketch's Gaussian: numpy's standard_normal on the seed's Philox stream, column-major
    G = np.random.Generator(np.random.Philox(np.random.SeedSequence(2**70))).standard_normal((5, 16)).T
    fa = load_factored(prefix)
    assert fa.seed == 2**70
    assert np.array_equal(fa.basis, thin_qr(read_matrix(bench_matrix) @ G)[0])


def test_non_positive_workers_is_one_error_line(capsys, bench_matrix):
    argv = ["bench", bench_matrix, "--rank", "2", "--oversample", "3", "--trials", "4", "--seed", "1",
            "--workers", "0"]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "worker" in err


def test_beat_colsel(capsys, tmp_path):
    mat = tmp_path / "sn.mtx"
    code, _, _ = run_cli(
        capsys,
        ["gen", "signal-noise", "--dims", "50", "40", "--signal-rank", "4",
         "--noise-level", "0.05", "--seed", "6", "--out", str(mat)],
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["beat", str(mat), "--rank", "4", "--baseline", "colsel",
         "--trials", "60", "--seed", "13"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "bound-satisfied"
    assert data["config"]["baseline"] == "column-select"


def test_beat_svd_baseline_infeasible(capsys, tmp_path):
    mat = tmp_path / "sn2.mtx"
    run_cli(
        capsys,
        ["gen", "signal-noise", "--dims", "30", "25", "--signal-rank", "3",
         "--noise-level", "0.05", "--seed", "4", "--out", str(mat)],
    )
    code, out, _ = run_cli(
        capsys,
        ["beat", str(mat), "--rank", "3", "--baseline", "svd",
         "--trials", "30", "--seed", "2"],
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "not-applicable"


def test_beat_svd_baseline_report_is_strict_json(capsys, bench_matrix):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    code, out, _ = run_cli(
        capsys,
        ["beat", bench_matrix, "--rank", "3", "--baseline", "svd",
         "--trials", "10", "--seed", "2"],
    )
    assert code == 2
    data = json.loads(out, parse_constant=reject)
    assert data["verdict"] == "not-applicable"
    assert data["mean_error"] is None
    assert data["mean_squared_error"] is None
    assert data["std_error"] is None


def test_beat_svd_baseline_on_a_tiny_tail_exits_infeasible(capsys, tmp_path):
    # Five singular values of 1 and a 35-value tail at 3e-11: the truncated
    # SVD is the floor however small its tail, so no plan may claim to beat it.
    mat = tmp_path / "tiny_tail.mtx"
    values = ",".join(["1"] * 5 + ["3e-11"] * 35)
    code, _, _ = run_cli(
        capsys,
        ["gen", "spectrum", "--dims", "60", "40", "--values", values, "--seed", "3", "--out", str(mat)],
    )
    assert code == 0
    code, out, err = run_cli(
        capsys,
        ["beat", str(mat), "--rank", "5", "--baseline", "svd", "--trials", "20", "--seed", "7"],
    )
    assert code == 2 and err == ""
    data = json.loads(out)
    assert data["verdict"] == "not-applicable"
    assert data["config"]["plan"]["feasible"] is False
    assert data["config"]["plan"]["reason"] == "below Eckart-Young floor"


def test_beat_svd_baseline_in_literal_mode_exits_infeasible(capsys, tmp_path):
    # tau < 1 here, so the bound (1 + r/(s-1)) * tau falls below the plain
    # floor sqrt(tau) at s = 3; no rank-3 method has a plain error below it.
    mat = tmp_path / "sn.mtx"
    code, _, _ = run_cli(
        capsys,
        ["gen", "signal-noise", "--dims", "60", "40", "--signal-rank", "3",
         "--noise-level", "0.3", "--seed", "1", "--out", str(mat)],
    )
    assert code == 0
    code, out, err = run_cli(
        capsys,
        ["beat", str(mat), "--rank", "3", "--baseline", "svd", "--trials", "50",
         "--seed", "2", "--mode", "literal"],
    )
    assert code == 2 and err == ""
    data = json.loads(out)
    assert data["verdict"] == "not-applicable"
    assert data["config"]["tail_energy"] < 1.0
    assert data["epsilon"] == math.sqrt(data["config"]["tail_energy"])
    assert data["config"]["plan"]["reason"] == "below Eckart-Young floor"


@pytest.mark.parametrize("case", ["exact-rank", "full-rank"])
def test_beat_colsel_exact_to_rounding_exits_infeasible(capsys, tmp_path, case):
    # Column selection is exact to rounding on a rank-2 input at --rank 2,
    # and on any input at r = min(a, b).  Its error (1.6e-14 and 2.6e-15
    # here) is the floor, not a budget to plan against.
    if case == "exact-rank":
        rng = np.random.default_rng(3)
        F, rank = rng.standard_normal((40, 2)) @ rng.standard_normal((2, 30)), "2"
    else:
        F, rank = np.random.default_rng(0).standard_normal((8, 6)), "6"
    mat = tmp_path / "exact.csv"
    write_csv(mat, F)
    for mode in ("squared-consistent", "literal"):
        code, out, err = run_cli(
            capsys,
            ["beat", str(mat), "--rank", rank, "--baseline", "colsel", "--trials", "20",
             "--seed", "1", "--mode", mode],
        )
        assert code == 2 and err == ""
        data = json.loads(out)
        assert data["verdict"] == "not-applicable" and data["per_trial_errors"] == []
        assert data["config"]["plan"]["reason"] == "below Eckart-Young floor"
        assert 0.0 < data["config"]["baseline_error"] < 1e-13
        assert data["epsilon"] == data["config"]["tail_energy"] == 0.0


def test_gen_spectrum_file(capsys, tmp_path):
    out_path = tmp_path / "gen.mtx"
    code, out, _ = run_cli(
        capsys,
        ["gen", "spectrum", "--dims", "12", "10", "--values", "4,2,1",
         "--seed", "3", "--out", str(out_path)],
    )
    assert code == 0
    M = read_matrix(out_path)
    assert M.shape == (12, 10)
    data = json.loads(out)
    assert data["generator"]["spectrum"] == [4.0, 2.0, 1.0]
    # regenerate: identical file contents
    out2_path = tmp_path / "gen2.mtx"
    run_cli(
        capsys,
        ["gen", "spectrum", "--dims", "12", "10", "--values", "4,2,1",
         "--seed", "3", "--out", str(out2_path)],
    )
    assert out_path.read_text() == out2_path.read_text()


def test_gen_spectrum_bad_values_error_names_the_flag(capsys, tmp_path):
    out_path = tmp_path / "g.mtx"
    code, out, err = run_cli(
        capsys,
        ["gen", "spectrum", "--dims", "6", "5", "--values", "1,,2",
         "--seed", "8", "--out", str(out_path)],
    )
    assert code == 1 and out == ""
    assert err == "error: --values: could not convert string to float: ''\n"
    assert not out_path.exists()


def test_gen_csv_extension(capsys, tmp_path):
    out_path = tmp_path / "gen.csv"
    code, _, _ = run_cli(
        capsys,
        ["gen", "spectrum", "--dims", "6", "5", "--values", "1",
         "--seed", "8", "--out", str(out_path)],
    )
    assert code == 0
    assert read_matrix(out_path).shape == (6, 5)


def unwritable(tmp_path, case, suffix=".mtx"):
    """An output path that cannot be written: in a missing directory, a
    directory itself, or a symlink to /dev/full, where every write fails."""
    if case == "missing-dir":
        return tmp_path / "missing" / f"out{suffix}"
    path = tmp_path / f"out{suffix}"
    if case == "directory":
        path.mkdir()
    else:
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        path.symlink_to("/dev/full")
    return path


def assert_write_error(code, out, err, path):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err


@pytest.mark.parametrize(
    "case, suffix",
    [("missing-dir", ".mtx"), ("directory", ".mtx"), ("full", ".mtx"), ("full", ".csv")],
)
def test_gen_write_error_is_one_error_line_naming_the_file(capsys, tmp_path, case, suffix):
    path = unwritable(tmp_path, case, suffix)
    code, out, err = run_cli(
        capsys,
        ["gen", "spectrum", "--dims", "6", "5", "--values", "1", "--seed", "8", "--out", str(path)],
    )
    assert_write_error(code, out, err, path)
    if case == "full":
        assert err == f"error: {path}: [Errno 28] No space left on device\n"
    assert not os.path.exists(f"{path}.mtx")  # written under no other name


@pytest.mark.parametrize(
    "case, suffix", [("missing-dir", "_H.mtx"), ("full", ".json")], ids=["missing-dir", "full-sidecar"]
)
def test_approx_write_error_is_one_error_line_naming_the_file(capsys, tmp_path, bench_matrix, case, suffix):
    path = unwritable(tmp_path, case, suffix)
    prefix = str(path)[: -len(suffix)]
    code, out, err = run_cli(
        capsys,
        ["approx", bench_matrix, "--rank", "3", "--oversample", "2", "--seed", "7",
         "--out-prefix", prefix],
    )
    assert_write_error(code, out, err, path)
    if case == "full":
        assert err == f"error: {path}: [Errno 28] No space left on device\n"


def test_moment_command(capsys):
    code, out, _ = run_cli(capsys, ["moment", "--r", "2", "--s", "6",
                                    "--trials", "400", "--seed", "11"])
    assert code == 0
    data = json.loads(out)
    assert data["expected"] == pytest.approx(2 / 5)
    assert data["passed"] is True


def test_bench_snapped_tail_still_counts_in_the_verdict(capsys, tmp_path):
    # A 5e-12 noise tail (~2.4e-23 squared) sits under the rank cutoff, so
    # tail_energy reads 0, yet the trials' squared errors still carry it.
    mat = str(tmp_path / "dust.mtx")
    code, _, _ = run_cli(
        capsys,
        ["gen", "signal-noise", "--dims", "100", "100", "--signal-rank", "2",
         "--noise-level", "5e-12", "--seed", "0", "--out", mat],
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys,
        ["bench", mat, "--rank", "2", "--oversample", "3", "--trials", "20", "--seed", "7"],
    )
    assert code == 0
    data = json.loads(out)
    assert data["config"]["tail_energy"] == 0.0
    assert data["mean_squared_error"] > 1e-23
    assert data["verdict"] == "bound-satisfied"


def test_overflowing_input_is_one_error_line(capsys, tmp_path):
    path = str(tmp_path / "huge.mtx")
    write_matrix_market(path, 1e160 * np.random.default_rng(3).standard_normal((20, 15)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
        for argv in (["plan", path, "--rank", "2", "--epsilon", "1e300"],
                     ["bench", path, "--rank", "2", "--oversample", "3", "--trials", "3", "--seed", "1"],
                     ["beat", path, "--rank", "2", "--baseline", "colsel", "--trials", "3", "--seed", "1"],
                     ["beat", path, "--rank", "2", "--baseline", "svd", "--trials", "3", "--seed", "1"]):
            code, out, err = run_cli(capsys, argv)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "overflows float64" in err
        code, out, _ = run_cli(capsys, ["spectrum", path])
    assert code == 0
    assert json.loads(out)["values"][0] > 1e160


@pytest.mark.parametrize("scale", [1e80, 1e-100])
def test_bench_std_error_scales_with_input_squared(capsys, tmp_path, scale):
    # The squared errors' deviations, squared again, leave float64 range at these scales.
    G = np.random.default_rng(3).standard_normal((20, 15))
    std_error = {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for c in (1.0, scale):
            path = str(tmp_path / f"g{c:g}.mtx")
            write_matrix_market(path, c * G)
            code, out, _ = run_cli(
                capsys, ["bench", path, "--rank", "2", "--oversample", "3", "--trials", "5", "--seed", "1"]
            )
            assert code == 0
            std_error[c] = json.loads(out)["std_error"]
    assert math.isfinite(std_error[scale]) and std_error[scale] > 0.0
    assert std_error[scale] / scale**2 == pytest.approx(std_error[1.0], rel=1e-12)


def test_bench_overflowing_squared_norm_is_one_error_line(capsys, tmp_path):
    # Rank 1 at 1e167: the dust tail's energy is finite, the squared norm is not.
    rng = np.random.default_rng(4)
    path = str(tmp_path / "rank1.mtx")
    write_matrix_market(path, 1e167 * np.outer(rng.standard_normal(20), rng.standard_normal(15)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, ["bench", path, "--rank", "1", "--oversample", "3", "--trials", "5", "--seed", "1"]
        )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows float64" in err


@pytest.fixture
def rank1_overflow_matrix(tmp_path):
    """Rank 1 at 1e167: the squared norm overflows, the (dust) tail energy does not."""
    rng = np.random.default_rng(4)
    path = str(tmp_path / "rank1.mtx")
    write_matrix_market(path, 1e167 * np.outer(rng.standard_normal(20), rng.standard_normal(15)))
    return path


def test_beat_overflowing_squared_norm_is_one_error_line(capsys, rank1_overflow_matrix):
    # Column selection's column norms would overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            ["beat", rank1_overflow_matrix, "--rank", "2", "--baseline", "colsel", "--trials", "3", "--seed", "1"],
        )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "overflows float64" in err


def test_beat_svd_runs_where_only_the_squared_norm_overflows(capsys, rank1_overflow_matrix):
    # The SVD baseline squares no column norm, so the overflow guard of
    # column selection must not reject this input.  Its snapped tail
    # energy is 0, the floor, so the report is the infeasible plan.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            ["beat", rank1_overflow_matrix, "--rank", "2", "--baseline", "svd", "--trials", "3", "--seed", "1"],
        )
    assert code == 2 and err == ""
    data = json.loads(out)
    assert data["config"]["baseline"] == "truncated-svd"
    assert data["config"]["tail_energy"] == 0.0 and data["config"]["baseline_error"] == 0.0
    assert data["verdict"] == "not-applicable"


def test_plan_infinite_epsilon_is_rejected_before_reading(capsys, tmp_path, diag_csv):
    for path in (diag_csv, str(tmp_path / "missing.csv")):
        code, out, err = run_cli(capsys, ["plan", path, "--rank", "1", "--epsilon", "inf"])
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err


def test_complex_matrix_market_file_is_one_error_line(capsys, tmp_path):
    # a float64 cast would keep the real part's spectrum, with only numpy's ComplexWarning
    path = tmp_path / "c.mtx"
    path.write_text("%%MatrixMarket matrix array complex general\n2 2\n1 2\n3 0\n0.5 1\n2 -1\n")
    code, out, err = run_cli(capsys, ["spectrum", str(path)])
    assert code == 1 and out == ""
    assert err == f"error: {path} has complex entries; randlr handles real matrices only\n"


MALFORMED_FILES = {
    "int-past-int64-array": ("m.mtx", b"%%MatrixMarket matrix array integer general\n2 1\n99999999999999999999\n1\n"),
    "int-past-int64-coordinate": (
        "m.mtx", b"%%MatrixMarket matrix coordinate integer general\n2 2 1\n1 1 99999999999999999999\n"
    ),
    "truncated": ("m.mtx", b"%%MatrixMarket matrix array real general\n2 3\n1\n2\n"),
    "mm-non-numeric": ("m.mtx", b"%%MatrixMarket matrix array real general\n2 1\nabc\n1\n"),
    "csv-non-numeric": ("m.csv", b"1,2\nabc,3\n"),
    "csv-non-utf8": ("m.csv", b"1,2\n\xff\xfe,3\n"),
    "sniffed-non-utf8": ("m.dat", b"1,2\n\xff\xfe,3\n"),
}


@pytest.mark.parametrize("name", list(MALFORMED_FILES))
def test_malformed_matrix_file_is_one_error_line_naming_it(capsys, tmp_path, name):
    filename, content = MALFORMED_FILES[name]
    path = tmp_path / filename
    path.write_bytes(content)
    code, out, err = run_cli(capsys, ["spectrum", str(path)])
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_malformed_matrix_file_prints_no_traceback(tmp_path):
    # scipy raises OverflowError here, which main once let through as a traceback
    filename, content = MALFORMED_FILES["int-past-int64-array"]
    path = tmp_path / filename
    path.write_bytes(content)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "randlr.cli", "spectrum", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: {path}: Line 3: Integer out of range.\n"


BLAS_THREAD_RUNS = {
    # A BLAS dot product splits its sum across threads: as the residual's
    # norm, it once moved this input's baseline_error and epsilon by an ulp
    "beat-200x200": (GeneratorSpec(dims=(200, 200), kind=KIND_PRESCRIBED, spectrum=tuple(1.0 / np.arange(1, 201)),
                                   seed=1), ["beat", "--rank", "10", "--baseline", "colsel"]),
    # reduced to its 40x40 R factor; each group of 45 trials is one sketch product,
    # large enough for BLAS to share it among threads
    "bench-600x40": (GeneratorSpec(dims=(600, 40), kind=KIND_SIGNAL_NOISE, signal_rank=8, noise_level=0.05, seed=2),
                     ["bench", "--rank", "8", "--oversample", "10"]),
}


@pytest.mark.parametrize("name", list(BLAS_THREAD_RUNS))
def test_beat_prints_the_same_bytes_at_one_and_two_blas_threads(tmp_path, name):
    spec, command = BLAS_THREAD_RUNS[name]
    path = tmp_path / "F.csv"
    write_csv(path, generate(spec))
    argv = [sys.executable, "-m", "randlr.cli", command[0], str(path), *command[1:], "--trials", "200", "--seed", "11"]

    def run(threads):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
                   OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    assert run(1) == run(2)


def test_import_cli_loads_neither_scipy_nor_a_thread_pool():
    # scipy is only for Matrix Market files and concurrent.futures only for a
    # pool of workers; a fresh interpreter pays for neither at import
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    script = "import sys, randlr.cli\nprint([m for m in ('scipy', 'concurrent.futures') if m in sys.modules])\n"
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("exc,line", [
    (MemoryError("Unable to allocate 7.45 GiB"), "error: Unable to allocate 7.45 GiB\n"),
    (MemoryError(), "error: MemoryError\n"),
    (OverflowError("int too large to convert to float"), "error: int too large to convert to float\n"),
], ids=["memory", "bare-memory", "overflow"])
def test_memory_and_overflow_errors_are_one_error_line(capsys, monkeypatch, exc, line):
    # a huge moment draw raises MemoryError; patched in, so that no test allocates
    def failing(*args):
        raise exc

    monkeypatch.setattr(cli, "verify_gaussian_pinv_moment", failing)
    code, out, err = run_cli(capsys, ["moment", "--r", "1", "--s", "2", "--trials", "2", "--seed", "1"])
    assert code == 1 and out == "" and err == line


def test_oversized_moment_draw_is_one_error_line(capsys, monkeypatch):
    # one 1 x 1000000001 draw would be an 8 GB Gaussian; it is refused before any draw
    def no_draw(*_, **__):
        raise AssertionError("drew before validation")

    monkeypatch.setattr("randlr.experiments.keyed_gaussian_matrices", no_draw)
    code, out, err = run_cli(capsys, ["moment", "--r", "1", "--s", "1000000000", "--trials", "2", "--seed", "1"])
    assert code == 1 and out == ""
    assert err == "error: one 1x1000000001 draw has 1000000001 entries, more than 2**27\n"


def test_missing_file_is_error(capsys):
    code, _, err = run_cli(capsys, ["spectrum", "/nonexistent/file.mtx"])
    assert code == 1
    assert "error:" in err


def test_bad_arguments_are_errors(capsys, diag_csv):
    code, _, err = run_cli(
        capsys, ["approx", diag_csv, "--rank", "9", "--oversample", "2",
                 "--seed", "1", "--out-prefix", "/tmp/x"]
    )
    assert code == 1
    assert "error:" in err


def test_usage_error_is_exit_one_not_two(capsys, diag_csv):
    # exit code 2 is reserved for infeasible plans
    code, _, _ = run_cli(capsys, ["spectrum", diag_csv, "--bogus-flag"])
    assert code == 1
    code, _, _ = run_cli(capsys, ["--help"])
    assert code == 0


def test_main_calls_in_one_process_match_calls_alone(capsys, diag_csv, bench_matrix):
    # main builds its parser once per process; no parse may leak into the next
    bench = ["bench", bench_matrix, "--rank", "2", "--oversample", "3", "--trials", "4", "--seed", "5"]
    calls = [
        ["plan", diag_csv, "--rank", "1", "--epsilon", "3", "--mode", "literal"],
        ["plan", diag_csv, "--rank", "1", "--epsilon", "3"],  # --mode left at its default
        bench + ["--mode", "literal", "--workers", "2"],
        ["approx", diag_csv, "--rank", "1"],  # usage error: required options missing
        bench,
        ["spectrum", diag_csv, "--bogus-flag"],
        ["moment", "--r", "2", "--s", "3", "--trials", "20", "--seed", "1"],
        ["plan", diag_csv, "--rank", "1", "--epsilon", "3"],
    ]
    alone = []
    for argv in calls:
        cli._build_parser.cache_clear()
        alone.append(run_cli(capsys, argv))
    cli._build_parser.cache_clear()
    together = [run_cli(capsys, argv) for argv in calls]
    assert together == alone
    assert cli._build_parser.cache_info().misses == 1
    assert [code for code, _, _ in alone] == [2, 2, 0, 1, 0, 1, 0, 2]
    assert alone[0][1] != alone[1][1] and alone[2][1] != alone[4][1]


# --- the JSON schema of every report ------------------------------------------


def key_tree(data):
    """The keys of a JSON object, nested objects as sub-trees, other values as None."""
    return {k: key_tree(v) if isinstance(v, dict) else None for k, v in data.items()}


def keys(*names, **nested):
    return {**dict.fromkeys(names), **nested}


PLAN_KEYS = keys("schema_version", "r", "s", "tau", "epsilon", "bound", "mode", "fallback",
                 "feasible", "strictness_bumped", "reason")
TRIAL_KEYS = ("schema_version", "per_trial_errors", "mean_error", "mean_squared_error",
              "std_error", "bound", "epsilon", "fraction_below_epsilon", "verdict")
CONFIG_KEYS = ("kind", "dims", "rank", "trials", "master_seed", "mode", "seed_mix", "tail_energy")
BEAT_KEYS = (*CONFIG_KEYS, "baseline", "baseline_error")
GENERATOR_KEYS = keys("dims", "kind", "spectrum", "signal_rank", "noise_level", "seed")

REPORT_SCHEMAS = {
    "spectrum": (["spectrum", "{mat}"], 0, keys("schema_version", "values", "source_dims")),
    "plan": (["plan", "{mat}", "--rank", "3", "--epsilon", "1e6"], 0, PLAN_KEYS),
    "approx": (
        ["approx", "{mat}", "--rank", "3", "--oversample", "2", "--seed", "1", "--out-prefix", "{tmp}/fa"],
        0,
        keys("schema_version", "written", "method", "basis_shape", "coeffs_shape"),
    ),
    "bench": (
        ["bench", "{mat}", "--rank", "3", "--oversample", "2", "--trials", "4", "--seed", "1"],
        0,
        keys(*TRIAL_KEYS, config=keys(*CONFIG_KEYS, "oversampling", "fallback")),
    ),
    "beat-feasible": (
        ["beat", "{mat}", "--rank", "3", "--baseline", "colsel", "--trials", "4", "--seed", "1"],
        0,
        keys(*TRIAL_KEYS, config=keys(*BEAT_KEYS, "oversampling", plan=PLAN_KEYS)),
    ),
    "beat-infeasible": (
        ["beat", "{mat}", "--rank", "3", "--baseline", "svd", "--trials", "4", "--seed", "1"],
        2,
        keys(*TRIAL_KEYS, config=keys(*BEAT_KEYS, "trials_requested", plan=PLAN_KEYS)),
    ),
    "gen-spectrum": (
        ["gen", "spectrum", "--dims", "6", "5", "--values", "3,2,1", "--seed", "1", "--out", "{tmp}/g.mtx"],
        0,
        keys("schema_version", "written", generator=GENERATOR_KEYS),
    ),
    "gen-signal-noise": (
        ["gen", "signal-noise", "--dims", "6", "5", "--signal-rank", "2", "--noise-level", "0.1",
         "--seed", "1", "--out", "{tmp}/g.mtx"],
        0,
        keys("schema_version", "written", generator=GENERATOR_KEYS),
    ),
    "moment": (
        ["moment", "--r", "2", "--s", "3", "--trials", "4", "--seed", "1"],
        0,
        keys("schema_version", "rank", "oversampling", "trials", "master_seed", "estimate",
             "std_error", "expected", "passed"),
    ),
}


@pytest.mark.parametrize("name", list(REPORT_SCHEMAS))
def test_report_key_sets_are_pinned(capsys, tmp_path, bench_matrix, name):
    argv, exit_code, schema = REPORT_SCHEMAS[name]
    code, out, err = run_cli(capsys, [a.format(mat=bench_matrix, tmp=tmp_path) for a in argv])
    assert (code, err) == (exit_code, "")
    assert key_tree(json.loads(out)) == schema
