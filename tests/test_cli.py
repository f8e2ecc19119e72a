"""CLI surface tests: subcommands, JSON contracts, exit codes."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from randlr import cli
from randlr.cli import main
from randlr.core import thin_qr
from randlr.experiments import CHUNK_ENTRIES
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
    ],
    ids=["no-source-dims", "json-list", "scalar-dims", "one-dim"],
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


def test_gen_csv_extension(capsys, tmp_path):
    out_path = tmp_path / "gen.csv"
    code, _, _ = run_cli(
        capsys,
        ["gen", "spectrum", "--dims", "6", "5", "--values", "1",
         "--seed", "8", "--out", str(out_path)],
    )
    assert code == 0
    assert read_matrix(out_path).shape == (6, 5)


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
    # The truncated SVD never squares a column norm, so the overflow guard
    # of column selection must not reject this input.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys,
            ["beat", rank1_overflow_matrix, "--rank", "2", "--baseline", "svd", "--trials", "3", "--seed", "1"],
        )
    assert code == 0 and err == ""
    assert json.loads(out)["config"]["baseline"] == "truncated-svd"


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
