"""Tests for the sketch -> basis -> factored-form pipeline."""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import randlr.rangefinder
from randlr.core import derive_seed, frobenius_norm, gaussian_matrix, singular_values, thin_qr
from randlr.planner import tail_energy
from randlr.rangefinder import (
    METHOD_EXACT_FALLBACK,
    METHOD_RANDOMIZED,
    FactoredApproximation,
    approximation_error,
    factorize,
    load_factored,
    save_factored,
    sketch,
)


def rank_r_matrix(a, b, r, seed):
    """Sum of r outer products of seeded Gaussian vectors."""
    rng = np.random.default_rng(seed)
    return sum(np.outer(rng.standard_normal(a), rng.standard_normal(b)) for _ in range(r))


# --- sketch ------------------------------------------------------------------


def test_sketch_of_zero_is_zero():
    Y = sketch(np.zeros((9, 6)), 4, 123)
    assert np.array_equal(Y, np.zeros((9, 4)))


def test_sketch_deterministic_and_shaped():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((10, 7))
    Y1 = sketch(F, 5, 99)
    Y2 = sketch(F, 5, 99)
    assert np.array_equal(Y1, Y2)
    assert Y1.shape == (10, 5)
    assert not np.array_equal(Y1, sketch(F, 5, 100))


def test_sketch_of_rank_one_is_collinear():
    rng = np.random.default_rng(8)
    u = rng.standard_normal(12)
    v = rng.standard_normal(9)
    Y = sketch(np.outer(u, v), 4, 7)
    u_hat = u / np.linalg.norm(u)
    # every column must lie along u: zero residual after projecting out u
    resid = Y - np.outer(u_hat, u_hat @ Y)
    assert frobenius_norm(resid) <= 1e-10 * frobenius_norm(Y)


def test_sketch_rejects_zero_width():
    with pytest.raises(ValueError):
        sketch(np.eye(3), 0, 1)


# --- factorize -------------------------------------------------------------------


def test_factorize_shapes_and_method():
    rng = np.random.default_rng(4)
    F = rng.standard_normal((25, 18))
    fa = factorize(F, 4, 3, 11)
    assert fa.basis.shape == (25, 7)  # a x (r+s)
    assert fa.coeffs.shape == (7, 18)  # (r+s) x b
    assert fa.method == METHOD_RANDOMIZED
    assert fa.target_rank == 4 and fa.oversampling == 3 and fa.seed == 11


def test_factorize_exact_rank_recovery():
    F = rank_r_matrix(30, 22, 4, seed=5)
    fa = factorize(F, 4, 2, 77)
    assert approximation_error(F, fa) <= 1e-8 * frobenius_norm(F)


def test_factorize_zero_matrix():
    F = np.zeros((12, 9))
    assert approximation_error(F, factorize(F, 2, 2, 3)) == 0.0


def test_factorize_deterministic():
    rng = np.random.default_rng(99)
    F = rng.standard_normal((20, 16))
    fa1 = factorize(F, 3, 4, 1234)
    fa2 = factorize(F, 3, 4, 1234)
    assert np.array_equal(fa1.basis, fa2.basis)
    assert np.array_equal(fa1.coeffs, fa2.coeffs)


def test_factorize_exact_fallback():
    rng = np.random.default_rng(42)
    F = rng.standard_normal((10, 8))
    fa = factorize(F, 6, 2, 9)  # 6 + 2 >= min(10, 8)
    assert fa.method == METHOD_EXACT_FALLBACK
    assert fa.basis.shape[1] == 8
    assert approximation_error(F, fa) <= 1e-9 * frobenius_norm(F)


def test_factorize_validates_arguments():
    F = np.zeros((6, 5))
    with pytest.raises(ValueError):
        factorize(F, 0, 2, 1)
    with pytest.raises(ValueError):
        factorize(F, 6, 2, 1)  # r > min(a, b)
    with pytest.raises(ValueError):
        factorize(F, 2, 1, 1)  # s < 2


def test_factorize_rejects_negative_seed_before_decomposing(monkeypatch):
    def no_work(*_):
        raise AssertionError("F decomposed before validation")

    monkeypatch.setattr(randlr.rangefinder, "svd_factors", no_work)
    monkeypatch.setattr(randlr.rangefinder, "sketch", no_work)
    for s in (2, 5):  # the sketched path and the exact fallback
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            factorize(np.eye(6), 1, s, -1)


def test_factorize_basis_always_orthonormal():
    rng = np.random.default_rng(7)
    for seed in range(5):
        F = rng.standard_normal((24, 20))
        fa = factorize(F, 5, 3, seed)
        assert frobenius_norm(fa.basis.T @ fa.basis - np.eye(fa.width)) <= 1e-10


# --- approximation_error -----------------------------------------------------------


def test_error_zero_when_exactly_factored():
    rng = np.random.default_rng(50)
    F = rng.standard_normal((14, 10))
    H = thin_qr(F)[0]  # spans the full range
    fa = FactoredApproximation(H, H.T @ F, target_rank=5, oversampling=5, seed=0, method="randomized")
    assert approximation_error(F, fa) <= 1e-12 * frobenius_norm(F)


def test_error_with_zero_coeffs_is_norm():
    rng = np.random.default_rng(51)
    F = rng.standard_normal((9, 7))
    H = np.eye(9, 4)
    fa = FactoredApproximation(H, np.zeros((4, 7)), target_rank=2, oversampling=2, seed=0, method="randomized")
    assert approximation_error(F, fa) == pytest.approx(frobenius_norm(F), rel=1e-14)


def test_error_matches_elementwise_oracle():
    rng = np.random.default_rng(52)
    F = rng.standard_normal((11, 8))
    fa = factorize(F, 3, 2, 6)
    diff = F - fa.basis @ fa.coeffs
    manual = math.sqrt(sum(float(x) ** 2 for x in diff.ravel()))
    assert approximation_error(F, fa) == pytest.approx(manual, rel=1e-12, abs=1e-15)


def test_error_rejects_dimension_mismatch():
    fa = factorize(np.zeros((8, 6)), 2, 2, 1)
    with pytest.raises(ValueError):
        approximation_error(np.zeros((9, 6)), fa)


# --- FactoredApproximation invariants ------------------------------------------------


def test_non_orthonormal_basis_rejected():
    with pytest.raises(ValueError):
        FactoredApproximation(
            basis=np.ones((4, 2)),
            coeffs=np.zeros((2, 3)),
            target_rank=1,
            oversampling=1,
            seed=None,
            method="randomized",
        )


def test_mismatched_factor_shapes_rejected():
    with pytest.raises(ValueError):
        FactoredApproximation(
            basis=np.eye(4, 2),
            coeffs=np.zeros((3, 3)),
            target_rank=1,
            oversampling=1,
            seed=None,
            method="randomized",
        )


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        FactoredApproximation(
            basis=np.eye(4, 2),
            coeffs=np.zeros((2, 3)),
            target_rank=1,
            oversampling=1,
            seed=None,
            method="magic",
        )


# --- serialization -------------------------------------------------------------------


def test_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(60)
    F = rng.standard_normal((16, 12))
    fa = factorize(F, 3, 3, 321)
    prefix = tmp_path / "approx"
    paths = save_factored(prefix, fa)
    assert [p.endswith(suffix) for p, suffix in zip(paths, ("_H.mtx", "_T.mtx", ".json"))]
    back = load_factored(prefix)
    assert np.array_equal(back.basis, fa.basis)
    assert np.array_equal(back.coeffs, fa.coeffs)
    assert back.target_rank == fa.target_rank
    assert back.oversampling == fa.oversampling
    assert back.seed == fa.seed
    assert back.method == fa.method


def test_load_rejects_unknown_schema_version(tmp_path):
    prefix = tmp_path / "approx"
    save_factored(prefix, factorize(np.random.default_rng(61).standard_normal((16, 12)), 3, 3, 5))
    sidecar = tmp_path / "approx.json"
    sidecar.write_text(sidecar.read_text().replace('"schema_version": 1', '"schema_version": 2'))
    with pytest.raises(ValueError, match="schema_version"):
        load_factored(prefix)


def test_save_load_roundtrip_of_numpy_integer_arguments(tmp_path):
    # factorize kept np.int64 fields, so save_factored wrote both matrices and
    # then raised inside the sidecar, leaving it cut off after "target_rank":
    F = np.random.default_rng(60).standard_normal((16, 12))
    fa = factorize(F, np.int64(3), np.int32(3), np.uint64(321))
    assert [type(v) for v in (fa.target_rank, fa.oversampling, fa.seed)] == [int, int, int]
    save_factored(tmp_path / "approx", fa)
    back = load_factored(tmp_path / "approx")
    assert (back.target_rank, back.oversampling, back.seed, back.method) == (3, 3, 321, METHOD_RANDOMIZED)
    assert np.array_equal(back.basis, factorize(F, 3, 3, 321).basis)
    # metadata that JSON cannot hold is an error before any file is written
    with pytest.raises(TypeError):
        save_factored(tmp_path / "held", replace(fa, target_rank=np.int64(3)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["approx.json", "approx_H.mtx", "approx_T.mtx"]


# name -> the edited sidecar; int() read "oversampling": 2.5 as 2 and "target_rank": true as 1
BAD_SIDECARS = {
    "float-oversampling": lambda d: {**d, "oversampling": 2.5},
    "bool-rank": lambda d: {**d, "target_rank": True},
    "string-seed": lambda d: {**d, "seed": "x"},
    "zero-rank": lambda d: {**d, "target_rank": 0},
    "negative-oversampling": lambda d: {**d, "oversampling": -1},
    "unknown-method": lambda d: {**d, "method": "magic"},
    "missing-key": lambda d: {k: v for k, v in d.items() if k != "oversampling"},
    "not-an-object": lambda d: [d],
    "not-json": lambda d: "{",
}


@pytest.mark.parametrize("edit", BAD_SIDECARS.values(), ids=BAD_SIDECARS.keys())
def test_load_rejects_a_bad_sidecar_naming_it(tmp_path, edit):
    prefix = tmp_path / "approx"
    save_factored(prefix, factorize(np.random.default_rng(61).standard_normal((16, 12)), 3, 3, 5))
    sidecar = tmp_path / "approx.json"
    edited = edit(json.loads(sidecar.read_text()))
    sidecar.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    with pytest.raises(ValueError, match=re.escape(str(sidecar))):
        load_factored(prefix)


# --- statistical invariants -----------------------------------------------------------


def test_never_beats_eckart_young_floor():
    rng = np.random.default_rng(70)
    F = rng.standard_normal((20, 15))
    spec = singular_values(F)
    for r, s, seed in [(2, 2, 0), (3, 4, 1), (5, 3, 2)]:
        err = approximation_error(F, factorize(F, r, s, seed))
        floor = math.sqrt(tail_energy(spec, r + s))
        assert err >= floor - 1e-8 * frobenius_norm(F)


def test_error_non_increasing_in_oversampling():
    """Mean error at s+5 should not exceed mean error at s by more than noise."""
    vals = tuple(0.6**i for i in range(1, 16))
    left = gaussian_matrix(40, 15, derive_seed(1000, 0))
    right = gaussian_matrix(30, 15, derive_seed(1000, 1))
    F = (thin_qr(left)[0] * vals) @ thin_qr(right)[0].T
    r, s, trials = 4, 3, 200

    def mean_and_se(s_val):
        errs = np.array(
            [
                approximation_error(F, factorize(F, r, s_val, derive_seed(7, i)))
                for i in range(trials)
            ]
        )
        return errs.mean(), errs.std(ddof=1) / math.sqrt(trials)

    mean_lo, se_lo = mean_and_se(s)
    mean_hi, _ = mean_and_se(s + 5)
    assert mean_hi <= mean_lo + 2 * se_lo
