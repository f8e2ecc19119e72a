"""Tests for the deterministic baselines."""

import numpy as np
import pytest

from randlr.baselines import column_select, truncated_svd
from randlr.core import frobenius_norm, singular_values, thin_qr
from randlr.planner import tail_energy
from randlr.rangefinder import METHOD_COLUMN_SELECT, METHOD_TRUNCATED_SVD, approximation_error


def test_truncated_svd_on_diagonal():
    F = np.diag([3.0, 2.0, 1.0])
    fa = truncated_svd(F, 2)
    assert fa.method == METHOD_TRUNCATED_SVD
    assert fa.basis.shape == (3, 2)
    assert approximation_error(F, fa) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_truncated_svd_full_rank_is_exact():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((8, 6))
    fa = truncated_svd(F, 6)
    assert approximation_error(F, fa) <= 1e-9 * frobenius_norm(F)


def test_truncated_svd_achieves_tail_energy():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((20, 15))
    spec = singular_values(F)
    fa = truncated_svd(F, 5)
    assert approximation_error(F, fa) ** 2 == pytest.approx(tail_energy(spec, 5), rel=1e-8)


def test_truncated_svd_rank_bounds():
    F = np.eye(4)
    with pytest.raises(ValueError):
        truncated_svd(F, 0)
    with pytest.raises(ValueError):
        truncated_svd(F, 5)


def test_truncated_svd_deterministic():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((9, 9))
    a = truncated_svd(F, 3)
    b = truncated_svd(F, 3)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.coeffs, b.coeffs)
    assert a.seed is None


def test_column_select_on_diagonal():
    # greedy picks the two largest-norm columns, leaving sigma_3 = 1 behind
    F = np.diag([3.0, 2.0, 1.0])
    fa = column_select(F, 2)
    assert fa.method == METHOD_COLUMN_SELECT
    assert approximation_error(F, fa) ** 2 == pytest.approx(1.0, rel=1e-12)


def test_column_select_rank_one():
    rng = np.random.default_rng(4)
    F = np.outer(rng.standard_normal(10), rng.standard_normal(7))
    fa = column_select(F, 1)
    assert approximation_error(F, fa) <= 1e-9 * frobenius_norm(F)


def test_column_select_never_beats_svd():
    rng = np.random.default_rng(5)
    for trial in range(10):
        F = rng.standard_normal((12, 10))
        r = int(rng.integers(1, 8))
        err_greedy = approximation_error(F, column_select(F, r))
        err_svd = approximation_error(F, truncated_svd(F, r))
        assert err_greedy >= err_svd - 1e-10


def test_column_select_handles_duplicate_columns():
    # the duplicate of an already-picked column is deflated to zero and
    # cannot be picked again
    F = np.array(
        [
            [2.0, 0.0, 2.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    fa = column_select(F, 2)
    assert approximation_error(F, fa) <= 1e-12


def test_column_select_deterministic():
    rng = np.random.default_rng(6)
    F = rng.standard_normal((10, 10))
    a = column_select(F, 4)
    b = column_select(F, 4)
    assert np.array_equal(a.basis, b.basis)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_column_select_rank_bounds():
    with pytest.raises(ValueError):
        column_select(np.eye(3), 0)
    with pytest.raises(ValueError):
        column_select(np.eye(3), 4)


def test_baselines_have_no_oversampling():
    F = np.diag([5.0, 3.0, 2.0, 1.0])
    assert truncated_svd(F, 2).oversampling == 0
    assert column_select(F, 2).oversampling == 0


def test_column_select_overflowing_column_norm_is_value_error():
    # An infinite column norm would zero the pick's direction and skip its
    # deflation without a word.
    F = np.zeros((4, 3))
    F[:, 0] = 1e160
    F[0, 1] = 1.0
    with np.errstate(all="raise"), pytest.raises(ValueError, match="overflows float64"):
        column_select(F, 2)


def column_select_with_outer(F, r):
    """column_select's picks and basis as computed before its deflation buffer."""
    resid = np.array(F, dtype=np.float64)
    picked = []
    for _ in range(r):
        norms = np.einsum("ij,ij->j", resid, resid)
        norms[picked] = -1.0
        j = int(np.argmax(norms))
        picked.append(j)
        nrm = np.linalg.norm(resid[:, j])
        if nrm > 0.0:
            q = resid[:, j] / nrm
            resid -= np.outer(q, q @ resid)
    return thin_qr(F[:, picked])[0]


@pytest.mark.parametrize("a,b,r", [(3000, 40, 8), (60, 40, 3), (30, 50, 12)])
def test_column_select_deflation_buffer_changes_no_bit(a, b, r):
    rng = np.random.default_rng(a + b + r)
    F = rng.standard_normal((a, r)) @ rng.standard_normal((r, b)) + 0.1 * rng.standard_normal((a, b))
    assert np.array_equal(column_select(F, r).basis, column_select_with_outer(F, r))
