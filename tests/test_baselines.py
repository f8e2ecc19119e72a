"""Tests for the deterministic baselines: column selection, and the truncated
SVD that ``beat`` takes at the optimal-error floor."""

import numpy as np
import pytest

import randlr.experiments
from randlr.baselines import _greedy_picks, column_select
from randlr.core import RANK_TOL, _tall_r_factor, frobenius_norm, singular_values, thin_qr
from randlr.experiments import beat_baseline_experiment
from randlr.planner import MODES, tail_energy
from randlr.rangefinder import METHOD_COLUMN_SELECT, METHOD_TRUNCATED_SVD, approximation_error



# --- the truncated SVD: ``beat`` takes its error as sqrt(tau) ----------------


def svd_baseline(F, r, master_seed=1, **kwargs):
    return beat_baseline_experiment(F, r, METHOD_TRUNCATED_SVD, 10, master_seed, **kwargs)


def test_truncated_svd_on_diagonal():
    rep = svd_baseline(np.diag([3.0, 2.0, 1.0]), 2)
    assert rep.config["baseline"] == METHOD_TRUNCATED_SVD
    assert rep.config["baseline_error"] ** 2 == pytest.approx(1.0, rel=1e-12)


def test_truncated_svd_full_rank_is_exact():
    rng = np.random.default_rng(1)
    F = rng.standard_normal((8, 6))
    for mode in MODES:
        rep = svd_baseline(F, 6, mode=mode)
        assert rep.config["baseline_error"] == 0.0 and rep.epsilon == 0.0


def test_truncated_svd_achieves_tail_energy():
    rng = np.random.default_rng(2)
    F = rng.standard_normal((20, 15))
    spec = singular_values(F)
    rep = svd_baseline(F, 5)
    assert rep.config["baseline_error"] ** 2 == pytest.approx(tail_energy(spec, 5), rel=1e-8)
    U, vals, Vt = np.linalg.svd(F, full_matrices=False)
    measured = frobenius_norm(F - U[:, :5] @ (vals[:5, None] * Vt[:5]))
    assert rep.config["baseline_error"] == pytest.approx(measured, rel=1e-8)


def test_truncated_svd_rank_bounds():
    F = np.eye(4)
    with pytest.raises(ValueError):
        svd_baseline(F, 0)
    with pytest.raises(ValueError):
        svd_baseline(F, 5)


def test_truncated_svd_deterministic():
    rng = np.random.default_rng(3)
    F = rng.standard_normal((9, 9))
    a = svd_baseline(F, 3)
    b = svd_baseline(F, 3, master_seed=2)  # no draw: the seed changes nothing
    assert a.config["baseline_error"] == b.config["baseline_error"]
    assert a.epsilon == b.epsilon and a.config["plan"] == b.config["plan"]

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
        U, vals, Vt = np.linalg.svd(F, full_matrices=False)
        err_svd = frobenius_norm(F - U[:, :r] @ (vals[:r, None] * Vt[:r]))
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
    """The greedy picks by deflating the whole residual at each pick, as
    column_select made them before it down-dated norms, the largest
    remaining residual norm before each pick, and the runner-up's: the
    largest among the columns of F other than the picked one's copies."""
    resid = np.array(F, dtype=np.float64)
    picked, largest, runner_up = [], [], []
    for _ in range(r):
        norms = np.einsum("ij,ij->j", resid, resid)
        norms[picked] = -1.0
        j = int(np.argmax(norms))
        picked.append(j)
        largest.append(np.sqrt(norms[j]))
        norms[(F == F[:, [j]]).all(axis=0)] = 0.0
        runner_up.append(np.sqrt(norms.max()))
        nrm = np.linalg.norm(resid[:, j])
        if nrm > 0.0:
            q = resid[:, j] / nrm
            resid -= np.outer(q, q @ resid)
    return picked, largest, runner_up


def assert_same_picks(F, r):
    """column_select's picks equal full deflation's while the largest remaining
    residual norm is above RANK_TOL times the largest column norm; past that,
    every candidate is rounding dust.  Picks compare as columns: duplicated
    columns tie exactly, full deflation's rounding breaks such a tie either
    way, and the basis depends only on the picked columns."""
    ref, largest, _ = column_select_with_outer(F, r)
    cut = RANK_TOL * np.sqrt(np.einsum("ij,ij->j", F, F).max())
    m = next((k for k, norm in enumerate(largest) if norm <= cut), r)
    assert np.array_equal(F[:, _greedy_picks(F, r)[:m]], F[:, ref[:m]])
    return m


@pytest.mark.parametrize("a,b,r", [(3000, 40, 8), (60, 40, 3), (30, 50, 12)])
def test_column_select_picks_match_full_deflation(a, b, r):
    rng = np.random.default_rng(a + b + r)
    F = rng.standard_normal((a, r)) @ rng.standard_normal((r, b)) + 0.1 * rng.standard_normal((a, b))
    assert assert_same_picks(F, r) == r
    assert np.array_equal(column_select(F, r).basis, thin_qr(F[:, column_select_with_outer(F, r)[0]])[0])


def pick_corpus(kind, seed):
    """A 5-80 by 5-80 input of one kind and a rank to pick."""
    rng = np.random.default_rng([seed, len(kind)])
    a, b = (int(n) for n in rng.integers(5, 81, size=2))
    rank = int(rng.integers(1, min(a, b) + 1)) if kind == "rank-deficient" else min(a, b)
    F = rng.standard_normal((a, rank)) @ rng.standard_normal((rank, b))
    if kind == "near-ties":  # unit columns, norms apart by about 1e-9
        F *= (1.0 + 1e-9 * rng.standard_normal(b)) / np.linalg.norm(F, axis=0)
    elif kind == "duplicates":  # half the columns copied, every other copy off by 1e-7
        copies = rng.integers(0, b - b // 2, size=b // 2)
        F[:, b - b // 2 :] = F[:, copies] * (1.0 + 1e-7 * rng.standard_normal(b // 2) * (np.arange(b // 2) % 2))
    if kind == "graded" or seed % 2:  # column scales exp(N(0, 9))
        F *= np.exp(rng.normal(0.0, 3.0, size=b))
    return F, int(rng.integers(1, min(a, b) + 1))


@pytest.mark.parametrize("kind", ["near-ties", "graded", "duplicates", "rank-deficient"])
def test_column_select_picks_match_full_deflation_on_corpus(kind):
    compared = sum(assert_same_picks(*pick_corpus(kind, seed)) for seed in range(100))
    assert compared > 1000


def test_column_select_recomputes_cancelled_norms():
    # After the first pick, the 1e8 column's squared norm 1e16 + 0.25 has
    # rounded to 1e16, so its down-dated value reads about 0 against the
    # third column's 0.01.  Its residual norm is 0.5: recomputed, it is the
    # second pick.
    F = np.zeros((6, 3))
    F[0, 0] = 2e8
    F[0, 1], F[1, 1] = 1e8, 0.5
    F[2, 2] = 0.1
    rotation = np.linalg.qr(np.random.default_rng(0).standard_normal((50, 50)))[0]
    for G in (F, rotation[:, :6] @ F):
        assert list(_greedy_picks(G, 3)) == column_select_with_outer(G, 3)[0] == [0, 1, 2]


def tall_version(F, seed):
    """F rotated into 2 max(a, b) rows: a tall input with F's column geometry."""
    a, b = F.shape
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((2 * max(a, b), a)))[0] @ F


@pytest.mark.parametrize("kind", ["near-ties", "graded", "duplicates", "rank-deficient"])
def test_column_select_on_the_r_factor_matches_f(kind, monkeypatch):
    # bench and beat select columns on a tall F's R factor.  R has F's column
    # norms and inner products, so the picks are F's wherever the runner-up
    # trails by more than RANK_TOL times the largest column norm (compared as
    # columns: copies tie exactly), and the error is F's to rounding.
    compared, beats = 0, []
    for seed in range(100):
        F, r = pick_corpus(kind, seed)
        F = tall_version(F, seed)
        R = _tall_r_factor(F)
        assert R.shape == (F.shape[1], F.shape[1])
        _, largest, runner_up = column_select_with_outer(F, r)
        cut = RANK_TOL * np.sqrt(np.einsum("ij,ij->j", F, F).max())
        m = next((k for k in range(r) if largest[k] - runner_up[k] <= cut), r)
        assert np.array_equal(F[:, _greedy_picks(F, r)[:m]], F[:, _greedy_picks(R, r)[:m]])
        compared += m
        if m == r:  # the error's rounding is absolute, on the scale of eps ||F||
            errors = approximation_error(F, column_select(F, r)), approximation_error(R, column_select(R, r))
            assert errors[1] == pytest.approx(errors[0], rel=1e-13, abs=1e-13 * frobenius_norm(F))
        if seed < 10:
            beats.append((F, r))
    assert compared > 1000

    def plans():
        reports = [beat_baseline_experiment(F, r, METHOD_COLUMN_SELECT, 20, master_seed=7) for F, r in beats]
        return [(rep.config["plan"]["s"], rep.verdict) for rep in reports]

    through_r = plans()
    monkeypatch.setattr(randlr.experiments, "_tall_r_factor", lambda M: M)
    assert plans() == through_r
