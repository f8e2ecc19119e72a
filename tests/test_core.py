"""Kernel tests: input validation, norms, seeded sampling, QR, SVD, spectra,
and the pseudoinverse rank cutoff."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from randlr.core import (
    MAX_TRIALS,
    SingularSpectrum,
    _kept,
    _tall_r_factor,
    as_matrix,
    check_seed,
    derive_keys,
    derive_seed,
    frobenius_norm,
    gaussian_matrix,
    keyed_gaussian_matrices,
    singular_values,
    svd_factors,
    thin_qr,
)
from randlr.experiments import _svd_pinv_energies


def manual_frobenius(M):
    """Independent oracle: explicit python-level sum of squares."""
    total = 0.0
    for row in M:
        for x in row:
            total += float(x) * float(x)
    return math.sqrt(total)


# --- as_matrix -------------------------------------------------------------


def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])  # 1-D
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.nan]])
    with pytest.raises(ValueError):
        as_matrix([[1.0, np.inf]])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    # a float64 cast would keep only the real part
    with pytest.raises(ValueError, match="^F has complex entries"):
        as_matrix(np.array([[1 + 2j]]), name="F")
    with pytest.raises(ValueError, match="complex"):
        as_matrix([[1.0, 0j]])


def test_as_matrix_copies_and_casts():
    src = np.array([[1, 2], [3, 4]], dtype=np.int64)
    M = as_matrix(src)
    assert M.dtype == np.float64
    M[0, 0] = 99.0
    assert src[0, 0] == 1


# --- frobenius_norm --------------------------------------------------------


def test_frobenius_345_triangle():
    assert frobenius_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0, abs=1e-14)


def test_frobenius_identity_and_zero():
    assert frobenius_norm(np.eye(2)) == pytest.approx(math.sqrt(2.0), abs=1e-14)
    assert frobenius_norm(np.zeros((4, 7))) == 0.0


def test_frobenius_matches_manual_sum():
    rng = np.random.default_rng(101)
    for _ in range(5):
        M = rng.standard_normal((6, 9))
        assert frobenius_norm(M) == pytest.approx(manual_frobenius(M), rel=1e-13)


# --- gaussian_matrix / derive_seed -----------------------------------------


def test_gaussian_deterministic_per_seed():
    A = gaussian_matrix(13, 7, 424242)
    B = gaussian_matrix(13, 7, 424242)
    assert np.array_equal(A, B)


def test_gaussian_distinct_seeds_differ():
    assert not np.array_equal(gaussian_matrix(8, 8, 1), gaussian_matrix(8, 8, 2))


def test_gaussian_moments():
    Z = gaussian_matrix(400, 250, 2024)
    # 3-sigma CLT windows for 100k samples
    assert abs(Z.mean()) <= 0.02
    assert abs(Z.var() - 1.0) <= 0.03
    assert np.isfinite(Z).all()


def test_gaussian_rejects_bad_dims():
    with pytest.raises(ValueError):
        gaussian_matrix(0, 3, 1)


def frozen_gaussian_matrix(rows, cols, seed):
    """The reference sampler, numpy's own: ziggurat normals from the seed's
    Philox stream, filled column by column."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    return gen.standard_normal((cols, rows)).T


SAMPLER_SEEDS = [
    [0],
    [2**64 - 1],
    [derive_seed(5, 3)],
    [0, 2**64 - 1] + [derive_seed(123, i) for i in range(48)],
]


@pytest.mark.parametrize("seeds", SAMPLER_SEEDS, ids=["zero", "max", "derived", "stack-of-50"])
@pytest.mark.parametrize("rows,cols", [(1, 1), (7, 3), (40, 14), (200, 29)])
def test_gaussian_matrices_match_the_frozen_sampler(rows, cols, seeds):
    keys = [np.random.SeedSequence(seed).generate_state(2, np.uint64) for seed in seeds]
    stack = keyed_gaussian_matrices(rows, cols, keys)
    assert stack.shape == (len(seeds), rows, cols)
    for G, seed in zip(stack, seeds):
        assert np.array_equal(G, frozen_gaussian_matrix(rows, cols, seed))
        assert np.array_equal(gaussian_matrix(rows, cols, seed), G)


# numpy's Generator streams are not promised across releases (NEP 19): a numpy
# whose standard_normal or Philox moved would change every report silently.
GOLDEN_DRAWS = [
    (0, [-0.2059740286292238, -0.12884495093462758, -0.28978987549091256,
         -1.271943284573895, -1.4064349008284343, 0.0434076798448615]),
    (2**64 - 1, [-1.0039545214062364, -1.4856424361498295, -0.48602820321024115,
                 0.17877176993222144, 0.1372847863093682, 0.09221281302006908]),
    (9579476198165552839,  # derive_seed(2024, 7)
     [1.489896906900246, -0.21782636841518935, -1.643418323183848,
      0.3398061128040067, 0.35883627922522965, 0.3601748788064143]),
]


@pytest.mark.parametrize("seed,values", GOLDEN_DRAWS)
def test_gaussian_draws_are_frozen(seed, values):
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    assert gaussian_matrix(2, 3, seed).ravel(order="F").tolist() == values
    assert keyed_gaussian_matrices(2, 3, [key])[0].ravel(order="F").tolist() == values


def test_keyed_draws_take_python_int_keys():
    # one word below 2**63 and one above: without a uint64 dtype, numpy reads the pair as float64
    key = [7434755675892716031, 10007452063617845036]
    assert numpy_philox_key(1).tolist() == key
    assert np.array_equal(keyed_gaussian_matrices(2, 3, [key])[0], gaussian_matrix(2, 3, 1))


def test_derive_seed_fixed_mixing():
    assert derive_seed(42, 7) == derive_seed(42, 7)
    seeds = {derive_seed(42, i) for i in range(64)}
    assert len(seeds) == 64
    assert derive_seed(42, 0) != derive_seed(43, 0)


def test_gaussian_substreams_independent():
    a = gaussian_matrix(4, 4, derive_seed(9, 0))
    b = gaussian_matrix(4, 4, derive_seed(9, 1))
    assert not np.array_equal(a, b)


# --- seeding against numpy's SeedSequence ------------------------------------

# 2**130 + 12345 has five uint32 words, one more than SeedSequence's pool.
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**130 + 12345]


def numpy_derive_seed(master_seed, index):
    return int(np.random.SeedSequence(master_seed, spawn_key=(index,)).generate_state(1, np.uint64)[0])


def numpy_philox_key(seed):
    return np.random.SeedSequence(seed).generate_state(2, np.uint64)


def test_derive_seed_matches_numpy():
    rng = np.random.default_rng(20)
    masters = EDGE_SEEDS + [np.uint64(2**64 - 1)] + [int(m) for m in rng.integers(0, 2**63, 30)]
    # indices at and above 2**32 take a second spawn word, as in numpy
    indices = [0, 1, 2**32 - 1, 2**32, 2**40 + 3] + [int(i) for i in rng.integers(0, 2**32, 300)]
    pairs = [(m, i) for m in masters for i in indices]
    assert len(pairs) >= 10**4
    for m, i in pairs:
        assert derive_seed(m, i) == numpy_derive_seed(m, i), (m, i)


@pytest.mark.parametrize("master_seed", EDGE_SEEDS + [987654321])
def test_derive_keys_match_numpy(master_seed):
    keys = derive_keys(master_seed, 1500)  # 7 x 1500 keys in all
    assert keys.shape == (1500, 2) and keys.dtype == np.uint64
    for i, key in enumerate(keys):
        assert np.array_equal(key, numpy_philox_key(numpy_derive_seed(master_seed, i))), i


@pytest.mark.parametrize("count", [0, 1, 2, 2**16 + 1])
@pytest.mark.parametrize("master_seed", [
    0, 2**32 - 1, 2**32, 2**64 + 5, np.uint64(2**64 - 1),
    2**128 - 1, 2**128 + 3, 2**130 + 12345, 2**160 + 1, 2**300 + 7,
])
def test_derive_keys_first_and_last_match_numpy(master_seed, count):
    # a master seed of five words or more mixes its extra words before the
    # index word, which moves the index word's hash constants: 2**128 - 1 is
    # the last master of four words, 2**160 + 1 has six and 2**300 + 7 ten
    keys = derive_keys(master_seed, count)
    assert keys.shape == (count, 2) and keys.dtype == np.uint64
    for i in sorted({0, count - 1}) if count else []:
        assert np.array_equal(keys[i], numpy_philox_key(numpy_derive_seed(master_seed, i))), i


@pytest.mark.parametrize("count", [1, 50])
@pytest.mark.parametrize("rows,cols", [(1, 1), (7, 3), (5, 9)])
def test_keyed_stack_matches_numpy_streams(rows, cols, count):
    stack = keyed_gaussian_matrices(rows, cols, derive_keys(77, count))
    assert stack.shape == (count, rows, cols)
    for i, G in enumerate(stack):
        assert np.array_equal(G, frozen_gaussian_matrix(rows, cols, derive_seed(77, i)))


def test_derive_keys_peak_memory_per_key():
    # the uint32 temporaries of the one-pass hash, against 16 bytes per key returned
    count = 10**5
    tracemalloc.start()
    try:
        derive_keys(123456789, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / count <= 96


def test_derive_keys_rejects_indices_past_one_spawn_word():
    assert derive_keys(3, 0).shape == (0, 2)
    with pytest.raises(ValueError, match="trials"):
        derive_keys(3, MAX_TRIALS + 1)  # raises before allocating the indices


@pytest.mark.parametrize("call", [
    lambda: check_seed(-1),
    lambda: derive_seed(-1, 0),
    lambda: derive_keys(-5, 3),
    lambda: gaussian_matrix(2, 2, -1),
])
def test_negative_seed_is_rejected_by_name(call):
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        call()


def test_negative_index_is_rejected_by_name():
    with pytest.raises(ValueError, match="index must be a non-negative integer"):
        derive_seed(1, -1)


# --- thin_qr ----------------------------------------------------------------


def test_qr_345_column():
    Q, R = thin_qr(np.array([[3.0], [4.0]]))
    # the non-negative-diagonal convention pins the signs
    assert np.allclose(Q, [[0.6], [0.8]], atol=1e-15)
    assert np.allclose(R, [[5.0]], atol=1e-14)


def test_qr_of_orthonormal_is_identityish():
    rng = np.random.default_rng(31)
    Q0, _ = thin_qr(rng.standard_normal((10, 4)))
    Q, R = thin_qr(Q0)
    assert np.allclose(Q, Q0, atol=1e-13)
    assert np.allclose(R, np.eye(4), atol=1e-13)


def test_qr_reconstruction_and_orthonormality():
    rng = np.random.default_rng(77)
    M = rng.standard_normal((20, 8))
    Q, R = thin_qr(M)
    assert frobenius_norm(Q.T @ Q - np.eye(8)) <= 1e-12
    assert frobenius_norm(Q @ R - M) <= 1e-10 * frobenius_norm(M)
    assert np.array_equal(R, np.triu(R))
    assert (np.diag(R) >= 0).all()


def test_qr_rank_deficient_stays_orthonormal():
    rng = np.random.default_rng(3)
    M = rng.standard_normal((12, 5))
    M[:, 3] = M[:, 1]  # duplicate column
    Q, R = thin_qr(M)
    assert frobenius_norm(Q.T @ Q - np.eye(5)) <= 1e-12
    assert frobenius_norm(Q @ R - M) <= 1e-10 * frobenius_norm(M)


def test_qr_rejects_wide():
    with pytest.raises(ValueError):
        thin_qr(np.zeros((3, 5)))


def sign_fixed_numpy_qr(M):
    """Reference: np.linalg.qr with the columns of Q and rows of R flipped
    where diag(R) < 0."""
    Q, R = np.linalg.qr(M)
    flip = np.diag(R) < 0.0
    R[flip, :] *= -1.0
    Q[:, flip] *= -1.0
    return Q, R


def qr_inputs():
    rng = np.random.default_rng(2024)
    rank_deficient = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 9))
    wide = rng.standard_normal((60, 30))
    return {
        "3000x18": rng.standard_normal((3000, 18)),
        "200x29": rng.standard_normal((200, 29)),
        "200x200 (blocked)": rng.standard_normal((200, 200)),
        "60x11": rng.standard_normal((60, 11)),
        "1x1": np.array([[-2.5]]),
        "zero": np.zeros((7, 4)),
        "rank-deficient": rank_deficient,
        "fortran-ordered": np.asfortranarray(rng.standard_normal((50, 12))),
        "strided slice": wide[::2, 1::3],
        "integer": rng.integers(-9, 10, size=(25, 6)),
    }


@pytest.mark.parametrize("name", list(qr_inputs()))
def test_qr_matches_sign_fixed_numpy_qr(name):
    M = qr_inputs()[name]
    before = M.copy()
    Q, R = thin_qr(M)
    Q0, R0 = sign_fixed_numpy_qr(M)
    assert np.array_equal(M, before)  # the input is not mutated
    assert Q.shape == Q0.shape and R.shape == R0.shape
    assert np.abs(Q - Q0).max() <= 1e-14
    assert np.abs(R - R0).max() <= 1e-14 * max(1.0, np.abs(R0).max())


# --- singular values / svd_factors ------------------------------------------


def test_singular_values_diagonal():
    spec = singular_values(np.diag([3.0, 1.0]))
    assert np.allclose(spec.values, [3.0, 1.0], atol=1e-14)


def test_singular_values_zero_matrix():
    spec = singular_values(np.zeros((4, 3)))
    assert np.array_equal(spec.values, np.zeros(3))
    assert spec.source_dims == (4, 3)


def test_singular_values_golden_ratio():
    # eigenvalues of M^T M for [[1,1],[0,1]] solve x^2 - 3x + 1 = 0,
    # so the singular values are (1 +/- sqrt(5))/2 in absolute value
    spec = singular_values(np.array([[1.0, 1.0], [0.0, 1.0]]))
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    assert spec.values == pytest.approx([phi, phi - 1.0], rel=1e-12)


@pytest.mark.parametrize("shape", [(9, 6), (6, 9), (15, 15)])
def test_singular_values_match_lapack(shape):
    rng = np.random.default_rng(sum(shape))
    M = rng.standard_normal(shape)
    mine = singular_values(M).values
    ref = np.linalg.svd(M, compute_uv=False)
    assert np.abs(mine - ref).max() <= 1e-12 * ref[0]


def test_spectrum_energy_matches_frobenius():
    rng = np.random.default_rng(55)
    for _ in range(5):
        M = rng.standard_normal((rng.integers(2, 30), rng.integers(2, 30)))
        spec = singular_values(M)
        assert spec.total_energy() == pytest.approx(frobenius_norm(M) ** 2, rel=1e-10)


@pytest.mark.parametrize("shape", [(12, 7), (7, 12)])
def test_svd_factors_reconstruct(shape):
    rng = np.random.default_rng(7)
    M = rng.standard_normal(shape)
    U, vals, Vt = svd_factors(M)
    k = min(shape)
    assert U.shape == (shape[0], k) and Vt.shape == (k, shape[1])
    assert frobenius_norm(U.T @ U - np.eye(k)) <= 1e-12
    assert frobenius_norm(Vt @ Vt.T - np.eye(k)) <= 1e-12
    assert frobenius_norm((U * vals) @ Vt - M) <= 1e-12 * frobenius_norm(M)
    assert (np.diff(vals) <= 0).all()


def test_svd_factors_rank_deficient_basis_complete():
    M = np.zeros((6, 4))
    M[:, 0] = [1.0, 2.0, 3.0, 0.0, 0.0, 0.0]
    U, vals, Vt = svd_factors(M)
    assert frobenius_norm(U.T @ U - np.eye(4)) <= 1e-12
    assert vals[0] == pytest.approx(math.sqrt(14.0), rel=1e-14)
    assert np.allclose(vals[1:], 0.0)


def test_svd_does_not_mutate_input():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((8, 11))
    before = M.copy()
    svd_factors(M)
    singular_values(M)
    svd_factors(M.T)
    assert np.array_equal(M, before)


def svd_inputs(a, b):
    """A Gaussian, a rank-3 and a graded-column a x b input."""
    rng = np.random.default_rng([a, b])
    k = min(3, b)
    yield rng.standard_normal((a, b))
    yield rng.standard_normal((a, k)) @ rng.standard_normal((k, b))
    yield rng.standard_normal((a, b)) * np.exp(rng.normal(0.0, 3.0, size=b))


def largest_entry(M):
    return np.abs(M).max()


#: dgesdd rescales a matrix whose largest |entry| is nonzero and outside
#: [2**-459, 2**459]; the edge scales set an input's largest |entry| on both
#: sides of both thresholds and exactly on them.  Off the thresholds they
#: are not powers of two, which dgesdd's rescaling would apply exactly.
EDGE_SCALES = tuple(0.7 * 2.0**e for e in (-469, -459, -455, 457, 458, 461)) + (2.0**-459, 2.0**459)


@pytest.mark.parametrize("shape", [(73, 40), (3000, 40), (2000, 150), (1000, 300), (40, 1)], ids="{0[0]}x{0[1]}".format)
def test_tall_r_factor_svd_equals_svd_factors_bitwise(shape):
    inputs = list(svd_inputs(*shape))
    gaussian = inputs[0]
    inputs += [gaussian / largest_entry(gaussian) * scale for scale in EDGE_SCALES]
    inside = []  # (M inside the range, R inside the range) per input
    for M in inputs:
        before = M.copy()
        reduced = _tall_r_factor(M)
        _, values, Vt = svd_factors(reduced)
        _, ref_values, ref_Vt = svd_factors(M)
        assert np.array_equal(values, ref_values) and np.array_equal(Vt, ref_Vt)
        # the values-only route of bench and beat's spectrum
        assert np.array_equal(singular_values(reduced).values, singular_values(M).values)
        assert np.array_equal(M, before)
        R = np.linalg.qr(M, mode="r")
        inside.append(tuple(2.0**-459 <= largest_entry(X) <= 2.0**459 for X in (M, R)))
    # every case of the range rule occurs: both inside, M inside and R
    # outside (R's entries can outgrow M's), and M outside on either side
    assert {(True, True), (True, False), (False, True), (False, False)} <= set(inside)


def test_tall_r_factor_takes_the_r_factor_from_lapack_crossover(monkeypatch):
    # dgesdd's crossover for 40 columns is int(11 * 40 / 6) = 73 rows; at 72
    # the SVD runs on M itself, whose bits differ from the R factor's
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda M, mode: calls.append(M.shape) or qr(M, mode))
    for M in svd_inputs(73, 40):
        _tall_r_factor(M[:72])
        _tall_r_factor(M)
    assert calls == [(73, 40)] * 3


# --- SingularSpectrum validation ---------------------------------------------


def test_spectrum_validation():
    SingularSpectrum(values=np.array([2.0, 1.0]), source_dims=(3, 2))
    with pytest.raises(ValueError):
        SingularSpectrum(values=np.array([1.0, 2.0]), source_dims=(3, 2))  # increasing
    with pytest.raises(ValueError):
        SingularSpectrum(values=np.array([-1.0]), source_dims=(3, 2))
    with pytest.raises(ValueError):
        SingularSpectrum(values=np.array([1.0, 1.0, 1.0]), source_dims=(3, 2))  # too long


# --- the pseudoinverse rank cutoff -------------------------------------------
# ``_kept`` drops singular values at or below RANK_TOL * sigma_max; ``moment``
# sums 1/sigma^2 over the ones it keeps (``_svd_pinv_energies``).


def pinv_energy(M):
    """``||pinv(M)||_F^2`` of one matrix by the SVD rule."""
    return _svd_pinv_energies(M[None])[0]


def pinv_by_cutoff(M):
    """pinv(M) from ``svd_factors``, inverting only the values ``_kept`` keeps."""
    U, vals, Vt = svd_factors(M)
    keep = _kept(vals)
    return (Vt[keep].T / vals[keep]) @ U[:, keep].T


def test_pinv_diagonal_with_zero():
    assert _kept(np.array([2.0, 0.0])).tolist() == [True, False]
    assert np.allclose(pinv_by_cutoff(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]), atol=1e-14)
    assert pinv_energy(np.diag([2.0, 0.0])) == pytest.approx(0.25, rel=1e-14)


def test_pinv_of_orthonormal_is_transpose():
    rng = np.random.default_rng(12)
    Q, _ = thin_qr(rng.standard_normal((9, 4)))
    assert np.allclose(pinv_by_cutoff(Q), Q.T, atol=1e-12)
    assert pinv_energy(Q) == pytest.approx(4.0, rel=1e-12)


def test_pinv_moore_penrose_identities():
    rng = np.random.default_rng(40)
    full = rng.standard_normal((6, 4))
    rank2 = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))  # two values are rounding dust
    for M in (full, rank2):
        P = pinv_by_cutoff(M)
        assert frobenius_norm(M @ P @ M - M) <= 1e-10
        assert frobenius_norm(P @ M @ P - P) <= 1e-10
        assert frobenius_norm((M @ P).T - M @ P) <= 1e-10
        assert frobenius_norm((P @ M).T - P @ M) <= 1e-10
        assert pinv_energy(M) == pytest.approx(frobenius_norm(P) ** 2, rel=1e-12)
    assert _kept(singular_values(rank2).values).tolist() == [True, True, False, False]


def test_pinv_involution_on_full_rank():
    rng = np.random.default_rng(41)
    M = rng.standard_normal((7, 5))
    P = pinv_by_cutoff(M)
    back = pinv_by_cutoff(P)
    assert frobenius_norm(back - M) <= 1e-8 * frobenius_norm(M)
    # pinv(M)'s values are 1/sigma: the rule keeps all of them and gives back ||M||^2
    assert pinv_energy(P) == pytest.approx(frobenius_norm(M) ** 2, rel=1e-8)


def test_pinv_zero_matrix():
    Z = np.zeros((3, 5))
    assert not _kept(singular_values(Z).values).any()
    assert np.array_equal(pinv_by_cutoff(Z), np.zeros((5, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert pinv_energy(Z) == 0.0
