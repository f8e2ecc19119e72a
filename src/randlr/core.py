"""Dense matrix kernels used by every other module.

Plain ``numpy.float64`` arrays are the matrix carrier throughout the
package: 2-D, finite entries only, :func:`as_matrix` being the validating
constructor.  The decompositions are thin wrappers over LAPACK that pin
the conventions the rest of the package and its tests rely on:

* :func:`thin_qr` (``numpy.linalg.qr``) -- the signs are fixed so the
  diagonal of R is non-negative (Q is then unique for full-rank input).
* :func:`svd_factors` / :func:`singular_values` (``numpy.linalg.svd``) --
  values sorted non-increasing; U is orthonormal even for rank-deficient
  input.  ``_tall_r_factor`` reduces a tall M to its R factor, whose SVD
  gives M's values and Vt bit for bit: from ``a >= 11 b / 6`` rows on,
  while the largest |entry| of M and of R is 0 or in ``[2**-459,
  2**459]``, the range where LAPACK's ``dgesdd`` rescales neither.
* ``_kept`` -- the rank cutoff: singular values at or below ``RANK_TOL *
  sigma_max`` count as zero.

Sampling is numpy's: seed ``x`` draws numpy's ziggurat
``standard_normal`` from ``Philox(SeedSequence(x))``, so every (rows, cols,
seed) triple is reproducible, whether drawn alone (:func:`gaussian_matrix`)
or in a stack (:func:`keyed_gaussian_matrices`), and independent substreams
are derived with :func:`derive_seed`.  A stack is drawn from Philox keys,
``SeedSequence(seed).generate_state(2, np.uint64)``.  A single seed is
numpy's own ``SeedSequence``.  Only the batch is randlr's:
:func:`derive_keys` runs numpy's hash on uint32 arrays, so it derives every
trial's key in one pass, bit for bit the key numpy would build.

All functions are pure and never mutate their arguments.  LAPACK failures
surface as ``numpy.linalg.LinAlgError``, a ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularSpectrum",
    "as_matrix",
    "frobenius_norm",
    "check_seed",
    "check_rank",
    "check_trials",
    "derive_seed",
    "derive_keys",
    "gaussian_matrix",
    "keyed_gaussian_matrices",
    "thin_qr",
    "svd_factors",
    "singular_values",
    "RANK_TOL",
    "MAX_TRIALS",
]

#: Singular values at or below RANK_TOL * sigma_max count as zero (see _kept).
RANK_TOL = 1e-12


def _kept(values: np.ndarray) -> np.ndarray:
    """The rank cutoff: which singular values exceed ``RANK_TOL * sigma_max``."""
    return values > RANK_TOL * values[..., :1]


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a float64 2-D array, rejecting complex and NaN/Inf entries."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr):  # a float64 cast would drop the imaginary part with only a warning
        raise ValueError(f"{name} has complex entries; randlr handles real matrices only")
    arr = np.array(arr, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got array of shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def frobenius_norm(M: np.ndarray) -> float:
    """Square root of the sum of squared entries, summed by numpy itself: a
    BLAS dot product (``np.linalg.norm``) splits the sum across threads, so
    its last bit depends on the BLAS thread count."""
    v = np.asarray(M, dtype=np.float64).ravel()
    return math.sqrt(np.einsum("i,i->", v, v))


def _check_int(value, name: str, least: int = 0, most: int | None = None) -> int:
    """The one rule for integer arguments: a Python or numpy integer, not a bool,
    in ``[least, most]``, returned as a Python int (``int()`` alone reads 2.7 as 2)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        rule = "a non-negative integer" if least == 0 else f"at least {least}"
        raise ValueError(f"{name} must be {rule}, got {value}")
    if most is not None and value > most:
        raise ValueError(f"{name} must be at most {most}, got {value}")
    return int(value)  # JSON-safe, and its arithmetic never wraps


def _dims(dims, name: str) -> tuple[int, int]:
    """``dims`` as two Python ints; anything but two positive integers is a ValueError."""
    if len(dims) != 2:
        raise ValueError(f"{name} must be two integers, got {dims}")
    return _check_int(dims[0], name, 1), _check_int(dims[1], name, 1)


def _check_choice(value, name: str, choices: tuple):
    """The one rule for a tag argument (a mode, a method, a kind): one of ``choices``."""
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}, expected one of {choices}")
    return value


def _exact_fallback(r: int, s: int, dims) -> bool:
    """Whether r + s sketch columns reach min(dims), so factorizing takes an exact basis instead."""
    return r + s >= min(dims)


def check_seed(seed: int, name: str = "seed") -> int:
    """The seed as a Python int, if a non-negative integer; else a ValueError:
    like numpy's SeedSequence, randlr seeds with non-negative integers only."""
    return _check_int(seed, name)


def check_rank(r: int, shape, name: str = "rank") -> int:
    """The rank as a Python int, if an integer in ``1 <= r <= min(shape)``; else a ValueError."""
    r = _check_int(r, name)
    if r < 1 or r > min(shape):
        raise ValueError(f"{name} {r} out of range for {shape[0]}x{shape[1]}")
    return r


#: Trial indices must fit in one uint32 spawn word for :func:`derive_keys`.
MAX_TRIALS = 1 << 32


def check_trials(trials: int, least: int = 1) -> int:
    """The trial count as a Python int, if an integer in ``least <= trials <= 2**32``; else a ValueError."""
    trials = _check_int(trials, "trials", least)
    if trials > MAX_TRIALS:
        raise ValueError(f"trials must be at most 2**32, got {trials}")
    return trials


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, mixed with these multipliers and a 16-bit xorshift.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

#: The pool words each pool word is mixed into, in numpy's order.
_OTHERS = tuple([dst for dst in range(_POOL_SIZE) if dst != src] for src in range(_POOL_SIZE))


def _pairs(init: int, mult: int, start: int, count: int) -> np.ndarray:
    """numpy's constants of hashmixes ``start`` to ``start + count - 1`` as a
    (2, count, 1) uint32 array, a column of xor and a column of multiply
    constants to broadcast along a batch.  Hashmix i XORs in ``init *
    mult**i`` and multiplies by ``init * mult**(i + 1)``, modulo 2**32."""
    h = [init * pow(mult, i, 1 << 32) % (1 << 32) for i in range(start, start + count + 1)]
    return np.array([h[:-1], h[1:]], dtype=np.uint32)[:, :, None]


def _hashmix(value: np.ndarray, xor, mult) -> np.ndarray:
    """numpy's hashmix of uint32 words ``value`` with one (xor, multiply)
    constant pair; array constants broadcast along ``value``, and uint32
    arithmetic wraps modulo 2**32 as the hash does."""
    v = value ^ xor
    v *= mult
    return v ^ v >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's mix of hashed uint32 words ``y`` into pool words ``x``."""
    m = x * _MIX_MULT_L - y * _MIX_MULT_R
    return m ^ m >> 16


# derive_keys' constants.  A Philox key hashes a seed of at most two words,
# so its pool takes the hashmixes of a four-word fill and of the twelve
# pool-mixing steps, three per source word; its output takes four.
_KEY_FILL = _pairs(_INIT_A, _MULT_A, 0, _POOL_SIZE)
_KEY_MIX = [_pairs(_INIT_A, _MULT_A, _POOL_SIZE + 3 * src, 3) for src in range(_POOL_SIZE)]
_KEY_OUT = _pairs(_INIT_B, _MULT_B, 0, _POOL_SIZE)


def derive_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit substream seed from (master_seed, index).

    The mixing function is fixed: ``numpy.random.SeedSequence(master_seed,
    spawn_key=(index,))`` folded to its first 64-bit word, computed by numpy
    itself.  Serial and parallel schedules that agree on indices therefore
    agree on streams.
    """
    index = check_seed(index, "index")
    seq = np.random.SeedSequence(check_seed(master_seed), spawn_key=(index,))
    return int(seq.generate_state(1, np.uint64)[0])


#: Identifier for the substream derivation above and the sampler that draws
#: from it, recorded in reports; it changes whenever the drawn numbers do.
SEED_MIX = "seedsequence-spawn/v2"

def derive_keys(master_seed: int, trials: int) -> np.ndarray:
    """Philox keys of the streams ``derive_seed(master_seed, i)``, i < trials.

    Row i is ``SeedSequence(derive_seed(master_seed, i)).generate_state(2,
    np.uint64)``, bit for bit, computed for all indices in one pass over
    uint32 arrays, whose wrap-around arithmetic is the hash's modulo 2**32.
    numpy hashes the master seed; only the index word and what it touches
    run on the arrays.  A pool word's updates of the other three are
    independent of each other, so they run as one (3, trials) operation.
    """
    trials = check_trials(trials, 0)
    master_seed = check_seed(master_seed)
    # With a spawn key, numpy pads the master's words to the pool size, so
    # the index word meets the master's own pool, after one hashmix per pool
    # word for each padded master word.  derive_seed's two output words
    # read only pool words 0 and 1.
    pool01 = np.random.SeedSequence(master_seed).pool[:2, None]
    hashed = _POOL_SIZE * max(_POOL_SIZE, (master_seed.bit_length() + 31) // 32)
    index = np.arange(trials, dtype=np.uint32)
    mixed = _mix(pool01, _hashmix(index, *_pairs(_INIT_A, _MULT_A, hashed, 2)))
    # derive_seed's low and high words, then two zero words, fill the key's pool
    seed_words = np.zeros((_POOL_SIZE, trials), dtype=np.uint32)
    seed_words[:2] = _hashmix(mixed, *_KEY_OUT[:, :2])
    key_pool = _hashmix(seed_words, *_KEY_FILL)
    for src, dsts in enumerate(_OTHERS):
        key_pool[dsts] = _mix(key_pool[dsts], _hashmix(key_pool[src], *_KEY_MIX[src]))
    words = _hashmix(key_pool, *_KEY_OUT)  # little-endian uint32 halves of the two key words
    return words.T.astype("<u4", order="C").view("<u8")


def keyed_gaussian_matrices(rows: int, cols: int, keys) -> np.ndarray:
    """Stack of ``len(keys)`` rows x cols standard normal matrices, one per
    Philox key.  ``keys`` is any sequence of pairs of uint64 words, such as
    the rows of :func:`derive_keys` or a slice of them.

    One Philox bit generator serves the call: each matrix sets its key at
    counter 0, which is the stream of ``Philox(SeedSequence(seed))`` for the
    seed the key came from, and draws numpy's ziggurat normals column by
    column.  Matrix j is therefore :func:`gaussian_matrix` of that seed, bit
    for bit, and depends on ``keys[j]`` alone.
    """
    rows, cols = _dims((rows, cols), "rows and cols")
    z = np.empty((len(keys), cols, rows))
    bits = np.random.Philox(0)  # any key: each draw below sets its own
    normal = np.random.Generator(bits)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # buffer empty: the first draw runs the cipher
        "has_uint32": 0,
        "uinteger": 0,
    }
    for out, key in zip(z, np.asarray(keys, dtype=np.uint64).tolist()):  # Python ints set a key fastest
        state["state"]["key"] = key
        bits.state = state
        normal.standard_normal(out=out)
    return z.transpose(0, 2, 1)


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix with i.i.d. standard normal entries, reproducible per seed:
    numpy's ``standard_normal`` from ``Philox(SeedSequence(seed))``, filled
    column by column."""
    rows, cols = _dims((rows, cols), "rows and cols")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(check_seed(seed))))
    return gen.standard_normal((cols, rows)).T


def thin_qr(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR: Q has M's shape and orthonormal columns, R is upper
    triangular with non-negative diagonal, and Q @ R reconstructs M.

    Requires rows >= cols.  LAPACK's Householder QR leaves the signs of
    diag(R) arbitrary; flipping the matching columns of Q and rows of R
    makes Q unique for full-rank input.  Rank-deficient input still yields
    an orthonormal Q.
    """
    a, b = M.shape
    if a < b:
        raise ValueError(f"thin_qr needs rows >= cols, got {a}x{b}")
    Q, R = np.linalg.qr(M)
    sign = np.where(np.diag(R) < 0.0, -1.0, 1.0)
    return Q * sign, R * sign[:, None]


def svd_factors(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin SVD ``(U, values, Vt)`` with k = min(a, b) columns/rows.

    U is a x k and Vt is k x b, both with orthonormal columns/rows; values
    are sorted non-increasing.  U is a valid orthonormal basis even when M
    is rank-deficient: LAPACK completes the columns that belong to zero
    singular values.
    """
    return np.linalg.svd(M, full_matrices=False)


def _unscaled(M: np.ndarray) -> bool:
    """Whether ``dgesdd`` factors M as it is: it rescales M first when its
    largest |entry| is nonzero and outside ``[SMLNUM, BIGNUM] = [2**-459,
    2**459]`` (``sqrt(safe minimum) / precision`` and its reciprocal)."""
    largest = max(M.max(), -M.min())
    return largest == 0.0 or 2.0**-459 <= largest <= 2.0**459


def _tall_r_factor(M: np.ndarray) -> np.ndarray:
    """M's b x b R factor ``qr(M, mode="r")`` where its SVD is M's bit for bit,
    else M itself.

    From ``a >= 11 b / 6`` rows on (``dgesdd``'s crossover ``MNTHR``), LAPACK
    factors M through that R factor, so the SVD of R gives the same values
    and Vt, whether or not singular vectors are asked for.  That holds while ``dgesdd`` rescales
    neither M nor R (:func:`_unscaled`); past either threshold the bits
    differ, and M is returned.  R has M's column norms and inner products,
    so greedy column selection and its error can run on it as well.
    """
    a, b = M.shape
    if a >= b * 11 // 6 and _unscaled(M):
        R = np.linalg.qr(M, mode="r")
        if _unscaled(R):
            return R
    return M


def _sum_of_squares(values: np.ndarray) -> float:
    """Sum of squared entries; ValueError when it overflows float64 (an entry past ~1e154)."""
    with np.errstate(over="ignore"):
        total = float(np.sum(values**2))
    if not np.isfinite(total):
        raise ValueError("squared norm overflows float64; rescale the input")
    return total


@dataclass(frozen=True)
class SingularSpectrum:
    """Non-increasing, non-negative singular values plus their source shape.

    The sum of squared values equals the squared Frobenius norm of the
    source matrix, which makes the spectrum the natural carrier for tail
    energies and optimal-error floors.
    """

    values: np.ndarray
    source_dims: tuple[int, int]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "source_dims", _dims(self.source_dims, "source_dims"))
        if vals.ndim != 1:
            raise ValueError("spectrum values must be a 1-D array")
        if len(vals) > min(self.source_dims):
            raise ValueError(f"spectrum of length {len(vals)} exceeds min{self.source_dims}")
        if len(vals) and ((vals < 0.0).any() or not np.isfinite(vals).all()):
            raise ValueError("singular values must be finite and non-negative")
        if (np.diff(vals) > 0.0).any():
            raise ValueError("singular values must be sorted non-increasing")

    def __len__(self) -> int:
        return len(self.values)

    def total_energy(self) -> float:
        """Sum of squared singular values (= squared Frobenius norm)."""
        return _sum_of_squares(self.values)


def singular_values(M: np.ndarray) -> SingularSpectrum:
    """Full singular spectrum of M, length min(a, b), non-increasing."""
    return SingularSpectrum(values=np.linalg.svd(M, compute_uv=False), source_dims=M.shape)
