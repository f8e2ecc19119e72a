"""Dense matrix kernels used by every other module.

Plain ``numpy.float64`` arrays are the matrix carrier throughout the
package: 2-D, finite entries only, :func:`as_matrix` being the validating
constructor.  The decompositions are thin wrappers over LAPACK that pin
the conventions the rest of the package and its tests rely on:

* :func:`thin_qr` (``numpy.linalg.qr``) -- the signs are fixed so the
  diagonal of R is non-negative (Q is then unique for full-rank input).
* :func:`svd_factors` / :func:`singular_values` (``numpy.linalg.svd``) --
  values sorted non-increasing; U is orthonormal even for rank-deficient
  input.
* :func:`pseudoinverse` -- singular values below ``RANK_TOL * sigma_max``
  count as zero.

Sampling is numpy's: seed ``x`` draws numpy's ziggurat
``standard_normal`` from ``Philox(SeedSequence(x))``, so every (rows, cols,
seed) triple is reproducible, whether drawn alone (:func:`gaussian_matrix`)
or in a stack (:func:`keyed_gaussian_matrices`), and independent substreams
are derived with :func:`derive_seed`.  A stack is drawn from Philox keys,
``SeedSequence(seed).generate_state(2, np.uint64)``.  randlr computes
numpy's SeedSequence hash itself, on Python ints for one seed and on uint64
arrays for a batch, so :func:`derive_keys` derives every trial's key in one
numpy pass, bit for bit the key numpy would build.

All functions are pure and never mutate their arguments.  LAPACK failures
surface as ``numpy.linalg.LinAlgError``, a ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "SingularSpectrum",
    "as_matrix",
    "frobenius_norm",
    "check_seed",
    "derive_seed",
    "derive_keys",
    "gaussian_matrix",
    "keyed_gaussian_matrices",
    "thin_qr",
    "svd_factors",
    "singular_values",
    "pseudoinverse",
    "RANK_TOL",
    "MAX_TRIALS",
]

#: Singular values below RANK_TOL * sigma_max count as zero in pseudoinverse.
RANK_TOL = 1e-12


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
    """Square root of the sum of squared entries."""
    return float(np.linalg.norm(M))


def check_seed(seed, name: str = "seed") -> None:
    """Reject a negative seed before any work: like numpy's SeedSequence,
    randlr seeds with non-negative integers only."""
    if int(seed) < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed}")


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of four
# uint32 words, mixed with these multipliers and a 16-bit xorshift.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _seed_words(n, name: str = "seed") -> list[int]:
    """numpy's split of a non-negative integer into little-endian uint32 words."""
    check_seed(n, name)
    n = int(n)
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_sequence(entropy: list, n_words: int) -> list:
    """``SeedSequence(entropy).generate_state(n_words)`` as uint32 words.

    Each entropy word is a Python int or a uint64 array of uint32 values
    (one element per seed).  Every product and difference is masked to 32
    bits, so the same code runs on both: words that are Python ints are
    hashed in Python arithmetic, and arrays only enter where they appear.
    Each hash XORs the running constant ``h``, advances ``h``, multiplies
    by it and folds the high half in.
    """
    h = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):  # the first words fill the pool, zeros past the end
        v = ((entropy[i] if i < len(entropy) else 0) ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
        pool.append(v ^ v >> 16)
    for src in range(_POOL_SIZE):  # every pool word into every other
        for dst in range(_POOL_SIZE):
            if src != dst:
                v = (pool[src] ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
                m = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
                pool[dst] = m ^ m >> 16
    for word in entropy[_POOL_SIZE:]:  # then each remaining word into all
        for dst in range(_POOL_SIZE):
            v = (word ^ h) * (h := h * _MULT_A & _MASK32) & _MASK32
            m = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (v ^ v >> 16)) & _MASK32
            pool[dst] = m ^ m >> 16
    h = _INIT_B
    out = []
    for i in range(n_words):  # generate_state cycles through the pool
        v = (pool[i % _POOL_SIZE] ^ h) * (h := h * _MULT_B & _MASK32) & _MASK32
        out.append(v ^ v >> 16)
    return out


def _spawn_entropy(master_seed: int, index_words: list) -> list:
    """Entropy words of ``SeedSequence(master_seed, spawn_key=(index,))``:
    with a spawn key, numpy pads the master's words to the pool size."""
    words = _seed_words(master_seed)
    return words + [0] * (_POOL_SIZE - len(words)) + index_words


def derive_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit substream seed from (master_seed, index).

    The mixing function is fixed: ``numpy.random.SeedSequence(master_seed,
    spawn_key=(index,))`` folded to its first 64-bit word.  Serial and
    parallel schedules that agree on indices therefore agree on streams.
    """
    lo, hi = _seed_sequence(_spawn_entropy(master_seed, _seed_words(index, "index")), 2)
    return lo | hi << 32


#: Identifier for the substream derivation above and the sampler that draws
#: from it, recorded in reports; it changes whenever the drawn numbers do.
SEED_MIX = "seedsequence-spawn/v2"

#: Trial indices must fit in one uint32 spawn word for :func:`derive_keys`.
MAX_TRIALS = 1 << 32


def derive_keys(master_seed: int, count: int) -> np.ndarray:
    """Philox keys of the streams ``derive_seed(master_seed, i)``, i < count.

    Row i is ``SeedSequence(derive_seed(master_seed, i)).generate_state(2,
    np.uint64)``, computed for all indices in one numpy pass.  The master
    seed's words and the pool mixing they share are hashed once; only the
    index word and what it touches run on arrays.
    """
    if count > MAX_TRIALS:
        raise ValueError(f"trials must be at most 2**32, got {count}")
    index = np.arange(count, dtype=np.uint64)
    seed_words = _seed_sequence(_spawn_entropy(master_seed, [index]), 2)
    w = _seed_sequence(seed_words, 4)  # little-endian uint32 halves of the two key words
    return np.stack([w[0] | w[1] << 32, w[2] | w[3] << 32], axis=1)


@cache
def _unkeyed():
    """A seed sequence that gives numpy's Philox constructor key 0, its
    cheapest seed: the sampler sets every key through ``.state`` itself.
    Built on first use, because importing ``numpy.random`` takes 15 ms."""
    from numpy.random.bit_generator import ISeedSequence

    class Unkeyed(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return Unkeyed()


def _check_dims(rows: int, cols: int) -> None:
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")


def keyed_gaussian_matrices(rows: int, cols: int, keys) -> np.ndarray:
    """Stack of ``len(keys)`` rows x cols standard normal matrices, one per
    Philox key (a pair of uint64 words, as from :func:`derive_keys`).

    One Philox bit generator serves the call: each matrix sets its key at
    counter 0, which is the stream of ``Philox(SeedSequence(seed))`` for the
    seed the key came from, and draws numpy's ziggurat normals column by
    column.  Matrix j is therefore :func:`gaussian_matrix` of that seed, bit
    for bit, and depends on ``keys[j]`` alone.
    """
    _check_dims(rows, cols)
    z = np.empty((len(keys), cols, rows))
    bits = np.random.Philox(_unkeyed())
    normal = np.random.Generator(bits)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": None},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,  # buffer empty: the first draw runs the cipher
        "has_uint32": 0,
        "uinteger": 0,
    }
    for out, key in zip(z, keys):
        state["state"]["key"] = key
        bits.state = state
        normal.standard_normal(out=out)
    return z.transpose(0, 2, 1)


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix with i.i.d. standard normal entries, reproducible per seed:
    numpy's ``standard_normal`` from ``Philox(SeedSequence(seed))``, filled
    column by column."""
    _check_dims(rows, cols)
    check_seed(seed)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
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
        object.__setattr__(self, "source_dims", (int(self.source_dims[0]), int(self.source_dims[1])))
        a, b = self.source_dims
        if vals.ndim != 1:
            raise ValueError("spectrum values must be a 1-D array")
        if len(vals) > min(a, b):
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


def pseudoinverse(M: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudoinverse via the SVD.

    Singular values below ``RANK_TOL * sigma_max`` are treated as exact
    zeros, so numerically rank-deficient input yields the pseudoinverse of
    its dominant part instead of an explosion.
    """
    U, vals, Vt = svd_factors(M)
    if len(vals) == 0 or vals[0] == 0.0:
        return np.zeros((M.shape[1], M.shape[0]))
    keep = vals > RANK_TOL * vals[0]
    inv = np.zeros_like(vals)
    inv[keep] = 1.0 / vals[keep]
    return (Vt.T * inv) @ U.T
