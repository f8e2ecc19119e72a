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

Sampling stays in-house: :func:`gaussian_matrices` applies the Box-Muller
transform over the counter-based Philox generator, so every (rows, cols,
seed) triple is reproducible, whether drawn alone or in a stack, and
independent substreams can be derived with :func:`derive_seed`.

All functions are pure and never mutate their arguments.  LAPACK failures
surface as ``numpy.linalg.LinAlgError``, a ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SingularSpectrum",
    "as_matrix",
    "frobenius_norm",
    "derive_seed",
    "gaussian_matrix",
    "gaussian_matrices",
    "thin_qr",
    "svd_factors",
    "singular_values",
    "pseudoinverse",
    "RANK_TOL",
]

#: Singular values below RANK_TOL * sigma_max count as zero in pseudoinverse.
RANK_TOL = 1e-12


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce ``values`` to a float64 2-D array, rejecting NaN/Inf entries."""
    arr = np.array(values, dtype=np.float64)
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


def derive_seed(master_seed: int, index: int) -> int:
    """Derive an independent 64-bit substream seed from (master_seed, index).

    The mixing function is fixed: ``numpy.random.SeedSequence(master_seed,
    spawn_key=(index,))`` folded to its first 64-bit word.  Serial and
    parallel schedules that agree on indices therefore agree on streams.
    """
    ss = np.random.SeedSequence(int(master_seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


#: Identifier for the substream derivation above; recorded in reports.
SEED_MIX = "seedsequence-spawn/v1"


def gaussian_matrices(rows: int, cols: int, seeds) -> np.ndarray:
    """Stack of ``len(seeds)`` rows x cols standard normal matrices, one per seed.

    Uniform doubles come from the counter-based Philox generator keyed by
    each seed; one Box-Muller pass over the whole stack turns pairs of them
    into normals.  Entries fill each matrix column by column, so matrix j
    depends on ``seeds[j]`` alone.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"dimensions must be positive, got {rows}x{cols}")
    n = rows * cols
    u = np.empty((len(seeds), 2, (n + 1) // 2))
    for out, seed in zip(u, seeds):
        np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed)))).random(out=out)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0]))  # log(1 - u) keeps the argument in (0, 1]
    angle = (2.0 * np.pi) * u[:, 1]
    z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return z[:, :n].reshape(-1, cols, rows).transpose(0, 2, 1)


def gaussian_matrix(rows: int, cols: int, seed: int) -> np.ndarray:
    """Matrix with i.i.d. standard normal entries, reproducible per seed:
    the one-seed case of :func:`gaussian_matrices`."""
    return gaussian_matrices(rows, cols, [seed])[0]


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
