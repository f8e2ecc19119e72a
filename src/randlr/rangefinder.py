"""Randomized range approximation in factored form.

The pipeline is: multiply the target by a seeded Gaussian test matrix
(:func:`sketch`), orthonormalize the result (:func:`randlr.core.thin_qr`),
then project the target onto that basis (:func:`factorize`).  The output
is a :class:`FactoredApproximation` ``basis @ coeffs`` whose basis has
``target rank + oversampling`` orthonormal columns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import (
    _check_int,
    _exact_fallback,
    check_rank,
    check_seed,
    frobenius_norm,
    gaussian_matrix,
    svd_factors,
    thin_qr,
)
from .io import _writing, read_matrix_market, write_matrix_market

__all__ = [
    "FactoredApproximation",
    "sketch",
    "factorize",
    "approximation_error",
    "save_factored",
    "load_factored",
    "METHOD_RANDOMIZED",
    "METHOD_TRUNCATED_SVD",
    "METHOD_COLUMN_SELECT",
    "METHOD_EXACT_FALLBACK",
]

METHOD_RANDOMIZED = "randomized"
METHOD_TRUNCATED_SVD = "truncated-svd"
METHOD_COLUMN_SELECT = "column-select"
METHOD_EXACT_FALLBACK = "exact-fallback"

_METHODS = (
    METHOD_RANDOMIZED,
    METHOD_TRUNCATED_SVD,
    METHOD_COLUMN_SELECT,
    METHOD_EXACT_FALLBACK,
)

_ORTHONORMALITY_TOL = 1e-10


@dataclass(frozen=True)
class FactoredApproximation:
    """A low-rank approximation ``basis @ coeffs`` with orthonormal basis.

    ``basis`` is a x l with orthonormal columns, ``coeffs`` is l x b, and
    l = target_rank + oversampling except for the exact-fallback method,
    where the basis spans the full range of the input.  ``seed`` is None
    for the deterministic methods.
    """

    basis: np.ndarray
    coeffs: np.ndarray
    target_rank: int
    oversampling: int
    seed: int | None
    method: str

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.basis.shape[1] != self.coeffs.shape[0]:
            raise ValueError(
                f"basis width {self.basis.shape[1]} does not match "
                f"coeffs height {self.coeffs.shape[0]}"
            )
        if self.width > min(self.basis.shape[0], self.coeffs.shape[1]):
            raise ValueError("basis is wider than the approximated matrix allows")
        gram_defect = self.basis.T @ self.basis - np.eye(self.width)
        if frobenius_norm(gram_defect) > _ORTHONORMALITY_TOL:
            raise ValueError("basis columns are not orthonormal")

    @property
    def width(self) -> int:
        """Number of basis columns (the rank budget actually spent)."""
        return self.basis.shape[1]

    def reconstruct(self) -> np.ndarray:
        """Dense ``basis @ coeffs``."""
        return self.basis @ self.coeffs


def sketch(F: np.ndarray, width: int, seed: int) -> np.ndarray:
    """Range probe ``F @ G`` with a seeded Gaussian test matrix G.

    G has F's column count as height and ``width`` columns, i.i.d. standard
    normal entries; the result is deterministic per seed.
    """
    _check_int(width, "width", 1)
    return F @ gaussian_matrix(F.shape[1], width, seed)


def factorize(F: np.ndarray, r: int, s: int, seed: int) -> FactoredApproximation:
    """Sketch -> basis -> coefficients in one call.

    The basis has r + s columns and the coefficient factor is its transpose
    applied to F.  Requires s >= 2: the expected-error bound that justifies
    the construction is undefined below that.  When r + s reaches min(F.shape)
    the sketch cannot pay for itself, so a full orthonormal basis of
    range(F) is used instead and the result tagged ``exact-fallback``.
    """
    check_rank(r, F.shape, "target rank")
    _check_int(s, "oversampling", 2)
    check_seed(seed)
    if _exact_fallback(r, s, F.shape):
        basis, _, _ = svd_factors(F)
        method = METHOD_EXACT_FALLBACK
    else:
        basis = thin_qr(sketch(F, r + s, seed))[0]
        method = METHOD_RANDOMIZED
    return FactoredApproximation(
        basis=basis,
        coeffs=basis.T @ F,
        target_rank=r,
        oversampling=s,
        seed=seed,
        method=method,
    )


def approximation_error(F: np.ndarray, approx: FactoredApproximation) -> float:
    """Exact Frobenius error ``||F - basis @ coeffs||``."""
    if approx.basis.shape[0] != F.shape[0] or approx.coeffs.shape[1] != F.shape[1]:
        raise ValueError(
            f"approximation of shape {approx.basis.shape[0]}x{approx.coeffs.shape[1]} "
            f"does not match matrix of shape {F.shape}"
        )
    return frobenius_norm(F - approx.reconstruct())


def save_factored(prefix, approx: FactoredApproximation) -> list[str]:
    """Write an approximation as <prefix>_H.mtx, <prefix>_T.mtx and a JSON
    sidecar <prefix>.json carrying the metadata.  Returns the paths."""
    prefix = str(prefix)
    paths = [prefix + "_H.mtx", prefix + "_T.mtx", prefix + ".json"]
    write_matrix_market(paths[0], approx.basis)
    write_matrix_market(paths[1], approx.coeffs)
    sidecar = {
        "schema_version": 1,
        "target_rank": approx.target_rank,
        "oversampling": approx.oversampling,
        "seed": approx.seed,
        "method": approx.method,
    }
    with _writing(paths[2], "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return paths


def load_factored(prefix) -> FactoredApproximation:
    """Read back an approximation written by :func:`save_factored`."""
    prefix = str(prefix)
    with open(prefix + ".json") as fh:
        sidecar = json.load(fh)
    if sidecar.get("schema_version") != 1:
        raise ValueError(f"unsupported schema_version in {prefix}.json: {sidecar.get('schema_version')!r}")
    return FactoredApproximation(
        basis=read_matrix_market(prefix + "_H.mtx"),
        coeffs=read_matrix_market(prefix + "_T.mtx"),
        target_rank=int(sidecar["target_rank"]),
        oversampling=int(sidecar["oversampling"]),
        seed=None if sidecar["seed"] is None else int(sidecar["seed"]),
        method=str(sidecar["method"]),
    )
