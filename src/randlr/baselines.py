"""Deterministic low-rank baselines.

Two stand-ins for the non-randomized approximation family: the truncated
SVD (optimal, sits exactly on the Eckart-Young floor) and greedy column
selection (suboptimal but deterministic, so it always leaves a strictly
positive gap for a randomized method to beat).  Both return the same
factored form as the randomized pipeline, distinguished by method tag.
"""

from __future__ import annotations

import numpy as np

from .core import check_rank, svd_factors, thin_qr
from .rangefinder import (
    METHOD_COLUMN_SELECT,
    METHOD_TRUNCATED_SVD,
    FactoredApproximation,
)

__all__ = ["truncated_svd", "column_select"]


def truncated_svd(F: np.ndarray, r: int) -> FactoredApproximation:
    """Rank-r truncated SVD: the best possible rank-r approximation.

    Its squared Frobenius error equals the tail energy past index r.
    """
    check_rank(r, F.shape)
    U, vals, Vt = svd_factors(F)
    return FactoredApproximation(
        basis=U[:, :r],
        coeffs=vals[:r, None] * Vt[:r, :],
        target_rank=r,
        oversampling=0,
        seed=None,
        method=METHOD_TRUNCATED_SVD,
    )


def column_select(F: np.ndarray, r: int) -> FactoredApproximation:
    """Greedy column selection: r columns picked by largest residual norm.

    After each pick the chosen direction is projected out of the remaining
    columns, so near-duplicates of an already-picked column do not get
    picked again.  Ties break toward the lowest column index, making the
    output fully deterministic.  A column whose squared norm overflows
    float64 is a ValueError.
    """
    check_rank(r, F.shape)
    resid = np.array(F, dtype=np.float64)
    deflation = np.empty_like(resid)
    picked: list[int] = []
    for _ in range(r):
        with np.errstate(over="ignore"):
            norms = np.einsum("ij,ij->j", resid, resid)
        if not np.isfinite(norms).all():
            # An overflowed norm would make the pick's direction zero and
            # silently skip its deflation.
            raise ValueError("squared column norm overflows float64; rescale the input")
        norms[picked] = -1.0
        j = int(np.argmax(norms))
        picked.append(j)
        col = resid[:, j]
        nrm = np.linalg.norm(col)
        if nrm > 0.0:
            q = col / nrm
            resid -= np.multiply(q[:, None], q @ resid, out=deflation)
    basis, _ = thin_qr(F[:, picked])
    return FactoredApproximation(
        basis=basis,
        coeffs=basis.T @ F,
        target_rank=r,
        oversampling=0,
        seed=None,
        method=METHOD_COLUMN_SELECT,
    )
