"""Deterministic low-rank baseline: greedy column selection.

It stands in for the non-randomized approximation family: suboptimal but
deterministic, so it always leaves a strictly positive gap for a
randomized method to beat.  It returns the same factored form as the
randomized pipeline, distinguished by method tag.  The other baseline,
the truncated SVD, sits exactly on the Eckart-Young floor, so ``beat``
takes its error as ``sqrt(tau)`` from the spectrum and builds nothing.
"""

from __future__ import annotations

import numpy as np

from .core import check_rank, thin_qr
from .rangefinder import METHOD_COLUMN_SELECT, FactoredApproximation

__all__ = ["column_select"]


def _greedy_picks(F: np.ndarray, r: int) -> np.ndarray:
    """The r column indices that :func:`column_select` picks, in order."""
    F = np.asarray(F, dtype=np.float64)
    with np.errstate(over="ignore"):
        norms = np.einsum("ij,ij->j", F, F)
    if not np.isfinite(norms).all():  # a residual's norm never exceeds its column's
        raise ValueError("squared column norm overflows float64; rescale the input")
    exact = norms.copy()  # each squared norm as last computed from its column
    Qt, C = np.zeros((r, F.shape[0])), np.zeros((r, F.shape[1]))  # C = Q^T F
    picked = np.empty(r, dtype=np.intp)
    for k in range(r):
        picked[k] = j = int(np.argmax(norms))
        norms[j] = exact[j] = -np.inf  # never picked nor recomputed again
        q = F[:, j] - C[:k, j] @ Qt[:k]
        q -= (Qt[:k] @ q) @ Qt[:k]
        nrm = np.linalg.norm(q)
        if nrm > 0.0:
            Qt[k] = q / nrm
            C[k] = Qt[k] @ F
        norms -= C[k] ** 2
        stale = np.flatnonzero(norms < 2.0**-26 * exact)  # below sqrt(eps) of exact
        if len(stale):
            resid = F[:, stale] - Qt[: k + 1].T @ C[: k + 1, stale]
            norms[stale] = exact[stale] = np.einsum("ij,ij->j", resid, resid)
    return picked


def column_select(F: np.ndarray, r: int) -> FactoredApproximation:
    """Greedy column selection: r columns picked by largest residual norm.

    Businger and Golub's pivoting rule (Numer. Math. 7, 1965), so a near-
    duplicate of a picked column is not picked again; ties break toward
    the lowest column index.  As in LAPACK's ``dgeqp3``, the squared
    residual norms are down-dated by each pick's coefficients ``Q^T F``;
    one below ``sqrt(eps)`` of its last exact value has lost its digits to
    cancellation and is recomputed (Drmač and Bujanović, SIMAX 29(4),
    2008).  A column whose squared norm overflows float64 is a ValueError.
    """
    r = check_rank(r, F.shape)
    basis, _ = thin_qr(F[:, _greedy_picks(F, r)])
    return FactoredApproximation(
        basis=basis,
        coeffs=basis.T @ F,
        target_rank=r,
        oversampling=0,
        seed=None,
        method=METHOD_COLUMN_SELECT,
    )
