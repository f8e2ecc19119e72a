"""Expected-error bound, tail energy, and oversampling selection.

For a target rank r and oversampling s >= 2, the expected squared error of
the randomized factorization is bounded by ``(1 + r/(s-1)) * tau`` where
``tau`` is the tail energy, the sum of squared singular values past index
r.  By the Eckart-Young theorem tau is also the smallest squared error any
rank-r approximation can achieve, so the bound misses the optimum by the
factor ``1 + r/(s-1)`` and an error budget at or below tau is infeasible.

Two norm interpretations ("modes") are threaded through all reports:

* ``squared-consistent`` (default): the budget epsilon and the bound are
  squared Frobenius norms; this is the reading under which the bound's
  derivation is dimensionally consistent.
* ``literal``: the formulas are evaluated exactly as in the derivation's
  final line, comparing the bound value against a plain-norm epsilon.

The formulas are identical in both modes; only the units of epsilon, of
the floor it is judged against (see :func:`plan`) and of the empirical
quantity compared against it change.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import RANK_TOL, SingularSpectrum, _check_choice, _check_int, _exact_fallback, _sum_of_squares

__all__ = [
    "MODE_SQUARED",
    "MODE_LITERAL",
    "MODES",
    "ApproximationPlan",
    "check_budget",
    "check_nonnegative",
    "tail_energy",
    "effective_tail_energy",
    "expected_error_bound",
    "choose_oversampling",
    "plan",
]

MODE_SQUARED = "squared-consistent"
MODE_LITERAL = "literal"
MODES = (MODE_SQUARED, MODE_LITERAL)

# The one floor rule (see plan): a budget within this relative distance of
# the floor (tau, or max(tau, sqrt(tau)) in literal mode) sits on it.  The slack is
# for budgets measured by another numerical route (a user's epsilon, column
# selection's error); beat's truncated-SVD budget is the floor itself, since
# a measured residual can miss tau by more than any fixed slack when the
# tail is near rounding.
FLOOR_RTOL = 1e-8

INFEASIBLE_REASON = "below Eckart-Young floor"


def _check_real(value, name: str, least: float = -math.inf) -> float:
    """The one rule for real arguments: a finite real number at least ``least``, not a
    bool (``True`` would read as 1.0) nor a string, returned as a Python float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value) or value < least:
        rule = "finite" if least == -math.inf else "finite and non-negative"
        raise ValueError(f"{name} must be {rule}, got {value!r}")
    return float(value)


def check_budget(epsilon: float) -> float:
    """An error budget: any finite real.  An infinite one is met by any s and cannot be written to JSON."""
    return _check_real(epsilon, "error budget")


def check_nonnegative(value: float, name: str) -> float:
    """A tail energy or a noise level must be a finite, non-negative real."""
    return _check_real(value, name, 0.0)


def tail_energy(spectrum, r: int) -> float:
    """Sum of squared singular values with index > r (0-based: values[r:]).

    Accepts a :class:`SingularSpectrum` or a plain non-increasing array.
    Zero when r reaches past the end of the spectrum.
    """
    r = _check_int(r, "rank")
    vals = spectrum.values if isinstance(spectrum, SingularSpectrum) else np.asarray(spectrum, dtype=np.float64)
    return _sum_of_squares(vals[r:])


def _is_dust(energy: float, spectrum: SingularSpectrum) -> bool:
    """Whether a squared error ``energy`` of a rank-r approximation is
    rounding dust: spread over the spectrum's values, it is at or below the
    rank cutoff ``RANK_TOL * sigma_max``."""
    if not len(spectrum.values) or spectrum.values[0] <= 0.0:
        return False
    # In norm units: squaring RANK_TOL * sigma_max overflows past sigma_max ~1e166.
    return math.sqrt(energy / len(spectrum)) <= RANK_TOL * spectrum.values[0]


def effective_tail_energy(spectrum: SingularSpectrum, r: int) -> float:
    """Tail energy with values at the numerical-rank noise floor snapped to 0.

    Tail singular values below the rank cutoff carry only rounding dust,
    not real energy; without the snap an exactly-rank-r matrix measured
    through floating point would block every small budget.
    """
    tau = tail_energy(spectrum, r)
    return 0.0 if _is_dust(tau, spectrum) else tau


def _bound(r: int, s: int, tau: float) -> float:
    """:func:`expected_error_bound` of arguments already checked."""
    return (1.0 + r / (s - 1.0)) * tau


def expected_error_bound(r: int, s: int, tau: float) -> float:
    """The bound value ``(1 + r/(s-1)) * tau``.

    Decreases strictly in s for tau > 0 and approaches tau as s grows.
    """
    return _bound(_check_int(r, "rank", 1), _check_int(s, "oversampling", 2), check_nonnegative(tau, "tail energy"))


def choose_oversampling(r: int, tau: float, epsilon: float) -> int | None:
    """Least s >= 2 whose computed bound ``(1 + r/(s-1)) * tau`` is strictly
    below epsilon, or None when epsilon <= tau.

    This is the search, not the floor rule: a budget just above tau gets
    the huge s that meets it, and :func:`plan` reports budgets on the floor
    as infeasible.  tau and epsilon only need to be in the same units, so
    the search takes no mode.
    """
    r = _check_int(r, "rank", 1)
    tau = check_nonnegative(tau, "tail energy")
    epsilon = check_budget(epsilon)
    if epsilon <= tau:
        return None
    # The computed bound never increases with s: s - 1.0, r / x, 1 + x and
    # x * tau are each correctly rounded and monotone.  So doubling then
    # bisecting finds the least s.  Doubling ends once r/(s-1) < 2**-53,
    # where the computed bound equals tau, below epsilon by the check above.
    lo, hi = 1, 2
    while _bound(r, hi, tau) >= epsilon:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _bound(r, mid, tau) < epsilon:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class ApproximationPlan:
    """Outcome of planning: the chosen oversampling plus bookkeeping.

    ``oversampling``/``predicted_bound`` are None exactly when the plan is
    infeasible; ``fallback`` flags that rank + oversampling reaches
    min(dims), where the factorization switches to an exact basis.
    """

    target_rank: int
    oversampling: int | None
    tail_energy: float
    error_budget: float
    predicted_bound: float | None
    mode: str
    fallback: bool
    feasible: bool
    strictness_bumped: bool
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "r": self.target_rank,
            "s": self.oversampling,
            "tau": self.tail_energy,
            "epsilon": self.error_budget,
            "bound": self.predicted_bound,
            "mode": self.mode,
            "fallback": self.fallback,
            "feasible": self.feasible,
            "strictness_bumped": self.strictness_bumped,
            "reason": self.reason,
        }


def plan(spectrum: SingularSpectrum, r: int, epsilon: float, mode: str = MODE_SQUARED) -> ApproximationPlan:
    """Compose tail energy, oversampling selection, and the bound.

    The package's one floor rule lives here: a budget at or below ``floor *
    (1 + FLOOR_RTOL)`` produces a plan with ``feasible=False`` and a reason
    instead of raising.  The floor is tau in squared mode.  In literal mode
    it is ``max(tau, sqrt(tau))``: no rank-r method has a plain error below
    ``sqrt(tau)``, and the bound never falls below tau.
    """
    mode = _check_choice(mode, "mode", MODES)
    epsilon = check_budget(epsilon)
    r = _check_int(r, "rank", 1, len(spectrum))
    tau = effective_tail_energy(spectrum, r)
    floor = tau if mode == MODE_SQUARED else max(tau, math.sqrt(tau))
    s = None if epsilon <= floor * (1.0 + FLOOR_RTOL) else choose_oversampling(r, tau, epsilon)
    feasible = s is not None
    return ApproximationPlan(
        target_rank=r,
        oversampling=s,
        tail_energy=tau,
        error_budget=epsilon,
        predicted_bound=_bound(r, s, tau) if feasible else None,
        mode=mode,
        fallback=feasible and _exact_fallback(r, s, spectrum.source_dims),
        feasible=feasible,
        strictness_bumped=feasible and s > 2 and _bound(r, s - 1, tau) == epsilon,
        reason=None if feasible else INFEASIBLE_REASON,
    )
