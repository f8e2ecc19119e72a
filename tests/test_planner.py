"""Tests for tail energy, the expected-error bound, and oversampling choice."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randlr.core import SingularSpectrum, singular_values
from randlr.planner import (
    FLOOR_RTOL,
    INFEASIBLE_REASON,
    MODE_LITERAL,
    MODE_SQUARED,
    choose_oversampling,
    effective_tail_energy,
    expected_error_bound,
    plan,
    tail_energy,
)


# --- tail_energy -----------------------------------------------------------


def test_tail_energy_examples():
    assert tail_energy(np.array([2.0, 1.0, 1.0]), 1) == pytest.approx(2.0)
    assert tail_energy(np.array([2.0, 1.0, 1.0]), 3) == 0.0
    assert tail_energy(np.array([2.0, 1.0, 1.0]), 7) == 0.0
    assert tail_energy(np.array([2.0, 1.0, 1.0]), 0) == pytest.approx(6.0)


def test_tail_energy_accepts_spectrum():
    spec = SingularSpectrum(values=np.array([3.0, 2.0, 1.0]), source_dims=(3, 3))
    assert tail_energy(spec, 1) == pytest.approx(5.0)


def test_tail_energy_rejects_negative_rank():
    with pytest.raises(ValueError):
        tail_energy(np.array([1.0]), -1)


# --- expected_error_bound ----------------------------------------------------


def test_bound_substitution_examples():
    assert expected_error_bound(10, 11, 3.0) == pytest.approx(6.0)
    assert expected_error_bound(1, 2, 1.0) == pytest.approx(2.0)
    assert expected_error_bound(7, 3, 0.0) == 0.0


def test_bound_decreasing_in_s():
    values = [expected_error_bound(5, s, 2.0) for s in range(2, 40)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bound_validates_arguments():
    with pytest.raises(ValueError):
        expected_error_bound(0, 3, 1.0)
    with pytest.raises(ValueError):
        expected_error_bound(3, 1, 1.0)
    with pytest.raises(ValueError):
        expected_error_bound(3, 3, -1.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, True, "1.0"])
def test_bound_rejects_a_tail_that_is_not_a_finite_real(tau):
    # a NaN or infinite tail gave a NaN or infinite bound, True a bound on tau = 1
    with pytest.raises(ValueError, match="tail energy must be finite and non-negative"):
        expected_error_bound(3, 3, tau)


# --- choose_oversampling ------------------------------------------------------


def test_choose_integer_boundary_bumps():
    # the bound equals epsilon exactly at s = 11; the strict inequality
    # then forces one more
    assert expected_error_bound(10, 11, 1.0) == pytest.approx(2.0)
    assert choose_oversampling(10, 1.0, 2.0) == 12

    # same boundary situation from the substitution examples
    assert expected_error_bound(10, 6, 1.0) == pytest.approx(3.0)  # not < 3
    assert choose_oversampling(10, 1.0, 3.0) == 7

    assert expected_error_bound(2, 5, 1.0) == pytest.approx(1.5)  # not < 1.5
    assert choose_oversampling(2, 1.0, 1.5) == 6


def test_choose_non_boundary():
    # r=1, tau=5, eps=20: formula 5/15 + 1 = 4/3 -> s = 2, bound 10 < 20
    assert choose_oversampling(1, 5.0, 20.0) == 2


def test_choose_infeasible_below_floor():
    assert choose_oversampling(10, 1.0, 1.0) is None
    assert choose_oversampling(10, 1.0, 0.5) is None
    # A budget a hair above tau is on the floor by plan's rule, not the search's.
    spec = SingularSpectrum(values=np.array([3.0, 2.0, 1.0, 1.0]), source_dims=(6, 6))
    assert tail_energy(spec, 2) == 2.0
    assert not plan(spec, 2, 2.0 * (1 + 1e-14)).feasible


def test_choose_zero_tail_shortcut():
    assert choose_oversampling(4, 0.0, 1e-12) == 2
    assert choose_oversampling(4, 0.0, 0.0) is None


def test_choose_validates():
    with pytest.raises(ValueError):
        choose_oversampling(0, 1.0, 2.0)
    with pytest.raises(ValueError):
        choose_oversampling(2, -1.0, 2.0)
    # Unchecked, the search returns s = 2 for a NaN and doubles into an OverflowError at tau = epsilon = inf.
    for tau, epsilon in ((float("nan"), 2.0), (float("inf"), float("inf")), (1.0, float("nan"))):
        with pytest.raises(ValueError):
            choose_oversampling(2, tau, epsilon)


@pytest.mark.parametrize("tau", [True, "1.0", np.bool_(False)])
def test_choose_rejects_a_tail_that_is_not_a_real(tau):
    # True searched against tau = 1 and returned an oversampling
    with pytest.raises(ValueError, match="tail energy must be finite and non-negative"):
        choose_oversampling(2, tau, 2.0)


def test_infinite_budget_is_rejected():
    # Every s meets an infinite budget, and the report could not be written as JSON.
    spec = SingularSpectrum(values=np.array([3.0, 2.0, 1.0]), source_dims=(3, 3))
    for epsilon in (float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="finite"):
            choose_oversampling(1, 5.0, epsilon)
        with pytest.raises(ValueError, match="finite"):
            plan(spec, 1, epsilon)


def test_choose_monotone_in_epsilon():
    taus = 1.0
    eps_grid = [1.001, 1.01, 1.1, 1.5, 2.0, 5.0, 50.0]
    chosen = [choose_oversampling(6, taus, e) for e in eps_grid]
    assert all(a >= b for a, b in zip(chosen, chosen[1:]))
    # s blows up as epsilon approaches the floor from above
    assert choose_oversampling(6, 1.0, 1.0 + 1e-9) > 1e9


def test_choose_near_the_floor_is_least_strictly_feasible():
    # Gaps of 1e-11 to 1e-8 relative, where s reaches ~1e12.
    rng = np.random.default_rng(4)
    for _ in range(300):
        r = int(rng.integers(1, 21))
        tau = float(10.0 ** rng.uniform(-6.0, 6.0))
        epsilon = tau * (1.0 + 10.0 ** rng.uniform(-11.0, -8.0))
        s = choose_oversampling(r, tau, epsilon)
        assert expected_error_bound(r, s, tau) < epsilon
        assert expected_error_bound(r, s - 1, tau) >= epsilon


def test_choose_near_the_floor_is_fast():
    start = time.perf_counter()
    s = choose_oversampling(5, 1.0, 1.0 + 2e-12)
    assert time.perf_counter() - start < 1.0
    assert expected_error_bound(5, s, 1.0) < 1.0 + 2e-12
    assert expected_error_bound(5, s - 1, 1.0) >= 1.0 + 2e-12


@settings(max_examples=300, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=60),
    tau=st.floats(min_value=1e-6, max_value=1e6),
    ratio=st.floats(min_value=1.000001, max_value=1e3),
)
def test_choose_is_least_strictly_feasible(r, tau, ratio):
    epsilon = tau * ratio
    s = choose_oversampling(r, tau, epsilon)
    assert s is not None and s >= 2
    assert expected_error_bound(r, s, tau) < epsilon
    if s - 1 >= 2:
        assert expected_error_bound(r, s - 1, tau) >= epsilon


# --- plan ------------------------------------------------------------------------


def test_plan_worked_example():
    spec = SingularSpectrum(values=np.array([3.0, 2.0, 1.0]), source_dims=(3, 3))
    p = plan(spec, 1, 20.0)
    assert p.feasible
    assert p.tail_energy == pytest.approx(5.0)
    assert p.oversampling == 2
    assert p.predicted_bound == pytest.approx(10.0)
    assert p.fallback  # 1 + 2 >= min(3, 3)
    assert not p.strictness_bumped
    assert p.mode == MODE_SQUARED

    # r*tau/(eps - tau) = 1e-20 vanishes next to 1, yet no boundary is hit
    tiny = plan(SingularSpectrum(values=np.array([1.0, 1e-10]), source_dims=(50, 50)), 1, 1.0)
    assert tiny.oversampling == 2 and not tiny.strictness_bumped


def test_plan_zero_tail():
    spec = SingularSpectrum(values=np.array([4.0, 2.0, 0.0, 0.0]), source_dims=(9, 8))
    p = plan(spec, 2, 0.5)
    assert p.feasible and p.oversampling == 2 and p.predicted_bound == 0.0


def test_plan_infeasible_has_reason():
    spec = SingularSpectrum(values=np.array([3.0, 2.0, 1.0]), source_dims=(5, 5))
    p = plan(spec, 1, 4.0)  # tail energy is 5
    assert not p.feasible
    assert p.oversampling is None and p.predicted_bound is None
    assert p.reason == INFEASIBLE_REASON
    assert p.tail_energy == pytest.approx(5.0)


def test_plan_floor_rule_is_relative_to_tau():
    spec = SingularSpectrum(values=np.array([3.0, 2.0, 1.0]), source_dims=(5, 5))
    at_floor = plan(spec, 1, 5.0 * (1.0 + 0.1 * FLOOR_RTOL))
    assert not at_floor.feasible and at_floor.reason == INFEASIBLE_REASON
    above = plan(spec, 1, 5.0 * (1.0 + 10.0 * FLOOR_RTOL))
    assert above.feasible and above.predicted_bound < above.error_budget


def test_plan_literal_floor_is_the_plain_tail_norm():
    # tau = 0.25 < 1: the plain floor sqrt(tau) = 0.5 lies above tau, and no
    # rank-1 method has a plain error below it, however small the bound.
    spec = SingularSpectrum(values=np.array([3.0, 0.4, 0.3]), source_dims=(5, 5))
    tau = tail_energy(spec, 1)
    floor = math.sqrt(tau)
    assert tau < floor
    for epsilon in (tau * (1.0 + 1e-6), 0.5 * (tau + floor), floor, floor * (1.0 + 0.1 * FLOOR_RTOL)):
        p = plan(spec, 1, epsilon, mode=MODE_LITERAL)
        assert not p.feasible and p.reason == INFEASIBLE_REASON
        assert plan(spec, 1, epsilon, mode=MODE_SQUARED).feasible
    above = plan(spec, 1, floor * (1.0 + 10.0 * FLOOR_RTOL), mode=MODE_LITERAL)
    assert above.feasible and above.predicted_bound < above.error_budget


def test_plan_literal_floor_above_one_is_tau():
    # tau = 4 > sqrt(tau): the bound never falls below tau, so a literal
    # budget a hair above it is on the floor, not a plan for s ~ 1e12.
    spec = SingularSpectrum(values=np.array([3.0, 2.0]), source_dims=(4, 4))
    assert not plan(spec, 1, 4.0 * (1.0 + 1e-12), mode=MODE_LITERAL).feasible
    assert not plan(spec, 1, 3.0, mode=MODE_LITERAL).feasible
    above = plan(spec, 1, 4.0 * (1.0 + 10.0 * FLOOR_RTOL), mode=MODE_LITERAL)
    assert above.feasible and above.predicted_bound < above.error_budget


def test_tail_energy_overflow_is_value_error():
    spec = SingularSpectrum(values=np.array([1e160, 1e159, 1e158]), source_dims=(3, 3))
    for energy in (lambda: tail_energy(spec, 0), spec.total_energy, lambda: plan(spec, 1, 1.0)):
        with pytest.raises(ValueError, match="overflows float64"):
            energy()
    # a finite tail under a huge leading value still plans: the noise-floor
    # comparison must not overflow either
    p = plan(SingularSpectrum(values=np.array([1e167, 1e140]), source_dims=(4, 4)), 1, 1e300)
    assert p.feasible and p.tail_energy == 0.0


_GAUSSIAN_20x15 = np.random.default_rng(2024).standard_normal((20, 15))


@settings(max_examples=60, deadline=None)
@given(exponent=st.floats(min_value=-150.0, max_value=150.0), r=st.integers(1, 14))
def test_plan_tau_scales_with_input_squared(exponent, r):
    scale = 10.0**exponent
    tau = plan(singular_values(_GAUSSIAN_20x15), r, 1.0).tail_energy
    scaled = plan(singular_values(scale * _GAUSSIAN_20x15), r, 1.0).tail_energy
    assert scaled == pytest.approx(tau * scale**2, rel=1e-12)


def test_plan_snaps_rounding_dust_tail():
    # tail made of pure numerical noise behaves like an exact-rank spectrum
    vals = np.array([2.0, 1.0, 3e-16, 1e-16])
    spec = SingularSpectrum(values=vals, source_dims=(10, 10))
    p = plan(spec, 2, 1e-12)
    assert p.feasible and p.oversampling == 2 and p.predicted_bound == 0.0
    assert effective_tail_energy(spec, 2) == 0.0


def test_plan_validates_rank():
    spec = SingularSpectrum(values=np.array([1.0]), source_dims=(4, 4))
    with pytest.raises(ValueError):
        plan(spec, 2, 1.0)
    # plan is where a mode is checked; choose_oversampling takes none
    with pytest.raises(ValueError, match="unknown mode"):
        plan(spec, 1, 2.0, mode="plain")


def test_plan_strictness_flag_recorded():
    spec = SingularSpectrum(values=np.array([2.0, 1.0]), source_dims=(50, 50))
    # tau = 1, epsilon = 2: boundary case
    p = plan(spec, 1, 2.0)
    assert p.strictness_bumped
    assert expected_error_bound(1, p.oversampling, 1.0) < 2.0


def test_plan_json_contract():
    spec = SingularSpectrum(values=np.array([3.0, 1.0]), source_dims=(6, 7))
    p = plan(spec, 1, 9.0, mode=MODE_LITERAL)
    data = p.to_dict()
    for key in ("r", "s", "tau", "epsilon", "bound", "mode", "fallback",
                "feasible", "strictness_bumped", "schema_version"):
        assert key in data
    assert data["mode"] == MODE_LITERAL
    assert data["schema_version"] == 1


def test_plan_soundness_over_random_spectra():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        n = int(rng.integers(2, 12))
        vals = np.sort(rng.uniform(0.0, 5.0, size=n))[::-1]
        spec = SingularSpectrum(values=vals, source_dims=(n, n + 3))
        r = int(rng.integers(1, n + 1))
        tau = tail_energy(spec, r)
        epsilon = float(tau * rng.uniform(1.1, 10.0) + 1e-9)
        p = plan(spec, r, epsilon)
        assert p.feasible
        assert p.predicted_bound < epsilon
