"""Tests for generators, the Monte Carlo harness, and the end-to-end runs."""

import concurrent.futures
import importlib
import inspect
import itertools
import math
import os
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import randlr.experiments
from randlr.baselines import column_select
from randlr.core import (
    RANK_TOL,
    SingularSpectrum,
    derive_keys,
    derive_seed,
    frobenius_norm,
    gaussian_matrix,
    keyed_gaussian_matrices,
    singular_values,
    svd_factors,
    thin_qr,
)
from randlr.experiments import (
    KIND_PRESCRIBED,
    KIND_SIGNAL_NOISE,
    VERDICT_NOT_APPLICABLE,
    VERDICT_SATISFIED,
    GeneratorSpec,
    beat_baseline_experiment,
    generate,
    monte_carlo,
    verify_gaussian_pinv_moment,
)
from randlr.planner import (
    INFEASIBLE_REASON,
    MODE_LITERAL,
    MODES,
    choose_oversampling,
    effective_tail_energy,
    expected_error_bound,
    plan,
    tail_energy,
)
from randlr.rangefinder import (
    METHOD_COLUMN_SELECT,
    METHOD_TRUNCATED_SVD,
    approximation_error,
    factorize,
    sketch,
)


def prescribed(dims, values, seed):
    return generate(
        GeneratorSpec(dims=dims, kind=KIND_PRESCRIBED, spectrum=values, seed=seed)
    )


# --- generators -----------------------------------------------------------


def test_prescribed_rank_one():
    F = prescribed((10, 8), (1.0, 0.0, 0.0), seed=1)
    sv = singular_values(F).values
    assert sv[0] == pytest.approx(1.0, rel=1e-10)
    assert sv[1] <= 1e-10


def test_prescribed_spectrum_matches_request():
    values = tuple(1.5 * 0.8**i for i in range(20))
    F = prescribed((50, 40), values, seed=9)
    sv = singular_values(F).values
    assert np.abs(sv[:20] - np.asarray(values)).max() <= 1e-8 * values[0]
    assert np.abs(sv[20:]).max() <= 1e-10 * values[0]


@pytest.mark.parametrize("dims", [(100, 100), (60, 40)])
def test_graded_spectrum_tail_energy_and_plan(dims):
    # Graded spectra are where a kernel's relative accuracy could show:
    # the computed tail energy must match the requested one at the
    # planner's tolerances.  Past r = 30 the matrix's own rounding (about
    # 1e-17 absolute per singular value) dominates the tail, whatever the
    # kernel, so those ranks are left out.
    values = 0.5 ** np.arange(1, 41)
    computed = singular_values(prescribed(dims, tuple(values), seed=1))
    requested = SingularSpectrum(values=values, source_dims=dims)
    for r in range(1, 31):
        tau = tail_energy(values, r)
        assert tail_energy(computed, r) == pytest.approx(tau, rel=1e-7)
        # budgets halfway between integer boundaries of the selection rule,
        # where 1e-15 rounding cannot move the chosen oversampling
        for k in (2, 5, 11, 40):
            epsilon = tau * (1.0 + r / (k - 0.5))
            assert plan(computed, r, epsilon).oversampling == plan(requested, r, epsilon).oversampling


def test_prescribed_deterministic():
    spec = GeneratorSpec(dims=(12, 9), kind=KIND_PRESCRIBED, spectrum=(3.0, 1.0), seed=4)
    assert np.array_equal(generate(spec), generate(spec))


def test_prescribed_validation():
    with pytest.raises(ValueError):
        prescribed((4, 4), (1.0, 2.0), seed=0)  # increasing
    with pytest.raises(ValueError):
        prescribed((4, 4), (1.0, 0.5, 0.4, 0.3, 0.2), seed=0)  # too long
    with pytest.raises(ValueError):
        prescribed((4, 4), (-1.0,), seed=0)
    with pytest.raises(ValueError):
        prescribed((4, 4), (), seed=0)


def test_signal_noise_exact_rank_at_zero_noise():
    spec = GeneratorSpec(dims=(20, 15), kind=KIND_SIGNAL_NOISE, signal_rank=4, noise_level=0.0, seed=7)
    F = generate(spec)
    sv = singular_values(F).values
    assert np.allclose(sv[:4], 1.0, atol=1e-10)  # unit top singular values
    assert sv[4] <= 1e-10


def test_signal_noise_spectral_gap():
    spec = GeneratorSpec(dims=(100, 80), kind=KIND_SIGNAL_NOISE, signal_rank=5, noise_level=0.01, seed=11)
    sv = singular_values(generate(spec)).values
    assert sv[4] / sv[5] >= 10.0


def test_signal_noise_perturbation_size():
    spec = GeneratorSpec(dims=(60, 60), kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.2, seed=13)
    F = generate(spec)
    clean = generate(
        GeneratorSpec(dims=(60, 60), kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.0, seed=13)
    )
    # same seed, so the signal parts agree and the difference is the noise
    assert frobenius_norm(F - clean) == pytest.approx(0.2, rel=0.2)


def test_signal_noise_deterministic_and_validated():
    spec = GeneratorSpec(dims=(10, 10), kind=KIND_SIGNAL_NOISE, signal_rank=2, noise_level=0.5, seed=3)
    assert np.array_equal(generate(spec), generate(spec))
    with pytest.raises(ValueError):
        generate(
            GeneratorSpec(dims=(10, 10), kind=KIND_SIGNAL_NOISE, signal_rank=11, noise_level=0.5)
        )
    with pytest.raises(ValueError):
        generate(
            GeneratorSpec(dims=(10, 10), kind=KIND_SIGNAL_NOISE, signal_rank=2, noise_level=-0.1)
        )


def test_signal_at_zero_noise_is_the_unit_prescribed_spectrum():
    # both generators build (left * values) @ right.T from the same seeded factors
    for dims, r, seed in [((6, 5), 1, 0), ((20, 15), 4, 7), ((300, 40), 5, 2**64 + 3)]:
        signal = GeneratorSpec(dims=dims, kind=KIND_SIGNAL_NOISE, signal_rank=r, noise_level=0.0, seed=seed)
        assert np.array_equal(generate(signal), prescribed(dims, (1.0,) * r, seed))


def test_generate_dispatch():
    a = generate(GeneratorSpec(dims=(6, 5), kind=KIND_PRESCRIBED, spectrum=(2.0,), seed=1))
    b = generate(GeneratorSpec(dims=(6, 5), kind=KIND_SIGNAL_NOISE, signal_rank=1, noise_level=0.0, seed=1))
    assert a.shape == b.shape == (6, 5)


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(dims=(0, 5), kind=KIND_PRESCRIBED, spectrum=(1.0,))
    with pytest.raises(ValueError):
        GeneratorSpec(dims=(5, 5), kind="mystery")
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        GeneratorSpec(dims=(5, 5), kind=KIND_PRESCRIBED, spectrum=(1.0,), seed=-1)
    # each kind's own fields are checked when the spec is built, before any draw
    for spectrum, match in [((), "non-empty"), (None, "non-empty"), ((1.0, 2.0), "non-increasing")]:
        with pytest.raises(ValueError, match=match):
            GeneratorSpec(dims=(5, 5), kind=KIND_PRESCRIBED, spectrum=spectrum)
    for rank in (0, 6):
        with pytest.raises(ValueError, match=f"signal rank {rank} out of range for 5x6"):
            GeneratorSpec(dims=(5, 6), kind=KIND_SIGNAL_NOISE, signal_rank=rank, noise_level=0.1)
    for rank in (None, 2.5, True):
        with pytest.raises(ValueError, match="signal rank must be an integer"):
            GeneratorSpec(dims=(5, 6), kind=KIND_SIGNAL_NOISE, signal_rank=rank, noise_level=0.1)
    for noise in (-0.1, math.inf, None):
        with pytest.raises(ValueError, match="noise level must be finite and non-negative"):
            GeneratorSpec(dims=(5, 6), kind=KIND_SIGNAL_NOISE, signal_rank=5, noise_level=noise)


@pytest.mark.parametrize("noise", [True, "0.5", math.nan, np.bool_(True)])
def test_noise_level_must_be_a_real_number(noise):
    # True was kept and written to JSON as true; "0.5" raised a bare TypeError
    with pytest.raises(ValueError, match="noise level must be finite and non-negative"):
        GeneratorSpec(dims=(5, 6), kind=KIND_SIGNAL_NOISE, signal_rank=2, noise_level=noise)
    for ok in (0, 0.5, np.float64(0.5)):
        assert GeneratorSpec(dims=(5, 6), kind=KIND_SIGNAL_NOISE, signal_rank=2, noise_level=ok).noise_level == ok


@pytest.mark.parametrize("dims", [(3, 4, 5), (4,), (4, 4.7), (4.0, 4), (True, 3), (np.float64(5.0), 5)])
def test_generator_spec_dims_must_be_two_integers(dims):
    # int() used to read (3, 4, 5) as 3x4, (4, 4.7) as 4x4 and (True, 3) as 1x3
    with pytest.raises(ValueError, match="dims must be"):
        GeneratorSpec(dims=dims, kind=KIND_PRESCRIBED, spectrum=(1.0,))
    spec = GeneratorSpec(dims=(np.int64(5), np.uint8(4)), kind=KIND_PRESCRIBED, spectrum=(1.0,))
    assert spec.dims == (5, 4) and all(type(d) is int for d in spec.dims)


# --- monte_carlo ---------------------------------------------------------------


def test_monte_carlo_exact_rank():
    F = prescribed((30, 24), (1.0,) * 4, seed=2)
    rep = monte_carlo(F, 4, 2, 10, master_seed=55)
    assert max(rep.per_trial_errors) <= 1e-8 * frobenius_norm(F)
    assert rep.verdict == VERDICT_SATISFIED
    assert len(rep.per_trial_errors) == 10


def test_monte_carlo_single_trial_deterministic():
    F = prescribed((20, 20), tuple(0.7**i for i in range(8)), seed=6)
    a = monte_carlo(F, 2, 3, 1, master_seed=99)
    b = monte_carlo(F, 2, 3, 1, master_seed=99)
    assert a.to_dict() == b.to_dict()
    assert a.std_error == 0.0


def test_monte_carlo_bound_validation_cell():
    values = tuple(0.5**i for i in range(1, 13))
    F = prescribed((40, 40), values, seed=3)
    rep = monte_carlo(F, 3, 4, 200, master_seed=777)
    assert rep.verdict == VERDICT_SATISFIED
    # the bound uses the tail energy of the requested spectrum
    tau = tail_energy(np.asarray(values), 3)
    assert rep.bound == pytest.approx((1 + 3 / 3) * tau, rel=1e-8)
    assert rep.mean_squared_error <= rep.bound + 3 * rep.std_error


def test_monte_carlo_statistics_recomputable():
    F = prescribed((25, 25), tuple(0.8**i for i in range(10)), seed=8)
    rep = monte_carlo(F, 2, 2, 31, master_seed=5)
    errs = np.array(rep.per_trial_errors)
    assert rep.mean_error == float(errs.mean())
    assert rep.mean_squared_error == float((errs**2).mean())
    assert rep.std_error == float((errs**2).std(ddof=1) / math.sqrt(len(errs)))
    assert (errs >= 0).all()


def test_monte_carlo_parallel_schedule_identical():
    F = prescribed((30, 30), tuple(0.6**i for i in range(9)), seed=12)
    # b*(r+s) = 180 entries per trial: 400 trials make three chunks, so four workers start a pool
    assert math.ceil(400 / (randlr.experiments.CHUNK_ENTRIES // (30 * (3 + 3)))) == 3
    serial = monte_carlo(F, 3, 3, 400, master_seed=42, workers=1)
    threaded = monte_carlo(F, 3, 3, 400, master_seed=42, workers=4)
    assert serial.to_dict() == threaded.to_dict()


def signal_noise(dims, seed):
    return generate(
        GeneratorSpec(dims=dims, kind=KIND_SIGNAL_NOISE, signal_rank=5, noise_level=0.3, seed=seed)
    )


# name -> (F, r, s); every case takes the sketched path (r + s < min(F.shape))
TRIAL_CASES = {
    "tall": lambda: (signal_noise((300, 40), 9), 5, 4),
    "square": lambda: (prescribed((60, 60), tuple(1.0 / i for i in range(1, 61)), seed=4), 6, 5),
    "wide": lambda: (signal_noise((40, 300), 10), 5, 4),
    "exact-rank": lambda: (prescribed((120, 60), (1.0,) * 6, seed=5), 6, 3),
    "graded": lambda: (prescribed((100, 100), tuple(0.5**i for i in range(100)), seed=6), 8, 6),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(TRIAL_CASES))
def test_run_trials_matches_factorize(name, workers):
    # _run_trials works in F's singular coordinates; factorize is the reference.
    F, r, s = TRIAL_CASES[name]()
    seed = 31
    errors = randlr.experiments._run_trials(F, r, s, 12, seed, workers)
    expected = [approximation_error(F, factorize(F, r, s, derive_seed(seed, i))) for i in range(12)]
    assert errors.shape == (12,)
    assert np.abs(errors - expected).max() <= 1e-13 * frobenius_norm(F)


def times_power_of_two(case, exponent):
    F, r, s = TRIAL_CASES[case]()
    return np.ldexp(F, exponent), r, s


ENGINE_CASES = {
    **TRIAL_CASES,
    "square-1/i-200": lambda: (prescribed((200, 200), tuple(1.0 / i for i in range(1, 201)), seed=7), 10, 19),
    # l = 10 unit singular values, sv_11 just below them, then 1e-12 dust: the tail
    # formula's hardest case, nearly all of the tail in one column the basis almost holds
    "cliff": lambda: (prescribed((120, 80), (1.0,) * 10 + (1.0 - 1e-9,) + (1e-12,) * 69, seed=8), 6, 4),
    "graded-times-2^330": lambda: times_power_of_two("graded", 330),
    "tall-times-2^-330": lambda: times_power_of_two("tall", -330),
}


def per_trial_errors(F, r, s, trials, master_seed):
    """The trial engine one trial at a time, evaluated in the engine's order: the
    sketch of trial i is its slot ``i % g`` of ``Z @ (diag(sv) Vt)^T``, where Z stacks
    a chunk's g trials' ``G^T`` (g from ``CHUNK_ENTRIES``) and holds ``G_i^T`` alone.
    With ``W = orth(diag(sv) Vt G_i)``, the residual's first l columns are formed and
    column j >= l adds ``sv_j^2 (1 - ||W[j]||^2)``."""
    _, sv, Vt = svd_factors(F)
    right = (sv[:, None] * Vt).T
    b, l = F.shape[1], r + s
    group = max(1, randlr.experiments.CHUNK_ENTRIES // (b * l))
    errors = []
    for i in range(trials):
        Z = np.zeros((group, l, b))
        Z[i % group] = gaussian_matrix(b, l, derive_seed(master_seed, i)).T
        W = thin_qr((Z.reshape(group * l, b) @ right).reshape(group, l, -1)[i % group].T)[0]
        top = W @ (W[:l].T * sv[:l])
        top.flat[: l * l : l + 1] -= sv[:l]
        rows = np.einsum("ji,ji->j", W[l:], W[l:])
        tail = np.einsum("j,j->", 1.0 - rows, sv[l:] ** 2)
        errors.append(np.sqrt(np.einsum("ij,ij->", top, top) + max(tail, 0.0)))
    return np.array(errors)


def full_residual_errors(F, r, s, trials, master_seed):
    """Independent oracle: ``||(W W^T - I) diag(sv)||_F`` from the whole k x k residual."""
    _, sv, Vt = svd_factors(F)
    errors = []
    for i in range(trials):
        W = thin_qr(sketch(sv[:, None] * Vt, r + s, derive_seed(master_seed, i)))[0]
        errors.append(frobenius_norm(W @ (W.T * sv) - np.diag(sv)))
    return np.array(errors)


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_run_trials_matches_full_residual(name):
    F, r, s = ENGINE_CASES[name]()
    errors = randlr.experiments._run_trials(F, r, s, 40, 31)
    assert np.abs(errors - full_residual_errors(F, r, s, 40, 31)).max() <= 1e-14 * frobenius_norm(F)


# Halko, Martinsson and Tropp (SIAM Rev. 53(2), 2011, Thm. 9.1): with Omega = Vt G,
# Omega1 its first r rows and Omega2 the rest, every draw whose Omega1 has full row rank
# gives tail_l <= err^2 <= X = tau + ||diag(sv[r:]) Omega2 pinv(Omega1)||_F^2, where
# tail_l is the energy past l = r + s (Eckart-Young for a rank-l basis).  Both sides
# are tight, so each gets the absolute slack SANDWICH_KAPPA * (eps ||F||_F)^2: the
# largest kappa needed on these cases was 8.7, on exact-rank, where both sides are dust.
SANDWICH_KAPPA = 16.0


@pytest.mark.parametrize("s", [2, 3, 6])
@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_run_trials_inside_hmt_sandwich(name, s):
    # the oracle rebuilds each trial's draw from its key, not through factorize
    F, r, _ = ENGINE_CASES[name]()
    _, sv, Vt = svd_factors(F)
    b, l = F.shape[1], r + s
    assert l < min(F.shape)
    errors = randlr.experiments._run_trials(F, r, s, 40, 31)
    tau, tail_l = np.sum(sv[r:] ** 2), np.sum(sv[l:] ** 2)
    slack = SANDWICH_KAPPA * (np.finfo(np.float64).eps * frobenius_norm(F)) ** 2
    for i, err in enumerate(errors):
        omega = Vt @ gaussian_matrix(b, l, derive_seed(31, i))
        X = tau + frobenius_norm(sv[r:, None] * omega[r:] @ np.linalg.pinv(omega[:r])) ** 2
        assert tail_l - slack <= err**2 <= X + slack, (i, err**2, tail_l, X)


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_run_trials_chunks_and_workers_do_not_change_errors(monkeypatch, name):
    F, r, s = ENGINE_CASES[name]()
    run = randlr.experiments._run_trials
    reference = per_trial_errors(F, r, s, 97, 31)
    assert np.array_equal(run(F, r, s, 97, 31), reference)
    # fewer trials cut the last chunk elsewhere: its zero slots change no trial
    assert np.array_equal(run(F, r, s, 40, 31), reference[:40])
    assert np.array_equal(run(F, r, s, 1, 31), reference[:1])
    # the chunk length is the sketch group's, so each patched size has its own reference
    # 8 trials per chunk: 97 trials leave a one-trial tail chunk
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 8 * F.shape[1] * (r + s))
    reference = per_trial_errors(F, r, s, 97, 31)
    for workers in (1, 2, 3):
        assert np.array_equal(run(F, r, s, 97, 31, workers), reference)
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 1)  # one trial per chunk
    reference = per_trial_errors(F, r, s, 97, 31)
    for workers in (1, 2, 3):
        assert np.array_equal(run(F, r, s, 97, 31, workers), reference)


def test_square_input_chunks_by_b_times_l(monkeypatch):
    # 200 x 200 at l = 20: 8 trials of b*l = 4,000 entries per chunk, so 25 draws for 200 trials
    calls = []

    def counting(rows, cols, keys):
        calls.append(len(keys))
        return keyed_gaussian_matrices(rows, cols, keys)

    monkeypatch.setattr(randlr.experiments, "keyed_gaussian_matrices", counting)
    F = prescribed((200, 200), tuple(1.0 / i for i in range(1, 201)), seed=7)
    randlr.experiments._run_trials(F, 10, 10, 200, 31)
    assert calls == [8] * 25


def test_pool_threads_bounded_by_chunks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
    requested = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            super().__init__(max_workers=min(max_workers, 4))  # never start a huge pool

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    F, r, s = TRIAL_CASES["tall"]()
    serial = randlr.experiments._run_trials(F, r, s, 12, 31)
    assert np.array_equal(randlr.experiments._run_trials(F, r, s, 12, 31, 10**6), serial)
    assert requested == []  # one chunk: no pool at all
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 5 * 40 * (r + s))  # 5 trials per chunk
    serial = randlr.experiments._run_trials(F, r, s, 12, 31)
    assert requested == []
    assert np.array_equal(randlr.experiments._run_trials(F, r, s, 12, 31, 10**6), serial)
    assert requested == [3]


def test_pool_threads_bounded_by_allowed_cpus(monkeypatch):
    requested = []

    class Recorder:  # records the pool size and runs the chunks serially: no thread starts
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, chunks):
            return map(fn, chunks)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 1)  # one trial per chunk
    F, r, s = TRIAL_CASES["tall"]()
    serial = randlr.experiments._run_trials(F, r, s, 12, 31)
    assert requested == []
    assert np.array_equal(randlr.experiments._run_trials(F, r, s, 12, 31, 100000), serial)
    assert requested == [3]


def test_monte_carlo_fraction_below_epsilon():
    # bench has no budget; beat fills both fields (test_beat_greedy_baseline_feasible)
    F = prescribed((20, 18), tuple(0.5**i for i in range(6)), seed=14)
    rep = monte_carlo(F, 2, 2, 12, master_seed=1)
    assert rep.epsilon is None and rep.fraction_below_epsilon is None


def test_monte_carlo_report_config():
    F = prescribed((16, 16), (2.0, 1.0), seed=1)
    rep = monte_carlo(F, 1, 2, 3, master_seed=17)
    cfg = rep.config
    assert cfg["rank"] == 1 and cfg["oversampling"] == 2 and cfg["trials"] == 3
    assert cfg["master_seed"] == 17
    assert cfg["seed_mix"] == "seedsequence-spawn/v2"
    assert rep.to_dict()["schema_version"] == 1


def test_monte_carlo_validates():
    F = np.eye(5)
    with pytest.raises(ValueError):
        monte_carlo(F, 1, 2, 0, master_seed=1)
    with pytest.raises(ValueError):
        monte_carlo(F, 1, 2, 5, master_seed=1, mode="bogus")


def forbid_decomposition(monkeypatch):
    """Make every SVD, QR and inverse raise: the R factor of a tall F, its
    spectrum and the moment's batched decompositions."""

    def no_svd(*_, **__):
        raise AssertionError("decomposed before validation")

    for name in ("svd", "qr", "inv"):
        monkeypatch.setattr(np.linalg, name, no_svd)


def validation_inputs():
    """A square F and a tall one, which bench and beat reduce to its R factor."""
    return np.eye(6), np.random.default_rng(4).standard_normal((300, 20))


def test_monte_carlo_validates_before_decomposing(monkeypatch):
    forbid_decomposition(monkeypatch)
    for F in validation_inputs():
        bad_rank = min(F.shape) + 1
        for r, s, trials, mode in [(1, 1, 5, "literal"), (0, 2, 5, "literal"), (bad_rank, 2, 5, "literal"),
                                   (1, 2, 0, "literal"), (1, 2, 5, "bogus")]:
            with pytest.raises(ValueError):
                monte_carlo(F, r, s, trials, master_seed=1, mode=mode)
        with pytest.raises(ValueError):
            beat_baseline_experiment(F, bad_rank, METHOD_COLUMN_SELECT, 5, master_seed=1)
        with pytest.raises(ValueError):
            beat_baseline_experiment(F, 1, METHOD_COLUMN_SELECT, 5, master_seed=1, mode="bogus")


def test_negative_seed_rejected_before_decomposing(monkeypatch):
    forbid_decomposition(monkeypatch)
    calls = [lambda: verify_gaussian_pinv_moment(2, 3, 10, master_seed=-1)]
    for F in validation_inputs():
        calls += [
            lambda F=F: monte_carlo(F, 1, 2, 5, master_seed=-1),
            lambda F=F: monte_carlo(F, 1, min(F.shape) - 1, 5, master_seed=-1),  # exact fallback
            lambda F=F: beat_baseline_experiment(F, 1, METHOD_COLUMN_SELECT, 5, master_seed=-1),
        ]
    for call in calls:
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            call()


def test_trials_past_one_spawn_word_rejected_before_decomposing(monkeypatch):
    # trial indices must stay below 2**32; nothing of size 2**32 is allocated
    forbid_decomposition(monkeypatch)
    calls = [lambda: verify_gaussian_pinv_moment(2, 3, 2**32 + 1, master_seed=1)]
    for F in validation_inputs():
        calls += [
            lambda F=F: monte_carlo(F, 1, 2, 2**32 + 1, master_seed=1),
            lambda F=F: beat_baseline_experiment(F, 1, METHOD_COLUMN_SELECT, 2**32 + 1, master_seed=1),
        ]
    for call in calls:
        with pytest.raises(ValueError, match="trials must be at most 2\\*\\*32"):
            call()


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_validated_before_decomposing(monkeypatch, workers):
    forbid_decomposition(monkeypatch)
    for F in validation_inputs():
        with pytest.raises(ValueError, match="worker"):
            monte_carlo(F, 1, 2, 5, master_seed=1, workers=workers)


def test_forbid_decomposition_stops_the_r_factor_route(monkeypatch):
    forbid_decomposition(monkeypatch)
    with pytest.raises(AssertionError, match="decomposed before validation"):
        randlr.core._tall_r_factor(np.ones((3000, 40)))


DIAG = np.diag(np.arange(20.0, 0.0, -1.0))
DIAG_SPECTRUM = SingularSpectrum(np.arange(20.0, 0.0, -1.0), (20, 20))
RANK_RANGE, S_RANGE, TRIALS_RANGE = (0, -1, 21), (0, 1, -1), (0, -1, 2**32 + 1)

# Every integer argument of a public function: (function, argument, a valid
# value, the call with the argument set to x, the name the error starts
# with, the integers out of its range).  It includes each probe that once
# failed inside numpy, raised a TypeError naming no argument, or returned.
INTEGER_ARGUMENTS = [
    (randlr.core.check_seed, "seed", 1, lambda x: randlr.core.check_seed(x), "seed", (-1,)),
    (randlr.core.check_rank, "r", 3, lambda x: randlr.core.check_rank(x, (20, 20)), "rank", RANK_RANGE),
    (randlr.core.check_trials, "trials", 10, lambda x: randlr.core.check_trials(x), "trials", TRIALS_RANGE),
    (derive_seed, "master_seed", 1, lambda x: derive_seed(x, 0), "seed", (-1,)),
    (derive_seed, "index", 1, lambda x: derive_seed(1, x), "index", (-1,)),
    (derive_keys, "master_seed", 1, lambda x: derive_keys(x, 3), "seed", (-1,)),
    (derive_keys, "trials", 3, lambda x: derive_keys(1, x), "trials", (-1, 2**32 + 1)),
    (gaussian_matrix, "rows", 3, lambda x: gaussian_matrix(x, 2, 1), "rows and cols", (0, -1)),
    (gaussian_matrix, "cols", 2, lambda x: gaussian_matrix(3, x, 1), "rows and cols", (0, -1)),
    (gaussian_matrix, "seed", 1, lambda x: gaussian_matrix(3, 2, x), "seed", (-1,)),
    (keyed_gaussian_matrices, "rows", 3, lambda x: keyed_gaussian_matrices(x, 2, [[1, 2]]), "rows and cols", (0, -1)),
    (keyed_gaussian_matrices, "cols", 2, lambda x: keyed_gaussian_matrices(3, x, [[1, 2]]), "rows and cols", (0, -1)),
    (SingularSpectrum, "source_dims", 20, lambda x: SingularSpectrum([1.0], (x, 20)), "source_dims", (0, -1)),
    (sketch, "width", 4, lambda x: sketch(DIAG, x, 1), "width", (0, -1)),
    (sketch, "seed", 1, lambda x: sketch(DIAG, 4, x), "seed", (-1,)),
    (factorize, "r", 3, lambda x: factorize(DIAG, x, 3, 1), "target rank", RANK_RANGE),
    (factorize, "s", 3, lambda x: factorize(DIAG, 3, x, 1), "oversampling", S_RANGE),
    (factorize, "seed", 1, lambda x: factorize(DIAG, 3, 3, x), "seed", (-1,)),
    (tail_energy, "r", 3, lambda x: tail_energy(DIAG_SPECTRUM, x), "rank", (-1,)),
    (effective_tail_energy, "r", 3, lambda x: effective_tail_energy(DIAG_SPECTRUM, x), "rank", (-1,)),
    (expected_error_bound, "r", 3, lambda x: expected_error_bound(x, 3, 1.0), "rank", (0, -1)),
    (expected_error_bound, "s", 3, lambda x: expected_error_bound(3, x, 1.0), "oversampling", S_RANGE),
    (choose_oversampling, "r", 3, lambda x: choose_oversampling(x, 1.0, 5.0), "rank", (0, -1)),
    (plan, "r", 3, lambda x: plan(DIAG_SPECTRUM, x, 500.0), "rank", RANK_RANGE),
    (column_select, "r", 3, lambda x: column_select(DIAG, x), "rank", RANK_RANGE),
    (GeneratorSpec, "dims", 5, lambda x: GeneratorSpec((x, 6), KIND_SIGNAL_NOISE, signal_rank=2, noise_level=0.1),
     "dims", (0, -1)),
    (GeneratorSpec, "signal_rank", 2, lambda x: GeneratorSpec((5, 6), KIND_SIGNAL_NOISE, signal_rank=x,
                                                              noise_level=0.1), "signal rank", (0, -1, 6)),
    (GeneratorSpec, "seed", 0, lambda x: GeneratorSpec((5, 6), KIND_PRESCRIBED, spectrum=(1.0,), seed=x),
     "seed", (-1,)),
    (monte_carlo, "r", 3, lambda x: monte_carlo(DIAG, x, 3, 10, 1), "target rank", RANK_RANGE),
    (monte_carlo, "s", 3, lambda x: monte_carlo(DIAG, 3, x, 10, 1), "oversampling", S_RANGE),
    (monte_carlo, "trials", 10, lambda x: monte_carlo(DIAG, 3, 3, x, 1), "trials", TRIALS_RANGE),
    (monte_carlo, "master_seed", 1, lambda x: monte_carlo(DIAG, 3, 3, 10, x), "seed", (-1,)),
    (monte_carlo, "workers", 2, lambda x: monte_carlo(DIAG, 3, 3, 10, 1, workers=x), "workers", (0, -1)),
    (verify_gaussian_pinv_moment, "r", 2, lambda x: verify_gaussian_pinv_moment(x, 3, 10, 1), "rank", (0, -1)),
    (verify_gaussian_pinv_moment, "s", 3, lambda x: verify_gaussian_pinv_moment(2, x, 10, 1), "oversampling", S_RANGE),
    (verify_gaussian_pinv_moment, "trials", 10, lambda x: verify_gaussian_pinv_moment(2, 3, x, 1), "trials",
     (0, 1, -1, 2**32 + 1)),
    (verify_gaussian_pinv_moment, "master_seed", 1, lambda x: verify_gaussian_pinv_moment(2, 3, 10, x), "seed",
     (-1,)),
    (beat_baseline_experiment, "r", 3, lambda x: beat_baseline_experiment(DIAG, x, METHOD_COLUMN_SELECT, 10, 1),
     "target rank", RANK_RANGE),
    (beat_baseline_experiment, "trials", 10,
     lambda x: beat_baseline_experiment(DIAG, 3, METHOD_COLUMN_SELECT, x, 1), "trials", TRIALS_RANGE),
    (beat_baseline_experiment, "master_seed", 1,
     lambda x: beat_baseline_experiment(DIAG, 3, METHOD_COLUMN_SELECT, 10, x), "seed", (-1,)),
]

# Reports the package builds from arguments it has already checked.
REPORTS = {"ApproximationPlan", "FactoredApproximation", "MomentCheck"}


def public_integer_arguments() -> set:
    """(function, argument) for each argument annotated as an integer, or a
    tuple of them, of every callable in the package's and each module's
    ``__all__``."""
    found = set()
    for module in [randlr] + [importlib.import_module(f"randlr.{layer}") for layer in
                              ("core", "rangefinder", "planner", "baselines", "experiments", "io", "cli")]:
        for name in module.__all__:
            obj = getattr(module, name)
            if not callable(obj) or name in REPORTS:
                continue
            for param in inspect.signature(obj).parameters.values():
                # check_trials' least is the bound of its rule, which the package sets
                if re.search(r"\bint\b", str(param.annotation)) and (name, param.name) != ("check_trials", "least"):
                    found.add((obj, param.name))
    return found


def test_integer_argument_table_covers_every_public_function():
    assert {(fn, arg) for fn, arg, *_ in INTEGER_ARGUMENTS} == public_integer_arguments()


@pytest.mark.parametrize("fn,arg,valid,call,label,out_of_range", INTEGER_ARGUMENTS,
                         ids=[f"{fn.__name__}-{arg}" for fn, arg, *_ in INTEGER_ARGUMENTS])
def test_integer_argument_is_checked_by_name_before_any_work(monkeypatch, fn, arg, valid, call, label,
                                                             out_of_range):
    call(np.int64(valid))
    forbid_decomposition(monkeypatch)
    for bad in (2.5, True, np.float64(3), *out_of_range):
        with pytest.raises(ValueError, match=f"^{label} "):
            call(bad)


def test_tall_reports_equal_the_direct_svd_route(monkeypatch):
    # 3000 x 40 is past dgesdd's crossover, so bench and beat work on F's R
    # factor.  Running them on F itself, with the SVD of F for the trials,
    # changes no bit of bench; in beat it moves only the last digits of the
    # column-selection error and the budget made from it.
    F = signal_noise((3000, 40), 12)

    def reports():
        bench = monte_carlo(F, 5, 4, 30, master_seed=3)
        beat = beat_baseline_experiment(F, 5, METHOD_COLUMN_SELECT, 30, master_seed=3)
        assert len(beat.per_trial_errors) == 30
        return bench.to_dict(), beat.to_dict()

    through_r, beat = reports()
    monkeypatch.setattr(randlr.experiments, "_tall_r_factor", lambda M: M)
    direct, direct_beat = reports()
    assert direct == through_r
    moved = [[r["config"].pop("baseline_error"), r["config"]["plan"].pop("epsilon"), r.pop("epsilon")]
             for r in (beat, direct_beat)]
    assert direct_beat == beat
    assert moved[1] == pytest.approx(moved[0], rel=1e-13)


def test_bench_plan_and_beat_report_the_same_tau():
    # exact rank: the raw tail is rounding dust, which plan snaps to zero
    F = prescribed((30, 24), (1.0,) * 4, seed=2)
    tau = plan(singular_values(F), 4, 1.0).tail_energy
    assert tau == 0.0
    assert monte_carlo(F, 4, 2, 3, master_seed=5).config["tail_energy"] == tau
    assert beat_baseline_experiment(F, 4, METHOD_COLUMN_SELECT, 3, master_seed=5).config["tail_energy"] == tau
    # tall inputs past dgesdd's rescaling thresholds: at 1e-139 F's largest
    # entry is below 2**-459, at 1e137 its R factor's is above 2**459, and
    # the SVD of R would move tau's last bits
    G = np.random.default_rng(8).standard_normal((300, 20))
    for F in (1e-139 * G, 1e137 * G):
        tau = plan(singular_values(F), 4, 1.0).tail_energy
        assert tau > 0.0
        assert monte_carlo(F, 4, 2, 3, master_seed=5).config["tail_energy"] == tau
        assert beat_baseline_experiment(F, 4, METHOD_COLUMN_SELECT, 3, master_seed=5).config["tail_energy"] == tau


@pytest.mark.parametrize("shape", [(3000, 40), (200, 200), (60, 40)], ids="{0[0]}x{0[1]}".format)
def test_bench_and_beat_qr_factor_a_tall_f_once(monkeypatch, shape):
    # A tall F is reduced once: its R factor serves the spectrum, the trials
    # and column selection, so no other QR has F's a rows and no SVD sees an
    # a x b matrix.  F that is not tall is never QR-factored whole.
    F = signal_noise(shape, 6)
    tall = shape[0] >= shape[1] * 11 // 6
    qr_inputs, svd_shapes = [], []
    qr, svd = np.linalg.qr, np.linalg.svd
    monkeypatch.setattr(np.linalg, "qr", lambda M, *args, **kw: qr_inputs.append(M) or qr(M, *args, **kw))
    monkeypatch.setattr(np.linalg, "svd", lambda M, *args, **kw: svd_shapes.append(M.shape) or svd(M, *args, **kw))
    for run in (
        lambda: monte_carlo(F, 5, 4, 30, master_seed=3),
        lambda: beat_baseline_experiment(F, 5, METHOD_COLUMN_SELECT, 30, master_seed=3),
    ):
        qr_inputs.clear()
        svd_shapes.clear()
        run()
        full_height = [M for M in qr_inputs if M.ndim == 2 and len(M) == len(F)]
        if tall:
            assert len(full_height) == 1 and full_height[0] is F
            assert F.shape not in svd_shapes
        else:
            assert all(M.shape != F.shape for M in full_height)


# --- pseudoinverse moment --------------------------------------------------------


@pytest.mark.parametrize(
    "r,s,expected",
    [(1, 2, 1.0), (5, 6, 1.0), (10, 21, 0.5)],
)
def test_moment_estimates(r, s, expected):
    check = verify_gaussian_pinv_moment(r, s, 500, master_seed=11)
    assert check.expected == pytest.approx(expected)
    assert check.passed
    assert abs(check.estimate - expected) <= 4.0 * check.std_error


def test_moment_deterministic():
    a = verify_gaussian_pinv_moment(3, 4, 50, master_seed=2)
    b = verify_gaussian_pinv_moment(3, 4, 50, master_seed=2)
    assert a == b


C2_CELLS = list(itertools.product((1, 2, 5, 10), (2, 3, 6, 11)))


def moment_samples(r, s, trials, seed):
    """The moment check's samples by draw: ``_map_draws`` of its r x (r+s) draws."""
    return randlr.experiments._map_draws(r, r + s, trials, seed, randlr.experiments._stack_pinv_energies)


@pytest.mark.parametrize("idx", range(len(C2_CELLS)), ids=[f"r{r}-s{s}" for r, s in C2_CELLS])
def test_moment_std_error_is_the_plain_formula(idx):
    # C2's cells and seeds: the power-of-two scaling shared with bench changes no bit
    r, s = C2_CELLS[idx]
    seed = derive_seed(77, idx)
    samples = moment_samples(r, s, 2000, seed)
    check = verify_gaussian_pinv_moment(r, s, 2000, seed)
    assert check.std_error == float(samples.std(ddof=1) / math.sqrt(2000))


@pytest.mark.parametrize("r,s", [(3, 3), (10, 11)])
def test_moment_samples_match_pseudoinverse(r, s):
    samples = moment_samples(r, s, 200, 8)
    for i, sample in enumerate(samples):
        G = gaussian_matrix(r, r + s, derive_seed(8, i))
        assert sample == pytest.approx(np.sum(np.linalg.pinv(G, rcond=RANK_TOL) ** 2), rel=1e-12)


def test_moment_chunks_do_not_change_samples(monkeypatch):
    whole = moment_samples(2, 3, 25, 4)
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 7 * 2 * 5)  # 7 draws per chunk
    assert np.array_equal(moment_samples(2, 3, 25, 4), whole)


def test_moment_validates():
    with pytest.raises(ValueError):
        verify_gaussian_pinv_moment(0, 2, 10, 1)
    with pytest.raises(ValueError):
        verify_gaussian_pinv_moment(1, 1, 10, 1)
    with pytest.raises(ValueError):
        verify_gaussian_pinv_moment(1, 2, 1, 1)


def test_oversized_moment_draw_rejected_before_drawing(monkeypatch):
    def no_draw(*_, **__):
        raise AssertionError("drew before validation")

    monkeypatch.setattr(randlr.experiments, "derive_keys", no_draw)
    monkeypatch.setattr(randlr.experiments, "keyed_gaussian_matrices", no_draw)
    assert randlr.experiments.MAX_DRAW_ENTRIES == 2**27
    with pytest.raises(ValueError, match="more than 2\\*\\*27"):
        verify_gaussian_pinv_moment(1, 2**27, 2, master_seed=1)  # one entry past the cap


def test_moment_r_factor_matches_the_svd_rule():
    # 20 shapes x 500 seeded draws; only rounding separates the two routes
    for r in (1, 2, 5, 10, 30):
        for s in (2, 3, 6, 21):
            draws = keyed_gaussian_matrices(r, r + s, derive_keys(derive_seed(14, 100 * r + s), 500))
            fast = randlr.experiments._stack_pinv_energies(draws)
            exact = randlr.experiments._svd_pinv_energies(draws)
            assert np.all(np.abs(fast - exact) <= 1e-12 * exact), (r, s)


def uncertified_draws(r, s, zero_row=1):
    """An exactly singular draw (row ``zero_row`` zero) and one with condition number 1e13."""
    singular = gaussian_matrix(r, r + s, 1)
    singular[zero_row] = 0.0
    left = thin_qr(gaussian_matrix(r, r, 2))[0]
    right = thin_qr(gaussian_matrix(r + s, r, 3))[0]
    ill = (left * np.geomspace(1.0, 1e-13, r)) @ right.T
    return np.stack([singular, ill])


@pytest.mark.parametrize("zero_row", [0, 1, 3], ids=["first", "middle", "last"])
def test_moment_uncertified_draws_take_the_svd_rule(zero_row):
    # a zero row puts a zero on R's diagonal, whose inverse is inf or NaN
    r, s = 4, 3
    gaussians = keyed_gaussian_matrices(r, r + s, derive_keys(9, 6))
    odd = uncertified_draws(r, s, zero_row)
    mixed = np.concatenate([gaussians[:2], odd[:1], gaussians[2:5], odd[1:], gaussians[5:]])
    energies = randlr.experiments._stack_pinv_energies(mixed)
    for i, draw in zip((2, 6), odd):
        assert energies[i] == randlr.experiments._svd_pinv_energies(draw[None])[0]
        assert energies[i] == pytest.approx(np.sum(np.linalg.pinv(draw, rcond=RANK_TOL) ** 2), rel=1e-12)
    assert np.isfinite(energies[2]) and energies[6] < 1e20  # the SVD rule dropped sigma = 0 and 1e-13
    alone = randlr.experiments._stack_pinv_energies(gaussians)
    assert np.array_equal(np.delete(energies, [2, 6]), alone)
    for i, draw in enumerate(gaussians):
        assert randlr.experiments._stack_pinv_energies(draw[None])[0] == alone[i]


@pytest.mark.parametrize("scale_exp", [0, 500, -500])
@pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 10, 30, 100, 400])
def test_upper_inverse_matches_numpy_inv(r, scale_exp):
    # the moment's R factors, as many as one chunk holds (at least one)
    s = 3
    count = max(1, randlr.experiments.CHUNK_ENTRIES // (r * (r + s)))
    draws = keyed_gaussian_matrices(r, r + s, derive_keys(r, count))
    R = np.ldexp(np.linalg.qr(draws.transpose(0, 2, 1), mode="r"), scale_exp)
    X = randlr.experiments._upper_inverse(R)
    assert np.array_equal(np.tril(X, -1), np.zeros_like(X))
    # scaling by a power of two scales every rounding step: compare at unit scale
    unit = np.ldexp(X, scale_exp)
    ref = np.ldexp(np.linalg.inv(R), scale_exp)
    err = np.linalg.norm(unit - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert err.max() <= 1e-13, err.max()
    if scale_exp:
        assert np.array_equal(unit, randlr.experiments._upper_inverse(np.ldexp(R, -scale_exp)))


def test_moment_draw_whose_inverse_overflows_takes_the_svd_rule():
    # a row of 1e-310 (subnormal) puts 1e-310 on the diagonal of R, and its
    # reciprocal overflows: the certificate fails on inf or NaN
    r, s = 4, 3
    gaussians = keyed_gaussian_matrices(r, r + s, derive_keys(5, 3))
    tiny = gaussians[1].copy()
    tiny[2] = 1e-310 * thin_qr(gaussian_matrix(r + s, 1, 4))[0][:, 0]
    R = np.linalg.qr(tiny.T, mode="r")
    assert 0.0 < abs(R[2, 2]) < 1e-300
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(randlr.experiments._upper_inverse(R[None])).all()
    stack = np.stack([gaussians[0], tiny, gaussians[2]])
    with warnings.catch_warnings():  # the inf and NaN warn of nothing past the certificate
        warnings.simplefilter("error", RuntimeWarning)
        energies = randlr.experiments._stack_pinv_energies(stack)
    assert energies[1] == randlr.experiments._svd_pinv_energies(tiny[None])[0]
    assert energies[1] == pytest.approx(np.sum(np.linalg.pinv(tiny, rcond=RANK_TOL) ** 2), rel=1e-12)
    assert np.isfinite(energies[1])  # the SVD rule dropped sigma = 1e-310
    alone = randlr.experiments._stack_pinv_energies(gaussians)
    assert energies[0] == alone[0] and energies[2] == alone[2]


def test_moment_routes_are_counted(monkeypatch):
    svd_rule = randlr.experiments._svd_pinv_energies
    routed = []

    def counting(draws):
        routed.append(len(draws))
        return svd_rule(draws)

    monkeypatch.setattr(randlr.experiments, "_svd_pinv_energies", counting)
    for r, s in [(1, 2), (5, 6), (10, 21)]:
        moment_samples(r, s, 500, 11)
    assert routed == []  # every Gaussian draw of these runs is certified
    r, s = 4, 3
    stack = np.concatenate([keyed_gaussian_matrices(r, r + s, derive_keys(9, 6)), uncertified_draws(r, s)])
    randlr.experiments._stack_pinv_energies(stack)
    assert routed == [2]


# --- beat_baseline_experiment ------------------------------------------------------


def test_beat_greedy_baseline_feasible():
    spec = GeneratorSpec(dims=(60, 50), kind=KIND_SIGNAL_NOISE, signal_rank=4, noise_level=0.05, seed=5)
    F = generate(spec)
    rep = beat_baseline_experiment(F, 4, METHOD_COLUMN_SELECT, 100, master_seed=31)
    assert rep.verdict == VERDICT_SATISFIED
    assert rep.config["plan"]["feasible"]
    assert rep.mean_squared_error < rep.epsilon
    assert 0.0 <= rep.fraction_below_epsilon <= 1.0
    assert rep.epsilon == pytest.approx(rep.config["baseline_error"] ** 2, rel=1e-12)


def test_beat_optimal_baseline_reports_infeasible():
    spec = GeneratorSpec(dims=(40, 30), kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.05, seed=8)
    F = generate(spec)
    rep = beat_baseline_experiment(F, 3, METHOD_TRUNCATED_SVD, 50, master_seed=1)
    assert rep.verdict == VERDICT_NOT_APPLICABLE
    assert not rep.config["plan"]["feasible"]
    assert rep.per_trial_errors == ()
    assert rep.config["trials"] == 0
    assert rep.config["trials_requested"] == 50
    assert rep.epsilon is not None
    assert rep.config["plan"]["reason"] == INFEASIBLE_REASON


def test_beat_exact_rank_input_colsel_is_at_the_floor():
    # Column selection is exact to rounding on an exact-rank-r input.  Its
    # error of about 1e-15 is rounding dust, as the snapped tau = 0 is, so
    # it is the floor; budgeting it planned s = 2 and reported
    # bound-violated on trial errors of the same dust.
    F = prescribed((30, 25), (1.0,) * 5, seed=9)
    for mode in MODES:
        rep = beat_baseline_experiment(F, 5, METHOD_COLUMN_SELECT, 20, master_seed=3, mode=mode)
        assert_at_floor(rep)
        assert rep.config["tail_energy"] == 0.0 and rep.epsilon == 0.0
        assert 0.0 < rep.config["baseline_error"] <= 1e-8 * frobenius_norm(F)


def test_beat_validates():
    with pytest.raises(ValueError):
        beat_baseline_experiment(np.eye(5), 1, "pca", 10, 1)
    with pytest.raises(ValueError):
        beat_baseline_experiment(np.eye(5), 1, METHOD_COLUMN_SELECT, 0, 1)


# --- the truncated-SVD baseline at the optimal-error floor -------------------

FLOOR_TAILS = (1e-6, 1e-9, 3e-11, 5e-12, 2e-12, 1.2e-12, 1e-13, 1e-15, 0.0)


def assert_at_floor(rep):
    assert rep.verdict == VERDICT_NOT_APPLICABLE
    assert rep.config["plan"]["feasible"] is False
    assert rep.config["plan"]["reason"] == INFEASIBLE_REASON
    assert rep.per_trial_errors == () and rep.config["trials"] == 0


@pytest.mark.parametrize("tail", FLOOR_TAILS)
def test_beat_truncated_svd_is_at_the_floor_however_small_the_tail(tail):
    # Five singular values of 1 and 35 at `tail`: a measured residual and
    # the tail energy drift apart here, so only a budget of tau itself
    # stays on the floor.
    F = prescribed((60, 40), (1.0,) * 5 + (tail,) * 35, seed=3)
    rep = beat_baseline_experiment(F, 5, METHOD_TRUNCATED_SVD, 20, master_seed=7)
    assert_at_floor(rep)
    tau = rep.config["tail_energy"]
    assert rep.epsilon == tau
    assert rep.config["baseline_error"] == math.sqrt(tau)


def test_beat_truncated_svd_is_at_the_floor_at_full_rank():
    F = generate(
        GeneratorSpec(dims=(60, 40), kind=KIND_SIGNAL_NOISE, signal_rank=5, noise_level=0.1, seed=3)
    )
    rep = beat_baseline_experiment(F, 40, METHOD_TRUNCATED_SVD, 20, master_seed=7)
    assert_at_floor(rep)
    assert rep.epsilon == 0.0 and rep.config["baseline_error"] == 0.0


def test_beat_truncated_svd_literal_budget_is_the_plain_floor_error():
    F = prescribed((60, 40), (1.0,) * 5 + (1e-3,) * 35, seed=3)
    rep = beat_baseline_experiment(F, 5, METHOD_TRUNCATED_SVD, 20, master_seed=7, mode=MODE_LITERAL)
    assert rep.epsilon == rep.config["baseline_error"] == math.sqrt(rep.config["tail_energy"])
    assert rep.config["plan"]["epsilon"] == rep.epsilon
    assert_at_floor(rep)


@pytest.mark.parametrize(
    "dims, r, spec",
    [
        ((100, 80), 5, dict(kind=KIND_SIGNAL_NOISE, signal_rank=5, noise_level=0.05, seed=21)),
        ((200, 200), 10, dict(kind=KIND_PRESCRIBED, spectrum=tuple(1.0 / np.arange(1, 201)), seed=1)),
        ((3000, 40), 8, dict(kind=KIND_SIGNAL_NOISE, signal_rank=8, noise_level=0.5, seed=2)),
        ((60, 40), 3, dict(kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.3, seed=3)),
    ],
    ids=["c4-noisy", "square-spectrum", "tall-trials", "small-many"],
)
def test_beat_truncated_svd_error_matches_its_measured_residual(dims, r, spec):
    F = generate(GeneratorSpec(dims=dims, **spec))
    rep = beat_baseline_experiment(F, r, METHOD_TRUNCATED_SVD, 10, master_seed=1)
    U, vals, Vt = np.linalg.svd(F, full_matrices=False)
    measured = frobenius_norm(F - U[:, :r] @ (vals[:r, None] * Vt[:r]))
    assert rep.config["baseline_error"] == pytest.approx(measured, rel=1e-12, abs=0.0)
    assert_at_floor(rep)


def spy_on_svd(monkeypatch):
    """Record the keyword arguments of every np.linalg.svd call."""
    calls = []
    svd = np.linalg.svd

    def spy(a, **kwargs):
        calls.append(kwargs)
        return svd(a, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


def count_calls(monkeypatch, module, name):
    """Log each call of ``module``'s ``name``."""
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_beat_truncated_svd_takes_one_values_only_svd(monkeypatch):
    F = generate(
        GeneratorSpec(dims=(40, 30), kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.05, seed=8)
    )
    svds = spy_on_svd(monkeypatch)
    measured = count_calls(monkeypatch, randlr.experiments, "approximation_error")
    rep = beat_baseline_experiment(F, 3, METHOD_TRUNCATED_SVD, 50, master_seed=1)
    assert rep.verdict == VERDICT_NOT_APPLICABLE
    # building the truncated SVD would add a thin SVD with its vectors
    assert svds == [{"compute_uv": False}]
    assert measured == []


def test_beat_column_select_still_builds_and_measures(monkeypatch):
    F = generate(
        GeneratorSpec(dims=(40, 30), kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.05, seed=8)
    )
    svds = spy_on_svd(monkeypatch)
    built = count_calls(monkeypatch, randlr.experiments, "column_select")
    measured = count_calls(monkeypatch, randlr.experiments, "approximation_error")
    rep = beat_baseline_experiment(F, 3, METHOD_COLUMN_SELECT, 50, master_seed=1)
    assert rep.verdict == VERDICT_SATISFIED and not rep.config["plan"]["fallback"]
    # the spectrum, then the trials' factors
    assert svds == [{"compute_uv": False}, {"full_matrices": False}]
    assert built == ["column_select"] and measured == ["approximation_error"]
