"""Tests for generators, the Monte Carlo harness, and the end-to-end runs."""

import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import randlr.experiments
from randlr.core import (
    SingularSpectrum,
    derive_seed,
    frobenius_norm,
    gaussian_matrix,
    keyed_gaussian_matrices,
    pseudoinverse,
    singular_values,
    svd_factors,
)
from randlr.experiments import (
    KIND_PRESCRIBED,
    KIND_SIGNAL_NOISE,
    VERDICT_NOT_APPLICABLE,
    VERDICT_SATISFIED,
    GeneratorSpec,
    beat_baseline_experiment,
    gen_prescribed_spectrum,
    gen_signal_plus_noise,
    generate,
    monte_carlo,
    verify_gaussian_pinv_moment,
)
from randlr.planner import INFEASIBLE_REASON, plan, tail_energy
from randlr.rangefinder import (
    METHOD_COLUMN_SELECT,
    METHOD_TRUNCATED_SVD,
    approximation_error,
    build_basis,
    factorize,
    sketch,
)


def prescribed(dims, values, seed):
    return gen_prescribed_spectrum(
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
    assert np.array_equal(gen_prescribed_spectrum(spec), gen_prescribed_spectrum(spec))


def test_prescribed_validation():
    with pytest.raises(ValueError):
        prescribed((4, 4), (1.0, 2.0), seed=0)  # increasing
    with pytest.raises(ValueError):
        prescribed((4, 4), (1.0, 0.5, 0.4, 0.3, 0.2), seed=0)  # too long
    with pytest.raises(ValueError):
        prescribed((4, 4), (-1.0,), seed=0)
    with pytest.raises(ValueError):
        prescribed((4, 4), (), seed=0)
    with pytest.raises(ValueError):
        gen_prescribed_spectrum(
            GeneratorSpec(dims=(4, 4), kind=KIND_SIGNAL_NOISE, signal_rank=1, noise_level=0.0)
        )


def test_signal_noise_exact_rank_at_zero_noise():
    spec = GeneratorSpec(dims=(20, 15), kind=KIND_SIGNAL_NOISE, signal_rank=4, noise_level=0.0, seed=7)
    F = gen_signal_plus_noise(spec)
    sv = singular_values(F).values
    assert np.allclose(sv[:4], 1.0, atol=1e-10)  # unit top singular values
    assert sv[4] <= 1e-10


def test_signal_noise_spectral_gap():
    spec = GeneratorSpec(dims=(100, 80), kind=KIND_SIGNAL_NOISE, signal_rank=5, noise_level=0.01, seed=11)
    sv = singular_values(gen_signal_plus_noise(spec)).values
    assert sv[4] / sv[5] >= 10.0


def test_signal_noise_perturbation_size():
    spec = GeneratorSpec(dims=(60, 60), kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.2, seed=13)
    F = gen_signal_plus_noise(spec)
    clean = gen_signal_plus_noise(
        GeneratorSpec(dims=(60, 60), kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.0, seed=13)
    )
    # same seed, so the signal parts agree and the difference is the noise
    assert frobenius_norm(F - clean) == pytest.approx(0.2, rel=0.2)


def test_signal_noise_deterministic_and_validated():
    spec = GeneratorSpec(dims=(10, 10), kind=KIND_SIGNAL_NOISE, signal_rank=2, noise_level=0.5, seed=3)
    assert np.array_equal(gen_signal_plus_noise(spec), gen_signal_plus_noise(spec))
    with pytest.raises(ValueError):
        gen_signal_plus_noise(
            GeneratorSpec(dims=(10, 10), kind=KIND_SIGNAL_NOISE, signal_rank=11, noise_level=0.5)
        )
    with pytest.raises(ValueError):
        gen_signal_plus_noise(
            GeneratorSpec(dims=(10, 10), kind=KIND_SIGNAL_NOISE, signal_rank=2, noise_level=-0.1)
        )


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
    assert a.to_json() == b.to_json()
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
    assert serial.to_json() == threaded.to_json()


def signal_noise(dims, seed):
    return gen_signal_plus_noise(
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
    """The trial engine one trial at a time, evaluated in the engine's order: with
    ``W = orth(diag(sv) Vt G_i)``, the residual's first l columns are formed and
    column j >= l adds ``sv_j^2 (1 - ||W[j]||^2)``."""
    _, sv, Vt = svd_factors(F)
    scaled = sv[:, None] * Vt
    l = r + s
    errors = []
    for i in range(trials):
        W = build_basis(sketch(scaled, l, derive_seed(master_seed, i)))
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
        W = build_basis(sketch(sv[:, None] * Vt, r + s, derive_seed(master_seed, i)))
        errors.append(frobenius_norm(W @ (W.T * sv) - np.diag(sv)))
    return np.array(errors)


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_run_trials_matches_full_residual(name):
    F, r, s = ENGINE_CASES[name]()
    errors = randlr.experiments._run_trials(F, r, s, 40, 31)
    assert np.abs(errors - full_residual_errors(F, r, s, 40, 31)).max() <= 1e-14 * frobenius_norm(F)


@pytest.mark.parametrize("name", list(ENGINE_CASES))
def test_run_trials_chunks_and_workers_do_not_change_errors(monkeypatch, name):
    F, r, s = ENGINE_CASES[name]()
    run = randlr.experiments._run_trials
    reference = per_trial_errors(F, r, s, 97, 31)
    assert np.array_equal(run(F, r, s, 97, 31), reference)
    # 8 trials per chunk: 97 trials leave a one-trial tail chunk
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 8 * F.shape[1] * (r + s))
    for workers in (1, 2, 3):
        assert np.array_equal(run(F, r, s, 97, 31, workers), reference)
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 1)  # one trial per chunk
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
    requested = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            requested.append(max_workers)
            super().__init__(max_workers=min(max_workers, 4))  # never start a huge pool

    monkeypatch.setattr(randlr.experiments, "ThreadPoolExecutor", Recorder)
    F, r, s = TRIAL_CASES["tall"]()
    serial = randlr.experiments._run_trials(F, r, s, 12, 31)
    assert np.array_equal(randlr.experiments._run_trials(F, r, s, 12, 31, 10**6), serial)
    assert requested == []  # one chunk: no pool at all
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 5 * 40 * (r + s))  # 5 trials per chunk
    assert np.array_equal(randlr.experiments._run_trials(F, r, s, 12, 31, 10**6), serial)
    assert requested == [3]


def test_monte_carlo_fraction_below_epsilon():
    F = prescribed((20, 18), tuple(0.5**i for i in range(6)), seed=14)
    rep = monte_carlo(F, 2, 2, 12, master_seed=1, epsilon=1e6)
    assert rep.fraction_below_epsilon == 1.0
    rep2 = monte_carlo(F, 2, 2, 12, master_seed=1, epsilon=0.0)
    assert rep2.fraction_below_epsilon == 0.0
    rep3 = monte_carlo(F, 2, 2, 12, master_seed=1)
    assert rep3.fraction_below_epsilon is None


def test_monte_carlo_report_config():
    F = prescribed((16, 16), (2.0, 1.0), seed=1)
    rep = monte_carlo(F, 1, 2, 3, master_seed=17)
    cfg = rep.config
    assert cfg["rank"] == 1 and cfg["oversampling"] == 2 and cfg["trials"] == 3
    assert cfg["master_seed"] == 17
    assert cfg["seed_mix"] == "seedsequence-spawn/v2"
    assert json.loads(rep.to_json())["schema_version"] == 1


def test_monte_carlo_validates():
    F = np.eye(5)
    with pytest.raises(ValueError):
        monte_carlo(F, 1, 2, 0, master_seed=1)
    with pytest.raises(ValueError):
        monte_carlo(F, 1, 2, 5, master_seed=1, mode="bogus")


def test_monte_carlo_validates_before_decomposing(monkeypatch):
    def no_svd(_):
        raise AssertionError("F decomposed before validation")

    monkeypatch.setattr(randlr.experiments, "singular_values", no_svd)
    monkeypatch.setattr(randlr.experiments, "svd_factors", no_svd)
    F = np.eye(6)
    for r, s, trials, mode in [(1, 1, 5, "literal"), (0, 2, 5, "literal"), (7, 2, 5, "literal"),
                               (1, 2, 0, "literal"), (1, 2, 5, "bogus")]:
        with pytest.raises(ValueError):
            monte_carlo(F, r, s, trials, master_seed=1, mode=mode)
    with pytest.raises(ValueError):
        beat_baseline_experiment(F, 7, METHOD_COLUMN_SELECT, 5, master_seed=1)


def forbid_decomposition(monkeypatch):
    def no_svd(*_, **__):
        raise AssertionError("decomposed before validation")

    monkeypatch.setattr(randlr.experiments, "singular_values", no_svd)
    monkeypatch.setattr(randlr.experiments, "svd_factors", no_svd)
    monkeypatch.setattr(np.linalg, "svd", no_svd)  # the moment's batched SVD


def test_negative_seed_rejected_before_decomposing(monkeypatch):
    forbid_decomposition(monkeypatch)
    F = np.eye(6)
    for call in (
        lambda: monte_carlo(F, 1, 2, 5, master_seed=-1),
        lambda: monte_carlo(F, 1, 5, 5, master_seed=-1),  # exact fallback
        lambda: beat_baseline_experiment(F, 1, METHOD_COLUMN_SELECT, 5, master_seed=-1),
        lambda: verify_gaussian_pinv_moment(2, 3, 10, master_seed=-1),
    ):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            call()


def test_trials_past_one_spawn_word_rejected_before_decomposing(monkeypatch):
    # trial indices must stay below 2**32; nothing of size 2**32 is allocated
    forbid_decomposition(monkeypatch)
    F = np.eye(6)
    for call in (
        lambda: monte_carlo(F, 1, 2, 2**32 + 1, master_seed=1),
        lambda: beat_baseline_experiment(F, 1, METHOD_COLUMN_SELECT, 2**32 + 1, master_seed=1),
        lambda: verify_gaussian_pinv_moment(2, 3, 2**32 + 1, master_seed=1),
    ):
        with pytest.raises(ValueError, match="trials must be at most 2\\*\\*32"):
            call()


@pytest.mark.parametrize("workers", [0, -3])
def test_worker_count_validated_before_decomposing(monkeypatch, workers):
    def no_svd(_):
        raise AssertionError("F decomposed before validation")

    monkeypatch.setattr(randlr.experiments, "singular_values", no_svd)
    monkeypatch.setattr(randlr.experiments, "svd_factors", no_svd)
    with pytest.raises(ValueError, match="worker"):
        monte_carlo(np.eye(6), 1, 2, 5, master_seed=1, workers=workers)
    with pytest.raises(ValueError, match="worker"):
        beat_baseline_experiment(np.eye(6), 1, METHOD_COLUMN_SELECT, 5, master_seed=1, workers=workers)


def test_bench_plan_and_beat_report_the_same_tau():
    # exact rank: the raw tail is rounding dust, which plan snaps to zero
    F = prescribed((30, 24), (1.0,) * 4, seed=2)
    tau = plan(singular_values(F), 4, 1.0).tail_energy
    assert tau == 0.0
    assert monte_carlo(F, 4, 2, 3, master_seed=5).config["tail_energy"] == tau
    assert beat_baseline_experiment(F, 4, METHOD_COLUMN_SELECT, 3, master_seed=5).config["tail_energy"] == tau


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


@pytest.mark.parametrize("r,s", [(3, 3), (10, 11)])
def test_moment_samples_match_pseudoinverse(r, s):
    samples = randlr.experiments._pinv_energies(r, s, 200, master_seed=8)
    for i, sample in enumerate(samples):
        G = gaussian_matrix(r, r + s, derive_seed(8, i))
        assert sample == pytest.approx(frobenius_norm(pseudoinverse(G)) ** 2, rel=1e-12)


def test_moment_chunks_do_not_change_samples(monkeypatch):
    whole = randlr.experiments._pinv_energies(2, 3, 25, master_seed=4)
    monkeypatch.setattr(randlr.experiments, "CHUNK_ENTRIES", 7 * 2 * 5)  # 7 draws per chunk
    assert np.array_equal(randlr.experiments._pinv_energies(2, 3, 25, master_seed=4), whole)


def test_moment_validates():
    with pytest.raises(ValueError):
        verify_gaussian_pinv_moment(0, 2, 10, 1)
    with pytest.raises(ValueError):
        verify_gaussian_pinv_moment(1, 1, 10, 1)
    with pytest.raises(ValueError):
        verify_gaussian_pinv_moment(1, 2, 1, 1)


# --- beat_baseline_experiment ------------------------------------------------------


def test_beat_greedy_baseline_feasible():
    spec = GeneratorSpec(dims=(60, 50), kind=KIND_SIGNAL_NOISE, signal_rank=4, noise_level=0.05, seed=5)
    F = gen_signal_plus_noise(spec)
    rep = beat_baseline_experiment(F, 4, METHOD_COLUMN_SELECT, 100, master_seed=31)
    assert rep.verdict == VERDICT_SATISFIED
    assert rep.config["plan"]["feasible"]
    assert rep.mean_squared_error < rep.epsilon
    assert 0.0 <= rep.fraction_below_epsilon <= 1.0
    assert rep.epsilon == pytest.approx(rep.config["baseline_error"] ** 2, rel=1e-12)


def test_beat_optimal_baseline_reports_infeasible():
    spec = GeneratorSpec(dims=(40, 30), kind=KIND_SIGNAL_NOISE, signal_rank=3, noise_level=0.05, seed=8)
    F = gen_signal_plus_noise(spec)
    rep = beat_baseline_experiment(F, 3, METHOD_TRUNCATED_SVD, 50, master_seed=1)
    assert rep.verdict == VERDICT_NOT_APPLICABLE
    assert not rep.config["plan"]["feasible"]
    assert rep.per_trial_errors == ()
    assert rep.config["trials"] == 0
    assert rep.config["trials_requested"] == 50
    assert rep.epsilon is not None
    assert rep.config["plan"]["reason"] == INFEASIBLE_REASON


def test_beat_exact_rank_input_plans_minimal_oversampling():
    F = prescribed((30, 25), (1.0,) * 5, seed=9)
    rep = beat_baseline_experiment(F, 5, METHOD_COLUMN_SELECT, 20, master_seed=3)
    assert rep.config["plan"]["feasible"]
    assert rep.config["plan"]["s"] == 2
    assert rep.mean_error <= 1e-8 * frobenius_norm(F)


def test_beat_validates():
    with pytest.raises(ValueError):
        beat_baseline_experiment(np.eye(5), 1, "pca", 10, 1)
    with pytest.raises(ValueError):
        beat_baseline_experiment(np.eye(5), 1, METHOD_COLUMN_SELECT, 0, 1)
