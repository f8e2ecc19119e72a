"""Test-matrix generators and the Monte Carlo validation harness.

Everything here is reproducible: a master seed plus a trial index fixes
each trial's stream (see :func:`randlr.core.derive_seed`), so serial and
parallel schedules produce byte-identical reports.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .baselines import column_select
from .core import (
    RANK_TOL,
    SEED_MIX,
    SingularSpectrum,
    _check_int,
    _dims,
    _exact_fallback,
    _kept,
    _tall_r_factor,
    check_rank,
    check_seed,
    check_trials,
    derive_keys,
    derive_seed,
    gaussian_matrix,
    keyed_gaussian_matrices,
    singular_values,
    svd_factors,
    thin_qr,
)
from .planner import (
    MODE_SQUARED,
    MODES,
    _is_dust,
    check_nonnegative,
    effective_tail_energy,
    expected_error_bound,
    plan,
    tail_energy,
)
from .rangefinder import (
    METHOD_COLUMN_SELECT,
    METHOD_TRUNCATED_SVD,
    approximation_error,
    factorize,
)

__all__ = [
    "KIND_PRESCRIBED",
    "KIND_SIGNAL_NOISE",
    "VERDICT_SATISFIED",
    "VERDICT_VIOLATED",
    "VERDICT_NOT_APPLICABLE",
    "GeneratorSpec",
    "TrialReport",
    "MomentCheck",
    "generate",
    "monte_carlo",
    "verify_gaussian_pinv_moment",
    "beat_baseline_experiment",
]

KIND_PRESCRIBED = "prescribed-spectrum"
KIND_SIGNAL_NOISE = "signal-plus-noise"

VERDICT_SATISFIED = "bound-satisfied"
VERDICT_VIOLATED = "bound-violated"
VERDICT_NOT_APPLICABLE = "not-applicable"

# Entries per stacked array of a trial or moment chunk (256 KB), whatever the trial count.
# A trial chunk is sketched in one product of fixed shape, so this constant fixes each
# trial's arithmetic (its slot in that product), as SEED_MIX fixes its stream.
CHUNK_ENTRIES = 1 << 15

# Entries of one moment draw (1 GiB of float64), checked before anything is drawn.
MAX_DRAW_ENTRIES = 1 << 27


def _fields_dict(obj, **extra) -> dict:
    """A dataclass's fields by name, plus ``extra``; the values are not copied."""
    return {**{f.name: getattr(obj, f.name) for f in fields(obj)}, **extra}


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a reproducible test matrix.

    ``prescribed-spectrum`` builds a matrix with exactly the requested
    singular values; ``signal-plus-noise`` superposes an exact-rank signal
    with unit singular values and a Gaussian perturbation whose Frobenius
    norm is ``noise_level`` in expectation.  Building a spec checks the
    fields its kind reads, so an invalid recipe fails before any draw.
    """

    dims: tuple[int, int]
    kind: str
    spectrum: tuple[float, ...] | None = None
    signal_rank: int | None = None
    noise_level: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", _dims(self.dims, "dims"))
        if self.kind not in (KIND_PRESCRIBED, KIND_SIGNAL_NOISE):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.spectrum is not None:
            object.__setattr__(self, "spectrum", tuple(float(v) for v in self.spectrum))
        check_seed(self.seed)
        if self.kind == KIND_PRESCRIBED:
            if not self.spectrum:
                raise ValueError("prescribed-spectrum generator needs a non-empty spectrum")
            SingularSpectrum(self.spectrum, self.dims)
        else:
            check_rank(self.signal_rank, self.dims, "signal rank")
            check_nonnegative(self.noise_level, "noise level")

    def to_dict(self) -> dict:
        return _fields_dict(self)


def _with_singular_values(spec: GeneratorSpec, values: np.ndarray) -> np.ndarray:
    """``(left * values) @ right.T``, whose singular values are ``values`` to
    rounding: the orthonormal factors come from QR of Gaussians seeded by
    ``derive_seed(spec.seed, 0)`` and ``derive_seed(spec.seed, 1)``."""
    left = thin_qr(gaussian_matrix(spec.dims[0], len(values), derive_seed(spec.seed, 0)))[0]
    right = thin_qr(gaussian_matrix(spec.dims[1], len(values), derive_seed(spec.seed, 1)))[0]
    return (left * values) @ right.T


def generate(spec: GeneratorSpec) -> np.ndarray:
    """The matrix ``spec`` describes.

    A prescribed spectrum gets its singular values and random singular
    vectors.  Signal plus noise is an exact-rank signal with unit singular
    values plus Gaussian noise of entries N(0, noise_level^2 / (a*b)), so
    the perturbation's Frobenius norm is noise_level in expectation.
    """
    if spec.kind == KIND_PRESCRIBED:
        return _with_singular_values(spec, np.array(spec.spectrum))
    signal = _with_singular_values(spec, np.ones(spec.signal_rank))
    if spec.noise_level == 0.0:
        return signal
    a, b = spec.dims
    return signal + spec.noise_level / math.sqrt(a * b) * gaussian_matrix(a, b, derive_seed(spec.seed, 2))


@dataclass(frozen=True)
class TrialReport:
    """Monte Carlo summary.

    ``per_trial_errors`` are raw (plain, not squared) Frobenius errors by
    trial index.  ``std_error`` is the standard error of the mean in the
    mode's comparison units: squared errors under ``squared-consistent``,
    plain errors under ``literal``.  ``bound``/``epsilon``/``fraction
    _below_epsilon`` live in those same units.  ``epsilon`` is the
    baseline's error budget of :func:`beat_baseline_experiment`, and
    ``fraction_below_epsilon`` the share of trials below it; both are None
    in a :func:`monte_carlo` report, which has no budget.  ``mean_error``,
    ``mean_squared_error`` and ``std_error`` are None when no trial ran
    (verdict ``not-applicable``).
    """

    config: dict
    per_trial_errors: tuple[float, ...]
    verdict: str
    mean_error: float | None = None
    mean_squared_error: float | None = None
    std_error: float | None = None
    bound: float | None = None
    epsilon: float | None = None
    fraction_below_epsilon: float | None = None

    def to_dict(self) -> dict:
        return _fields_dict(self, schema_version=1)


def _map_draws(rows: int, cols: int, trials: int, master_seed: int, fn, workers: int = 1) -> np.ndarray:
    """``fn`` applied to the rows x cols Gaussians of `trials` draws, indexed by draw.

    Draw i uses the substream derived from (master_seed, i), so results do
    not depend on execution order or on the number of workers.  Every
    draw's Philox key is derived up front in one pass (:func:`derive_keys`).
    Draws run in chunks of ``max(1, CHUNK_ENTRIES // (rows * cols))``
    consecutive indices, all full but the last, so memory grows with the
    number of threads, not of draws.  ``fn(draws)`` gets a chunk's one
    stacked :func:`keyed_gaussian_matrices` call and returns one value per
    draw.  A pool of ``min(workers, chunks, allowed CPUs)`` threads shares
    the chunks, each a slice of the one key array.
    """
    step = max(1, CHUNK_ENTRIES // (rows * cols))
    keys = derive_keys(master_seed, trials)
    starts = range(0, trials, step)

    def run(lo: int) -> np.ndarray:
        return fn(keyed_gaussian_matrices(rows, cols, keys[lo : lo + step]))

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = min(workers, len(starts), cpus)
    if threads == 1:
        values = [run(lo) for lo in starts]
    else:
        # imported here: a serial run never loads concurrent.futures (nor the logging it imports)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            values = list(pool.map(run, starts))
    return np.concatenate(values)


def _run_trials(F, r, s, trials, master_seed, workers=1) -> np.ndarray:
    """Errors of `trials` independent factorizations, indexed by trial.

    ``F`` is :func:`_prepare`'s reduction (a tall input's R factor, else the
    input): the trials see only its singular values and right factor, the
    input's bit for bit, and the exact fallback measures the same error to
    rounding.
    Trial i is the factorization seeded by ``derive_seed(master_seed, i)``,
    whatever the trial count and the workers of :func:`_map_draws`.

    Each trial runs in F's singular coordinates.  With ``F = U diag(sv) Vt``
    (k = min(a, b) singular values), the sketch ``F G = U (diag(sv) Vt G)``
    lies in range(U), so the basis of :func:`factorize` is ``Q = U W`` with
    ``W = orth(diag(sv) Vt G)``, and ``||F - Q Q^T F|| = ||(I - W W^T)
    diag(sv)||``: a k x l problem instead of an a x b one.  W's sign
    convention does not matter, because only ``W W^T`` enters.

    The residual is split at column l.  Its first l columns, ``W (W[:l]^T
    diag(sv[:l])) - diag(sv[:l])``, are formed (k x l).  Column j >= l,
    ``sv_j (W W^T - I) e_j``, adds its squared norm ``sv_j^2 (1 -
    ||W[j]||^2)`` without being formed.  A trial costs O(k l^2), not
    O(k^2 l), and its error is the Frobenius norm of the whole residual up
    to rounding.  The tail terms are accurate: each is off by at most
    about (l + 3) eps sv_j^2, and by Eckart-Young the squared error of any
    rank-l basis is at least ``sum_{j>=l} sv_j^2``, so their rounding stays
    below about (l + 3) eps times the squared error.

    The sketches of a chunk's ``g = max(1, CHUNK_ENTRIES // (b l))``
    trials are one product ``Z @ (diag(sv) Vt)^T`` of fixed shape, where Z
    (g l x b) stacks their ``G^T``: trial i sits in slot ``i % g``, and the
    slots past the last trial of the last, short chunk are zeros.  BLAS
    computes a row of a product of fixed shape the same way whatever the
    other rows hold, so a trial's sketch depends on g and its slot alone,
    never on the trial count or the workers.  Every per-trial sum runs
    along rows, never through a matrix-vector product (BLAS may block that
    by the chunk's length).
    """
    if _exact_fallback(r, s, F.shape):
        # The exact fallback ignores its seed; one evaluation serves all trials.
        err = approximation_error(F, factorize(F, r, s, master_seed))
        return np.full(trials, err)

    sv, Vt = svd_factors(F)[1:]
    b, k, l = F.shape[1], len(sv), r + s
    right = (sv[:, None] * Vt).T
    tail2 = sv[l:] ** 2
    group = max(1, CHUNK_ENTRIES // (b * l))  # _map_draws' chunk length

    def residual(G: np.ndarray) -> np.ndarray:
        n = len(G)
        Z = G.transpose(0, 2, 1)  # the sampler's contiguous G^T stack
        if n < group:  # the last, short chunk: its other slots are zeros
            Z = np.concatenate([Z, np.zeros((group - n, l, b))])
        Y = (Z.reshape(group * l, b) @ right).reshape(group, l, k)[:n]
        W = np.linalg.qr(Y.transpose(0, 2, 1))[0]  # column-major: LAPACK's copy is cheaper
        # (W W^T - I) diag(sv) in its first l columns, the diagonal subtracted in place
        top = W @ (W[:, :l].transpose(0, 2, 1) * sv[:l])
        top.reshape(n, -1)[:, : l * l : l + 1] -= sv[:l]
        rows = np.einsum("nji,nji->nj", W[:, l:], W[:, l:])
        tail = np.einsum("nj,j->n", 1.0 - rows, tail2)  # rounding may leave it just below 0
        return np.sqrt(np.einsum("nij,nij->n", top, top) + np.maximum(tail, 0.0))

    return _map_draws(b, l, trials, master_seed, residual, workers)


def _prepare(kind, F, r, trials, seed, mode) -> tuple[np.ndarray, SingularSpectrum, dict]:
    """``(reduced, spectrum, config)``: the start that ``bench`` and ``beat`` share.

    A bad rank, trial count, seed or mode is rejected before any
    decomposition.  F is then reduced once: a tall F to its b x b R factor,
    whose singular values and right factor are F's bit for bit
    (:func:`randlr.core._tall_r_factor`).  The spectrum is the reduction's,
    with F's dims.  ``config`` holds the keys both reports share, and its
    ``tail_energy`` is tau (:func:`effective_tail_energy`).
    """
    check_rank(r, F.shape, "target rank")
    check_trials(trials)
    check_seed(seed)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    reduced = _tall_r_factor(F)
    spectrum = replace(singular_values(reduced), source_dims=F.shape)
    config = {
        "kind": kind,
        "dims": [int(F.shape[0]), int(F.shape[1])],
        "rank": int(r),
        "trials": int(trials),
        "master_seed": int(seed),
        "mode": mode,
        "seed_mix": SEED_MIX,
        "tail_energy": effective_tail_energy(spectrum, r),
    }
    return reduced, spectrum, config


def _std_error(samples: np.ndarray) -> float:
    """``samples.std(ddof=1) / sqrt(n)`` of non-negative samples, 0.0 for one.
    Scaling by a power of two is exact, and keeps the squared deviations
    from overflowing or underflowing at extreme input scales."""
    if len(samples) < 2:
        return 0.0
    shift = math.frexp(samples.max())[1]
    return float(np.ldexp(np.ldexp(samples, -shift).std(ddof=1), shift) / math.sqrt(len(samples)))


def _trial_report(config, errors, mode, bound, epsilon, accept) -> TrialReport:
    """Report on per-trial errors; ``accept(mean, se)`` is the caller's verdict
    rule, applied in the mode's comparison units."""
    comp = errors**2 if mode == MODE_SQUARED else errors
    mean = float(comp.mean())
    se = _std_error(comp)
    return TrialReport(
        config=config,
        per_trial_errors=tuple(errors.tolist()),
        mean_error=float(errors.mean()),
        mean_squared_error=float((errors**2).mean()),
        std_error=se,
        bound=bound,
        epsilon=epsilon,
        fraction_below_epsilon=None if epsilon is None else float(np.mean(comp < epsilon)),
        verdict=VERDICT_SATISFIED if accept(mean, se) else VERDICT_VIOLATED,
    )


def monte_carlo(
    F: np.ndarray,
    r: int,
    s: int,
    trials: int,
    master_seed: int,
    mode: str = MODE_SQUARED,
    workers: int = 1,
) -> TrialReport:
    """Run repeated randomized factorizations and compare against the bound.

    The verdict is ``bound-satisfied`` when the mean comparison value sits
    at or below bound + 3 standard errors: the bound constrains the
    expectation, so the empirical mean may exceed it only by sampling
    noise.  A measurement floor at the numerical-rank tolerance keeps the
    verdict meaningful when both sides are rounding dust (exact-rank
    input, where bound and errors are mathematically zero).  The verdict
    uses the bound on the raw tail, so a tail that
    :func:`effective_tail_energy` snaps to 0 lowers the reported
    ``tail_energy`` and ``bound`` but never turns a satisfied verdict into
    a violated one.  The report has no budget: its ``epsilon`` and
    ``fraction_below_epsilon`` are None.  ``workers`` threads share the
    trial chunks; the report does not depend on their number.  The
    spectrum and the trials work on the reduction of :func:`_prepare`.
    """
    _check_int(workers, "workers", 1)
    _check_int(s, "oversampling", 2)
    reduced, spectrum, config = _prepare("bench", F, r, trials, master_seed, mode)
    bound = expected_error_bound(r, s, config["tail_energy"])
    # The verdict checks the bound on the raw tail: a tail the snap to 0
    # removed still shows in the errors, at up to sqrt(min(F.shape)) times
    # the rounding dust.  meas_floor is slack for that dust, not a floor
    # rule (that is plan's); total_energy rejects an input whose squared
    # norm overflows, where the slack would be infinite.
    raw_bound = expected_error_bound(r, s, tail_energy(spectrum, r))
    meas_floor = RANK_TOL * math.sqrt(spectrum.total_energy())
    if mode == MODE_SQUARED:
        meas_floor **= 2
    errors = _run_trials(reduced, r, s, trials, master_seed, workers)
    config.update(oversampling=int(s), fallback=_exact_fallback(r, s, F.shape))
    return _trial_report(
        config, errors, mode, bound, None, lambda mean, se: mean <= raw_bound + 3.0 * se + meas_floor
    )


@dataclass(frozen=True)
class MomentCheck:
    """Monte Carlo check of E||pinv(G)||_F^2 = rank/(oversampling - 1) for a
    rank x (rank + oversampling) standard Gaussian G."""

    rank: int
    oversampling: int
    trials: int
    master_seed: int
    estimate: float
    std_error: float
    expected: float
    passed: bool

    def to_dict(self) -> dict:
        return _fields_dict(self, schema_version=1)


def _svd_pinv_energies(draws: np.ndarray) -> np.ndarray:
    """``||pinv(G)||_F^2`` of each matrix G of a stack by the SVD rule: the
    sum of 1/sigma^2 over the singular values that the rank cutoff
    ``randlr.core._kept`` keeps."""
    sv = np.linalg.svd(draws, compute_uv=False)
    inv2 = np.divide(1.0, sv**2, out=np.zeros_like(sv), where=_kept(sv))
    return inv2.sum(axis=1)


def _upper_inverse(R: np.ndarray) -> np.ndarray:
    """Inverses of a stack of upper-triangular matrices, by halves.

    ``inv([[A, B], [0, D]]) = [[inv(A), -inv(A) B inv(D)], [0, inv(D)]]``,
    applied down to the 1x1 blocks: the diagonal is one batched reciprocal,
    and each block above it one batched product of blocks already
    inverted.  The blocked inversion of Du Croz & Higham (IMA J. Numer.
    Anal. 12, 1992), batched; a matrix's inverse depends on that matrix
    alone.  A zero or tiny diagonal entry gives inf or NaN entries rather
    than raising (under the caller's ``errstate``).
    """
    n, r, _ = R.shape
    X = np.zeros((n, r, r))
    X.reshape(n, r * r)[:, :: r + 1] = 1.0 / np.diagonal(R, axis1=1, axis2=2)

    def fill(lo: int, hi: int) -> None:
        if hi - lo > 1:
            mid = (lo + hi) // 2
            fill(lo, mid)
            fill(mid, hi)
            X[:, lo:mid, mid:hi] = -(X[:, lo:mid, lo:mid] @ R[:, lo:mid, mid:hi] @ X[:, mid:hi, mid:hi])

    fill(0, r)
    return X


def _stack_pinv_energies(draws: np.ndarray) -> np.ndarray:
    """``||pinv(G)||_F^2`` of each r x (r+s) matrix G of a stack, from the R
    factor of ``G^T = Q R`` wherever a certificate proves it equal to the SVD
    rule of :func:`_svd_pinv_energies`.

    For full-rank G, ``pinv(G) = Q R^{-T}``, so ``||pinv(G)||_F^2 =
    ||R^{-1}||_F^2``: one batched QR and one batched inversion of the r x r
    triangles (:func:`_upper_inverse`).  The certificate ``||R||_F^2
    ||R^{-1}||_F^2 < RANK_TOL**-2`` alone decides a draw's route.  Because
    ``||R||_F >= sigma_max`` and ``||R^{-1}||_F >= 1/sigma_min``, it proves
    ``sigma_min > RANK_TOL * sigma_max``, so the SVD rule would keep every
    singular value and both compute the same sum.  A zero or tiny diagonal
    entry of R makes the inverse inf or NaN, which fails the certificate.
    Every draw that fails it goes through the SVD rule itself.  The route
    and the value of a draw depend on that draw's numbers alone, never on
    the rest of the stack.
    """
    R = np.linalg.qr(draws.transpose(0, 2, 1), mode="r")  # the sampler's contiguous G^T stack
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # an inf or NaN fails the certificate
        Rinv = _upper_inverse(R)
        energies = np.einsum("nij,nij->n", Rinv, Rinv)
        certified = np.einsum("nij,nij->n", R, R) * energies < RANK_TOL**-2
    if not certified.all():
        energies[~certified] = _svd_pinv_energies(draws[~certified])
    return energies


def verify_gaussian_pinv_moment(r: int, s: int, trials: int, master_seed: int) -> MomentCheck:
    """Estimate E||pinv(G)||_F^2 over seeded draws of r x (r+s) Gaussians.

    Each sample is ``||pinv(G_i)||_F^2`` (see :func:`_stack_pinv_energies`).
    The check passes when the estimate lands within 4 standard errors of
    r/(s-1).  One draw may hold at most ``MAX_DRAW_ENTRIES`` entries; a
    larger one is a ValueError before any key is derived or draw made.
    """
    _check_int(r, "rank", 1)
    _check_int(s, "oversampling", 2)
    check_trials(trials, 2)  # two for a standard error
    check_seed(master_seed)
    if r * (r + s) > MAX_DRAW_ENTRIES:
        raise ValueError(f"one {r}x{r + s} draw has {r * (r + s)} entries, more than 2**27")
    samples = _map_draws(r, r + s, trials, master_seed, _stack_pinv_energies)
    estimate = float(samples.mean())
    se = _std_error(samples)
    expected = r / (s - 1.0)
    return MomentCheck(
        rank=r,
        oversampling=s,
        trials=trials,
        master_seed=int(master_seed),
        estimate=estimate,
        std_error=se,
        expected=expected,
        passed=abs(estimate - expected) <= 4.0 * se,
    )


def beat_baseline_experiment(
    F: np.ndarray,
    r: int,
    baseline: str,
    trials: int,
    master_seed: int,
    mode: str = MODE_SQUARED,
) -> TrialReport:
    """End-to-end comparison against a deterministic baseline.

    The baseline's error becomes the budget, the planner picks the least
    oversampling whose expected-error bound beats it, and the Monte Carlo
    mean is compared (strictly) against the budget.  Column selection is
    built and measured.  The truncated SVD is not: by Eckart-Young its
    squared error is the tail energy tau the report carries, so its
    ``baseline_error`` is ``sqrt(tau)``.

    A baseline on the optimal-error floor gets the floor itself as its
    budget: tau in squared mode, ``sqrt(tau)`` in literal mode.  The
    truncated SVD is always there.  Column selection is there when its
    error is rounding dust by the rule that snaps tau to 0 (exact rank r,
    or r = min(a, b)); its ``baseline_error`` stays the measured one.
    :func:`plan` reports a budget on the floor as an infeasible outcome
    rather than an error: no rank-r method can be beaten there.

    As in :func:`monte_carlo`, the spectrum and the trials work on the
    reduction of :func:`_prepare`, and column selection runs on it too.  A
    tall F's R factor has F's column norms and inner products, so the
    greedy rule picks the same columns wherever its runner-up is not within
    rounding, and the error is the same to rounding: ``baseline_error`` may
    differ from selection on F itself in its last digits.
    """
    known = [METHOD_COLUMN_SELECT, METHOD_TRUNCATED_SVD]
    if baseline not in known:
        raise ValueError(f"unknown baseline {baseline!r}, expected one of {known}")
    reduced, spectrum, config = _prepare("beat", F, r, trials, master_seed, mode)
    tau = config["tail_energy"]
    if baseline == METHOD_TRUNCATED_SVD:
        base_err, on_floor = math.sqrt(tau), True
    else:
        base_err = approximation_error(reduced, column_select(reduced, r))
        on_floor = _is_dust(base_err**2, spectrum)
    if on_floor:  # tau itself: sqrt(tau)**2 may round above it
        budget = tau if mode == MODE_SQUARED else math.sqrt(tau)
    else:
        budget = base_err**2 if mode == MODE_SQUARED else base_err
    chosen = plan(spectrum, r, budget, mode)
    config.update(baseline=baseline, baseline_error=base_err, plan=chosen.to_dict())
    if not chosen.feasible:
        config.update(trials=0, trials_requested=int(trials))
        return TrialReport(config=config, per_trial_errors=(), verdict=VERDICT_NOT_APPLICABLE, epsilon=budget)

    config["oversampling"] = chosen.oversampling
    errors = _run_trials(reduced, r, chosen.oversampling, trials, master_seed)
    return _trial_report(config, errors, mode, chosen.predicted_bound, budget, lambda mean, se: mean < budget)
