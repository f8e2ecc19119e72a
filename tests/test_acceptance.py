"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete (they also appear in the summary that ``-rA``
prints).  Every tolerance is pinned here, not configurable.
"""

import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from randlr.core import (
    derive_keys,
    derive_seed,
    frobenius_norm,
    keyed_gaussian_matrices,
    singular_values,
    thin_qr,
)
from randlr.experiments import (
    CHUNK_ENTRIES,
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
from randlr.io import write_matrix_market
from randlr.planner import choose_oversampling, expected_error_bound, tail_energy
from randlr.rangefinder import METHOD_COLUMN_SELECT, METHOD_TRUNCATED_SVD


def report(label, failures):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  [{'; '.join(str(f) for f in failures)}]"
    print(f"\n[{label}] {status}{detail}")
    assert not failures, f"{label}: {failures}"


GEOMETRIC = tuple(0.5**i for i in range(1, 21))
POLYNOMIAL = tuple(float(i) ** -2 for i in range(1, 21))


def test_criterion_1_bound_validation_grid():
    """Mean squared error within bound + 3 SE on every grid cell."""
    failures = []

    # the named cell, with the tail energy taken from the requested
    # spectrum as an independent oracle
    t0 = time.perf_counter()
    F = generate(
        GeneratorSpec(dims=(100, 100), kind=KIND_PRESCRIBED, spectrum=GEOMETRIC, seed=2025)
    )
    rep = monte_carlo(F, 5, 6, 500, master_seed=derive_seed(4242, 506))
    tau5 = tail_energy(np.asarray(GEOMETRIC), 5)
    budget = (1.0 + 5.0 / 5.0) * tau5 + 3.0 * rep.std_error
    elapsed = time.perf_counter() - t0
    if rep.mean_squared_error > budget:
        failures.append(f"named cell mean {rep.mean_squared_error} > {budget}")
    if abs(rep.bound - (1.0 + 5.0 / 5.0) * tau5) > 1e-8 * rep.bound:
        failures.append("report bound deviates from externally computed bound")
    if elapsed >= 30.0:
        failures.append(f"named cell took {elapsed:.1f}s (cap 30s)")

    for name, spectrum in (("geometric", GEOMETRIC), ("polynomial", POLYNOMIAL)):
        F = generate(
            GeneratorSpec(dims=(100, 100), kind=KIND_PRESCRIBED, spectrum=spectrum, seed=2025)
        )
        for r, s in itertools.product((2, 5, 10), (3, 6, 12)):
            cell = monte_carlo(F, r, s, 500, master_seed=derive_seed(4242, r * 100 + s))
            if cell.verdict != VERDICT_SATISFIED:
                failures.append(f"{name} r={r} s={s}: {cell.verdict}")

    report("C1 bound-validation 3x3x2 grid, 500 trials", failures)


def test_criterion_2_pseudoinverse_moment_identity():
    """E||pinv(G)||_F^2 = r/(s-1) within 4 SE for all 16 (r, s) combos."""
    failures = []
    t0 = time.perf_counter()
    for idx, (r, s) in enumerate(itertools.product((1, 2, 5, 10), (2, 3, 6, 11))):
        check = verify_gaussian_pinv_moment(r, s, 2000, master_seed=derive_seed(77, idx))
        if not check.passed:
            failures.append(
                f"r={r} s={s}: estimate {check.estimate:.4f} vs {check.expected:.4f}"
                f" (se {check.std_error:.4f})"
            )
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"grid took {elapsed:.1f}s (cap 60s)")
    report("C2 pseudoinverse moment identity, 16 combos x 2000 trials", failures)


def test_criterion_3_oversampling_selection_rule():
    """Least strictly-feasible s on 1000 random triples; boundary bumps."""
    failures = []
    rng = np.random.default_rng(314)
    for i in range(1000):
        r = int(rng.integers(1, 25))
        tau = float(10.0 ** rng.uniform(-6, 3))
        epsilon = tau * (1.0 + 1e-6 + float(10.0 ** rng.uniform(-6, 3)))
        s = choose_oversampling(r, tau, epsilon)
        if s is None or s < 2:
            failures.append(f"triple {i}: no feasible s returned")
            continue
        if not expected_error_bound(r, s, tau) < epsilon:
            failures.append(f"triple {i}: bound not strictly below epsilon at s={s}")
        if s - 1 >= 2 and not expected_error_bound(r, s - 1, tau) >= epsilon:
            failures.append(f"triple {i}: s={s} is not minimal")

    # exact-integer boundaries: epsilon = (1 + r/k) * tau equals the bound
    # at s = k + 1 exactly, so strictness forces the bump to k + 2
    for r, k, tau in ((10, 2, 1.0), (10, 10, 1.0), (2, 4, 1.0), (6, 3, 0.25)):
        epsilon = (1.0 + r / k) * tau
        s = choose_oversampling(r, tau, epsilon)
        if s != k + 2:
            failures.append(f"boundary r={r} k={k}: expected s={k + 2}, got {s}")
        if not expected_error_bound(r, s, tau) < epsilon:
            failures.append(f"boundary r={r} k={k}: bound not strict")

    report("C3 oversampling selection rule, 1000 triples + boundaries", failures)


def test_criterion_4_beat_deterministic_baseline():
    """Greedy baseline is beaten; the optimal baseline reports infeasible."""
    failures = []
    t0 = time.perf_counter()
    F = generate(
        GeneratorSpec(dims=(100, 80), kind=KIND_SIGNAL_NOISE, signal_rank=5,
                      noise_level=0.05, seed=21)
    )
    rep = beat_baseline_experiment(F, 5, METHOD_COLUMN_SELECT, 300, master_seed=999)
    if not rep.config["plan"]["feasible"]:
        failures.append("greedy-baseline plan reported infeasible")
    else:
        eps_squared = rep.config["baseline_error"] ** 2
        if not rep.mean_squared_error < eps_squared:
            failures.append(
                f"mean squared error {rep.mean_squared_error} not below {eps_squared}"
            )
        if rep.verdict != VERDICT_SATISFIED:
            failures.append(f"verdict {rep.verdict}")

    optimal = beat_baseline_experiment(F, 5, METHOD_TRUNCATED_SVD, 300, master_seed=999)
    if optimal.verdict != VERDICT_NOT_APPLICABLE:
        failures.append(f"optimal baseline verdict {optimal.verdict}, expected infeasible")
    if optimal.config["plan"]["feasible"]:
        failures.append("optimal-baseline plan claims feasibility at the floor")

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s (cap 30s)")
    report("C4 beat-deterministic-baseline end-to-end, 300 trials", failures)


def test_criterion_5_exact_rank_recovery():
    """Rank-r input is recovered to 1e-8 relative error in every trial."""
    failures = []
    for r in (1, 5, 10):
        F = generate(
            GeneratorSpec(dims=(60, 40), kind=KIND_PRESCRIBED, spectrum=(1.0,) * r, seed=r)
        )
        rep = monte_carlo(F, r, 2, 30, master_seed=derive_seed(808, r))
        cap = 1e-8 * frobenius_norm(F)
        worst = max(rep.per_trial_errors)
        if worst > cap:
            failures.append(f"r={r}: worst error {worst} above {cap}")
    report("C5 exact-rank recovery, r in {1,5,10}", failures)


def test_criterion_6_kernel_correctness():
    """QR, spectrum energy, and the truncated-SVD error against tau on 100 matrices."""
    failures = []
    rng = np.random.default_rng(606)
    for i in range(100):
        a = int(rng.integers(2, 51))
        b = int(rng.integers(2, 41))
        M = rng.standard_normal((a, b))
        tall = M if a >= b else M.T

        Q, R = thin_qr(tall)
        if frobenius_norm(Q @ R - tall) > 1e-10 * frobenius_norm(tall):
            failures.append(f"matrix {i}: QR reconstruction")
        if frobenius_norm(Q.T @ Q - np.eye(Q.shape[1])) > 1e-12:
            failures.append(f"matrix {i}: QR orthonormality")

        spec = singular_values(M)
        energy = frobenius_norm(M) ** 2
        if abs(spec.total_energy() - energy) > 1e-10 * energy:
            failures.append(f"matrix {i}: spectrum energy")

        r = int(rng.integers(1, min(a, b))) if min(a, b) > 1 else 1
        tau = tail_energy(spec, r)
        U, vals, Vt = np.linalg.svd(M, full_matrices=False)
        err2 = frobenius_norm(M - U[:, :r] @ (vals[:r, None] * Vt[:r])) ** 2
        if abs(err2 - tau) > 1e-8 * max(tau, 1e-300):
            failures.append(f"matrix {i}: truncated-SVD error vs tail energy")

    report("C6 kernel correctness, 100 random matrices", failures)


def test_criterion_7_bench_determinism(tmp_path):
    """`bench` emits byte-identical JSON across runs and worker counts."""
    failures = []
    # b*(r+s) = 25*7 entries per trial, so 400 trials make three chunks and
    # the --workers 4 run starts a pool
    assert math.ceil(400 / (CHUNK_ENTRIES // (25 * (4 + 3)))) == 3
    rng = np.random.default_rng(1717)
    matrix_path = tmp_path / "det.mtx"
    write_matrix_market(matrix_path, rng.standard_normal((30, 25)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def run_bench(workers):
        cmd = [
            sys.executable, "-m", "randlr.cli", "bench", str(matrix_path),
            "--rank", "4", "--oversample", "3", "--trials", "400",
            "--seed", "321", "--workers", str(workers),
        ]
        proc = subprocess.run(cmd, env=env, capture_output=True, check=False)
        if proc.returncode != 0:
            failures.append(f"bench exited {proc.returncode}: {proc.stderr!r}")
        return proc.stdout

    first = run_bench(1)
    second = run_bench(1)
    threaded = run_bench(4)
    if first != second:
        failures.append("two serial runs differ byte-for-byte")
    if first != threaded:
        failures.append("parallel trial execution changes the report")
    try:
        payload = json.loads(first)
        if len(payload["per_trial_errors"]) != 400:
            failures.append("wrong trial count in report")
    except (json.JSONDecodeError, KeyError) as exc:
        failures.append(f"report not parseable: {exc}")

    report("C7 bench determinism incl. parallel execution", failures)


CLIFF = (1e3,) * 5 + (1.0,) * 95


def test_criterion_8_near_tight_bound_and_negative_control():
    """On a cliff spectrum, which nearly attains the bound, C1's rule (mean
    squared error within bound + 3 SE) accepts the bound and rejects a bound
    with half its excess, (1 + r/(2(s-1))) * tau."""
    failures = []
    F = generate(
        GeneratorSpec(dims=(100, 100), kind=KIND_PRESCRIBED, spectrum=CLIFF, seed=2025)
    )
    r = 5
    tau = tail_energy(np.asarray(CLIFF), r)
    for s in (4, 6, 12):
        rep = monte_carlo(F, r, s, 500, master_seed=derive_seed(4242, 800 + s))
        if rep.verdict != VERDICT_SATISFIED:
            failures.append(f"s={s}: {rep.verdict} against the bound {rep.bound}")
        half_excess = (1.0 + r / (2.0 * (s - 1.0))) * tau
        if rep.mean_squared_error <= half_excess + 3.0 * rep.std_error:
            failures.append(
                f"s={s}: half-excess bound {half_excess} not rejected"
                f" (mean {rep.mean_squared_error}, se {rep.std_error})"
            )
    report("C8 near-tight cliff spectrum and half-excess control, 3 cells x 500 trials", failures)


# Pearson's statistic over 10 equiprobable bins has 9 degrees of freedom;
# chi^2_9 exceeds this with probability 1e-4.
PEARSON_CRITICAL_9DOF = 33.7
C9_CELLS = ((1, 2), (1, 3), (5, 2), (5, 3), (10, 2))


def pearson_10_bins(samples, dist) -> float:
    """Pearson's statistic of `samples` over the 10 equiprobable bins of `dist`."""
    edges = dist.ppf(np.arange(1, 10) / 10.0)
    counts = np.bincount(np.searchsorted(edges, samples), minlength=10)
    expected = len(samples) / 10.0
    return float(np.sum((counts - expected) ** 2) / expected)


def bartlett_statistics(r, s, trials, master_seed):
    """Goodness of fit of the R factor of ``G^T = QR`` for the seeded r x (r+s)
    Gaussians that ``moment`` draws.  By the Bartlett decomposition, with
    diag(R) >= 0, the R_ii^2 are chi^2 with r+s-i degrees of freedom (0-based
    i) and the R_ij, i < j, are N(0, 1), all independent.  Returns the
    statistic of each R_ii^2, that of the pooled R_ij (none at r = 1), and
    the control: the last diagonal judged against chi^2(s), one degree short.
    """
    from scipy import stats  # the package itself stays numpy-only on this path

    G = keyed_gaussian_matrices(r, r + s, derive_keys(master_seed, trials))
    R = np.linalg.qr(G.transpose(0, 2, 1), mode="r")
    diag = np.diagonal(R, axis1=1, axis2=2)
    R = R * np.where(diag < 0.0, -1.0, 1.0)[:, :, None]  # LAPACK's row signs are arbitrary
    true_law = [pearson_10_bins(diag[:, i] ** 2, stats.chi2(r + s - i)) for i in range(r)]
    if r > 1:
        upper = np.triu_indices(r, 1)
        true_law.append(pearson_10_bins(R[:, upper[0], upper[1]].ravel(), stats.norm()))
    control = pearson_10_bins(diag[:, -1] ** 2, stats.chi2(s))
    return true_law, control


def test_criterion_9_bartlett_law_of_the_moment_draws():
    """The R factors of the moment's draws follow the Bartlett law at s <= 3,
    where ||pinv(G)||_F^2 has infinite variance and C2's rule has no power;
    the identity E||pinv(G)||_F^2 = r/(s-1) follows from that law.  A last
    diagonal judged one degree of freedom short must be rejected."""
    failures = []
    for r, s in C9_CELLS:
        true_law, control = bartlett_statistics(r, s, 2000, derive_seed(4242, 900 + 10 * r + s))
        if max(true_law) > PEARSON_CRITICAL_9DOF:
            failures.append(f"r={r} s={s}: Bartlett law rejected, statistic {max(true_law):.1f}")
        if control <= PEARSON_CRITICAL_9DOF:
            failures.append(f"r={r} s={s}: chi^2(s) control not rejected, statistic {control:.1f}")
    report("C9 Bartlett law of the moment draws at s <= 3, 5 cells x 2000 draws", failures)
