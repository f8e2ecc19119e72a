"""Workloads, their input matrices, the CLI pipeline and its output checks.

Every workload runs the same user-facing pipeline,
``gen -> plan -> approx -> bench -> beat(colsel) -> beat(svd) -> moment``,
on a matrix the benchmark makes itself with numpy from the workload seed.
The program only ever sees the Matrix Market file.  The checks use
oracles computed here, outside the package (``np.linalg.svd`` on the
benchmark's own copy of the input), so a kernel swap cannot pass while a
spectrum drifts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.io

#: Relative agreement required between a report's tail energy and the oracle.
TAU_RTOL = 1e-8
#: Frobenius norm of H^T H - I allowed for the basis that ``approx`` writes.
ORTHONORMAL_TOL = 1e-10
#: Agreement of the ``gen spectrum`` output's singular values with the request,
#: relative to the largest one.
SPECTRUM_RTOL = 1e-10

#: Candidate inputs drawn at most, per seed (see :func:`make_input`).
MAX_DRAWS = 200

INPUT = "F.mtx"
GEN_OUT = "gen.mtx"
APPROX_PREFIX = "approx"


@dataclass(frozen=True)
class Workload:
    """One input shape with its rank, oversampling and Monte Carlo sizes.

    ``kind`` is ``spectrum`` (singular values 1/i, i = 1..min(dims)) or
    ``signal-noise`` (rank-``rank`` signal with unit singular values
    plus Gaussian noise of expected Frobenius norm ``noise``).
    ``beat_oversample`` is the oversampling that ``beat --baseline colsel``
    plans on every input of the workload (see :func:`make_input`).
    ``nominal_s`` is each command's typical wall time, in pipeline order
    (gen, plan, approx, bench, beat, beat_floor, moment), measured once on
    a 2-CPU x86-64 host at one BLAS thread.  It sizes the fixed number of
    repeats and rounds a run makes, so that a run does the same work, and
    the same number of operations, whatever the speed of the machine.
    """

    name: str
    why: str
    dims: tuple[int, int]
    kind: str
    rank: int
    oversample: int
    bench_trials: int
    beat_trials: int
    moment_trials: int
    beat_oversample: int
    nominal_s: tuple[float, ...]
    bench_workers: int = 1
    noise: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="square-spectrum",
            why="200x200 full-rank 1/i spectrum: the Jacobi spectrum and SVD kernels "
            "do most of the work, the trial engine little",
            dims=(200, 200),
            kind="spectrum",
            rank=10,
            oversample=10,
            bench_trials=200,
            beat_trials=200,
            moment_trials=100,
            beat_oversample=19,
            nominal_s=(0.068, 1.96, 0.013, 2.38, 2.46, 4.96, 0.44),
        ),
        Workload(
            name="tall-trials",
            why="3000x40 signal plus noise with two workers: the trial engine and its "
            "thread pool do most of the work, the 40-column spectrum little",
            dims=(3000, 40),
            kind="signal-noise",
            rank=8,
            oversample=6,
            bench_trials=200,
            beat_trials=100,
            moment_trials=100,
            beat_oversample=10,
            nominal_s=(0.037, 0.116, 0.038, 0.79, 0.77, 0.27, 0.27),
            bench_workers=2,
            noise=0.5,
        ),
        Workload(
            name="small-many",
            why="60x40 signal plus noise, thousands of tiny serial trials and draws: "
            "per-call Python overhead dominates",
            dims=(60, 40),
            kind="signal-noise",
            rank=3,
            oversample=3,
            bench_trials=1000,
            beat_trials=1000,
            moment_trials=1000,
            beat_oversample=8,
            nominal_s=(0.0058, 0.064, 0.0065, 0.41, 0.51, 0.12, 0.33),
            noise=0.3,
        ),
    )
}


def spectrum_values(w: Workload) -> np.ndarray:
    """The prescribed spectrum 1/i of a ``spectrum`` workload."""
    return 1.0 / np.arange(1, min(w.dims) + 1, dtype=np.float64)


def _orthonormal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    return q


def _draw(w: Workload, rng: np.random.Generator) -> np.ndarray:
    a, b = w.dims
    if w.kind == "spectrum":
        vals = spectrum_values(w)
        return (_orthonormal(rng, a, len(vals)) * vals) @ _orthonormal(rng, b, len(vals)).T
    signal = _orthonormal(rng, a, w.rank) @ _orthonormal(rng, b, w.rank).T
    return signal + (w.noise / math.sqrt(a * b)) * rng.standard_normal((a, b))


def column_select_error2(F: np.ndarray, r: int) -> float:
    """Squared error of greedy column selection: r times, pick the column
    with the largest residual norm (lowest index on ties) and project its
    direction out of the rest; then project F onto the picked columns."""
    resid = F.copy()
    picked: list[int] = []
    for _ in range(r):
        norms = np.einsum("ij,ij->j", resid, resid)
        norms[picked] = -1.0
        j = int(np.argmax(norms))
        picked.append(j)
        q = resid[:, j] / np.linalg.norm(resid[:, j])
        resid -= np.outer(q, q @ resid)
    Q, _ = np.linalg.qr(F[:, picked])
    return float(np.linalg.norm(F - Q @ (Q.T @ F)) ** 2)


def beat_oversampling(F: np.ndarray, r: int) -> int:
    """The least s >= 2 whose bound (1 + r/(s-1)) * tau beats the squared
    column-selection error, which is what ``beat --baseline colsel`` plans."""
    sv = np.linalg.svd(F, compute_uv=False)
    tau = float(np.sum(sv[r:] ** 2))
    gap = column_select_error2(F, r) - tau
    if not gap > 0.0:
        raise ValueError("column selection is at the optimal-error floor")
    return int(math.floor(r * tau / gap)) + 2


def make_input(w: Workload, seed: int) -> np.ndarray:
    """The workload's input matrix, a function of the workload seed only.

    Candidates are drawn from the seed's stream until one makes ``beat``
    plan ``w.beat_oversample``: the trials' cost grows with the
    oversampling, so without this the seed would change the work that
    ``beat_s`` measures by up to 50%.
    """
    for attempt in range(MAX_DRAWS):
        F = _draw(w, np.random.default_rng([seed, attempt]))
        if beat_oversampling(F, w.rank) == w.beat_oversample:
            return F
    raise ValueError(f"no input planning s={w.beat_oversample} in {MAX_DRAWS} draws")


def write_input(path, F: np.ndarray) -> np.ndarray:
    """Write F at 17 significant digits and return the copy read back."""
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, F, precision=17)
    return np.asarray(scipy.io.mmread(path), dtype=np.float64)


def strict_json(text: str):
    """Parse RFC 8259 JSON, rejecting the NaN and Infinity tokens."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


@dataclass(frozen=True)
class Command:
    """One CLI invocation, the exit code it documents and its output check.

    ``check`` takes the parsed report and returns a list of problems; it
    may also read ``files``, the files the command writes.  ``threads``
    is how many threads the command computes on.
    """

    name: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable[[dict], list[str]]
    files: tuple[str, ...] = ()
    threads: int = 1


def _tau_problems(reported, tau: float) -> list[str]:
    if not isinstance(reported, (int, float)) or not math.isfinite(reported):
        return [f"tail energy {reported!r} is not a finite number"]
    if abs(reported - tau) > TAU_RTOL * tau:
        return [f"tail energy {reported!r} differs from the oracle {tau!r}"]
    return []


def _verdict_problems(report: dict, expected: str) -> list[str]:
    verdict = report.get("verdict")
    return [] if verdict == expected else [f"verdict {verdict!r}, expected {expected!r}"]


def pipeline(w: Workload, seed: int, F: np.ndarray) -> list[Command]:
    """The workload's commands with their argv and oracle-based checks.

    ``F`` is the benchmark's copy of the input file.  Paths are relative, so
    reports do not depend on where the run happens.
    """
    a, b = w.dims
    r, s = w.rank, w.oversample
    sv = np.linalg.svd(F, compute_uv=False)
    tau = float(np.sum(sv[r:] ** 2))
    seeds = [int(x) for x in np.random.SeedSequence([seed, 1]).generate_state(4)]
    dims = [str(a), str(b)]

    if w.kind == "spectrum":
        wanted = spectrum_values(w)
        gen_argv = ["gen", "spectrum", "--dims", *dims,
                    "--values", ",".join(repr(float(v)) for v in wanted)]
    else:
        gen_argv = ["gen", "signal-noise", "--dims", *dims,
                    "--signal-rank", str(r), "--noise-level", repr(w.noise)]
    gen_argv += ["--seed", str(seeds[0]), "--out", GEN_OUT]

    def check_gen(report):
        if report.get("written") != [GEN_OUT]:
            return [f"written {report.get('written')!r}, expected [{GEN_OUT!r}]"]
        G = np.asarray(scipy.io.mmread(GEN_OUT), dtype=np.float64)
        if G.shape != (a, b):
            return [f"generated shape {G.shape}, expected {(a, b)}"]
        got = np.linalg.svd(G, compute_uv=False)
        if w.kind == "spectrum":
            if np.max(np.abs(got - wanted)) > SPECTRUM_RTOL * wanted[0]:
                return ["generated spectrum differs from the requested one"]
        elif not got[r - 1] > got[r]:
            return [f"generated matrix shows no rank-{r} signal"]
        return []

    epsilon = 2.0 * tau

    def check_plan(report):
        problems = _tau_problems(report.get("tau"), tau)
        if report.get("feasible") is not True:
            problems.append("plan is not feasible")
        elif not (isinstance(bound := report.get("bound"), float) and bound < epsilon):
            problems.append(f"bound {bound!r} is not below epsilon {epsilon!r}")
        return problems

    def check_approx(report):
        width = r + s
        if report.get("basis_shape") != [a, width] or report.get("coeffs_shape") != [width, b]:
            return [f"reported shapes {report.get('basis_shape')} {report.get('coeffs_shape')}"]
        H = np.asarray(scipy.io.mmread(APPROX_PREFIX + "_H.mtx"), dtype=np.float64)
        T = np.asarray(scipy.io.mmread(APPROX_PREFIX + "_T.mtx"), dtype=np.float64)
        if H.shape != (a, width) or T.shape != (width, b):
            return [f"written shapes {H.shape} {T.shape}"]
        defect = float(np.linalg.norm(H.T @ H - np.eye(width)))
        if not defect <= ORTHONORMAL_TOL:
            return [f"H is not orthonormal: ||H^T H - I||_F = {defect!r}"]
        return []

    def check_satisfied(report):
        return _tau_problems(report.get("config", {}).get("tail_energy"), tau) + _verdict_problems(
            report, "bound-satisfied"
        )

    def check_beat(report):
        problems = check_satisfied(report)
        planned = report.get("config", {}).get("oversampling")
        if planned != w.beat_oversample:
            problems.append(f"planned oversampling {planned!r}, expected {w.beat_oversample}")
        return problems

    def check_beat_floor(report):
        return _tau_problems(report.get("config", {}).get("tail_energy"), tau) + _verdict_problems(
            report, "not-applicable"
        )

    def check_moment(report):
        return [] if report.get("passed") is True else ["moment check did not pass"]

    beat = ["beat", INPUT, "--rank", str(r), "--trials", str(w.beat_trials), "--seed", str(seeds[3])]
    return [
        Command("gen", tuple(gen_argv), 0, check_gen, (GEN_OUT,)),
        Command("plan", ("plan", INPUT, "--rank", str(r), "--epsilon", repr(epsilon)), 0, check_plan),
        Command(
            "approx",
            ("approx", INPUT, "--rank", str(r), "--oversample", str(s),
             "--seed", str(seeds[1]), "--out-prefix", APPROX_PREFIX),
            0,
            check_approx,
            (APPROX_PREFIX + "_H.mtx", APPROX_PREFIX + "_T.mtx", APPROX_PREFIX + ".json"),
        ),
        Command(
            "bench",
            ("bench", INPUT, "--rank", str(r), "--oversample", str(s),
             "--trials", str(w.bench_trials), "--seed", str(seeds[2]),
             "--workers", str(w.bench_workers)),
            0,
            check_satisfied,
            threads=w.bench_workers,
        ),
        Command("beat", (*beat, "--baseline", "colsel"), 0, check_beat),
        Command("beat_floor", (*beat, "--baseline", "svd"), 2, check_beat_floor),
        Command(
            "moment",
            ("moment", "--r", str(r), "--s", str(s),
             "--trials", str(w.moment_trials), "--seed", str(seeds[0])),
            0,
            check_moment,
        ),
    ]
