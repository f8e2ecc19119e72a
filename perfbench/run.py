"""Benchmark of the randlr command-line pipeline.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload square-spectrum --seed 1 --seconds 25 --trace 0

Each run measures set-up time (fresh interpreters importing ``randlr.cli``),
then starts one child process for the workload with the BLAS thread
variables pinned to 1 before numpy loads.  The child makes the input from
the seed, runs ``gen -> plan -> approx -> bench -> beat(colsel) ->
beat(svd) -> moment`` in rounds for about ``--seconds``, and checks every
output.  With ``--trace 1`` it also runs traced rounds that time the calls
into every module's public functions.

The full report (environment, per-command samples, medians, digests and,
when traced, the per-layer breakdown) is printed and written under
``perfbench/out/``.  The last line of stdout is the JSON result: the
``end_to_end`` metrics of ``BENCHMARK.json`` with ``--trace 0``, its
``per_layer`` metrics with ``--trace 1``.  The run exits 0 when it
measured, even if commands failed; ``failed`` and ``correct`` say so.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from speed import SpeedSampler, pin_to_fastest_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Fresh interpreters timed for ``setup_s`` and for the import breakdown.
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
#: The workload child is killed after this long, so a run ends within 180 s.
CHILD_TIMEOUT_S = 150

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchmarkError(Exception):
    """The benchmark could not measure (as opposed to: a command failed)."""


def pinned_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_times(env: dict) -> tuple[list[float], list[float]]:
    """Seconds from launching a fresh interpreter until ``import randlr.cli``
    completes, as measured and at the nominal CPU speed (see speed.py).
    perf_counter is CLOCK_MONOTONIC, shared by both processes."""
    code = "import randlr.cli, time; print(repr(time.perf_counter()))"
    original = os.sched_getaffinity(0)
    pinned = {pin_to_fastest_cpu()[0]}
    sampler = SpeedSampler(pinned)
    sampler.watch(pinned)
    measured, intervals = [], []
    try:
        for _ in range(SETUP_RUNS):
            start = time.perf_counter()
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            if done.returncode != 0:
                raise BenchmarkError(f"import randlr.cli failed: {done.stderr.strip()}")
            end = float(done.stdout)
            measured.append(end - start)
            intervals.append((start, end))
    finally:
        sampler.close()
        # the workload child chooses its own CPU among all allowed ones
        os.sched_setaffinity(0, original)
    return measured, [sampler.scale(pinned, start, end) for start, end in intervals]


def import_times(env: dict) -> dict:
    """Median cumulative import times of randlr.cli and scipy.io from
    ``python -X importtime``."""
    found = {"import.randlr_s": [], "import.scipy_io_s": []}
    wanted = {"randlr.cli": "import.randlr_s", "scipy.io": "import.scipy_io_s"}
    for _ in range(IMPORTTIME_RUNS):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import randlr.cli"],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m.group(2) in wanted:
                found[wanted[m.group(2)]].append(int(m.group(1)) / 1e6)
    return {k: statistics.median(v) for k, v in found.items() if v}


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git (which
    would search parent directories of a checkout that is not a repo)."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_child(args, env: dict, spans_path: Path | None) -> dict:
    work_root = HERE / "_work"
    work_root.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if spans_path is not None:
        cmd += ["--spans", str(spans_path)]
    try:
        done = subprocess.run(
            cmd, env=env, cwd=work, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"workload child did not finish within {CHILD_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0 or not done.stdout.strip():
        raise BenchmarkError(f"workload child exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return (full report, contract result)."""
    if not (SRC / "randlr" / "cli.py").is_file():
        raise BenchmarkError(f"no randlr sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchmarkError(f"unknown workload {args.workload!r}, expected one of {names}")

    env = pinned_env()
    setup_measured, setup = setup_times(env)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = out_dir / f"{stem}.spans.jsonl.gz" if args.trace else None
    child = run_child(args, env, spans_path)
    if Path(child["randlr_file"]).resolve().parent != (SRC / "randlr").resolve():
        raise BenchmarkError(f"child imported randlr from {child['randlr_file']}, not {SRC}")

    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": child["peak_rss_mb"],
        "error_rate": child["failed"] / child["attempted"],
    }
    for name, command in child["commands"].items():
        values[f"{name}_s"] = command["scaled_median_s"]
    correct = child["wrong_answers"] == 0
    if args.trace:
        values.update(import_times(env))
        values.update(child["trace"]["metrics"])
        correct = correct and not child["trace"]["unreconciled"]

    group = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[group]:
        if m["name"] in values:
            value = values[m["name"]]
        elif args.trace:
            value = 0.0  # a layer function that was never called
        else:
            raise BenchmarkError(f"end-to-end metric {m['name']!r} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    child["environment"]["git_commit"] = git_commit()
    report = {
        **child,
        "setup_samples_s": setup_measured,
        "setup_scaled_s": setup,
        "error_rate": values["error_rate"],
        "correct": correct,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    result = {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    return report, result


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        report, result = measure(args)
    except (BenchmarkError, OSError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
