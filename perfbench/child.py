"""Run one workload's CLI pipeline in-process and report timings and checks.

``run.py`` starts this script in a fresh interpreter whose BLAS thread
variables are pinned to 1 and whose working directory is an empty scratch
directory; it is not meant to be started by hand.  Commands go through
``randlr.cli.main(argv)`` with stdout captured.  The last line of stdout
is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import randlr.cli
from pipeline import INPUT, WORKLOADS, make_input, pipeline, strict_json, write_input
from spans import Tracer, summarize
from speed import SpeedSampler, pin_to_fastest_cpu

#: A command repeats within a round until its nominal time adds up to
#: this much...
MIN_COMMAND_S = 0.5
#: ...or it has repeated this many times, so cheap commands get enough
#: samples for a median.
MAX_REPEATS = 40
#: No round starts after this many seconds, so that a run on a much slower
#: machine still ends in time (with fewer operations than planned).
HARD_STOP_S = 100.0
#: Rounds an untraced run makes at least, whatever --seconds asks for, so
#: that each command's median has three samples or more.
MIN_ROUNDS = 3
#: Allowed gap between a traced command's wall time and its spans' self times.
RECONCILE_ABS_S = 1e-3
RECONCILE_REL = 5e-3

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Spans whose self time makes up one layer metric.
GROUPS = {
    "experiments.generate": (
        "experiments.generate",
        "experiments.gen_prescribed_spectrum",
        "experiments.gen_signal_plus_noise",
    ),
    "io.read": ("io.read_matrix", "io.read_matrix_market", "io.read_csv"),
    "io.write": ("io.write_matrix", "io.write_matrix_market", "io.write_csv"),
}
# Spans whose work (computed from their arguments) makes up one layer metric.
WORK_METRICS = {
    "core.gaussian_matrix.entries": ("core.gaussian_matrix",),
    "rangefinder.sketch.gflop": ("rangefinder.sketch",),
    "io.read.bytes": ("io.read_matrix_market", "io.read_csv"),
    "io.write.bytes": ("io.write_matrix_market", "io.write_csv"),
}
# Spans that make up the per-trial engine, whose share of each command's
# self time the report gives.
TRIAL_ENGINE = ("core.thin_qr", "core.gaussian_matrix", "rangefinder.", "experiments.monte_carlo")


@contextlib.contextmanager
def cpus_for(cpus: set[int]):
    """Run the block on ``cpus`` (pool threads started inside inherit them)."""
    pinned = os.sched_getaffinity(0)
    if cpus == pinned:
        yield
        return
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


class Runner:
    """Runs commands, checks every output and keeps the samples.

    A command fails when its exit code is not the documented one, its
    stdout is not strict JSON, its check finds a problem, or its stdout or
    written files differ from the first repeat's.  The last two are wrong
    answers and make the run incorrect; the first two are failed
    operations only.  The digest (sha256 of stdout, then of each written
    file) is what two runs with the same seed compare.
    """

    def __init__(self, commands, repeats, sampler, allowed_cpus, pinned_cpu):
        self.commands = commands
        self.repeats = repeats
        self.sampler = sampler
        self.allowed_cpus = allowed_cpus
        self.pinned_cpus = {pinned_cpu}
        self.attempted = 0
        self.failed = 0
        self.wrong_answers = 0
        self.problems: dict[str, list[str]] = {}
        self.digests: dict[str, str] = {}
        self.verdicts: dict[str, list[str]] = {}
        self.stdout_bytes: dict[str, int] = {}
        self.wall = {c.name: [] for c in commands}
        #: (start, end, CPUs) of each untraced sample, scaled once the
        #: speed readings on both sides of every sample are in
        self.intervals = {c.name: [] for c in commands}
        self.traced_intervals: list[tuple[float, float, set[int]]] = []
        self.cpu = {c.name: [] for c in commands}

    def cpus(self, cmd) -> set[int]:
        """A command that computes on several threads gets every allowed
        CPU; the rest run on the pinned one."""
        return self.allowed_cpus if cmd.threads > 1 else self.pinned_cpus

    def run(self, cmd) -> tuple[float, float, float]:
        """Time one invocation and check it; returns its start and end
        (perf_counter) and its CPU seconds."""
        out, err = io.StringIO(), io.StringIO()
        cpus = self.cpus(cmd)
        gc.collect()
        with cpus_for(cpus), self.sampler.watching(cpus):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    # looked up per call, so a traced round calls the wrapper
                    code = randlr.cli.main(list(cmd.argv))
                except Exception as exc:  # an escaping traceback is a failed command
                    code = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            cpu = time.process_time() - cpu0
        self._check(cmd, code, out.getvalue(), err.getvalue())
        return t0, t1, cpu

    def _check(self, cmd, code, stdout: str, stderr: str) -> None:
        problems, wrong = [], []
        if code != cmd.exit_code:
            problems.append(f"exit code {code!r}, documented {cmd.exit_code}; stderr {stderr.strip()!r}")
        digest = hashlib.sha256(stdout.encode())
        for path in cmd.files:
            try:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            except OSError as exc:
                wrong.append(f"cannot read output file: {exc}")
        digest = digest.hexdigest()
        identical = self.digests.setdefault(cmd.name, digest) == digest
        if not identical:
            wrong.append("stdout or output files differ from the first repeat")
        try:
            report = strict_json(stdout)
        except ValueError as exc:
            problems.append(f"stdout is not strict JSON: {exc}")
        else:
            if identical:
                # Repeats are byte-identical to the first, so its verdict holds for all.
                if cmd.name not in self.verdicts:
                    self.verdicts[cmd.name] = self._answer_problems(cmd, report)
                wrong += self.verdicts[cmd.name]
        self.stdout_bytes.setdefault(cmd.name, len(stdout.encode()))
        self.attempted += 1
        if problems or wrong:
            self.failed += 1
            self.problems.setdefault(cmd.name, problems + wrong)
        if wrong:
            self.wrong_answers += 1

    @staticmethod
    def _answer_problems(cmd, report) -> list[str]:
        if not isinstance(report, dict):
            return ["report is not an object"]
        try:
            return cmd.check(report)
        except (OSError, ValueError, TypeError, AttributeError) as exc:
            return [f"check could not read the output: {exc!r}"]

    def untraced_round(self) -> None:
        for cmd, reps in zip(self.commands, self.repeats):
            for _ in range(reps):
                t0, t1, cpu = self.run(cmd)
                self.wall[cmd.name].append(t1 - t0)
                self.intervals[cmd.name].append((t0, t1, self.cpus(cmd)))
                self.cpu[cmd.name].append(cpu)

    def scaled(self) -> dict[str, list[float]]:
        """Each untraced sample at the nominal CPU speed (see speed.py)."""
        return {
            name: [self.sampler.scale(cpus, t0, t1) for t0, t1, cpus in intervals]
            for name, intervals in self.intervals.items()
        }

    def traced_round(self, tracer: Tracer, index: int, walls: dict) -> None:
        tracer.install()
        try:
            for cmd in self.commands:
                tracer.label = f"{cmd.name}#{index}"
                t0, t1, _ = self.run(cmd)
                walls[tracer.label] = t1 - t0
                self.traced_intervals.append((t0, t1, self.cpus(cmd)))
        finally:
            tracer.label = None
            tracer.uninstall()


def schedule(nominal_s, seconds: float) -> tuple[list[int], int]:
    """Repeats of each command per round, and untraced rounds per run.

    Both follow from the workload's nominal times and ``seconds`` alone, so
    every run of a workload makes the same operations: ``attempted`` and
    ``failed`` do not depend on how fast the machine happened to be.
    """
    repeats = [min(MAX_REPEATS, max(1, math.ceil(MIN_COMMAND_S / t))) for t in nominal_s]
    round_s = sum(r * t for r, t in zip(repeats, nominal_s))
    return repeats, max(MIN_ROUNDS, round(seconds / round_s))


def high_percentile(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples above it."""
    if len(samples) < 11:
        return None
    k = len(samples) - 11
    return {"percentile": 100.0 * (k + 1) / len(samples), "value": sorted(samples)[k]}


def environment(workload: str, seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = None
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_vars": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
    }


def layer_metrics(
    tracer: Tracer, runner: Runner, walls: dict, scaled: dict, rounds: int, workers: int
) -> dict:
    """Per-layer metrics per pipeline (traced totals divided by traced rounds)."""
    summary = summarize(tracer.spans, tracer.root_thread)
    per_name: dict[str, dict] = {}
    by_command: dict[str, dict] = {}
    unreconciled = []
    for label, entry in summary.items():
        command = label.split("#")[0]
        wall = walls[label]
        if abs(entry["self_sum_s"] - entry["overlap_s"] - wall) > RECONCILE_ABS_S + RECONCILE_REL * wall:
            unreconciled.append(label)
        cmd = by_command.setdefault(command, {"wall_s": 0.0, "pool_busy_s": 0.0, "self_s": {}})
        cmd["wall_s"] += wall / rounds
        cmd["pool_busy_s"] += entry["pool_busy_s"] / rounds
        for name, stats in entry["names"].items():
            total = per_name.setdefault(name, {"calls": 0.0, "self_s": 0.0, "work": 0.0})
            for key in total:
                total[key] += stats[key] / rounds
            cmd["self_s"][name] = cmd["self_s"].get(name, 0.0) + stats["self_s"] / rounds

    metrics = {}
    for name, total in per_name.items():
        metrics[f"{name}.calls"] = total["calls"]
        metrics[f"{name}.self_s"] = total["self_s"]
    for group, names in GROUPS.items():
        metrics[f"{group}.self_s"] = sum(per_name.get(n, {}).get("self_s", 0.0) for n in names)
    for metric, names in WORK_METRICS.items():
        metrics[metric] = sum(per_name.get(n, {}).get("work", 0.0) for n in names)
    trial_commands = ("bench", "beat", "beat_floor")
    metrics["experiments.trials"] = sum(
        stats["names"].get("rangefinder.factorize", {}).get("calls", 0)
        for label, stats in summary.items()
        if label.split("#")[0] in trial_commands
    ) / rounds
    bench = by_command.get("bench", {"wall_s": 0.0, "pool_busy_s": 0.0})
    metrics["experiments.worker_busy_frac"] = (
        bench["pool_busy_s"] / (bench["wall_s"] * workers) if workers > 1 and bench["wall_s"] else 0.0
    )
    metrics["cli.stdout_bytes"] = float(sum(runner.stdout_bytes.values()))
    for name, samples in runner.cpu.items():
        if samples:
            metrics[f"cli.{name}.cpu_s"] = statistics.median(samples)
    # both at the nominal CPU speed, as traced and untraced rounds ran at
    # different times
    traced = sum(runner.sampler.scale(cpus, t0, t1) for t0, t1, cpus in runner.traced_intervals)
    untraced = sum(statistics.median(s) for s in scaled.values() if s)
    metrics["trace.overhead_frac"] = traced / rounds / untraced - 1.0
    for cmd in by_command.values():
        cmd["self_s"] = dict(sorted(cmd["self_s"].items(), key=lambda kv: -kv[1]))
        engine = sum(v for n, v in cmd["self_s"].items() if n.startswith(TRIAL_ENGINE))
        cmd["trial_engine_frac"] = engine / (sum(cmd["self_s"].values()) or 1.0)
    return {"metrics": metrics, "commands": by_command, "unreconciled": unreconciled}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="write the traced spans here (gzip JSON lines)")
    args = parser.parse_args()

    w = WORKLOADS[args.workload]
    F = write_input(INPUT, make_input(w, args.seed))
    commands = pipeline(w, args.seed, F)

    repeats, rounds = schedule(w.nominal_s, args.seconds)
    allowed = os.sched_getaffinity(0)
    pinned_cpu, cpu_probe = pin_to_fastest_cpu()
    sampler = SpeedSampler(allowed)
    sampler.watch({pinned_cpu})
    runner = Runner(commands, repeats, sampler, allowed, pinned_cpu)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # untraced and traced rounds alternate, in about the same time
        rounds = max(1, rounds // 2)
    walls: dict = {}
    done = 0
    start = time.perf_counter()
    try:
        while done < rounds and time.perf_counter() - start < HARD_STOP_S:
            runner.untraced_round()
            if tracer is not None:
                runner.traced_round(tracer, done, walls)
            done += 1
    finally:
        sampler.close()
    scaled = runner.scaled()
    readings = [d for cpu in allowed for _, d in sampler.readings[cpu]]

    result = {
        "environment": environment(args.workload, args.seed),
        "randlr_file": randlr.cli.__file__,
        "rounds": done,
        "planned_rounds": rounds,
        "repeats": dict(zip((c.name for c in commands), repeats)),
        "measured_s": time.perf_counter() - start,
        "pinned_cpu": pinned_cpu,
        "reference_probe_s": cpu_probe,
        "reference_readings": len(readings),
        "reference_median_s": statistics.median(readings),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "wrong_answers": runner.wrong_answers,
        "problems": runner.problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "commands": {
            c.name: {
                "argv": list(c.argv),
                "samples": len(runner.wall[c.name]),
                "wall_median_s": statistics.median(runner.wall[c.name]),
                "scaled_median_s": statistics.median(scaled[c.name]),
                "wall_min_s": min(runner.wall[c.name]),
                "wall_samples_s": runner.wall[c.name],
                "scaled_samples_s": scaled[c.name],
                "wall_high_s": high_percentile(runner.wall[c.name]),
                "cpu_median_s": statistics.median(runner.cpu[c.name]),
                "sha256": runner.digests[c.name],
            }
            for c in commands
        },
    }
    if tracer is not None:
        result["traced_rounds"] = done
        result["trace"] = layer_metrics(tracer, runner, walls, scaled, done, w.bench_workers)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
