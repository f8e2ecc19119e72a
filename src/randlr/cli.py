"""Command-line interface.

Subcommands mirror the library surface: ``spectrum``, ``plan``, ``approx``,
``bench``, ``beat``, ``gen``, ``moment``.  All reports are JSON on stdout
with a ``schema_version`` field and deterministic key order.  Exit codes:
0 on success, 2 when a plan is infeasible, 1 on any error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .core import SingularSpectrum, singular_values
from .experiments import (
    KIND_PRESCRIBED,
    KIND_SIGNAL_NOISE,
    VERDICT_NOT_APPLICABLE,
    GeneratorSpec,
    beat_baseline_experiment,
    generate,
    monte_carlo,
    verify_gaussian_pinv_moment,
)
from .io import read_matrix, write_matrix
from .planner import MODE_SQUARED, MODES, check_budget, check_nonnegative, plan
from .rangefinder import METHOD_COLUMN_SELECT, METHOD_TRUNCATED_SVD, factorize, save_factored

__all__ = ["main"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

_BASELINE_ALIASES = {
    "svd": METHOD_TRUNCATED_SVD,
    "colsel": METHOD_COLUMN_SELECT,
}


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))


def _spectrum_to_dict(spectrum: SingularSpectrum) -> dict:
    return {
        "schema_version": 1,
        "values": [float(v) for v in spectrum.values],
        "source_dims": list(spectrum.source_dims),
    }


def _load_spectrum_or_matrix(path: str) -> SingularSpectrum:
    """A .json file is read as a serialized spectrum; anything else is read
    as a matrix and decomposed.  A malformed spectrum file is a ValueError
    naming the file."""
    if str(path).lower().endswith(".json"):
        with open(path) as fh:
            try:
                data = json.load(fh)
                values = [check_nonnegative(v, "singular value") for v in data["values"]]  # asarray reads "2" as 2.0
                return SingularSpectrum(values=np.asarray(values), source_dims=data["source_dims"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise ValueError(
                    f"{path} is not a spectrum file ({type(exc).__name__}: {exc}); expected "
                    '{"values": [...], "source_dims": [rows, cols]}'
                ) from exc
    return singular_values(read_matrix(path))


def _cmd_spectrum(args) -> int:
    _emit(_spectrum_to_dict(singular_values(read_matrix(args.matrix))))
    return EXIT_OK


def _cmd_plan(args) -> int:
    check_budget(args.epsilon)  # before the SVD
    spectrum = _load_spectrum_or_matrix(args.input)
    result = plan(spectrum, args.rank, args.epsilon, args.mode)
    _emit(result.to_dict())
    return EXIT_OK if result.feasible else EXIT_INFEASIBLE


def _cmd_approx(args) -> int:
    F = read_matrix(args.matrix)
    approx = factorize(F, args.rank, args.oversample, args.seed)
    paths = save_factored(args.out_prefix, approx)
    _emit(
        {
            "schema_version": 1,
            "written": paths,
            "method": approx.method,
            "basis_shape": list(approx.basis.shape),
            "coeffs_shape": list(approx.coeffs.shape),
        }
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    F = read_matrix(args.matrix)
    report = monte_carlo(
        F,
        args.rank,
        args.oversample,
        args.trials,
        args.seed,
        mode=args.mode,
        workers=args.workers,
    )
    _emit(report.to_dict())
    return EXIT_OK


def _cmd_beat(args) -> int:
    F = read_matrix(args.matrix)
    report = beat_baseline_experiment(
        F,
        args.rank,
        _BASELINE_ALIASES[args.baseline],
        args.trials,
        args.seed,
        mode=args.mode,
    )
    _emit(report.to_dict())
    return EXIT_INFEASIBLE if report.verdict == VERDICT_NOT_APPLICABLE else EXIT_OK


def _cmd_gen(args) -> int:
    if args.generator == "spectrum":
        try:
            values = tuple(float(tok) for tok in args.values.split(","))
        except ValueError as exc:
            raise ValueError(f"--values: {exc}") from exc
        fields = {"kind": KIND_PRESCRIBED, "spectrum": values}
    else:
        fields = {"kind": KIND_SIGNAL_NOISE, "signal_rank": args.signal_rank, "noise_level": args.noise_level}
    spec = GeneratorSpec(dims=args.dims, seed=args.seed, **fields)
    write_matrix(args.out, generate(spec))
    _emit({"schema_version": 1, "written": [args.out], "generator": spec.to_dict()})
    return EXIT_OK


def _cmd_moment(args) -> int:
    check = verify_gaussian_pinv_moment(args.r, args.s, args.trials, args.seed)
    _emit(check.to_dict())
    return EXIT_OK


# Built once per process: argparse keeps no state between parse_args calls,
# and in-process callers of main would otherwise rebuild it every call.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randlr",
        description="Randomized low-rank approximation: factorize, plan, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="singular values of a matrix file as JSON")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("plan", help="pick the least oversampling for an error budget")
    p.add_argument("input", help="matrix file, or a .json spectrum file")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--mode", choices=MODES, default=MODE_SQUARED)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("approx", help="factorize a matrix and write H/T files")
    p.add_argument("matrix")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--oversample", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("bench", help="Monte Carlo validation of the error bound")
    p.add_argument("matrix")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--oversample", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default=MODE_SQUARED)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("beat", help="plan against a deterministic baseline and validate")
    p.add_argument("matrix")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--baseline", choices=sorted(_BASELINE_ALIASES), required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default=MODE_SQUARED)
    p.set_defaults(func=_cmd_beat)

    p = sub.add_parser("gen", help="generate a reproducible test matrix file")
    gen_sub = p.add_subparsers(dest="generator", required=True)

    g = gen_sub.add_parser("spectrum", help="matrix with prescribed singular values")
    g.add_argument("--dims", type=int, nargs=2, required=True, metavar=("ROWS", "COLS"))
    g.add_argument("--values", required=True, help="comma-separated, non-increasing")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    g = gen_sub.add_parser("signal-noise", help="exact-rank signal plus Gaussian noise")
    g.add_argument("--dims", type=int, nargs=2, required=True, metavar=("ROWS", "COLS"))
    g.add_argument("--signal-rank", type=int, required=True)
    g.add_argument("--noise-level", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    p = sub.add_parser("moment", help="Monte Carlo check of the Gaussian pseudoinverse moment")
    p.add_argument("--r", type=int, required=True, help="rows of the Gaussian test matrix")
    p.add_argument("--s", type=int, required=True, help="extra columns beyond r")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_moment)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, but 2 means "infeasible plan"
        # here; fold usage problems into the generic error code
        return EXIT_OK if exc.code == 0 else EXIT_ERROR
    try:
        return args.func(args)
    except (ValueError, OSError, OverflowError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)  # a bare MemoryError has no message
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
