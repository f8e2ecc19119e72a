"""randlr: randomized low-rank matrix approximation with error-bound planning.

The package factors a dense matrix F as ``basis @ coeffs`` where the basis
is an orthonormal sketch of F's range, predicts the expected approximation
error from F's singular spectrum, selects the oversampling needed to meet
an error budget, and ships a Monte Carlo harness that validates those
predictions empirically.
"""

from .baselines import column_select
from .core import (
    SingularSpectrum,
    as_matrix,
    derive_seed,
    frobenius_norm,
    gaussian_matrix,
    singular_values,
    svd_factors,
    thin_qr,
)
from .experiments import (
    GeneratorSpec,
    MomentCheck,
    TrialReport,
    beat_baseline_experiment,
    gen_prescribed_spectrum,
    gen_signal_plus_noise,
    generate,
    monte_carlo,
    verify_gaussian_pinv_moment,
)
from .io import read_matrix, read_matrix_market, write_csv, write_matrix, write_matrix_market
from .planner import (
    MODE_LITERAL,
    MODE_SQUARED,
    ApproximationPlan,
    choose_oversampling,
    expected_error_bound,
    plan,
    tail_energy,
)
from .rangefinder import (
    FactoredApproximation,
    approximation_error,
    build_basis,
    factorize,
    load_factored,
    save_factored,
    sketch,
)

__version__ = "0.1.0"

__all__ = [
    "ApproximationPlan",
    "FactoredApproximation",
    "GeneratorSpec",
    "MomentCheck",
    "MODE_LITERAL",
    "MODE_SQUARED",
    "SingularSpectrum",
    "TrialReport",
    "approximation_error",
    "as_matrix",
    "beat_baseline_experiment",
    "build_basis",
    "choose_oversampling",
    "column_select",
    "derive_seed",
    "expected_error_bound",
    "factorize",
    "frobenius_norm",
    "gaussian_matrix",
    "gen_prescribed_spectrum",
    "gen_signal_plus_noise",
    "generate",
    "load_factored",
    "monte_carlo",
    "plan",
    "read_matrix",
    "read_matrix_market",
    "save_factored",
    "singular_values",
    "sketch",
    "svd_factors",
    "tail_energy",
    "thin_qr",
    "verify_gaussian_pinv_moment",
    "write_csv",
    "write_matrix",
    "write_matrix_market",
]
