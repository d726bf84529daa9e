"""Verification toolkit for coefficient inequalities of M- and inverse
M-matrices, subset-overlap quadratic forms, and necessary-condition
screening of candidate nonnegative-matrix spectra."""

from .charcoeff import (
    NewtonReport,
    coeffs_from_spectrum,
    ensure_conjugate_closed,
    newton_check,
    normalized_coeffs,
)
from .errors import GenerationError, InputError
from .forms import (
    FormMatrix,
    binomial_identity_sum,
    build_form,
    psd_check,
    quadratic_apply,
    structure_checks,
)
from .linalg import (
    determinant,
    enumerate_subsets,
    principal_minors_all,
)
from .mclass import (
    GeneratorSpec,
    MatrixClassReport,
    classify,
    dual_minor_identity_check,
    generate,
)
from .niep import (
    ScreeningReport,
    construct_perturbed,
    jll_condition,
    laffey_meehan_condition,
    moment_condition,
    moments,
    newton_shift_condition,
    screen,
)
from .pairsums import (
    MinorPairSums,
    expansion_identity_check,
    feasible_ratio_params,
    identity_pair_count,
    minor_pair_sum,
    pointwise_check,
    ratio_check,
)

__version__ = "0.1.0"

__all__ = [
    "FormMatrix",
    "GenerationError",
    "GeneratorSpec",
    "InputError",
    "MatrixClassReport",
    "MinorPairSums",
    "NewtonReport",
    "ScreeningReport",
    "binomial_identity_sum",
    "build_form",
    "classify",
    "coeffs_from_spectrum",
    "construct_perturbed",
    "determinant",
    "dual_minor_identity_check",
    "ensure_conjugate_closed",
    "enumerate_subsets",
    "expansion_identity_check",
    "feasible_ratio_params",
    "generate",
    "identity_pair_count",
    "jll_condition",
    "laffey_meehan_condition",
    "minor_pair_sum",
    "moment_condition",
    "moments",
    "newton_check",
    "newton_shift_condition",
    "normalized_coeffs",
    "pointwise_check",
    "principal_minors_all",
    "psd_check",
    "quadratic_apply",
    "ratio_check",
    "screen",
    "structure_checks",
]
