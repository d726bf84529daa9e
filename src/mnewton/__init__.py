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
from .errors import ConstructionError, GenerationError, InputError
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
    dual_index_set,
    enumerate_subsets,
    minor_sums,
    minor_sums_exhaustive,
    poly_roots,
    principal_minor,
    principal_minors_all,
    sym_eigenvalues,
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
    "ConstructionError",
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
    "dual_index_set",
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
    "minor_sums",
    "minor_sums_exhaustive",
    "moment_condition",
    "moments",
    "newton_check",
    "newton_shift_condition",
    "normalized_coeffs",
    "poly_roots",
    "pointwise_check",
    "principal_minor",
    "principal_minors_all",
    "psd_check",
    "quadratic_apply",
    "ratio_check",
    "screen",
    "structure_checks",
    "sym_eigenvalues",
]
