"""Verification toolkit for coefficient inequalities of M- and inverse
M-matrices, subset-overlap quadratic forms, and necessary-condition
screening of candidate nonnegative-matrix spectra.

Exports and submodules load on first access (PEP 562), so ``import
mnewton`` imports no numpy; a name reads its module's current attribute
on every access and is never cached here.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "charcoeff": "NewtonReport coeffs_from_spectrum ensure_conjugate_closed newton_check "
                 "normalized_coeffs",
    "errors": "InputError",
    "forms": "FormMatrix binomial_identity_sum build_form psd_check structure_checks",
    "linalg": "enumerate_subsets principal_minors_all",
    "mclass": "GeneratorSpec MatrixClassReport classify dual_minor_identity_check generate",
    "niep": "ScreeningReport moments screen screen_many",
    "pairsums": "MinorPairSums SplitReport feasible_ratio_params identity_pair_count "
                "pointwise_check ratio_check",
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names.split()}
_SUBMODULES = (*_EXPORTS, "cli", "defaults", "serialize")

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
