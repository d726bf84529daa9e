"""Subset-overlap quadratic forms: construction, PSD checks, structure identities.

All four form matrices are indexed by the colex-ordered size-m subsets of
{1..n} and their entries depend only on the overlap ``j = |alpha & beta|``:

    phi        -> j                      (Gramian of subset incidence vectors)
    tilde_phi  -> m - j + 1
    tilde_psi  -> 1 / (m - j + 1)        (entrywise reciprocal of tilde_phi)
    psi        -> m(n-m) - (m+1)(n-m+1)(m-j)/(m-j+1)

The forms are real symmetric, so real-spectrum PSD checking decides
semidefiniteness of the associated Hermitian forms.  A form is stored as
(n, m, kind): its eigenvalues are exact sums of the overlap weights
against Eberlein polynomials.  Dense entries, from one capped builder,
exist only for export, quadratic evaluation and test oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError
from .linalg import (
    _colex_masks,
    principal_minors_all,  # noqa: F401  (bench/tests checks that the tracer patches it here)
)

FORM_KINDS = ("phi", "tilde_phi", "tilde_psi", "psi")
FORM_DIMENSION_CAP = 5000


def _weight(n: int, m: int, kind: str, j, one):
    """f(j) for overlap j, in the arithmetic of ``one`` (1.0 for floats, Fraction(1) exact)."""
    if kind == "phi":
        return j * one
    if kind == "tilde_phi":
        return (m - j + 1) * one
    if kind == "tilde_psi":
        return one / (m - j + 1)
    return m * (n - m) - (m + 1) * (n - m + 1) * (m - j) / (m - j + one)


def _lowest_overlap(n: int, m: int) -> int:
    """Smallest |alpha & beta| that occurs between two size-m subsets of {1..n}."""
    return max(0, 2 * m - n)


def _eberlein(n: int, m: int, d: int, i: int) -> int:
    """Eigenvalue on eigenspace i of the distance-d graph of the Johnson scheme J(n, m)."""
    return sum((-1) ** h * math.comb(i, h) * math.comb(m - i, d - h)
               * math.comb(n - m - i, d - h) for h in range(min(i, d) + 1))


def _theta(n: int, m: int, kind: str, i: int) -> Fraction:
    """Exact eigenvalue sum_j f(j) E_{m-j}(i) of a form on Johnson eigenspace i."""
    return sum((_weight(n, m, kind, j, Fraction(1)) * _eberlein(n, m, m - j, i)
                for j in range(_lowest_overlap(n, m), m + 1)), Fraction(0))


@dataclass(frozen=True)
class FormMatrix:
    """Form with entries f(|alpha & beta|) on the colex size-m subsets of {1..n}.

    Every such matrix lies in the Bose-Mesner algebra of the Johnson scheme
    J(n, m), so the m+1 overlap weights determine it and its spectrum is
    closed-form (Delsarte 1973).  Dense entries are built only on access.
    """

    n: int
    m: int
    kind: str

    @property
    def dim(self) -> int:
        return math.comb(self.n, self.m)

    @property
    def weights(self) -> np.ndarray:
        """Float weights f(0), ..., f(m); overlaps below max(0, 2m-n) never occur."""
        return _weight(self.n, self.m, self.kind, np.arange(self.m + 1), 1.0)

    @property
    def eigenvalues(self) -> list[Fraction]:
        """Exact eigenvalues theta_i of the rational form, i = 0..min(m, n-m).

        Eigenspace i has multiplicity C(n, i) - C(n, i-1); i = 0 is spanned
        by the all-ones vector, so theta_0 is the common row sum.
        """
        return [_theta(self.n, self.m, self.kind, i)
                for i in range(min(self.m, self.n - self.m) + 1)]

    @property
    def entries(self) -> np.ndarray:
        """Dense C(n,m) x C(n,m) symmetric matrix, built on each access (capped)."""
        return self.weights[_overlaps(self.n, self.m)]


def overlap_matrix(n: int, m: int) -> np.ndarray:
    """Integer matrix of pairwise subset intersection sizes, colex order."""
    return _overlaps(n, m)


def _overlaps(n: int, m: int) -> np.ndarray:
    # The one dense builder (entries, exports, quadratic_apply), so the one
    # place the cap is kept.  It calls no public function: the span tracer in
    # bench/tracing.py reads entries from a count hook that holds the tracer's
    # non-reentrant lock, so a traced call from there deadlocks.
    if 0 <= m <= n and math.comb(n, m) > FORM_DIMENSION_CAP:
        raise InputError(f"dense form dimension C({n},{m}) exceeds cap "
                         f"{FORM_DIMENSION_CAP} (bitmask subsets need n <= 64)")
    masks = _colex_masks(n, m)
    return np.bitwise_count(masks[:, None] & masks[None, :]).astype(np.int64)


def _check_order(n: int, m: int) -> None:
    if not 1 <= m <= n - 1:
        raise InputError(f"need 1 <= m <= n-1, got m = {m} with n = {n}")


def build_form(n: int, m: int, kind: str) -> FormMatrix:
    """Overlap-indexed form of the given kind on size-m subsets; builds nothing dense."""
    if kind not in FORM_KINDS:
        raise InputError(f"unknown form kind {kind!r}; expected one of {FORM_KINDS}")
    _check_order(n, m)
    return FormMatrix(n, m, kind)


def psd_check(form: FormMatrix, tol: float = 1e-8) -> tuple[bool, float]:
    """(is_psd, min_eigenvalue) from the exact minimum Johnson-scheme eigenvalue,
    with threshold ``-tol * maxabs(entries)`` read off the weights of the
    overlaps that occur: no dense matrix is built, so no cap applies."""
    min_eig = float(min(form.eigenvalues))
    maxabs = float(np.max(np.abs(form.weights[_lowest_overlap(form.n, form.m):])))
    return min_eig >= -tol * maxabs, min_eig


def incidence_matrix(n: int, m: int) -> np.ndarray:
    """0/1 matrix with one row per colex size-m subset, one column per element."""
    masks = _colex_masks(n, m)
    return ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)


@dataclass(frozen=True)
class StructureReport:
    gramian_exact: bool        # phi == V V^T, as equal exact spectra
    complement_exact: bool     # tilde_phi + phi == (m+1) * ones entrywise
    reciprocal_max_dev: float  # tilde_psi vs entrywise 1 / tilde_phi
    affine_max_dev: float      # psi vs (m+1)(n-m+1) tilde_psi - (n+1) * ones
    null_vector_max: float     # max |psi @ e|, normalized by maxabs(psi)
    ok: bool


def structure_checks(n: int, m: int, tol: float = 1e-10) -> StructureReport:
    """Verify the structural relations tying the four forms together.

    Integer relations (Gramian factorization, complement to the rank-one
    multiple of ones) are required exactly; the floating relations must
    hold within ``tol`` and the all-ones vector must annihilate psi within
    ``tol * maxabs(psi)``.

    The entrywise relations are checked on the float weights of the
    overlaps that occur, which gives the same values as checking every
    entry.  Forms in the Johnson scheme are equal exactly when their
    eigenvalues are, so phi == V V^T is checked against the spectrum of
    V^T V (diagonal C(n-1,m-1), off-diagonal C(n-2,m-2)): theta_0 = m
    C(n-1,m-1), theta_1 = C(n-2,m-1) and 0 beyond.  psi @ e = theta_0(psi) e.
    No dense matrix is built, so no dimension cap applies.
    """
    _check_order(n, m)
    lo = _lowest_overlap(n, m)
    phi, tilde_phi, tilde_psi, psi = (FormMatrix(n, m, kind).weights[lo:] for kind in FORM_KINDS)

    gramian = [m * math.comb(n - 1, m - 1), math.comb(n - 2, m - 1)]
    gramian += [0] * (min(m, n - m) - 1)
    gramian_exact = FormMatrix(n, m, "phi").eigenvalues == gramian

    complement_exact = bool(np.array_equal(tilde_phi + phi,
                                           float(m + 1) * np.ones_like(phi)))
    reciprocal_max_dev = float(np.max(np.abs(tilde_psi - 1.0 / tilde_phi)))
    affine = (m + 1) * (n - m + 1) * tilde_psi - (n + 1) * np.ones_like(psi)
    affine_max_dev = float(np.max(np.abs(psi - affine)))
    psi_scale = float(np.max(np.abs(psi))) or 1.0
    null_vector_max = float(abs(_theta(n, m, "psi", 0))) / psi_scale

    ok = (gramian_exact and complement_exact
          and reciprocal_max_dev <= tol
          and affine_max_dev <= tol * psi_scale
          and null_vector_max <= tol)
    return StructureReport(gramian_exact, complement_exact,
                           reciprocal_max_dev, affine_max_dev,
                           null_vector_max, ok)


def binomial_identity_sum(n: int, m: int) -> Fraction:
    """Exact rational value of the overlap-weight identity sum.

    ``sum_j (m(n-m) - (m+1)(n-m+1)(m-j)/(m-j+1)) C(m,j) C(n-m,m-j)``
    evaluated in big-integer rational arithmetic; conformant output is
    exactly zero for every 1 <= m <= n-1.  It is the row sum theta_0 of
    psi, since E_{m-j}(0) = C(m,j) C(n-m,m-j) counts the subsets at
    overlap j from a fixed one.
    """
    _check_order(n, m)
    return _theta(n, m, "psi", 0)


def quadratic_apply(form: FormMatrix, t) -> float:
    """Evaluate the quadratic form t^T F t in the colex basis.

    With ``t = principal_minors_all(A, m)`` and the psi kind this is the quantity
    whose nonnegativity forces the corresponding Newton margin.
    """
    vec = np.asarray(t, dtype=float).ravel()
    if vec.size != form.dim:
        raise InputError(
            f"vector length {vec.size} does not match form dimension {form.dim}")
    return float(vec @ form.entries @ vec)
