"""Subset-overlap quadratic forms: construction, PSD checks, structure identities.

All four form matrices are indexed by the colex-ordered size-m subsets of
{1..n} and their entries depend only on the overlap ``j = |alpha & beta|``:

    phi        -> j                      (Gramian of subset incidence vectors)
    tilde_phi  -> m - j + 1
    tilde_psi  -> 1 / (m - j + 1)        (entrywise reciprocal of tilde_phi)
    psi        -> m(n-m) - (m+1)(n-m+1)(m-j)/(m-j+1)

The forms are real symmetric, so real-spectrum PSD checking decides
semidefiniteness of the associated Hermitian forms.  A form is stored as
(n, m, kind).  Each weight is a + b d + c/(d+1) in the distance d = m - j,
so every exact Johnson-scheme eigenvalue, of all four kinds, is one
integer sum of O(m) terms.  The weights, the PSD and structure checks and
the identity sum are Python floats, ints and Fractions, the same bits as
float64 arrays would give, so none of them imports numpy.  Dense entries
exist only for export and test oracles.  They are laid out by one capped
list of colex bitmasks; the exports pack it into Python-int column
bitmaps, and only ``entries`` imports numpy.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction
from types import SimpleNamespace

from .defaults import FORM_KINDS
from .errors import InputError

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


def _affine_reciprocal(n: int, m: int, kind: str) -> tuple[int, int, int]:
    """(a, b, c) with f(m-d) = a + b d + c/(d+1); psi's a is m(n-m) - (m+1)(n-m+1)."""
    return {"phi": (m, -1, 0), "tilde_phi": (1, 1, 0), "tilde_psi": (0, 0, 1),
            "psi": (-(n + 1), 0, (m + 1) * (n - m + 1))}[kind]


def _theta(n: int, m: int, kind: str, i: int) -> Fraction:
    """Exact eigenvalue sum_d f(m-d) E_d(i) on Johnson eigenspace i (Eberlein E_d).

    With e = d - h in E_d(i) = sum_h (-1)^h C(i,h) C(m-i,e) C(n-m-i,e) this
    is sum_e C(m-i,e) C(n-m-i,e) sum_h (-1)^h C(i,h) f(m-e-h): a + b e at
    i = 0, -b at i = 1, 0 beyond, plus c e! i!/(e+i+1)! (the Beta integral
    of x^e (1-x)^i), for e = 0..min(m, n-m) - i.  The Beta terms are summed
    over the denominator K!/i!, K = min(m, n-m) + 1, so the loop is integer.
    """
    a, b, c = _affine_reciprocal(n, m, kind)
    p, q = {0: (a, b), 1: (-b, 0)}.get(i, (0, 0))
    k = min(m, n - m) + 1
    linear = recip = 0
    count = 1                                            # C(m-i, e) C(n-m-i, e)
    beta = math.factorial(k) // math.factorial(i + 1)    # e! K! / (e+i+1)!
    for e in range(k - i):
        linear += count * (p + q * e)
        recip += count * beta
        count = count * (m - i - e) * (n - m - i - e) // (e + 1) ** 2
        beta = beta * (e + 1) // (e + i + 2)
    return linear + Fraction(c * recip * math.factorial(i), math.factorial(k))


class FormMatrix(namedtuple("FormMatrix", "n m kind")):
    """Form with entries f(|alpha & beta|) on the colex size-m subsets of {1..n}.

    Every such matrix lies in the Bose-Mesner algebra of the Johnson scheme
    J(n, m), so the m+1 overlap weights determine it and its spectrum is
    closed-form (Delsarte 1973).  Dense entries are built only on access.
    A named tuple rather than a dataclass, so the numpy-free commands do not
    import ``dataclasses`` (and ``inspect``) at start-up.
    """

    __slots__ = ()

    @property
    def dim(self) -> int:
        return math.comb(self.n, self.m)

    @property
    def weights(self) -> list[float]:
        """Float weights f(0), ..., f(m); overlaps below max(0, 2m-n) never occur."""
        return [_weight(self.n, self.m, self.kind, j, 1.0) for j in range(self.m + 1)]

    @property
    def eigenvalues(self) -> list[Fraction]:
        """Exact eigenvalues theta_i, i = 0..min(m, n-m), each one O(m) integer sum.

        Eigenspace i has multiplicity C(n, i) - C(n, i-1); i = 0 is spanned
        by the all-ones vector, so theta_0 is the common row sum.
        """
        return [_theta(self.n, self.m, self.kind, i)
                for i in range(min(self.m, self.n - self.m) + 1)]

    @property
    def entries(self):
        """Dense C(n,m) x C(n,m) symmetric ndarray, built on each access (capped)."""
        # Calls no public function: the span tracer in bench/tracing.py reads
        # entries from a count hook that holds the tracer's non-reentrant lock,
        # so a traced call from there deadlocks.
        import numpy as np
        masks = np.array(_dense_masks(self.n, self.m), dtype=np.uint64)
        return np.array(self.weights)[np.bitwise_count(masks[:, None] & masks[None, :])]


def _dense_masks(n: int, m: int) -> list[int]:
    """Bitmasks of the size-m subsets of {1..n} in colex (increasing) order,
    the basis of every dense form, so the one place the cap is kept."""
    if 0 <= m <= n and math.comb(n, m) > FORM_DIMENSION_CAP:
        raise InputError(f"dense form dimension C({n},{m}) exceeds cap "
                         f"{FORM_DIMENSION_CAP} (bitmask subsets need n <= 64)")
    if n < 0 or m < 0:
        raise InputError("subset parameters must be nonnegative")
    if m > n:
        raise InputError(f"cannot choose {m} elements from {n}")
    if n > 64:
        raise InputError("bitmask subset encoding supports n <= 64")
    return sorted(sum(1 << i for i in s) for s in itertools.combinations(range(n), m))


def __getattr__(name: str):
    # bench/tests checks that the tracer's wrapper of this name is seen here too
    if name == "principal_minors_all":
        from . import linalg
        return linalg.principal_minors_all
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    """(is_psd, min_eigenvalue) from the exact minimum Johnson-scheme eigenvalue, with
    threshold ``-tol * maxabs(entries)`` over the weights of the overlaps that occur."""
    try:
        min_eig = float(min(form.eigenvalues))
    except OverflowError:
        raise InputError(f"minimum eigenvalue of the {form.kind} form at (n, m) = "
                         f"({form.n}, {form.m}) overflows a double") from None
    maxabs = max(abs(w) for w in form.weights[_lowest_overlap(form.n, form.m):])
    return min_eig >= -tol * maxabs, min_eig


class StructureReport(SimpleNamespace):
    """Fields in report order: gramian_exact (phi == V V^T, as equal exact
    spectra), complement_exact (tilde_phi + phi == (m+1) * ones entrywise),
    reciprocal_max_dev (tilde_psi vs entrywise 1 / tilde_phi), affine_max_dev
    (psi vs (m+1)(n-m+1) tilde_psi - (n+1) * ones), null_vector_max (max
    |psi @ e|, normalized by maxabs(psi)) and ok."""


def structure_checks(n: int, m: int, tol: float = 1e-10) -> StructureReport:
    """Verify the structural relations tying the four forms together.

    Integer relations (Gramian factorization, complement to the rank-one
    multiple of ones) are required exactly; the floating relations must
    hold within ``tol``, and psi @ e = theta_0(psi) e within ``tol * maxabs(psi)``.
    The entrywise relations are checked on the float weights of the
    overlaps that occur, the same values as on every entry.  Johnson-scheme
    forms are equal exactly when their eigenvalues are, so phi == V V^T is
    checked against the Vandermonde spectrum m C(n-1,m-1), C(n-2,m-1), 0, ...
    of V^T V.  No dense matrix is built, so no dimension cap applies.
    """
    _check_order(n, m)
    lo = _lowest_overlap(n, m)
    phi, tilde_phi, tilde_psi, psi = (FormMatrix(n, m, kind).weights[lo:] for kind in FORM_KINDS)
    gramian = [m * math.comb(n - 1, m - 1), math.comb(n - 2, m - 1)] + [0] * (min(m, n - m) - 1)
    gramian_exact = FormMatrix(n, m, "phi").eigenvalues == gramian
    complement_exact = all(b + a == float(m + 1) for a, b in zip(phi, tilde_phi))
    reciprocal_max_dev = max(abs(c - 1.0 / b) for b, c in zip(tilde_phi, tilde_psi))
    affine_max_dev = max(abs(d - ((m + 1) * (n - m + 1) * c - float(n + 1)))
                         for c, d in zip(tilde_psi, psi))
    psi_scale = max(abs(d) for d in psi) or 1.0
    null_vector_max = float(abs(_theta(n, m, "psi", 0))) / psi_scale

    ok = (gramian_exact and complement_exact and reciprocal_max_dev <= tol
          and affine_max_dev <= tol * psi_scale and null_vector_max <= tol)
    return StructureReport(gramian_exact=gramian_exact, complement_exact=complement_exact,
                           reciprocal_max_dev=reciprocal_max_dev, affine_max_dev=affine_max_dev,
                           null_vector_max=null_vector_max, ok=ok)


def binomial_identity_sum(n: int, m: int) -> Fraction:
    """Exact value of ``sum_j (m(n-m) - (m+1)(n-m+1)(m-j)/(m-j+1)) C(m,j) C(n-m,m-j)``,
    zero for every 1 <= m <= n-1: the row sum theta_0 of psi, since
    C(m,j) C(n-m,m-j) subsets meet a fixed one in j elements."""
    _check_order(n, m)
    return _theta(n, m, "psi", 0)
