"""Helpers that only the tests use: scalar minors on 1-based index sets,
batched and exact minors as oracles of the Schur-complement tree,
brute-force minor sums, polynomial roots by a companion matrix, the
numpy-scalar coefficient recurrence, a bitwise array comparison, subset
incidence vectors, form eigenvalues through Eberlein polynomials, and the
float64-array form weights."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mnewton.charcoeff import CLOSURE_RTOL, ensure_conjugate_closed
from mnewton.errors import InputError
from mnewton.forms import _lowest_overlap, _weight
from mnewton.linalg import _colex_masks, as_matrix, binomials, determinant, enumerate_subsets

# brute-force minor enumeration bound (2^n determinants); override allowed.
EXHAUSTIVE_MINOR_CAP = 16


def validate_index_set(alpha, n: int) -> tuple[int, ...]:
    """Return ``alpha`` as a strictly increasing tuple of indices in 1..n."""
    t = tuple(int(i) for i in alpha)
    for prev, cur in zip(t, t[1:]):
        if cur <= prev:
            raise InputError(f"index set must be strictly increasing, got {t}")
    if t and (t[0] < 1 or t[-1] > n):
        raise InputError(f"index set {t} out of range 1..{n}")
    return t


def dual_index_set(alpha, n: int) -> tuple[int, ...]:
    """Complement of ``alpha`` within {1..n}."""
    chosen = set(validate_index_set(alpha, n))
    return tuple(i for i in range(1, n + 1) if i not in chosen)


def principal_minor(a, alpha) -> float:
    """det A[alpha] on rows and columns ``alpha``; the empty set gives 1.0."""
    m = as_matrix(a)
    t = validate_index_set(alpha, m.shape[0])
    if not t:
        return 1.0
    idx = [i - 1 for i in t]
    return determinant(m[np.ix_(idx, idx)])


def principal_minors_batched(a, m: int) -> np.ndarray:
    """Size-m principal minors in colex order, by one batched LAPACK ``det``
    over the gathered blocks (the route the tree replaced)."""
    mat = as_matrix(a)
    idx = np.array(enumerate_subsets(mat.shape[0], m), dtype=np.intp) - 1
    return np.linalg.det(mat[idx[:, :, None], idx[:, None, :]])


def exact_determinant(rows) -> Fraction:
    """Determinant of a square list of Fractions by exact elimination."""
    u = [list(r) for r in rows]
    det = Fraction(1)
    for k in range(len(u)):
        r = next((i for i in range(k, len(u)) if u[i][k] != 0), None)
        if r is None:
            return Fraction(0)
        if r != k:
            u[k], u[r] = u[r], u[k]
            det = -det
        det *= u[k][k]
        for i in range(k + 1, len(u)):
            f = u[i][k] / u[k][k]
            for j in range(k + 1, len(u)):
                u[i][j] -= f * u[k][j]
    return det


def exact_minors_by_mask(a) -> list[Fraction]:
    """All 2^n principal minors of the float matrix, exactly, indexed by bitmask."""
    mat = as_matrix(a)
    n = mat.shape[0]
    exact = [[Fraction(float(x)) for x in row] for row in mat]
    out = []
    for mask in range(1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        out.append(exact_determinant([[exact[i][j] for j in idx] for i in idx]))
    return out


def minor_sums_exhaustive(a, override_cap: bool = False) -> np.ndarray:
    """E_j by direct enumeration of all principal minors (the oracle path)."""
    mat = as_matrix(a)
    n = mat.shape[0]
    if n > EXHAUSTIVE_MINOR_CAP and not override_cap:
        raise InputError(
            f"exhaustive minor enumeration capped at n <= {EXHAUSTIVE_MINOR_CAP}; "
            "pass override_cap=True to force")
    return np.array([float(principal_minors_batched(mat, j).sum()) for j in range(n + 1)])


def companion_matrix(coeffs) -> np.ndarray:
    """Companion matrix of a polynomial given by descending-power coefficients."""
    try:
        c = np.asarray(coeffs, dtype=float).ravel()
    except (TypeError, ValueError) as exc:
        raise InputError(f"polynomial coefficients must be real numbers: {exc}") from None
    if c.size == 0 or not np.any(c != 0.0):
        raise InputError("polynomial must not be identically zero")
    if not np.all(np.isfinite(c)):
        raise InputError("polynomial coefficients must be finite")
    c = c[int(np.argmax(c != 0.0)):]
    d = c.size - 1
    if d < 1:
        raise InputError("polynomial degree must be >= 1")
    monic = c / c[0]
    comp = np.zeros((d, d))
    comp[0, :] = -monic[1:]
    if d > 1:
        comp[np.arange(1, d), np.arange(0, d - 1)] = 1.0
    return comp


def poly_roots(coeffs) -> np.ndarray:
    """All complex roots with multiplicity, via companion-matrix eigenvalues.

    Roots are sorted by (real, imag) so output order is reproducible.
    """
    roots = np.linalg.eigvals(companion_matrix(coeffs))
    return roots[np.lexsort((roots.imag, roots.real))]


def coeffs_numpy_scalar(values) -> np.ndarray:
    """Normalized coefficients by the elementary-symmetric recurrence on numpy
    scalars, the reference that ``coeffs_from_spectrum`` must match bit for bit."""
    vals = ensure_conjugate_closed(values)
    n = vals.size
    e = np.zeros(n + 1, dtype=complex)
    e[0] = 1.0
    for i in range(n):
        r = vals[i]
        for j in range(min(i + 1, n), 0, -1):
            e[j] += r * e[j - 1]
    scale = max(1.0, float(np.max(np.abs(e))))
    resid = float(np.max(np.abs(e.imag)))
    if resid > CLOSURE_RTOL * scale:
        raise InputError(
            f"symmetric functions retain imaginary residue {resid:g} beyond tolerance")
    return e.real / binomials(n)


def same_bits(a, b) -> bool:
    """Equal shapes, NaN in the same places, and every other entry bit for bit
    (so 0.0 and -0.0 differ)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return False
    nan = np.isnan(a)
    return bool(np.array_equal(nan, np.isnan(b))) and a[~nan].tobytes() == b[~nan].tobytes()


def incidence_matrix(n: int, m: int) -> np.ndarray:
    """0/1 matrix with one row per colex size-m subset, one column per element."""
    masks = _colex_masks(n, m)
    return ((masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)).astype(np.int64)


def eberlein(n: int, m: int, d: int, i: int) -> int:
    """Eigenvalue on eigenspace i of the distance-d graph of the Johnson scheme J(n, m)."""
    return sum((-1) ** h * math.comb(i, h) * math.comb(m - i, d - h)
               * math.comb(n - m - i, d - h) for h in range(min(i, d) + 1))


def eberlein_theta(n: int, m: int, kind: str, i: int) -> Fraction:
    """Exact form eigenvalue sum_j f(j) E_{m-j}(i) on Johnson eigenspace i, as
    an (m+1)-term sum of Eberlein values over the overlaps that occur."""
    return sum((_weight(n, m, kind, j, Fraction(1)) * eberlein(n, m, m - j, i)
                for j in range(_lowest_overlap(n, m), m + 1)), Fraction(0))


def weights_numpy(n: int, m: int, kind: str) -> np.ndarray:
    """Form weights f(0..m) as one float64 array expression (the route the
    Python-float ``FormMatrix.weights`` replaced)."""
    return _weight(n, m, kind, np.arange(m + 1), 1.0)
