"""Helpers that only the tests use: scalar minors on 1-based index sets,
batched and exact minors as oracles of the Schur-complement tree,
brute-force minor sums, and polynomial roots by a companion matrix."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from mnewton.errors import InputError
from mnewton.linalg import as_matrix, determinant, enumerate_subsets

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
