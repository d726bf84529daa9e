"""Dense real linear algebra and subset-combinatorics kernels.

Every function here is pure and deterministic: identical inputs give
bit-identical outputs.  Subset-indexed vectors and matrices always use
the colexicographic order produced by :func:`enumerate_subsets`, which
fixes the basis and summation order of every subset-indexed reduction
in the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

# |pivot| <= PIVOT_RTOL * maxabs(pivot row) is treated as an exact zero.
PIVOT_RTOL = 1e-13
# allowed asymmetry for the symmetric eigensolver, relative to maxabs.
SYMMETRY_RTOL = 1e-12
# brute-force minor enumeration bound (2^n determinants); override allowed.
EXHAUSTIVE_MINOR_CAP = 16


def as_matrix(a) -> np.ndarray:
    """Validate ``a`` as a nonempty square real matrix with finite entries."""
    try:
        m = np.asarray(a, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"matrix entries must be real numbers: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise InputError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InputError("matrix entries must be finite")
    return m


def identity(n: int) -> np.ndarray:
    if n < 1:
        raise InputError("matrix order must be >= 1")
    return np.eye(n)


def determinant(a) -> float:
    """Determinant by row-pivoted triangular elimination.

    1x1 input is returned exactly.  A pivot with
    ``|pivot| <= 1e-13 * maxabs(pivot row)`` is treated as zero and the
    determinant is reported as exactly ``0.0``, so nearly singular input
    degrades to the singular answer instead of round-off noise.
    """
    u = as_matrix(a).copy()
    n = u.shape[0]
    if n == 1:
        return float(u[0, 0])
    det = 1.0
    for k in range(n - 1):
        r = k + int(np.argmax(np.abs(u[k:, k])))
        row_scale = float(np.max(np.abs(u[r, k:])))
        if row_scale == 0.0 or abs(u[r, k]) <= PIVOT_RTOL * row_scale:
            return 0.0
        if r != k:
            u[[k, r], k:] = u[[r, k], k:]
            det = -det
        det *= u[k, k]
        f = u[k + 1:, k] / u[k, k]
        u[k + 1:, k + 1:] -= np.outer(f, u[k, k + 1:])
    return float(det * u[n - 1, n - 1])


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


def enumerate_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """All C(n, m) size-m subsets of {1..n} in colexicographic order.

    Colex compares subsets by their largest differing element.  This list
    is the canonical basis order for every subset-indexed vector and
    matrix in the package.
    """
    if n < 0 or m < 0:
        raise InputError("subset parameters must be nonnegative")
    if m > n:
        raise InputError(f"cannot choose {m} elements from {n}")

    def walk(limit: int, size: int) -> list[tuple[int, ...]]:
        if size == 0:
            return [()]
        return [s + (last,)
                for last in range(size, limit + 1)
                for s in walk(last - 1, size - 1)]

    return walk(n, m)


def subset_masks(n: int, m: int) -> np.ndarray:
    """Bitmask encodings (bit i-1 for element i) of enumerate_subsets(n, m)."""
    return _colex_masks(n, m)


def _colex_masks(n: int, m: int) -> np.ndarray:
    """Kernel of :func:`subset_masks`, kept private for ``FormMatrix.entries``.

    Colex order is increasing-bitmask order, so by Pascal's rule the
    size-r masks over {1..k} are those over {1..k-1} followed by the
    size-(r-1) ones with bit k-1 set.  Sizes that can no longer reach m
    are dropped as k grows.
    """
    if n > 64:
        raise InputError("bitmask subset encoding supports n <= 64")
    if n < 0 or m < 0:
        raise InputError("subset parameters must be nonnegative")
    if m > n:
        raise InputError(f"cannot choose {m} elements from {n}")
    empty = np.zeros(0, dtype=np.uint64)
    by_size = [np.zeros(1, dtype=np.uint64)] + [empty] * m
    for k in range(1, n + 1):
        bit = np.uint64(1 << (k - 1))
        lo = max(0, m - (n - k))
        by_size = [empty] * lo + [
            np.concatenate((by_size[r], by_size[r - 1] | bit)) if r else by_size[0]
            for r in range(lo, m + 1)]
    return by_size[m]


def minor_sums(a) -> np.ndarray:
    """Sums E_j of all j x j principal minors, j = 0..n.

    Computed by the trace-based characteristic-polynomial recursion
    (O(n^4) matrix products).  ``minor_sums_exhaustive`` is the
    independent enumeration route kept for cross-checking.
    """
    m = as_matrix(a)
    n = m.shape[0]
    e = np.zeros(n + 1)
    e[0] = 1.0
    bk = np.eye(n)
    sign = 1.0
    for k in range(1, n + 1):
        ab = m @ bk
        ck = -np.trace(ab) / k
        sign = -sign
        e[k] = sign * ck
        bk = ab + ck * np.eye(n)
    return e


def principal_minors_all(a, m: int) -> np.ndarray:
    """Principal minors of every size-m subset, in colex order (batched)."""
    mat = as_matrix(a)
    n = mat.shape[0]
    if not 0 <= m <= n:
        raise InputError(f"minor size {m} out of range 0..{n}")
    if m == 0:
        return np.ones(1)
    subs = np.array(enumerate_subsets(n, m), dtype=np.intp) - 1
    blocks = mat[subs[:, :, None], subs[:, None, :]]
    return np.linalg.det(blocks)


def minor_sums_exhaustive(a, override_cap: bool = False) -> np.ndarray:
    """E_j by direct enumeration of all principal minors (the oracle path)."""
    mat = as_matrix(a)
    n = mat.shape[0]
    if n > EXHAUSTIVE_MINOR_CAP and not override_cap:
        raise InputError(
            f"exhaustive minor enumeration capped at n <= {EXHAUSTIVE_MINOR_CAP}; "
            "pass override_cap=True to force")
    return np.array([float(principal_minors_all(mat, j).sum()) for j in range(n + 1)])


def sym_eigenvalues(s) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending.

    Input must be symmetric within ``1e-12 * maxabs``; it is symmetrized
    before the solve so round-off asymmetry cannot leak into the spectrum.
    """
    m = as_matrix(s)
    scale = float(np.max(np.abs(m)))
    asym = float(np.max(np.abs(m - m.T)))
    if asym > SYMMETRY_RTOL * max(scale, np.finfo(float).tiny):
        raise InputError(f"matrix is not symmetric within tolerance (asymmetry {asym:g})")
    return np.linalg.eigvalsh(0.5 * (m + m.T))


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


def binomials(n: int) -> np.ndarray:
    """Vector (C(n,0), ..., C(n,n)) as floats."""
    return np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
