"""Dense real linear algebra and subset-combinatorics kernels.

Every function here is pure and deterministic: identical inputs give
bit-identical outputs.  Subset-indexed vectors and matrices always use
colexicographic order, which is increasing-bitmask order: every subset
table (:func:`subset_masks`, :func:`enumerate_subsets`, the index blocks
of :func:`principal_minors_all`) is read off the one bitmask kernel, which
fixes the basis and summation order of every subset-indexed reduction in
the package.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError

# |pivot| <= PIVOT_RTOL * maxabs(pivot row) is treated as an exact zero.
PIVOT_RTOL = 1e-13
# allowed asymmetry for the symmetric eigensolver, relative to maxabs.
SYMMETRY_RTOL = 1e-12


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


def enumerate_subsets(n: int, m: int) -> list[tuple[int, ...]]:
    """All C(n, m) size-m subsets of {1..n} in colexicographic order.

    Colex compares subsets by their largest differing element.  This list
    is the canonical basis order for every subset-indexed vector and
    matrix in the package.
    """
    return [tuple(s) for s in (_colex_indices(n, m) + 1).tolist()]


def subset_masks(n: int, m: int) -> np.ndarray:
    """Bitmask encodings (bit i-1 for element i) of enumerate_subsets(n, m)."""
    return _colex_masks(n, m)


def _colex_masks(n: int, m: int) -> np.ndarray:
    """Kernel of :func:`subset_masks`, kept private for ``FormMatrix.entries``
    and :func:`_colex_indices`.

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


def _colex_indices(n: int, m: int) -> np.ndarray:
    """C(n, m) x m table of the 0-based elements of each colex subset, ascending."""
    masks = _colex_masks(n, m)
    bits = (masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    return np.nonzero(bits)[1].reshape(masks.size, m)


def principal_minors_all(a, m: int) -> np.ndarray:
    """Principal minors of every size-m subset, in colex order (batched)."""
    mat = as_matrix(a)
    n = mat.shape[0]
    if not 0 <= m <= n:
        raise InputError(f"minor size {m} out of range 0..{n}")
    subs = _colex_indices(n, m)
    blocks = mat[subs[:, :, None], subs[:, None, :]]
    return np.linalg.det(blocks)


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


def binomials(n: int) -> np.ndarray:
    """Vector (C(n,0), ..., C(n,n)) as floats."""
    return np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
