"""Dense real linear algebra and subset-combinatorics kernels.

Every function here is pure and deterministic: identical inputs give
bit-identical outputs.  Subset-indexed vectors and matrices always use
colexicographic order, which is increasing-bitmask order: the subset
masks (:func:`subset_masks`, which :func:`enumerate_subsets` decodes) and
the branches of the one Schur-complement tree that gives the principal
minors follow the same Pascal recursion, and the tree's stack index is the
bitmask.  This fixes the basis and summation order of every
subset-indexed reduction in the package.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import InputError

# |pivot| <= PIVOT_RTOL * maxabs(pivot row) is treated as an exact zero.
PIVOT_RTOL = 1e-13
# the Schur-complement tree does not pivot: it rejects a pivot with
# |pivot| <= TREE_PIVOT_RTOL * maxabs(pivot row), so an accepted step grows the
# complement's entries by at most a factor 1 + 1 / TREE_PIVOT_RTOL.
TREE_PIVOT_RTOL = 1e-2


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
    ``|pivot| <= 1e-13 * maxabs(pivot row)`` (a zero column included) is
    treated as zero and the determinant is reported as exactly ``0.0``, so
    nearly singular input degrades to the singular answer instead of
    round-off noise.
    """
    u = as_matrix(a).copy()
    n = u.shape[0]
    det = 1.0
    for k in range(n - 1):
        r = k + int(np.argmax(np.abs(u[k:, k])))
        row_scale = float(np.max(np.abs(u[r, k:])))
        if abs(u[r, k]) <= PIVOT_RTOL * row_scale:
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
    return [tuple(s) for s in (_mask_elements(subset_masks(n, m), n) + 1).tolist()]


def subset_masks(n: int, m: int) -> np.ndarray:
    """Bitmask encodings (bit i-1 for element i) of enumerate_subsets(n, m),
    ascending: the last level of :func:`_colex_levels`."""
    if n < 0 or m < 0:
        raise InputError("subset parameters must be nonnegative")
    if m > n:
        raise InputError(f"cannot choose {m} elements from {n}")
    masks = np.zeros(1, dtype=np.uint64)
    for _, _, masks in _colex_levels(n, m):
        pass
    return masks


def _colex_levels(n: int, m: int):
    """The subsets of {0..n-1} that can end at size m, one element at a time.

    Colex order is increasing-bitmask order, so by Pascal's rule the masks
    over {0..k} are those over {0..k-1} followed by the same ones with bit
    k set.  Level k yields ``(stay, grow, masks)``: of the masks over
    {0..k-1}, ``stay`` selects those that can still reach size m without
    element k and ``grow`` those below size m, and ``masks`` is
    ``[masks[stay], masks[grow] | bit k]``.  After the last level the masks
    are the size-m subsets in colex order.
    """
    if n > 64:
        raise InputError("bitmask subset encoding supports n <= 64")
    masks = np.zeros(1, dtype=np.uint64)
    for k in range(n):
        size = np.bitwise_count(masks)
        stay, grow = size >= m - (n - 1 - k), size < m
        masks = np.concatenate((masks[stay], masks[grow] | np.uint64(1 << k)))
        yield stay, grow, masks


def _mask_elements(masks: np.ndarray, n: int) -> np.ndarray:
    """One row per bitmask (all of one popcount): its 0-based elements, ascending."""
    bits = (masks[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1)
    return np.nonzero(bits)[1].reshape(masks.size, -1)


def _minor_tree(mat: np.ndarray, m: int | None = None) -> np.ndarray:
    """Principal minors of every subset (``m`` None) or of the size-m subsets,
    masks ascending, from one Schur-complement tree.

    The elements are taken in order (Griffin & Tsatsomeros 2006).  Before
    element k each subset S of {0..k-1} carries det A[S] and the Schur
    complement A/A[S] on {k..n-1}; with the pivot p = (A/A[S])_kk,
    det A[S + {k}] = det A[S] * p, and eliminating p gives the complement
    of S + {k}.  The children are stacked [exclude, include], so the stack
    index is the bitmask.  With ``m`` given, the branches follow
    :func:`_colex_levels`: a set of size m is not extended, and one that can
    no longer reach m is dropped.

    The tree does not pivot, so a pivot with
    ``|p| <= TREE_PIVOT_RTOL * maxabs(its complement row)`` (a zero row
    included) is rejected: it would let the complement's entries grow
    beyond round-off control.  det A[S] * p is still exact, but the minors
    below it are recomputed by batched (row-pivoted) ``det`` on their
    blocks.  The last element forms no complement, so it rejects nothing.
    """
    n = mat.shape[0]
    levels = _colex_levels(n, m) if m is not None else \
        itertools.repeat((slice(None), slice(None), None))
    minors = np.ones(1)
    comp = mat[None]
    stale = np.zeros(1, dtype=bool)   # complement unusable: a pivot above was rejected
    redo = np.zeros(1, dtype=bool)    # minor to recompute by batched det
    masks = None
    for k, (stay, grow, masks) in zip(range(n), levels):
        top = comp[grow]
        piv = top[:, 0, 0]
        minors = np.concatenate((minors[stay], minors[grow] * piv))
        redo = np.concatenate((redo[stay], (redo | stale)[grow]))
        if k < n - 1:
            reject = np.abs(piv) <= TREE_PIVOT_RTOL * np.max(np.abs(top[:, 0]), axis=1)
            scaled = top[:, :1, 1:] / np.where(reject, 1.0, piv)[:, None, None]
            inc = top[:, 1:, 1:] - top[:, 1:, :1] * scaled
            inc[reject] = 0.0
            comp = np.concatenate((comp[stay, 1:, 1:], inc))
            stale = np.concatenate((stale[stay], reject))
    if redo.any():
        where = np.flatnonzero(redo)
        sub = where.astype(np.uint64) if masks is None else masks[where]
        sizes = np.bitwise_count(sub)
        for r in set(sizes.tolist()):
            idx = _mask_elements(sub[sizes == r], n)
            minors[where[sizes == r]] = np.linalg.det(mat[idx[:, :, None], idx[:, None, :]])
    return minors


def principal_minors_by_mask(a) -> np.ndarray:
    """All 2^n principal minors, entry ``mask`` being det A[S] for the subset
    S with bit i-1 set for element i (the empty set gives 1.0).

    Read off one Schur-complement tree; selecting one popcount gives that
    size's minors in colex order.
    """
    return _minor_tree(as_matrix(a))


def principal_minors_all(a, m: int) -> np.ndarray:
    """Principal minors of every size-m subset, in colex order.

    The same tree as :func:`principal_minors_by_mask`, restricted to the
    branches that can end at size m, so small m at large n stays cheap.
    """
    mat = as_matrix(a)
    n = mat.shape[0]
    if not 0 <= m <= n:
        raise InputError(f"minor size {m} out of range 0..{n}")
    return _minor_tree(mat, m)


def binomials(n: int) -> np.ndarray:
    """Vector (C(n,0), ..., C(n,n)) as floats."""
    if n > 1029:    # C(1029, 514) is the last middle binomial below 2^1024
        raise InputError(f"order n = {n} too large: C(n, n // 2) overflows a double")
    return np.array([math.comb(n, j) for j in range(n + 1)], dtype=float)
