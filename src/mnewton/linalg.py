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

# _inverse reads A as singular at a pivot |p| <= PIVOT_RTOL * maxabs(pivot row).
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


def _schur_step(top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivots of an ``(r, r, B...)`` stack of complements, batch axes last, and
    the complements left once each is eliminated.  Unpivoted, so a pivot
    ``|p| <= TREE_PIVOT_RTOL * maxabs(its row)`` (a zero row included) is
    rejected: its complement is NaN, and so is every minor read through it.
    With the batch axes last every operation runs over contiguous batch
    vectors; with none, ``top`` is one matrix."""
    piv = top[0, 0]
    row = np.abs(top[0])
    reject = row[0] <= TREE_PIVOT_RTOL * row.max(axis=0)
    marked = reject.any()
    div = np.where(reject, 1.0, piv) if marked else piv
    comp = top[1:, 1:] - top[1:, :1] * (top[:1, 1:] / div)
    if marked:
        comp[..., reject] = np.nan
    return piv, comp


def _minor_tree(mat: np.ndarray, m: int | None = None) -> np.ndarray:
    """Principal minors of every subset (``m`` None) or of the size-m subsets,
    masks ascending, from one Schur-complement tree.

    ``mat`` is one ``(n, n)`` matrix or an ``(n, n, K)`` stack of K matrices,
    which gives a ``(masks, K)`` array: column k holds the minors of
    ``mat[:, :, k]``, bit for bit as a tree of that matrix alone.  The
    elements are taken in order (Griffin & Tsatsomeros 2006).  Before
    element k each subset S of {0..k-1} carries det A[S] and the Schur
    complement A/A[S] on {k..n-1}; with the pivot p = (A/A[S])_kk,
    det A[S + {k}] = det A[S] * p, and :func:`_schur_step` gives the
    complement of S + {k}.  The complements are stacked along the third
    axis, [exclude, include], so the stack index is the bitmask.  With ``m``
    given, the branches follow :func:`_colex_levels`: a set of size m is not
    extended, and one that can no longer reach m is dropped.  After a
    rejected pivot det A[S] * p is still exact, and the NaN minors below it
    are recomputed by :func:`_block_minors`, one call per size.
    """
    n = mat.shape[0]
    levels = _colex_levels(n, m) if m is not None else \
        itertools.repeat((slice(None), slice(None), None), n)
    minors = np.ones((1,) + mat.shape[2:])
    comp = mat[:, :, None]
    for stay, grow, masks in levels:
        piv, inc = _schur_step(comp[:, :, grow])
        minors = np.concatenate((minors[stay], minors[grow] * piv))
        comp = np.concatenate((comp[1:, 1:, stay], inc), axis=2)
    where = np.nonzero(np.isnan(minors))
    if not where[0].size:
        return minors
    sub = where[0].astype(np.uint64) if masks is None else masks[where[0]]
    sizes = np.bitwise_count(sub)
    for r in set(sizes.tolist()):
        at = tuple(w[sizes == r] for w in where)
        minors[at] = _block_minors(mat, _mask_elements(sub[sizes == r], n), at[1:])
    return minors


def _block_minors(mat: np.ndarray, idx: np.ndarray, at: tuple = ()) -> np.ndarray:
    """det A[S] behind a rejected pivot, for the same-size index sets in the
    rows of ``idx``: batched (row-pivoted) ``det`` on blocks gathered from
    their own matrix of the stack (batch indices ``at``), each brought to the
    binade of its largest entry, so every minor is exact under power-of-two
    scaling."""
    blocks = mat[(idx[:, :, None], idx[:, None, :]) + tuple(w[:, None, None] for w in at)]
    e = np.frexp(np.abs(blocks).max(axis=(1, 2), keepdims=True))[1]
    return np.ldexp(np.linalg.det(np.ldexp(blocks, -e)), e[:, 0, 0] * idx.shape[1])


def _leading_minors(mat: np.ndarray) -> np.ndarray:
    """det A[:k, :k] for k = 1..n: the all-include path of :func:`_minor_tree`,
    bit for bit, with no bitmask, so n is not capped at 64.

    Each leading minor is the previous one times the next pivot of
    :func:`_schur_step` on the one matrix, as in the tree.  After a
    rejected pivot the minor it ends is still exact, and the NaN minors after
    it come from the tree's fallback, :func:`_block_minors`.
    """
    comp = mat
    pivots = []
    for _ in range(mat.shape[0]):
        piv, comp = _schur_step(comp)
        pivots.append(piv)
    minors = np.cumprod(pivots)
    for k in np.flatnonzero(np.isnan(minors)).tolist():
        minors[k] = _block_minors(mat, np.arange(k + 1)[None])[0]
    return minors


def _inverse(mat: np.ndarray) -> np.ndarray | None:
    """inv(A), or None when A is singular: row-pivoted elimination meets a
    pivot ``|p| <= PIVOT_RTOL * maxabs(pivot row)`` (the last one only if
    zero), or LAPACK's inverse an exact zero pivot.  No pivot product is
    formed, so an underflowing det A does not read as singular."""
    u = mat.copy()
    for k in range(len(u)):
        col = np.abs(u[k:, k])
        r = int(col.argmax())
        if col[r] <= PIVOT_RTOL * np.abs(u[k + r, k:]).max():
            return None
        if r:
            u[[k, k + r], k:] = u[[k + r, k], k:]
        u[k + 1:, k + 1:] -= (u[k + 1:, k] / u[k, k])[:, None] * u[k, k + 1:]
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError:       # LAPACK met an exact zero pivot
        return None


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
