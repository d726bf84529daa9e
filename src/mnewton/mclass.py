"""Z / P / M / inverse-M classification and seeded generators of these classes.

The M test for Z-matrices uses the classical leading-principal-minor
characterization, the inverse-M test uses inverse nonnegativity, and the
exhaustive all-minors P test is retained as an oracle for small orders.
Generators are deterministic functions of a seed so property tests are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_MARGIN, GENERATOR_KINDS
from .errors import InputError
from .linalg import _inverse, _leading_minors, _minor_tree, as_matrix, principal_minors_by_mask

P_TEST_MAX_N = 20      # classify's exhaustive P test: a cost cutoff, not a memory limit
# relative shift probed when deciding membership in the singular-M closure
SINGULAR_PROBE_SHIFT = 1e-8

M_NONSINGULAR = "M-nonsingular"
M_SINGULAR = "M-singular"
NOT_M = "not-M"

_MAX_WITNESSES_PER_SIZE = 4


@dataclass(frozen=True)
class MatrixClassReport:
    is_z: bool
    is_p: bool | None            # None: not evaluated (n too large for the oracle)
    m_class: str                 # M_NONSINGULAR | M_SINGULAR | NOT_M
    is_inverse_m: bool
    witnesses: list          # (alpha, minor) sign violations
    z_violations: list       # ((i, j), entry) positive off-diagonals


@dataclass(frozen=True)
class GeneratorSpec:
    """Deterministic recipe for one random matrix: kind, order, seed, margin.

    ``margin`` is the relative diagonal-dominance surplus of the M kinds.
    """
    kind: str
    n: int
    seed: int
    margin: float = DEFAULT_MARGIN

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise InputError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}")
        if self.n < 1:
            raise InputError("generator order n must be >= 1")
        if self.seed < 0:
            raise InputError("generator seed must be >= 0")
        if not 0 < self.margin < math.inf:
            raise InputError("diagonal-dominance margin must be positive and finite")


def _z_violations(a: np.ndarray, tol: float) -> list:
    """Off-diagonal entries above ``tol * max|A|`` as ((i, j), a_ij), 1-based, row-major."""
    positive = a > tol * np.max(np.abs(a))
    np.fill_diagonal(positive, False)
    # nonzero and boolean indexing both walk row-major, so the pairs line up
    rows, cols = np.nonzero(positive)
    return list(zip(zip((rows + 1).tolist(), (cols + 1).tolist()), a[positive].tolist()))


def _bad_leading_minors(a: np.ndarray, tol: float) -> list:
    """Leading minors <= ``tol`` as ((1, ..., k), minor); a Z-matrix with none
    is a nonsingular M-matrix (leading-minor characterization)."""
    return [(tuple(range(1, k + 2)), lm)
            for k, lm in enumerate(_leading_minors(a).tolist()) if lm <= tol]


def _is_inverse_m(a: np.ndarray, tol: float) -> bool:
    """A >= 0, nonsingular and inv(A) a Z-matrix: a Z-matrix is a nonsingular
    M-matrix iff its inverse is nonnegative (Berman & Plemmons, ch. 6); entries
    are judged against ``tol * max|A|``."""
    if np.any(a < -tol * np.max(np.abs(a))):
        return False
    inv = _inverse(a)
    return inv is not None and not _z_violations(inv, tol)


def classify(a, tol: float = 1e-9) -> MatrixClassReport:
    """Classify a square real matrix by sign structure and minor positivity.

    ``is_p`` is decided by the exhaustive all-minors oracle for
    n <= P_TEST_MAX_N, which judges the minors of 2^-e A, with e the binary
    exponent of max|A|, against ``tol``.  For larger Z-matrices it is
    inferred from the leading minors when possible, and reported as None
    (not evaluated) otherwise.  ``witnesses`` are the minors of A whose
    scaled minors are <= ``tol`` in the exhaustive test (at most 4 per
    size), else the leading minors <= ``tol``; a witness beyond the double
    range raises InputError.  The leading minors of A are read off that tree for
    n <= P_TEST_MAX_N, unless one of them is zero or subnormal there, and
    come from its all-include path as one elimination chain otherwise.
    ``m_class`` distinguishes nonsingular M-matrices from members of the
    singular closure: a Z-matrix A is M-singular when A + eps*max|A|*I,
    with eps = SINGULAR_PROBE_SHIFT, passes the leading-minor test.
    ``is_inverse_m`` needs A >= 0 and inv(A) a Z-matrix, with singularity
    decided by the pivot rule of ``linalg._inverse``, never by underflow.
    """
    mat = as_matrix(a)
    n = mat.shape[0]
    zv = _z_violations(mat, tol)
    is_z = not zv

    if n <= P_TEST_MAX_N:
        # the tree's arithmetic commutes with power-of-two scaling, so the size-m
        # minors of 2^-e A are those of A times 2^-em: the verdict ignores A's scale
        e = math.frexp(float(np.max(np.abs(mat))))[1]
        minors = principal_minors_by_mask(np.ldexp(mat, -e))
        # the leading-minor chain is the tree's all-include path, so det A[:k, :k]
        # is read off the tree instead of running the chain again, unless a scaled
        # leading minor is zero or subnormal and so may have lost bits to 2^-e
        k = np.arange(1, n + 1)
        lead = minors[(1 << k) - 1]
        if not is_z:
            nonsing = False
        elif np.all(np.abs(lead) >= np.finfo(float).tiny):
            nonsing = not np.any(np.ldexp(lead, e * k) <= tol)
        else:
            nonsing = not _bad_leading_minors(mat, tol)
        bad = np.flatnonzero(minors[1:] <= tol) + 1      # masks of the nonempty sets
        is_p: bool | None = not bad.size
        witnesses = []
        if bad.size:
            sizes = np.bitwise_count(bad)
            for m in range(1, n + 1):
                for mask in bad[sizes == m][:_MAX_WITNESSES_PER_SIZE].tolist():
                    alpha = tuple(i + 1 for i in range(n) if mask >> i & 1)
                    with np.errstate(over="ignore"):
                        witnesses.append((alpha, float(np.ldexp(minors[mask], e * m))))
    else:
        witnesses = _bad_leading_minors(mat, tol) if is_z else []
        nonsing = is_z and not witnesses
        is_p = True if nonsing else None

    for alpha, minor in witnesses:
        if not math.isfinite(minor):
            raise InputError(f"principal minor of A on {alpha} overflows")

    # singular closure: once A + t*I is a nonsingular M-matrix, every leading minor
    # of A + s*I grows with s >= t (Berman & Plemmons, ch. 6), so the smallest
    # shift decides; the shifted copy shares A's off-diagonal entries, so Z is
    # not tested again
    scale = float(np.max(np.abs(mat))) or 1.0
    if nonsing:
        m_class = M_NONSINGULAR
    elif is_z and not _bad_leading_minors(mat + SINGULAR_PROBE_SHIFT * scale * np.eye(n), tol):
        m_class = M_SINGULAR
    else:
        m_class = NOT_M

    return MatrixClassReport(is_z, is_p, m_class, _is_inverse_m(mat, tol),
                             witnesses, zv)


def well_conditioned_transform(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random invertible matrix with condition number at most 100.

    Built from an SVD of a Gaussian draw with the small singular values
    clamped, so the bound holds by construction.
    """
    g = rng.standard_normal((n, n))
    u, s, vt = np.linalg.svd(g)
    s = np.maximum(s, s[0] / 100.0)
    return (u * s) @ vt


def _uniform(rng: np.random.Generator, n: int) -> np.ndarray:
    try:
        return rng.uniform(0.0, 1.0, (n, n))
    except ValueError:      # numpy refuses the shape before allocating
        raise InputError(f"generator order n = {n} is too large for an n x n array") from None


def _random_m(rng: np.random.Generator, n: int, margin: float) -> np.ndarray:
    b = _uniform(rng, n)
    s = (1.0 + margin) * float(np.max(b.sum(axis=1)))
    return s * np.eye(n) - b


def generate(spec: GeneratorSpec) -> np.ndarray:
    """Draw the matrix described by ``spec``; identical specs give identical output."""
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    if spec.kind == "M":
        return _random_m(rng, n, spec.margin)
    if spec.kind == "inverse-M":
        return np.linalg.inv(_random_m(rng, n, spec.margin))
    if spec.kind == "singular-M":
        b = _uniform(rng, n)
        # B >= 0, so rho(B) is an eigenvalue and bounds every real part (Perron-Frobenius)
        return float(np.max(np.linalg.eigvals(b).real)) * np.eye(n) - b
    m = _random_m(rng, n, spec.margin)
    t = well_conditioned_transform(n, rng)
    return t @ m @ np.linalg.inv(t)


def dual_minor_identity_check(a, tol: float = 1e-8) -> bool:
    """Verify inv(A)[alpha] == A[complement(alpha)] / det A over all alpha.

    Holds for every nonsingular matrix; checked exhaustively over the 2^n
    subsets, so the kernel's cap of ``linalg.MINOR_CAP`` = 2^22 minors per
    call limits n to 22.  Returns True iff the worst relative
    deviation is within ``tol``.  A singular matrix (by the pivot rule of
    ``linalg._inverse``, as in ``classify``, or a det A of exactly 0.0) or a
    non-finite deviation (overflow in the minors) raises InputError.

    Both sides, and det A, come from one Schur-complement tree over the
    stack (inv(A), A), indexed by bitmask; the complement of mask S is
    2^n - 1 - S, so reversing the minors of A lines each complement up
    with its set.
    """
    mat = as_matrix(a)
    inv = _inverse(mat)
    minors = None if inv is None else _minor_tree(np.stack((inv, mat), axis=-1))
    if minors is None or minors[-1, 1] == 0.0:
        raise InputError("matrix is singular (negligible pivot in elimination)")
    lhs, rhs = minors[:, 0], minors[::-1, 1] / minors[-1, 1]
    dev = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    if not np.all(np.isfinite(dev)):
        raise InputError(
            "dual minor check: non-finite deviation (minor or determinant overflow)")
    return float(np.max(dev)) <= tol
