"""Helpers that only the tests use: the row-pivoted determinant oracle,
scalar minors on 1-based index sets, batched and exact minors as oracles
of the Schur-complement tree, brute-force and exact minor sums,
polynomial roots by a companion matrix,
exact coefficients of a spectrum, the numpy-scalar conjugate pairing, a
bitwise array comparison, subset incidence vectors, form eigenvalues
through Eberlein polynomials, the float64-array form weights, a
made-up ``niep-screen`` report entry, the square-expansion identities of the
pair sums, the perturbed NIEP ten-tuple and the dense quadratic form t^T F t."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mnewton.charcoeff import CLOSURE_RTOL, ensure_conjugate_closed, normalized_coeffs
from mnewton.errors import InputError
from mnewton.forms import FormMatrix, _lowest_overlap, _weight
from mnewton.linalg import as_matrix, enumerate_subsets, subset_masks
from mnewton.pairsums import MinorPairSums

# brute-force minor enumeration bound (2^n determinants); override allowed.
EXHAUSTIVE_MINOR_CAP = 16
# the determinant oracle reads a pivot |p| <= DET_PIVOT_RTOL * maxabs(pivot row) as zero
DET_PIVOT_RTOL = 1e-13


def determinant(a) -> float:
    """Determinant by row-pivoted triangular elimination.

    1x1 input is returned exactly.  A pivot with
    ``|pivot| <= 1e-13 * maxabs(pivot row)`` (a zero column included) is
    treated as zero and the determinant is reported as exactly ``0.0``, so
    nearly singular input degrades to the singular answer instead of
    round-off noise.  The pivot product is carried as a mantissa and a
    binary exponent, so it cannot overflow on the way to a finite
    determinant, and the matrix itself is not rescaled, so no small entry
    underflows.
    """
    u = as_matrix(a).copy()
    n = u.shape[0]
    det, exp = 1.0, 0                   # the pivot product is det * 2^exp
    for k in range(n - 1):
        col = np.abs(u[k:, k])
        r = int(col.argmax())
        if col[r] <= DET_PIVOT_RTOL * np.abs(u[k + r, k:]).max():
            return 0.0
        if r:
            u[[k, k + r], k:] = u[[k + r, k], k:]
            det = -det
        det, e = math.frexp(det * u[k, k])
        exp += e
        u[k + 1:, k + 1:] -= (u[k + 1:, k] / u[k, k])[:, None] * u[k, k + 1:]
    return float(np.ldexp(det * u[n - 1, n - 1], exp))


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


def exact_coeffs(values) -> list[Fraction]:
    """Exact c_0..c_n of a conjugation-closed spectrum (the test oracle).

    The real and imaginary parts are dyadic rationals, so 2^s times each is
    an integer for some s.  The E_j recurrence runs on these Gaussian
    integers, and c_j = Re E_j / (2^(s j) C(n, j)).
    """
    vals = ensure_conjugate_closed(values)
    parts = [Fraction(x) for v in vals.tolist() for x in (v.real, v.imag)]
    s = max(f.denominator for f in parts).bit_length() - 1
    ints = [int(f * 2**s) for f in parts]
    n = vals.size
    re, im = [1] + [0] * n, [0] * (n + 1)
    for i, (a, b) in enumerate(zip(ints[::2], ints[1::2])):
        for j in range(i + 1, 0, -1):
            re[j], im[j] = (re[j] + a * re[j - 1] - b * im[j - 1],
                            im[j] + a * im[j - 1] + b * re[j - 1])
    return [Fraction(x, 2 ** (s * j) * math.comb(n, j)) for j, x in enumerate(re)]


def exact_minor_sums(a) -> list[Fraction]:
    """Exact E_0..E_n of a float matrix: Faddeev-LeVerrier in integers (the test oracle).

    Float entries are dyadic rationals, so B = 2^s A is an integer matrix
    for some s.  Every step of the trace recursion on B is then an integer,
    and E_j(A) = E_j(B) / 2^(s j).
    """
    fr = [[Fraction(float(x)) for x in row] for row in np.asarray(a, dtype=float)]
    n = len(fr)
    s = max(f.denominator for row in fr for f in row).bit_length() - 1
    b = np.array([[int(f * 2**s) for f in row] for row in fr], dtype=object)
    eye = np.eye(n, dtype=int).astype(object)
    e, acc = [1], eye
    for k in range(1, n + 1):
        prod = b.dot(acc)
        c, rem = divmod(-np.trace(prod), k)
        assert rem == 0
        e.append((-1) ** k * c)
        acc = prod + c * eye
    return [Fraction(x, 2 ** (s * j)) for j, x in enumerate(e)]


def conjugate_closed_numpy(values) -> np.ndarray:
    """Conjugate-closure check with the greedy pairing on numpy scalars, the
    reference that ``ensure_conjugate_closed`` must match, errors included."""
    try:
        vals = np.asarray(values, dtype=complex).ravel()
    except (TypeError, ValueError) as exc:
        raise InputError(f"spectrum values must be numbers: {exc}") from None
    if vals.size == 0:
        raise InputError("spectrum must be nonempty")
    if not np.all(np.isfinite(vals)):
        raise InputError("spectrum values must be finite")
    tol = CLOSURE_RTOL * max(1.0, float(np.max(np.abs(vals))))
    nonreal = np.flatnonzero(np.abs(vals.imag) > tol).tolist()
    unmatched = set(nonreal)
    for i in nonreal:
        if i not in unmatched:
            continue
        unmatched.discard(i)
        target = vals[i].conjugate()
        best = None
        best_d = np.inf
        for j in unmatched:
            d = abs(vals[j] - target)
            if d < best_d:
                best, best_d = j, d
        if best is None or best_d > tol:
            raise InputError(
                f"spectrum is not closed under conjugation: no partner for {vals[i]}")
        unmatched.discard(best)
    return vals


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
    masks = subset_masks(n, m)
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


def niep_shaped(i: int) -> dict:
    """One directory ``niep-screen`` report entry, with made-up values."""
    return {"all_pass": i % 3 > 0, "conditions": {
        name: {"margin": i / 7 - 100.0, "note": "verified for k <= 20", "status": "pass",
               "witness": [i % 5, 2]}
        for name in ("jll", "laffey_meehan", "moments", "newton_shift")},
        "file": f"s{i:05d}.json", "n": 3 + i % 10,
        "params": {"jll_bound": 30, "moment_k": 20, "tol": 1e-09}}


def expansion_identity_check(sums: MinorPairSums, m: int, tol: float = 1e-9) -> bool:
    """Verify the two square-expansion identities at index m.

    ``c_m^2`` equals the total (m, m) pair sum over C(n,m)^2, and
    ``c_{m-1} c_{m+1}`` equals the total (m+1, m-1) pair sum over
    C(n,m+1) C(n,m-1).  Both are algebraic identities valid for every
    real matrix; the left sides travel through the eigenvalues and the
    spectrum recurrence, so this doubles as a cross-route consistency check.
    """
    n = sums.n
    if not 1 <= m <= n - 1:
        raise InputError(f"need 1 <= m <= n-1, got m = {m} with n = {n}")
    c = normalized_coeffs(sums.matrix)
    lhs_sq = c[m] ** 2
    rhs_sq = float(sums.profile(m, m).sum()) / math.comb(n, m) ** 2
    lhs_cross = c[m - 1] * c[m + 1]
    rhs_cross = (float(sums.profile(m + 1, m - 1).sum())
                 / (math.comb(n, m + 1) * math.comb(n, m - 1)))
    ok_sq = abs(lhs_sq - rhs_sq) <= tol * max(1.0, abs(lhs_sq), abs(rhs_sq))
    ok_cross = abs(lhs_cross - rhs_cross) <= tol * max(1.0, abs(lhs_cross), abs(rhs_cross))
    return ok_sq and ok_cross


# Real 10-tuple with zero first and third moments, positive even moments.
BASE_TEN_TUPLE = (3.0, 1.0, 1.0, 1.0, 1.0, 1.0, -2.0, -2.0, -2.0, -2.0)
# Tangent direction solving 9 t1 + t2 + 4 t3 = 0 with positive component sum;
# one valid choice among many, fixed for reproducibility.  Only t1 and t2
# are applied: the seventh entry is solved for exactly, with tangent t3.
PERTURBATION_DIRECTION = (-1.0, 13.0, -1.0)
_CUBE_SUM_TARGET = 20.0


def construct_perturbed(eps: float) -> np.ndarray:
    """Real 10-tuple with positive first moment and vanishing third moment.

    Moves the first and second entries of the base tuple by ``eps`` times
    the fixed direction, then sets the seventh entry to the real cube root
    that restores the cube sum (3+t1)^3 + (1+t2)^3 + x^3 = 20 of the three
    moved entries (residual <= 1e-13).  This pins the third moment of the
    full tuple to (numerical) zero while keeping the first positive.  The
    result passes the moment and shifted-Newton conditions but violates
    the power-sum comparison at (k, m) = (1, 3).
    """
    if not 0.0 < eps <= 1e-2:
        raise InputError("eps must lie in (0, 1e-2]")
    t1, t2 = eps * PERTURBATION_DIRECTION[0], eps * PERTURBATION_DIRECTION[1]
    out = np.array(BASE_TEN_TUPLE)
    out[0] += t1
    out[1] += t2
    out[6] = np.cbrt(_CUBE_SUM_TARGET - (3.0 + t1) ** 3 - (1.0 + t2) ** 3)
    return out


def quadratic_apply(form: FormMatrix, t) -> float:
    """Evaluate the quadratic form t^T F t in the colex basis.

    With ``t = principal_minors_all(A, m)`` and the psi kind this is the quantity
    whose nonnegativity forces the corresponding Newton margin.
    """
    vec = np.asarray(t, dtype=float).ravel()
    if vec.size != form.dim:
        raise InputError(f"vector length {vec.size} does not match form dimension {form.dim}")
    return float(vec @ form.entries @ vec)
