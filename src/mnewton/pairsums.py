"""Sums of principal-minor products over subset pairs with fixed sizes and overlap.

The central quantity is ``sum A[alpha] * A[beta]`` over *ordered* pairs of
index sets with ``|alpha| = m1``, ``|beta| = m2`` and ``|alpha & beta| = k``.
The ordered-pair convention is what makes the square-expansion identities
in :func:`expansion_identity_check` come out exactly; it is fixed globally.

The split checks and the expansion identity read only the
:class:`MinorPairSums` they are given; both split forms return a
:class:`SplitReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .charcoeff import normalized_coeffs
from .errors import InputError
from .linalg import as_matrix, principal_minors_by_mask


def feasible_pair_params(n: int, m1: int, m2: int, k: int) -> bool:
    """True iff subset pairs with sizes (m1, m2) and overlap k exist in {1..n}."""
    return (0 <= k <= min(m1, m2)
            and max(m1, m2) <= n
            and m1 + m2 - k <= n)


def identity_pair_count(n: int, m1: int, m2: int, k: int) -> int:
    """Number of ordered subset pairs with sizes (m1, m2) and overlap k.

    This equals the pair sum evaluated on the identity matrix.  Closed
    form ``C(n,k) C(n-k, m1-k) C(n-m1, m2-k)``: choose the overlap, then
    the rest of alpha, then the rest of beta outside alpha.  The general
    form is validated against brute-force enumeration in the test suite.
    Infeasible parameters give 0.
    """
    if not feasible_pair_params(n, m1, m2, k):
        return 0
    return (math.comb(n, k)
            * math.comb(n - k, m1 - k)
            * math.comb(n - m1, m2 - k))


class MinorPairSums:
    """Pair sums of one matrix, from superset sums cached per size.

    A profile is computed by binomial moments instead of over the
    C(n,m1)*C(n,m2) subset pairs.  With the up-sums
    ``U_x(g) = sum of x[alpha] over alpha containing g``, the moments
    ``S_t = sum over |g| = t of U_x(g) U_y(g)`` satisfy
    ``S_t = sum_k C(k,t) P_k``, and the binomial inversion
    ``P_k = sum_{t>=k} (-1)^(t-k) C(t,k) S_t`` gives the overlap profile
    P.  All 2^n minors come from one Schur-complement tree, indexed by
    bitmask and built with the object, so the kernel's cap of
    ``linalg.MINOR_CAP`` = 2^22 minors per call limits n to 22: a larger
    matrix raises InputError before anything is allocated.  The up-sums of
    size m live in one array of 2^n floats: the size-m minors sit at the
    masks of popcount m, and one superset-sum (Yates zeta) pass,
    ``f[mask] += f[mask | bit]`` for each bit, counts
    every superset once in n*2^(n-1) additions.  Transforming size m keeps
    only the cached sizes within one of m, so at most three are held, and
    the split checks, walking m upward, transform each size once; every
    reduction runs in a fixed order, so repeated runs produce bit-identical
    sums.
    """

    def __init__(self, a):
        self.matrix = as_matrix(a)
        self.n = self.matrix.shape[0]
        # an overflowing minor surfaces as profile's InputError, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            self._minors = principal_minors_by_mask(self.matrix)
        self._sizes = np.bitwise_count(np.arange(1 << self.n))   # popcount of each mask
        self._ups: dict[int, np.ndarray] = {}
        self._profiles: dict[tuple[int, int], np.ndarray] = {}

    def _up_sums(self, m: int) -> np.ndarray:
        """U(g) = sum of the size-m minors over the supersets of g, at every mask g."""
        if m not in self._ups:
            u = np.where(self._sizes == m, self._minors, 0.0)
            for i in range(self.n):
                v = u.reshape(-1, 2, 1 << i)
                v[:, 0] += v[:, 1]
            self._ups = {s: w for s, w in self._ups.items() if abs(s - m) <= 1}
            self._ups[m] = u
        return self._ups[m]

    def profile(self, m1: int, m2: int) -> np.ndarray:
        """Vector of pair sums for every overlap k = 0..min(m1, m2).

        Overlaps below max(0, m1 + m2 - n) are infeasible and give exactly 0.0.
        """
        if not (0 <= m1 <= self.n and 0 <= m2 <= self.n):
            return np.zeros(max(min(m1, m2) + 1, 0))
        key = (m1, m2)
        if key not in self._profiles:
            kmin, kmax = max(0, m1 + m2 - self.n), min(m1, m2)
            low = self._up_sums(min(m1, m2))     # before the larger size evicts it
            prod = low * self._up_sums(max(m1, m2))
            moments = {t: float(prod[self._sizes == t].sum()) for t in range(kmin, kmax + 1)}
            if not all(map(math.isfinite, moments.values())):
                raise InputError(f"pair sums of sizes ({m1}, {m2}) overflow")
            exact = {t: Fraction(v) for t, v in moments.items()}
            out = np.zeros(kmax + 1)
            for k in range(kmin, kmax + 1):
                out[k] = float(sum((-1) ** (t - k) * math.comb(t, k) * exact[t]
                                   for t in range(k, kmax + 1)))
            self._profiles[key] = out
        return self._profiles[key]

    def value(self, m1: int, m2: int, k: int) -> float:
        """Pair sum for one (m1, m2, k); infeasible parameters give 0 (empty sum)."""
        if not feasible_pair_params(self.n, m1, m2, k):
            return 0.0
        return float(self.profile(m1, m2)[k])


@dataclass(frozen=True)
class SplitReport:
    m: int
    k: int          # the overlap (j in the pointwise form)
    lhs: float      # (m, m) side
    rhs: float      # (m+1, m-1) side
    margin: float   # lhs - rhs
    scale: float    # max(|lhs|, |rhs|)
    holds: bool     # margin >= -tol * scale, so a zero margin holds


def _split(m: int, k: int, lhs: float, rhs: float, tol: float) -> SplitReport:
    margin = lhs - rhs
    scale = max(abs(lhs), abs(rhs))
    return SplitReport(m, k, lhs, rhs, margin, scale, margin >= -tol * scale)


def ratio_check(sums: MinorPairSums, m: int, k: int, tol: float = 1e-9) -> SplitReport:
    """Compare identity-normalized pair sums of the (m, m) and (m+1, m-1) splits.

    A nonnegative margin at every feasible (m, k) is the inequality that
    M- and inverse-M matrices satisfy; the checker runs on any input and
    reports the margin either way.  The verdict is scale-free: the margin
    is judged against ``tol * max(|lhs|, |rhs|)``, so it does not change
    under A -> sA, and a margin of exactly 0 holds.
    """
    n = sums.n
    if not (0 <= k < m < n):
        raise InputError(f"need 0 <= k < m < n, got (m, k) = ({m}, {k}) with n = {n}")
    d1 = identity_pair_count(n, m, m, k)
    d2 = identity_pair_count(n, m + 1, m - 1, k)
    if d1 == 0 or d2 == 0:
        raise InputError(
            f"(m, k) = ({m}, {k}) is infeasible for n = {n}: identity pair count is zero")
    return _split(m, k, sums.value(m, m, k) / d1, sums.value(m + 1, m - 1, k) / d2, tol)


def pointwise_check(sums: MinorPairSums, m: int, j: int, tol: float = 1e-9) -> SplitReport:
    """Un-normalized counted form of the same split comparison at one overlap j:
    (m-j) * pair_sum(m, m, j) >= (m-j+1) * pair_sum(m+1, m-1, j)."""
    n = sums.n
    if not (0 <= j <= m <= n - 1):
        raise InputError(f"need 0 <= j <= m <= n-1, got (m, j) = ({m}, {j}) with n = {n}")
    return _split(m, j, (m - j) * sums.value(m, m, j),
                  (m - j + 1) * sums.value(m + 1, m - 1, j), tol)


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


def feasible_ratio_params(n: int) -> list[tuple[int, int]]:
    """All (m, k) with 0 <= k < m < n whose identity pair counts are nonzero."""
    return [(m, k) for m in range(1, n) for k in range(m) if 2 * m - k <= n]
